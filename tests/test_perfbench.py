"""The benchmark harness still runs against the program.

`perfbench/run.py --self-check` runs the `game_chain` workload through the
CLI, checks its parsed-back system, controller and bounds digests against
`perfbench/reference.json`, and proves that corrupted files are caught; it
fails when the program drops an attribute or function the harness reads.
The tracer's hooks wrap symtoc functions by name, so a renamed function
would silently lose its per-layer span; the hook test catches that, and the
traced worker run catches a change to the results the hooks read.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_self_check_passes():
    done = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--self-check"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "-> ok" in done.stdout


def test_tracer_finds_every_hook():
    code = ("import sys; sys.path[:0] = ['perfbench', 'src']; import tracer; "
            "print(tracer.install(tracer.Tracer(), tracer.Capture()))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


TINY_DI = """
model.id = double_integrator
grid.tau = 1
grid.eta = 0.3
grid.mu = 0.1
grid.domain_lower = [-3, -3]
grid.domain_upper = [3, 3]
grid.input_lower = [-1]
grid.input_upper = [1]
target.shape = ball
target.center = [0, 0]
target.radius = 1
obstacle.1.lower = [2, 2]
obstacle.1.upper = [3, 3]
simulate.initial.1 = [1.5, 0]
simulate.initial.2 = [-2.0, 1.0]
simulate.max_steps = 50
"""


def test_traced_worker_counts_every_layer(tmp_path):
    cfg = tmp_path / "di.cfg"
    cfg.write_text(TINY_DI)
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "worker.py"), "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--result", str(tmp_path / "result.json"),
         "--trace", str(tmp_path / "spans.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "result.json") as fh:
        result = json.load(fh)
    assert result["missing_hooks"] == []
    assert [run["rc"] for run in result["runs"]] == [0, 0, 0]
    layers = result["layers"]
    assert layers["refine.steps"] > 0 and layers["refine.certified"] == 2
    # every simulated step advances exactly one state through the hooked integrate
    assert layers["dynamics.points"] == layers["refine.steps"]
    # the timed spans too: a bound or target cover routed through another
    # function would read 0 here rather than vanish from the report
    for key in ("synthesis.safe_states", "synthesis.pessimistic_levels",
                "abstraction.transitions", "dynamics.integrate_calls",
                "dynamics.radius_s", "abstraction.target_cover_s"):
        assert layers[key] > 0, key
