"""The benchmark harness still runs against the program.

`perfbench/run.py --self-check` runs the `game_chain` workload through the
CLI, checks its parsed-back system, controller and bounds digests against
`perfbench/reference.json`, and proves that corrupted files are caught; it
fails when the program drops an attribute or function the harness reads.
The tracer's hooks wrap symtoc functions by name, so a renamed function
would silently lose its per-layer span; the hook test catches that.
"""

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
