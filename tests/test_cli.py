import contextlib
import errno
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symtoc import (FiniteSystem, GridSpec, StateSet, extract_controller, solve_optimistic,
                    solve_pessimistic)
from symtoc import cli, formats
from symtoc.config import ConfigError, parse_config_text
from symtoc.dynamics import MODEL_REGISTRY, Model

from helpers import (build_system, enabled, line_grid, line_grid_meta, make_boxes, make_system,
                     parse_plot, parse_trace, random_boxes)

DI_CONFIG = """
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
simulate.initial.1 = [1.5, 0]
simulate.initial.2 = [-2.0, 1.0]
simulate.max_steps = 50
"""

# the target box is cell 2's closed box: its inner cover is cell 2, its outer
# cover also cell 1, whose box touches it
CHAIN_CONFIG = """
target.lower = [1.5]
target.upper = [2.5]
output.system = chain.sts
output.controller = chain.ctl
output.bounds = chain_bounds.csv
output.plot = chain_plot.csv
"""


CHAIN_GRID = line_grid(3, 1)


def chain_system():
    return make_system(3, 1, {(0, 0): [1], (1, 0): [2]})


def chain_boxes():
    """chain_system's successors as boxes on CHAIN_GRID."""
    return make_boxes(CHAIN_GRID, {(0, 0): (1, 1), (1, 0): (2, 1)})


# -- config parsing -------------------------------------------------------

def test_config_parses_grid_and_target():
    cfg = parse_config_text(DI_CONFIG)
    assert cfg.model_id == "double_integrator"
    assert cfg.grid.num_cells == 21 * 21
    assert cfg.target is not None
    assert len(cfg.initial_states) == 2
    assert cfg.max_steps == 50
    assert cfg.outputs["system"] == "double_integrator.sts"


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(DI_CONFIG + "\ngrid.spacing = 3\n")


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config_text("grid.tau = fast\ngrid.eta = 0.1\ngrid.mu = 0.1\n"
                          "grid.domain_lower = [0]\ngrid.domain_upper = [1]\n"
                          "grid.input_lower = [0]\ngrid.input_upper = [1]\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("simulate.max_steps = 3\nsimulate.max_steps = 4\n")
    with pytest.raises(ConfigError, match="unknown model"):
        parse_config_text("model.id = rocket\n")
    with pytest.raises(ConfigError, match="unknown key 'simulate.policy'"):
        parse_config_text("simulate.policy = greedy\n")
    with pytest.raises(ConfigError, match="dimension"):
        parse_config_text(DI_CONFIG + "\nobstacle.1.lower = [0]\nobstacle.1.upper = [1]\n")


@pytest.mark.parametrize("text, line, key", [
    ("target.states = [2]\n", 1, "target.states"),
    ("target.shape = box\ntarget.states = [2]\n", 2, "target.states"),
    ("obstacle.1.lower = [0]\nobstacle.1.states = [2]\n", 2, "obstacle.1.states"),
])
def test_unknown_member_key_is_named_before_missing_box_keys(text, line, key):
    # a key that no member shape takes, such as the removed `target.states`, is
    # named, rather than the box keys it leaves missing
    with pytest.raises(ConfigError, match=re.escape(f"line {line}: unknown key '{key}'")):
        parse_config_text(text)


def test_config_union_target_and_obstacles():
    text = """
target.shape = union
target.1.shape = box
target.1.lower = [0, 0]
target.1.upper = [1, 1]
target.2.shape = ball
target.2.center = [2, 2]
target.2.radius = 0.5
obstacle.1.lower = [4, 4]
obstacle.1.upper = [5, 5]
"""
    cfg = parse_config_text(text)
    assert len(cfg.target.members) == 2
    assert len(cfg.obstacles.members) == 1


# -- file format round trips ------------------------------------------------

def test_system_round_trip_random(tmp_path):
    rng = np.random.default_rng(8)
    for i in range(20):
        boxes = random_boxes(rng, line_grid(int(rng.integers(1, 13)), int(rng.integers(1, 4))))
        path = tmp_path / f"sys_{i}.sts"
        formats.write_system(path, boxes, timestamp=False)
        parsed, grid = formats.parse_system(path)
        assert (grid.num_cells, grid.num_inputs) == (boxes.num_states, boxes.num_inputs)
        assert parsed == boxes.expand()


def test_system_round_trip_with_grid(tmp_path):
    grid = GridSpec(tau=0.5, eta=[0.2, 0.2, 2 * np.pi / 8], mu=0.25,
                    domain_lower=[0, 0, -np.pi], domain_upper=[1, 1, np.pi],
                    input_lower=[0, -0.5], input_upper=[0.5, 0.5],
                    periodic=(False, False, True))
    s = make_system(grid.num_cells, grid.num_inputs, {(0, 0): [1, 2]})
    path = tmp_path / "gridded.sts"
    formats.write_system(path, make_boxes(grid, {(0, 0): ([0, 0, 1], [1, 1, 2])}),
                         timestamp=False)
    parsed, grid2 = formats.parse_system(path)
    assert parsed == s
    assert grid2.tau == grid.tau
    assert np.array_equal(grid2.eta, grid.eta)
    assert grid2.periodic == grid.periodic
    assert np.array_equal(grid2.domain_upper, grid.domain_upper)


def test_abstract_never_builds_the_csr(tmp_path, monkeypatch):
    # `abstract` writes the boxes of the builder's one pass; only a reader of
    # the system file expands them into a FiniteSystem
    def refuse(*args, **kwargs):
        raise AssertionError("abstract built a FiniteSystem")

    cfg_path = write(tmp_path / "di.cfg", DI_CONFIG)
    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        patch.setattr(FiniteSystem, "from_csr", refuse)
        assert cli.main(["abstract", "--config", cfg_path, "--out", str(out),
                         "--no-timestamp"]) == cli.EXIT_OK
    system, _ = formats.parse_system(out / "double_integrator.sts")
    assert system.num_transitions > 0


@pytest.mark.parametrize("records, line, message", [
    pytest.param("t 0 0 : 1 1\n", 6, "unknown shape 1 of input 0", id="unknown-shape-id"),
    pytest.param("shape 0 1 0\n", 6, "count 0 on axis x1 is not in 1..3", id="zero-count"),
    pytest.param("shape 0 1 4\n", 6, "count 4 on axis x1 is not in 1..3", id="count-above-axis"),
    pytest.param("t 0 0 : 3 0\n", 6, "start 3 on axis x1 off the grid's 3 cells",
                 id="start-off-the-grid"),
    pytest.param("shape 0 1 2\nt 0 0 : 2 1\n", 7, "box past the grid's edge on axis x1",
                 id="box-past-the-edge"),
    pytest.param("t 1 0 : 2 0\nt 1 0 : 2 0\n", 7,
                 "record of cell 1 and input 0 repeated or out of order (records ascend by "
                 "input, then by cell)", id="repeated-record"),
    pytest.param("t 1 0 : 2 0\nt 0 0 : 1 0\n", 7,
                 "record of cell 0 and input 0 repeated or out of order (records ascend by "
                 "input, then by cell)", id="out-of-order"),
])
def test_malformed_box_records_exit_2_with_their_line(tmp_path, capsys, records, line, message):
    cfg_path = write(tmp_path / "chain.cfg", CHAIN_CONFIG)
    out = str(tmp_path / "out")
    os.makedirs(out)
    write(os.path.join(out, "chain.sts"),
          f"STS2\n{line_grid_meta(3, 1)}states 3\ninputs 1\nshape 0 0 1\n{records}")
    for command in ("synthesize", "bounds"):
        assert cli.main([command, "--config", cfg_path, "--out", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: line {line}: {message}\n"


def test_sts1_and_shapeless_records_exit_2(tmp_path, capsys):
    cfg_path = write(tmp_path / "chain.cfg", CHAIN_CONFIG)
    sts1 = write(tmp_path / "old.sts", f"STS1\n{line_grid_meta(3, 1)}states 3\ninputs 1\n"
                                       "t 0 0 : 1\nt 1 0 : 2\n")
    early = write(tmp_path / "early.sts", f"STS2\n{line_grid_meta(3, 1)}states 3\ninputs 1\n"
                                          "t 0 0 : 1 0\nshape 0 0 1\n")
    for path, err in ((sts1, "error: not an STS2 file (header 'STS1')\n"),
                      (early, "error: line 5: record before the shape lines of input 0\n")):
        assert cli.main(["synthesize", "--config", cfg_path, "--system", path,
                         "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == err


def test_controller_round_trip(tmp_path):
    s = chain_system()
    W = StateSet(3, [2])
    ctrl = extract_controller(s, W, solve_pessimistic(s, W))
    path = tmp_path / "chain.ctl"
    formats.write_controller(path, ctrl, CHAIN_GRID, timestamp=False)
    parsed, _ = formats.parse_controller(path)
    assert np.array_equal(parsed.levels, ctrl.levels)
    assert np.array_equal(parsed.offsets, ctrl.offsets)
    assert np.array_equal(parsed.enabled_inputs_flat, ctrl.enabled_inputs_flat)
    assert np.array_equal(parsed.worst_values_flat, ctrl.worst_values_flat)


def test_bounds_round_trip(tmp_path):
    s = chain_system()
    W = StateSet(3, [2])
    lower = solve_optimistic(s, W)
    upper = extract_controller(s, W, solve_pessimistic(s, W))
    path = tmp_path / "bounds.csv"
    formats.write_bounds(path, lower, upper, timestamp=False)
    lo, up = formats.parse_bounds(path)
    assert lo.tolist() == [2, 1, 0]
    assert up.tolist() == [2, 1, 0]


def test_trace_and_plot_round_trip(tmp_path):
    from symtoc import (GridSpec as GS, RefinedController, TargetSpec,
                        double_integrator, simulate,
                        target_under)
    model = double_integrator()
    grid = GS(tau=1.0, eta=0.3, mu=0.1, domain_lower=[-3, -3], domain_upper=[3, 3],
              input_lower=[-1], input_upper=[1])
    system, q = build_system(model, grid)
    W = TargetSpec.ball([0, 0], 1.0)
    wu = target_under(grid, W)
    ctrl = extract_controller(system, wu, solve_pessimistic(system, wu))
    rc = RefinedController(ctrl, q)
    trace = simulate(model, rc, np.array([1.5, 0.0]), W, 50)
    path = tmp_path / "trace.csv"
    formats.write_trace(path, trace, grid.dim, grid.input_dim, timestamp=False)
    rows, reason, achieved = parse_trace(path)
    assert reason == trace.reason and achieved == trace.achieved
    assert len(rows) == len(trace.steps)
    for row, step in zip(rows, trace.steps):
        assert row[0] == step.k and row[3] == step.cell and row[4] == step.value
        assert np.allclose(row[1], step.state) and np.allclose(row[2], step.input)
    plot_path = tmp_path / "plot.csv"
    formats.write_plot(plot_path, ctrl, q, timestamp=False)
    header, prows = parse_plot(plot_path)
    assert header == ["x1", "x2", "u1", "value"]
    assert len(prows) == len(ctrl.domain())


def test_parse_rejects_malformed(tmp_path):
    path = tmp_path / "bad.sts"
    path.write_text(f"STS2\n{line_grid_meta(2, 1)}states 2\ninputs 1\nshape 0 0 1\nt 0 0 :\n")
    with pytest.raises(formats.FormatError, match="line 6: malformed transition line"):
        formats.parse_system(path)
    path.write_text("nope\n")
    with pytest.raises(formats.FormatError, match="not an STS2"):
        formats.parse_system(path)


# -- pipelines through main() ----------------------------------------------

def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def test_end_to_end_small_double_integrator(tmp_path):
    cfg_path = write(tmp_path / "di.cfg", DI_CONFIG)
    out = str(tmp_path / "out")
    assert cli.main(["abstract", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    assert cli.main(["simulate", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    assert cli.main(["export-plot", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    for name in ("double_integrator.sts", "double_integrator.ctl",
                 "double_integrator_bounds.csv", "double_integrator_trace_1.csv",
                 "double_integrator_trace_2.csv", "double_integrator_report.csv",
                 "double_integrator_plot.csv"):
        assert os.path.exists(os.path.join(out, name)), name
    report = Path(out, "double_integrator_report.csv").read_text()
    assert "fail" not in report
    trace = Path(out, "double_integrator_trace_1.csv").read_text()
    assert trace.startswith("k,x1,x2,u1,cell,value\n")
    assert "# reason=reached-target achieved=" in trace


def test_pipeline_byte_identical_outputs(tmp_path):
    cfg_path = write(tmp_path / "di.cfg", DI_CONFIG)
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in outs:
        for cmd in ("abstract", "synthesize", "simulate", "export-plot"):
            assert cli.main([cmd, "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    for name in sorted(os.listdir(outs[0])):
        a = Path(outs[0], name).read_bytes()
        b = Path(outs[1], name).read_bytes()
        assert a == b, f"{name} differs between runs"


def test_threads_do_not_change_output(tmp_path):
    cfg_path = write(tmp_path / "di.cfg", DI_CONFIG)
    a, b = str(tmp_path / "t1"), str(tmp_path / "t4")
    assert cli.main(["abstract", "--config", cfg_path, "--out", a, "--no-timestamp"]) == 0
    assert cli.main(["abstract", "--config", cfg_path, "--out", b, "--no-timestamp",
                     "--threads", "4"]) == 0
    fa = Path(a, "double_integrator.sts").read_bytes()
    fb = Path(b, "double_integrator.sts").read_bytes()
    assert fa == fb


def test_explicit_system_pipeline(tmp_path):
    cfg_path = write(tmp_path / "chain.cfg", CHAIN_CONFIG)
    out = str(tmp_path / "out")
    os.makedirs(out)
    formats.write_system(os.path.join(out, "chain.sts"), chain_boxes(),
                         timestamp=False)
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    lo, up = formats.parse_bounds(os.path.join(out, "chain_bounds.csv"))
    assert lo.tolist() == [1, 0, 0]  # the lower bound's target is the outer cover
    assert up.tolist() == [2, 1, 0]
    assert cli.main(["export-plot", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    plot = Path(out, "chain_plot.csv").read_text().strip().splitlines()
    # one row per winning cell: its center, the applied input's value, its value
    assert plot == ["x1,u1,value", "0.0,0.0,2", "1.0,0.0,1", "2.0,,0"]


def test_empty_winning_set_exit_code(tmp_path):
    # a target inside cell 2 holds no whole cell, so its inner cover is empty
    cfg_path = write(tmp_path / "empty.cfg",
                     CHAIN_CONFIG.replace("[1.5]", "[1.9]").replace("[2.5]", "[2.1]"))
    out = str(tmp_path / "out")
    os.makedirs(out)
    formats.write_system(os.path.join(out, "chain.sts"), chain_boxes(),
                         timestamp=False)
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out,
                     "--no-timestamp"]) == cli.EXIT_EMPTY_WINNING
    assert cli.main(["export-plot", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    plot = Path(out, "chain_plot.csv").read_text().strip().splitlines()
    assert plot == ["x1,u1,value"]  # header-only


def test_config_error_exit_code(tmp_path):
    cfg_path = write(tmp_path / "bad.cfg", "grid.bogus = 1\n")
    assert cli.main(["abstract", "--config", cfg_path]) == cli.EXIT_CONFIG
    assert cli.main(["abstract", "--config", str(tmp_path / "missing.cfg")]) == cli.EXIT_CONFIG


def test_certification_failure_exit_code(tmp_path):
    cfg_path = write(tmp_path / "di.cfg", DI_CONFIG)
    out = str(tmp_path / "out")
    assert cli.main(["abstract", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    # doctored bounds: lower above any achievable entry time, upper column
    # kept equal to the controller's values
    _, up = formats.parse_bounds(os.path.join(out, "double_integrator_bounds.csv"))
    doctored = os.path.join(out, "doctored.csv")
    with open(doctored, "w") as fh:
        fh.write("state,lower,upper\n")
        for x, u in enumerate(up):
            fh.write(f"{x},50,{formats.fmt_entry_time(u)}\n")
    assert cli.main(["simulate", "--config", cfg_path, "--out", out, "--no-timestamp",
                     "--bounds", doctored]) == cli.EXIT_CERTIFICATION


@pytest.mark.parametrize("line", ["t 0 0 : 5", "t 0 0 : a", "t 0 0 : -1"])
def test_synthesize_malformed_system_exits_2(tmp_path, capsys, line):
    cfg_path = write(tmp_path / "chain.cfg", CHAIN_CONFIG)
    out = str(tmp_path / "out")
    os.makedirs(out)
    write(os.path.join(out, "chain.sts"),
          f"STS2\n{line_grid_meta(3, 1)}states 3\ninputs 1\n{line}\n")
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out]) == cli.EXIT_CONFIG
    assert "error: line 5:" in capsys.readouterr().err


def test_synthesize_system_with_an_initial_line_exits_2(tmp_path, capsys):
    # system files once listed every state on an `initial` header line
    cfg_path = write(tmp_path / "chain.cfg", CHAIN_CONFIG)
    out = str(tmp_path / "out")
    os.makedirs(out)
    initial = "initial " + " ".join(map(str, range(20000)))
    write(os.path.join(out, "chain.sts"),
          f"STS2\n{line_grid_meta(20000, 1)}states 20000\ninputs 1\n{initial}\n"
          "shape 0 0 1\nt 0 0 : 1 0\nt 1 0 : 2 0\n")
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out]) == cli.EXIT_CONFIG
    # one line, naming the line and echoing only the start of it
    assert capsys.readouterr().err == f"error: line 5: unrecognized line '{initial[:40]}...'\n"
    assert not os.path.exists(os.path.join(out, "chain.ctl"))


def test_gridless_system_and_controller_exit_2(tmp_path, capsys):
    # without a grid a file defines no abstraction relation to the plant
    cfg_path = write(tmp_path / "chain.cfg", CHAIN_CONFIG)
    sts = write(tmp_path / "chain.sts",
                "STS2\nstates 3\ninputs 1\nshape 0 0 1\nt 0 0 : 1 0\nt 1 0 : 2 0\n")
    ctl = write(tmp_path / "chain.ctl", "CTL1\nstates 3\ninputs 1\nc 0 2 : 0\nc 1 1 : 0\nc 2 0 :\n")
    for argv in (["synthesize", "--system", sts], ["bounds", "--system", sts],
                 ["simulate", "--controller", ctl], ["export-plot", "--controller", ctl]):
        out = str(tmp_path / argv[0])
        assert cli.main([*argv, "--config", cfg_path, "--out", out]) == cli.EXIT_CONFIG, argv
        assert capsys.readouterr().err == ("error: no '# grid:' metadata: symtoc reads "
                                           "gridded systems only\n"), argv


@pytest.mark.parametrize("text, message", [
    pytest.param("target.shape = states\ntarget.states = [2]\n",
                 "error: key 'target.shape': unknown shape 'states'\n", id="target-states"),
    pytest.param("target.lower = [1.5]\ntarget.upper = [2.5]\nunsafe.states = [1]\n",
                 "error: line 3: unknown key 'unsafe.states'\n", id="unsafe-states"),
])
def test_state_id_targets_and_unsafe_sets_exit_2(tmp_path, capsys, text, message):
    # targets and obstacles are regions of the grid, not lists of state ids
    cfg_path = write(tmp_path / "chain.cfg", text)
    sts = str(tmp_path / "chain.sts")
    formats.write_system(sts, chain_boxes(), timestamp=False)
    for command in ("synthesize", "bounds"):
        assert cli.main([command, "--config", cfg_path, "--system", sts,
                         "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""


def test_simulate_bounds_from_other_grid_exits_2(tmp_path, capsys):
    cfg_path = write(tmp_path / "di.cfg", DI_CONFIG)
    out = str(tmp_path / "out")
    assert cli.main(["abstract", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    other = write(tmp_path / "other.csv",
                  "state,lower,upper\n" + "".join(f"{x},1,2\n" for x in range(100)))
    assert cli.main(["simulate", "--config", cfg_path, "--out", out, "--no-timestamp",
                     "--bounds", other]) == cli.EXIT_CONFIG
    assert "covers 100 states, the controller 441" in capsys.readouterr().err


@pytest.mark.parametrize("rows, message", [
    ([0, 1, 1, 2], "line 4: duplicate bounds state"),
    ([0, 2, 3], "line 3: no row for state 1 before state 2"),
])
def test_simulate_bounds_with_duplicate_or_missing_rows_exits_2(tmp_path, capsys, rows, message):
    cfg_path = write(tmp_path / "di.cfg", DI_CONFIG)
    out = str(tmp_path / "out")
    assert cli.main(["abstract", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    rows = rows + list(range(max(rows) + 1, 21 * 21))
    bad = write(tmp_path / "bad.csv", "state,lower,upper\n" + "".join(f"{x},1,2\n" for x in rows))
    assert cli.main(["simulate", "--config", cfg_path, "--out", out, "--no-timestamp",
                     "--bounds", bad]) == cli.EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("c 0 0 : 1", "line 4: target state with inputs"),
    ("c 2 1 : 1 1", "line 4: inputs not strictly ascending"),
])
def test_simulate_and_export_plot_reject_impossible_controller_rows(tmp_path, capsys, row, message):
    cfg_path = write(tmp_path / "di.cfg", DI_CONFIG)
    bad = write(tmp_path / "bad.ctl", f"CTL1\nstates 3\ninputs 2\n{row}\n{line_grid_meta(3, 2)}")
    for command in ("simulate", "export-plot"):
        assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "out"),
                         "--controller", bad]) == cli.EXIT_CONFIG
        assert f"error: {message}" in capsys.readouterr().err


def test_simulate_bounds_with_other_upper_column_exits_2(tmp_path, capsys):
    cfg_path = write(tmp_path / "di.cfg", DI_CONFIG)
    out = str(tmp_path / "out")
    assert cli.main(["abstract", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    lo, up = formats.parse_bounds(os.path.join(out, "double_integrator_bounds.csv"))
    x = int(np.flatnonzero(np.isfinite(up))[3])
    rows = [f"{s},{formats.fmt_entry_time(a)},{formats.fmt_entry_time(b + (s == x))}\n"
            for s, (a, b) in enumerate(zip(lo, up))]
    bad = write(tmp_path / "bad.csv", "state,lower,upper\n" + "".join(rows))
    assert cli.main(["simulate", "--config", cfg_path, "--out", out, "--no-timestamp",
                     "--bounds", bad]) == cli.EXIT_CONFIG
    assert (f"upper bound of state {x} is {int(up[x]) + 1}, the controller's value {int(up[x])}"
            in capsys.readouterr().err)


def test_bounds_with_initial_state_outside_the_grid_exits_2(tmp_path, capsys):
    cfg_path = write(tmp_path / "di.cfg", DI_CONFIG + "simulate.initial.3 = [10, 0]\n")
    out = str(tmp_path / "out")
    assert cli.main(["abstract", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    assert cli.main(["bounds", "--config", cfg_path, "--out", out]) == cli.EXIT_CONFIG
    assert "error: key 'simulate.initial.3': state [10.0, 0.0] outside gridded domain" \
        in capsys.readouterr().err


def test_gapped_initial_keys_keep_their_numbers(tmp_path, capsys):
    gapped = DI_CONFIG.replace("simulate.initial.2", "simulate.initial.5")
    with pytest.raises(ConfigError, match=r"key 'simulate\.initial\.5' has wrong dimension"):
        parse_config_text(gapped.replace("[-2.0, 1.0]", "[1]"))
    assert list(parse_config_text(gapped).initial_states) == [1, 5]
    with pytest.raises(ConfigError, match=r"unknown key 'simulate\.initial\.05'"):
        parse_config_text(DI_CONFIG + "simulate.initial.05 = [1, 1]\n")
    cfg_path = write(tmp_path / "di.cfg", gapped)
    out = str(tmp_path / "out")
    for command in ("abstract", "synthesize", "simulate"):
        assert cli.main([command, "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    traces = sorted(f for f in os.listdir(out) if "_trace_" in f)
    assert traces == ["double_integrator_trace_1.csv", "double_integrator_trace_5.csv"]
    with open(os.path.join(out, "double_integrator_report.csv")) as fh:
        assert [row.split(",")[0] for row in fh.read().splitlines()[1:]] == ["1", "5"]
    far = write(tmp_path / "far.cfg", gapped.replace("[-2.0, 1.0]", "[10, 0]"))
    capsys.readouterr()
    assert cli.main(["bounds", "--config", far, "--out", out]) == cli.EXIT_CONFIG
    assert "error: key 'simulate.initial.5': state [10.0, 0.0] outside gridded domain" \
        in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("grid.eta = 0.3", "grid.eta = [nan, 0.5]"),
    ("grid.domain_upper = [3, 3]", "grid.domain_upper = [inf, 3]"),
    ("grid.input_upper = [1]", "grid.input_upper = [inf]"),
    ("grid.tau = 1", "grid.tau = 1e999"),
    ("simulate.max_steps = 50", "simulate.max_steps = -inf"),
    ("simulate.initial.2 = [-2.0, 1.0]", "simulate.initial.2 = [-2.0, NaN]"),
])
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, old, new):
    text = DI_CONFIG.replace(old, new)
    lineno = text.splitlines().index(new) + 1
    cfg_path = write(tmp_path / "di.cfg", text)
    for command in ("abstract", "simulate", "bounds"):
        assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert f"error: line {lineno}: non-finite number in" in capsys.readouterr().err


def test_unicycle_nan_heading_start_exits_2(tmp_path, capsys):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "configs", "unicycle.cfg")) as fh:
        text = fh.read().replace("simulate.initial.1 = [1.5, 1, 0]",
                                 "simulate.initial.1 = [1.5, 1, nan]")
    cfg_path = write(tmp_path / "uni.cfg", text)
    for command in ("simulate", "bounds"):
        assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "non-finite number in '[1.5, 1, nan]'" in capsys.readouterr().err


@pytest.mark.parametrize("lower, upper, span", [
    ("-1", "1", "2"), ("0", "3.141592653589793", "3.14159"), ("-3.14159", "3.14159", "6.28318")])
def test_angular_axis_must_span_one_turn(tmp_path, capsys, lower, upper, span):
    # headings a span apart would be one state on a circle of that period
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "configs", "unicycle.cfg")) as fh:
        text = fh.read().replace("grid.mu = 0.1", "grid.mu = 0.5") \
                        .replace("-3.141592653589793]", f"{lower}]", 1) \
                        .replace("3.141592653589793]", f"{upper}]", 1)
    message = f"grid: angular axis x3 spans {span}, not one turn (2*pi)"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_text(text)
    cfg_path = write(tmp_path / "uni.cfg", text)
    assert cli.main(["abstract", "--config", cfg_path, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


def _shipped_config(name):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "configs", f"{name}.cfg")) as fh:
        return fh.read()


@pytest.mark.parametrize("name", ["double_integrator", "unicycle"])
def test_config_keys_and_values_of_the_wrong_kind_are_config_errors(tmp_path, capsys, name):
    # every key with a suffix, and every value swapped for one of the wrong
    # kind, parses or raises ConfigError: never another exception
    lines = _shipped_config(name).splitlines()
    variants = []
    for i, line in enumerate(lines):
        if "=" in line and not line.startswith("#"):
            key, _, value = line.partition(" = ")
            variants += [(i, f"{key}{suffix} = {value}") for suffix in (".x", ".1")]
            variants += [(i, f"{key} = {wrong}")
                         for wrong in ("abc", "true", "[]", "[1]", "[1, 2, 3, 4]", "1e400")]
    def mutated(i, new):
        return "\n".join(lines[:i] + [new] + lines[i + 1:]) + "\n"

    faults = []
    for i, new in variants:
        try:
            parse_config_text(mutated(i, new))
        except ConfigError:
            pass
        except Exception as e:  # any other exception is the fault sought
            faults.append(f"{new}: {e!r}")
    assert faults == []
    # a start key with a suffix, and a domain bound too short for the model
    start = next(i for i, line in enumerate(lines) if line.startswith("simulate.initial."))
    upper = next(i for i, line in enumerate(lines) if line.startswith("grid.domain_upper"))
    for i, new in [(start, lines[start].replace(" =", ".x =", 1)),
                   (upper, "grid.domain_upper = [1]")]:
        cfg_path = write(tmp_path / "bad.cfg", mutated(i, new))
        assert cli.main(["abstract", "--config", cfg_path, "--out", str(tmp_path)]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    cfg_path = write(tmp_path / "di.cfg", DI_CONFIG)
    out = str(tmp_path / "out")
    assert cli.main(["abstract", "--config", cfg_path, "--out", out,
                     "--threads", threads]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: --threads must be at least 1, got {threads}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("wrap, codes", [("1", (cli.EXIT_EMPTY_WINNING, cli.EXIT_CERTIFICATION)),
                                         ("0", (cli.EXIT_CONFIG, cli.EXIT_CONFIG))])
def test_artifact_grid_must_wrap_the_model_heading(tmp_path, capsys, wrap, codes):
    # artifacts on a small unicycle grid, its heading axis wrapping or not (4
    # heading cells either way): the unicycle config rejects the unwrapped one
    grid = GridSpec(tau=0.5, eta=[1, 1, 2], mu=0.5,
                    domain_lower=[0, 0, -np.pi], domain_upper=[1, 1, np.pi],
                    input_lower=[0, -0.5], input_upper=[0.5, 0.5],
                    periodic=(False, False, True))
    s = make_system(grid.num_cells, grid.num_inputs, {})
    W = StateSet(grid.num_cells, [0])
    sts, ctl = tmp_path / "uni.sts", tmp_path / "uni.ctl"
    formats.write_system(sts, make_boxes(grid), timestamp=False)
    formats.write_controller(ctl, extract_controller(s, W, solve_pessimistic(s, W)),
                             grid=grid, timestamp=False)
    for path in (sts, ctl):
        path.write_text(path.read_text().replace("periodic=[0,0,1]", f"periodic=[0,0,{wrap}]"))
    cfg_path = write(tmp_path / "uni.cfg", _shipped_config("unicycle"))
    for (command, option, path), code in zip((("synthesize", "--system", sts),
                                              ("simulate", "--controller", ctl)), codes):
        out = str(tmp_path / command)
        assert cli.main([command, "--config", cfg_path, "--out", out, option, str(path)]) == code
        err = capsys.readouterr().err
        if code == cli.EXIT_CONFIG:
            assert err == ("error: grid: axis x3 does not wrap, but model 'unicycle' "
                           "has an angle there\n")


def _run_with_grid_metadata(tmp_path, capsys, entry):
    """Write the chain system and controller with the `# grid:` line that
    starts like `entry` replaced by it; the errors of `synthesize` and
    `simulate` on them."""
    grid = CHAIN_GRID
    cfg_path = write(tmp_path / "chain.cfg", CHAIN_CONFIG)
    out = str(tmp_path / "out")
    os.makedirs(out)
    s = chain_system()
    W = StateSet(3, [2])
    formats.write_system(os.path.join(out, "chain.sts"), chain_boxes(), timestamp=False)
    formats.write_controller(os.path.join(out, "chain.ctl"), extract_controller(
        s, W, solve_pessimistic(s, W)), grid=grid, timestamp=False)
    key = entry.split("=")[0]
    errors = []
    for name, command in (("chain.sts", "synthesize"), ("chain.ctl", "simulate")):
        path = os.path.join(out, name)
        with open(path) as fh:
            lines = [f"# grid: {entry}" if line.startswith(f"# grid: {key}=") else line
                     for line in fh.read().splitlines()]
        write(path, "\n".join(lines) + "\n")
        assert cli.main([command, "--config", cfg_path, "--out", out]) == cli.EXIT_CONFIG
        errors.append(capsys.readouterr().err)
    return errors


@pytest.mark.parametrize("entry", ["eta=[nan]", "tau=nan mu=1.0", "domain_upper=[inf]"])
def test_non_finite_grid_metadata_exits_2(tmp_path, capsys, entry):
    for err in _run_with_grid_metadata(tmp_path, capsys, entry):
        assert "error: bad grid metadata: tau, eta, mu and the bounds must be finite" in err


@pytest.mark.parametrize("entry, what", [
    ("eta=[1e-300]", "2e+300 cells"),
    ("domain_upper=[3e9]", "3e+09 cells"),
    ("input_upper=[1e10]", "1e+10 inputs"),
])
def test_grid_metadata_past_int32_ids_exits_2(tmp_path, capsys, entry, what):
    for err in _run_with_grid_metadata(tmp_path, capsys, entry):
        assert f"error: bad grid metadata: {what}, but state and input ids are int32" in err


@pytest.mark.parametrize("entry, message", [
    ("tau=1.0 mu=1.0 tau=5.0", "repeated grid key 'tau'"),  # simulate would step 5.0
    ("tau=1.0 mu=1.0 bogus=7", "unknown grid key 'bogus'"),
    ("tau=1.0 mu=1.0 bogus", "bad grid metadata token 'bogus'"),
])
def test_repeated_unknown_or_bad_grid_keys_exit_2(tmp_path, capsys, entry, message):
    for err in _run_with_grid_metadata(tmp_path, capsys, entry):
        assert err == f"error: line 2: {message}\n"


def test_grid_metadata_input_count_must_match_the_header(tmp_path, capsys):
    # six grid inputs against `inputs 1`: simulate would index past the grid inputs
    for err in _run_with_grid_metadata(tmp_path, capsys, "input_upper=[5]"):
        assert "error: grid metadata input count does not match the input count" in err


@pytest.mark.parametrize("old, new, what", [
    ("grid.eta = 0.3", "grid.eta = 1e-300", "inf cells"),  # the product overflows
    ("grid.eta = 0.3", "grid.eta = 1e-7", "3.6e+15 cells"),
    ("grid.eta = 0.3", "grid.eta = [0.3, 1e-9]", "1.26e+11 cells"),
    ("grid.mu = 0.1", "grid.mu = 1e-300", "2e+300 inputs"),
])
def test_grid_past_int32_ids_exits_2(tmp_path, capsys, old, new, what):
    cfg_path = write(tmp_path / "di.cfg", DI_CONFIG.replace(old, new))
    out = str(tmp_path / "out")
    assert cli.main(["abstract", "--config", cfg_path, "--out", out]) == cli.EXIT_CONFIG
    assert (f"error: grid: {what}, but state and input ids are int32: a grid needs "
            f"fewer than 2^31 {what.split()[1]}") in capsys.readouterr().err
    assert not os.path.exists(out)


def test_domain_past_the_tie_shave_limit_exits_2(tmp_path, capsys):
    # at 1e7 a coordinate rounds by up to 1.9e-9, more than the 1e-9 tie shave
    message = ("domain axis x1 reaches magnitude 1e+07, above 9.01e+06, where rounding "
               "exceeds the 1e-09 tie shave")
    text = DI_CONFIG.replace("grid.domain_lower = [-3, -3]", "grid.domain_lower = [1e7, -3]") \
                    .replace("grid.domain_upper = [3, 3]", "grid.domain_upper = [10000003, 3]")
    cfg_path = write(tmp_path / "far.cfg", text)
    assert cli.main(["abstract", "--config", cfg_path, "--out", str(tmp_path / "out")]) \
        == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: grid: {message}\n"
    for err in _run_with_grid_metadata(tmp_path, capsys, "domain_upper=[1e7]"):
        assert err == f"error: bad grid metadata: {message}\n"


@pytest.mark.parametrize("key, line", [
    ("target.free", "target.free = [0.5]"),
    ("obstacle.1.free", "obstacle.1.free = [0, 1.5]"),
])
def test_fractional_ids_and_axes_exit_2(tmp_path, capsys, key, line):
    text = DI_CONFIG + "obstacle.1.lower = [2, 2]\nobstacle.1.upper = [3, 3]\n" + line + "\n"
    cfg_path = write(tmp_path / "c.cfg", text)
    value = line.split("[")[1].rstrip("]").split(", ")[-1]
    assert cli.main(["synthesize", "--config", cfg_path, "--out", str(tmp_path)]) \
        == cli.EXIT_CONFIG
    assert f"error: key '{key}': {value} is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    pytest.param("target.free = [2]", "key 'target': free axis 2 is not an integer in 0..1",
                 id="free-axis"),
    pytest.param("obstacle.1.lower = [2, 2]\nobstacle.1.upper = [3]",
                 "key 'obstacle.1': box bounds must have equal length", id="unequal-bounds"),
])
def test_bad_target_members_name_the_key(extra, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_text(DI_CONFIG + extra + "\n")


@pytest.fixture(scope="module")
def di_artifacts(tmp_path_factory):
    """The small double integrator abstracted and synthesized."""
    out = str(tmp_path_factory.mktemp("di") / "out")
    cfg_path = write(os.path.join(os.path.dirname(out), "di.cfg"), DI_CONFIG)
    for command in ("abstract", "synthesize"):
        assert cli.main([command, "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    return out


@pytest.mark.parametrize("old, new, commands, message", [
    ("target.center = [0, 0]", "target.center = [0, 0, 0]", ("synthesize", "simulate", "bounds"),
     "keys 'target.*' have wrong dimension 3 (the grid has 2)"),
    ("simulate.max_steps", "obstacle.1.lower = [0]\nobstacle.1.upper = [1]\nsimulate.max_steps",
     ("synthesize", "simulate"), "keys 'obstacle.<k>.*' have wrong dimension 1"),
    ("simulate.initial.2 = [-2.0, 1.0]", "simulate.initial.2 = [-2.0]", ("simulate", "bounds"),
     "key 'simulate.initial.2' has wrong dimension 1 (the grid has 2)"),
])
def test_dimensions_checked_against_the_artifact_grid(di_artifacts, tmp_path, capsys,
                                                      old, new, commands, message):
    gridless = "".join(line + "\n" for line in DI_CONFIG.splitlines()
                       if not line.startswith("grid."))
    cfg_path = write(tmp_path / "di.cfg", gridless.replace(old, new))
    for command in commands:
        assert cli.main([command, "--config", cfg_path, "--out", di_artifacts]) == cli.EXIT_CONFIG
        assert f"error: {message}" in capsys.readouterr().err


def test_commands_create_a_missing_nested_out_directory(di_artifacts, tmp_path):
    cfg_path = write(tmp_path / "di.cfg", DI_CONFIG)
    system = os.path.join(di_artifacts, "double_integrator.sts")
    controller = os.path.join(di_artifacts, "double_integrator.ctl")
    for command, extra, name in [
            ("abstract", [], "double_integrator.sts"),
            ("synthesize", ["--system", system], "double_integrator.ctl"),
            ("simulate", ["--controller", controller], "double_integrator_report.csv"),
            ("export-plot", ["--controller", controller], "double_integrator_plot.csv")]:
        out = str(tmp_path / command / "a" / "b")
        assert cli.main([command, "--config", cfg_path, "--out", out, *extra]) == cli.EXIT_OK
        assert os.path.isfile(os.path.join(out, name)), command


def test_report_spells_a_missing_initial_cell_none(di_artifacts, tmp_path):
    # [10, 0] lies off the grid, so the trace has no initial cell
    text = DI_CONFIG.replace("simulate.initial.2 = [-2.0, 1.0]", "simulate.initial.2 = [10, 0]")
    cfg_path = write(tmp_path / "di.cfg", text)
    assert cli.main(["simulate", "--config", cfg_path, "--out", di_artifacts,
                     "--no-timestamp"]) == cli.EXIT_CERTIFICATION
    rows = Path(di_artifacts, "double_integrator_report.csv").read_text().splitlines()
    assert rows[2] == "2,left-winning-set,none,0,none,inf,0,fail"


MARGIN_CONFIG = """
model.id = drift
grid.tau = 1
grid.eta = 1
grid.mu = 1
grid.domain_lower = [0]
grid.domain_upper = [4]
grid.input_lower = [0]
grid.input_upper = [0]
grid.input_margin = true
target.lower = [0]
target.upper = [1]
"""


@pytest.mark.parametrize("fault", [
    "config-is-a-directory", "system-is-a-directory", "controller-is-a-directory",
    "bounds-is-a-directory", "out-is-a-file", "default-controller-is-a-directory",
    "config-not-utf8", "input-margin-without-sensitivity", "trace-is-a-directory",
])
def test_path_and_config_faults_exit_2_with_one_error_line(fault, di_artifacts, tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.setitem(MODEL_REGISTRY, "drift", lambda: Model(
        "drift", 1, 1, lambda x, u: u + 0 * x, contraction_matrix=[[0.0]]))
    cfg = write(tmp_path / "di.cfg", DI_CONFIG)
    ctl = os.path.join(di_artifacts, "double_integrator.ctl")
    folder, out = str(tmp_path / "folder"), str(tmp_path / "out")
    os.makedirs(folder)
    os.makedirs(os.path.join(folder, "double_integrator.ctl"))
    os.makedirs(os.path.join(out, "double_integrator_trace_1.csv"))
    (tmp_path / "latin1.cfg").write_bytes(DI_CONFIG.encode() + b"# caf\xe9\n")
    # a path fault names the option or config key that gave the path
    is_dir = f"[Errno {errno.EISDIR}] Is a directory"
    argv, message = {
        "config-is-a-directory": (["abstract", "--config", folder],
                                  f"--config: {is_dir}"),
        "system-is-a-directory": (["synthesize", "--config", cfg, "--system", folder],
                                  f"--system: {is_dir}"),
        "controller-is-a-directory": (["simulate", "--config", cfg, "--controller", folder],
                                      f"--controller: {is_dir}"),
        "bounds-is-a-directory": (["simulate", "--config", cfg, "--controller", ctl,
                                   "--bounds", folder], f"--bounds: {is_dir}"),
        "out-is-a-file": (["abstract", "--config", cfg, "--out", cfg],
                          f"--out: [Errno {errno.EEXIST}] File exists"),
        "default-controller-is-a-directory": (
            ["simulate", "--config", cfg, "--out", folder],
            f"output.controller: {is_dir}"),
        "config-not-utf8": (["abstract", "--config", str(tmp_path / "latin1.cfg")],
                            "is not UTF-8 text"),
        "input-margin-without-sensitivity": (
            ["abstract", "--config", write(tmp_path / "drift.cfg", MARGIN_CONFIG)],
            "key 'grid.input_margin': model 'drift' declares no input_sensitivity"),
        "trace-is-a-directory": (["simulate", "--config", cfg, "--controller", ctl],
                                 f"output.trace_prefix: {is_dir}"),
    }[fault]
    if "--out" not in argv:
        argv += ["--out", out]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error:") and message in err
    if "[Errno" in message:
        assert err.startswith(f"error: {message}")


FUZZ_CONFIG = """
model.id = double_integrator
grid.tau = 1
grid.eta = 0.6
grid.mu = 0.5
grid.domain_lower = [-3, -3]
grid.domain_upper = [3, 3]
grid.input_lower = [-1]
grid.input_upper = [1]
target.shape = ball
target.center = [0, 0]
target.radius = 1
obstacle.1.lower = [1.5, 1.5]
obstacle.1.upper = [2.5, 2.5]
simulate.initial.1 = [1.5, 0]
simulate.initial.2 = [-2.0, 1.0]
simulate.max_steps = 20
"""

# the commands that read each file, run on a mutated copy of it (a mutated
# config only in `bounds`, which writes nothing, since its output names and
# step limit could point anywhere)
FUZZ_COMMANDS = {
    "system": [["synthesize", "--system", "{system}"]],
    "controller": [["simulate", "--controller", "{controller}"],
                   ["export-plot", "--controller", "{controller}"]],
    "bounds": [["simulate", "--controller", "{controller}", "--bounds", "{bounds}"]],
    "config": [["bounds", "--system", "{system}"]],
}


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    """A small run's config, system, controller and bounds files by kind, and a
    working directory."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {"config": write(root / "di.cfg", FUZZ_CONFIG)}
    out = root / "out"
    for command in ("abstract", "synthesize"):
        assert cli.main([command, "--config", files["config"], "--out", str(out),
                         "--no-timestamp"]) == 0
    for kind, name in (("system", "double_integrator.sts"),
                       ("controller", "double_integrator.ctl"),
                       ("bounds", "double_integrator_bounds.csv")):
        files[kind] = str(out / name)
    return files, root


def _mutate(data: bytes, edits) -> bytes:
    for op, at, byte in edits:
        i = at % (len(data) + 1)
        if op == "truncate":
            data = data[:i]
        elif op == "insert":
            data = data[:i] + bytes([byte]) + data[i:]
        elif i < len(data):
            data = data[:i] + (bytes([data[i] ^ (1 << byte % 8)]) if op == "flip" else b"") \
                + data[i + 1:]
    return data


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(FUZZ_COMMANDS)),
       edits=st.lists(st.tuples(st.sampled_from(["flip", "delete", "insert", "truncate"]),
                                st.integers(0, 1 << 20), st.integers(0, 255)),
                      min_size=1, max_size=3))
def test_mutated_artifacts_and_configs_exit_2_with_one_error_line(fuzz_run, kind, edits):
    files, root = fuzz_run
    with open(files[kind], "rb") as fh:
        data = _mutate(fh.read(), edits)
    bad = root / f"mutated_{kind}"
    bad.write_bytes(data)
    paths = {**files, kind: str(bad)}
    for command in FUZZ_COMMANDS[kind]:
        argv = [arg.format(**paths) for arg in command]
        argv += ["--config", paths["config"], "--out", str(root / f"out_{kind}")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_EMPTY_WINNING,
                        cli.EXIT_CERTIFICATION), code
        if code == cli.EXIT_CONFIG:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, \
                (argv, data, err.getvalue())


def test_unknown_model_parameter_exits_2(tmp_path, capsys):
    text = DI_CONFIG + "model.param.speed = 0.5\n"
    with pytest.raises(ConfigError, match=r"key 'model\.param\.speed'"):
        parse_config_text(text)
    cfg_path = write(tmp_path / "di.cfg", text)
    assert cli.main(["abstract", "--config", cfg_path, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: key 'model.param.speed': model 'double_integrator'")
    assert "Traceback" not in err


def test_divergent_growth_bound_exits_2(tmp_path, capsys, monkeypatch):
    def blow():
        return Model("blow", 1, 1, lambda x, u: x + u, contraction_matrix=[[1000.0]])
    monkeypatch.setitem(MODEL_REGISTRY, "blow", blow)
    cfg_path = write(tmp_path / "blow.cfg", """
model.id = blow
grid.tau = 1
grid.eta = 1
grid.mu = 1
grid.domain_lower = [0]
grid.domain_upper = [4]
grid.input_lower = [0]
grid.input_upper = [0]
target.lower = [0]
target.upper = [1]
""")
    assert cli.main(["abstract", "--config", cfg_path, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "error: matrix exponential overflow for model 'blow'" in capsys.readouterr().err


@pytest.mark.parametrize("name, code", [("double_integrator", cli.EXIT_CONFIG),
                                        ("unicycle", cli.EXIT_CONFIG)])
def test_huge_sampling_period_never_raises_a_traceback(name, code, tmp_path, capsys):
    # tau*A has a norm near the largest float: scaling it by 2^-s must not
    # overflow computing 2^s. The double integrator's augmented exponential
    # (tau^2/2 in its input integral) then overflows. The unicycle's
    # contraction is nilpotent, so e^{L tau} = I + L tau stays finite, but
    # its heading endpoints theta + omega*tau are far off the circle, where
    # rounding swamps theta: the builder rejects them rather than wrap them.
    message = {"double_integrator": "error: matrix exponential overflow for model "
                                    "'double_integrator'",
               "unicycle": "error: model 'unicycle': an endpoint on periodic axis x3 "
                           "has magnitude 5e+"}[name]
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "configs", f"{name}.cfg")) as fh:
        shipped = fh.read()
    for tau in ("1e308", "1e300"):
        text = shipped.replace("grid.tau = 1\n", f"grid.tau = {tau}\n") \
                      .replace("grid.tau = 0.5\n", f"grid.tau = {tau}\n")
        assert f"grid.tau = {tau}\n" in text
        cfg_path = write(tmp_path / f"{name}.cfg", text)
        assert cli.main(["abstract", "--config", cfg_path, "--out", str(tmp_path)]) == code
        assert message in capsys.readouterr().err


def loaded_by_cli_import(*packages):
    """The modules of `packages` that `import symtoc.cli` loads in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import symtoc.cli, sys; "
         f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_thread_pool():
    # only a build starts threads, so only `abstract` pays for the pool's
    # import (concurrent.futures, which loads logging)
    assert loaded_by_cli_import("concurrent", "logging") == "[]"


def test_unsafe_states_restrict_explicit_system(tmp_path):
    # detour example: an obstacle on cell 1 makes it unsafe, and safety pushes
    # the entry time of cell 3 (the target's inner cover) from 2 to 3
    sys5 = make_boxes(line_grid(5, 2), {(0, 0): (1, 1), (0, 1): (2, 1), (1, 0): (3, 1),
                                        (2, 1): (4, 1), (4, 1): (3, 1), (3, 0): (3, 1)})
    cfg_path = write(tmp_path / "detour.cfg", """
target.lower = [2.5]
target.upper = [3.5]
obstacle.1.lower = [1]
obstacle.1.upper = [1]
output.system = detour.sts
output.controller = detour.ctl
output.bounds = detour_bounds.csv
""")
    out = str(tmp_path / "out")
    os.makedirs(out)
    formats.write_system(os.path.join(out, "detour.sts"), sys5, timestamp=False)
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    lo, up = formats.parse_bounds(os.path.join(out, "detour_bounds.csv"))
    assert up[0] == 3


def test_explicit_branching_bounds(tmp_path):
    # at cell 0 the bounds disagree where nondeterminism bites; at cell 1, which
    # only the lower bound's outer cover of the target holds
    branching = make_boxes(line_grid(3, 2), {(0, 0): (1, 2), (0, 1): (1, 1), (1, 0): (2, 1)})
    cfg_path = write(tmp_path / "branch.cfg", """
target.lower = [1.5]
target.upper = [2.5]
output.system = branch.sts
output.controller = branch.ctl
output.bounds = branch_bounds.csv
""")
    out = str(tmp_path / "out")
    os.makedirs(out)
    formats.write_system(os.path.join(out, "branch.sts"), branching, timestamp=False)
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    lo, up = formats.parse_bounds(os.path.join(out, "branch_bounds.csv"))
    assert lo.tolist() == [1, 0, 0]
    assert up.tolist() == [2, 1, 0]
    ctrl, _ = formats.parse_controller(os.path.join(out, "branch.ctl"))
    assert enabled(ctrl, 0).tolist() == [0, 1]


def test_bounds_command_prints(tmp_path, capsys):
    cfg_path = write(tmp_path / "chain.cfg", CHAIN_CONFIG)
    out = str(tmp_path / "out")
    os.makedirs(out)
    formats.write_system(os.path.join(out, "chain.sts"), chain_boxes(),
                         timestamp=False)
    assert cli.main(["bounds", "--config", cfg_path, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "state,lower,upper" in printed
    assert "0,1,2" in printed


def test_bounds_prints_the_rows_of_the_bounds_file(di_artifacts, tmp_path, capsys):
    table = Path(di_artifacts, "double_integrator_bounds.csv").read_text()
    no_starts = "".join(line + "\n" for line in DI_CONFIG.splitlines()
                        if not line.startswith("simulate.initial."))
    assert cli.main(["bounds", "--config", write(tmp_path / "all.cfg", no_starts),
                     "--out", di_artifacts]) == 0
    assert capsys.readouterr().out == table  # the bytes synthesize --no-timestamp wrote
    # the starts' rows in config order, a repeated start repeated: [1.5, 0] lies
    # in cell 15 * 21 + 10 and [-2, 1] in cell 3 * 21 + 13
    starts = DI_CONFIG + "simulate.initial.3 = [1.5, 0.01]\n"
    assert cli.main(["bounds", "--config", write(tmp_path / "starts.cfg", starts),
                     "--out", di_artifacts]) == 0
    rows = table.splitlines(keepends=True)
    assert capsys.readouterr().out == rows[0] + rows[1 + 325] + rows[1 + 76] + rows[1 + 325]


def test_shipped_configs_parse():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("double_integrator.cfg", "unicycle.cfg"):
        cfg = cli.parse_config(os.path.join(here, "configs", name))
        assert cfg.grid is not None
        assert cfg.target is not None
