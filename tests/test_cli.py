import os
import subprocess
import sys

import numpy as np
import pytest

from symtoc import FiniteSystem, GridSpec, StateSet, solve_optimistic, solve_pessimistic, extract_controller
from symtoc import cli, formats
from symtoc.config import ConfigError, parse_config_text
from symtoc.dynamics import MODEL_REGISTRY, Model

from helpers import parse_plot, parse_trace, random_system

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

CHAIN_CONFIG = """
target.shape = states
target.states = [2]
output.system = chain.sts
output.controller = chain.ctl
output.bounds = chain_bounds.csv
output.plot = chain_plot.csv
"""


def chain_system():
    return FiniteSystem(3, 1, {(0, 0): [1], (1, 0): [2]})


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
        s = random_system(rng)
        path = tmp_path / f"sys_{i}.sts"
        formats.write_system(path, s, timestamp=False)
        parsed, grid = formats.parse_system(path)
        assert grid is None
        assert parsed == s


def test_system_round_trip_with_grid(tmp_path):
    grid = GridSpec(tau=0.5, eta=[0.2, 0.2, 2 * np.pi / 8], mu=0.25,
                    domain_lower=[0, 0, -np.pi], domain_upper=[1, 1, np.pi],
                    input_lower=[0, -0.5], input_upper=[0.5, 0.5],
                    periodic=(False, False, True))
    s = FiniteSystem(grid.num_cells, grid.num_inputs, {(0, 0): [1, 2]})
    path = tmp_path / "gridded.sts"
    formats.write_system(path, s, grid=grid, timestamp=False)
    parsed, grid2 = formats.parse_system(path)
    assert parsed == s
    assert grid2.tau == grid.tau
    assert np.array_equal(grid2.eta, grid.eta)
    assert grid2.periodic == grid.periodic
    assert np.array_equal(grid2.domain_upper, grid.domain_upper)


def test_controller_round_trip(tmp_path):
    s = chain_system()
    W = StateSet(3, [2])
    ctrl = extract_controller(s, W, solve_pessimistic(s, W))
    path = tmp_path / "chain.ctl"
    formats.write_controller(path, ctrl, timestamp=False)
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
                        build_abstraction, double_integrator, simulate,
                        target_under)
    model = double_integrator()
    grid = GS(tau=1.0, eta=0.3, mu=0.1, domain_lower=[-3, -3], domain_upper=[3, 3],
              input_lower=[-1], input_upper=[1])
    system, q = build_abstraction(model, grid)
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
    path.write_text("STS1\nstates 2\ninputs 1\ninitial 0\nt 0 0 :\n")
    with pytest.raises(formats.FormatError, match="empty successor"):
        formats.parse_system(path)
    path.write_text("nope\n")
    with pytest.raises(formats.FormatError, match="not an STS1"):
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
    report = open(os.path.join(out, "double_integrator_report.csv")).read()
    assert "fail" not in report
    trace = open(os.path.join(out, "double_integrator_trace_1.csv")).read()
    assert trace.startswith("k,x1,x2,u1,cell,value\n")
    assert "# reason=reached-target achieved=" in trace


def test_pipeline_byte_identical_outputs(tmp_path):
    cfg_path = write(tmp_path / "di.cfg", DI_CONFIG)
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in outs:
        for cmd in ("abstract", "synthesize", "simulate", "export-plot"):
            assert cli.main([cmd, "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    for name in sorted(os.listdir(outs[0])):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, f"{name} differs between runs"


def test_threads_do_not_change_output(tmp_path):
    cfg_path = write(tmp_path / "di.cfg", DI_CONFIG)
    a, b = str(tmp_path / "t1"), str(tmp_path / "t4")
    assert cli.main(["abstract", "--config", cfg_path, "--out", a, "--no-timestamp"]) == 0
    assert cli.main(["abstract", "--config", cfg_path, "--out", b, "--no-timestamp",
                     "--threads", "4"]) == 0
    fa = open(os.path.join(a, "double_integrator.sts"), "rb").read()
    fb = open(os.path.join(b, "double_integrator.sts"), "rb").read()
    assert fa == fb


def test_explicit_system_pipeline(tmp_path):
    cfg_path = write(tmp_path / "chain.cfg", CHAIN_CONFIG)
    out = str(tmp_path / "out")
    os.makedirs(out)
    formats.write_system(os.path.join(out, "chain.sts"), chain_system(), timestamp=False)
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    lo, up = formats.parse_bounds(os.path.join(out, "chain_bounds.csv"))
    assert lo.tolist() == [2, 1, 0]
    assert up.tolist() == [2, 1, 0]
    assert cli.main(["export-plot", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    plot = open(os.path.join(out, "chain_plot.csv")).read().strip().splitlines()
    assert plot[0] == "state,input,value"
    assert len(plot) == 1 + 3  # header + one row per winning state


def test_empty_winning_set_exit_code(tmp_path):
    cfg_path = write(tmp_path / "empty.cfg", CHAIN_CONFIG.replace("[2]", "[]"))
    out = str(tmp_path / "out")
    os.makedirs(out)
    formats.write_system(os.path.join(out, "chain.sts"), chain_system(), timestamp=False)
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out,
                     "--no-timestamp"]) == cli.EXIT_EMPTY_WINNING
    assert cli.main(["export-plot", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    plot = open(os.path.join(out, "chain_plot.csv")).read().strip().splitlines()
    assert plot == ["state,input,value"]  # header-only


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
            fh.write(f"{x},50,{formats._fmt_entry_time(u)}\n")
    assert cli.main(["simulate", "--config", cfg_path, "--out", out, "--no-timestamp",
                     "--bounds", doctored]) == cli.EXIT_CERTIFICATION


@pytest.mark.parametrize("line", ["t 0 0 : 5", "t 0 0 : a", "t 0 0 : -1"])
def test_synthesize_malformed_system_exits_2(tmp_path, capsys, line):
    cfg_path = write(tmp_path / "chain.cfg", CHAIN_CONFIG)
    out = str(tmp_path / "out")
    os.makedirs(out)
    write(os.path.join(out, "chain.sts"), f"STS1\nstates 3\ninputs 1\ninitial 0\n{line}\n")
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out]) == cli.EXIT_CONFIG
    assert "error: line 5:" in capsys.readouterr().err
    write(os.path.join(out, "chain.sts"), "STS1\nstates 3\ninputs 1\ninitial 0 3\n")
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out]) == cli.EXIT_CONFIG
    assert "error: line 4: initial state 3 out of range" in capsys.readouterr().err


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
    bad = write(tmp_path / "bad.ctl", f"CTL1\nstates 3\ninputs 2\n{row}\n")
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
    rows = [f"{s},{formats._fmt_entry_time(a)},{formats._fmt_entry_time(b + (s == x))}\n"
            for s, (a, b) in enumerate(zip(lo, up))]
    bad = write(tmp_path / "bad.csv", "state,lower,upper\n" + "".join(rows))
    assert cli.main(["simulate", "--config", cfg_path, "--out", out, "--no-timestamp",
                     "--bounds", bad]) == cli.EXIT_CONFIG
    assert (f"upper bound of state {x} is {int(up[x]) + 1}, the controller's value {int(up[x])}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key, value, command", [
    ("target.states", "[5]", "synthesize"),
    ("target.states", "[5]", "bounds"),
    ("unsafe.states", "[7]", "synthesize"),
    ("unsafe.states", "[-1]", "synthesize"),
    ("unsafe.states", "[1e20]", "synthesize"),  # past int64, still named
])
def test_explicit_state_ids_outside_the_system_exit_2(tmp_path, capsys, key, value, command):
    text = CHAIN_CONFIG + f"unsafe.states = {value}\n" if key == "unsafe.states" \
        else CHAIN_CONFIG.replace("[2]", value)
    cfg_path = write(tmp_path / "chain.cfg", text)
    out = str(tmp_path / "out")
    os.makedirs(out)
    formats.write_system(os.path.join(out, "chain.sts"), chain_system(), timestamp=False)
    assert cli.main([command, "--config", cfg_path, "--out", out]) == cli.EXIT_CONFIG
    state = int(float(value.strip("[]")))
    assert (f"error: key '{key}': state {state} outside the 3 states of the system"
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


def _run_with_grid_metadata(tmp_path, capsys, entry):
    """Write the chain system and controller with the `# grid:` line that
    starts like `entry` replaced by it; the errors of `synthesize` and
    `simulate` on them."""
    grid = GridSpec(tau=1.0, eta=1.0, mu=1.0, domain_lower=[0.0], domain_upper=[2.0],
                    input_lower=[0.0], input_upper=[0.0])
    cfg_path = write(tmp_path / "chain.cfg", CHAIN_CONFIG)
    out = str(tmp_path / "out")
    os.makedirs(out)
    s = chain_system()
    W = StateSet(3, [2])
    formats.write_system(os.path.join(out, "chain.sts"), s, grid=grid, timestamp=False)
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


@pytest.mark.parametrize("key, line", [
    ("target.states", "target.states = [1.5]"),
    ("unsafe.states", "unsafe.states = [0.5]"),
    ("target.free", "target.free = [0.5]"),
    ("obstacle.1.free", "obstacle.1.free = [0, 1.5]"),
])
def test_fractional_ids_and_axes_exit_2(tmp_path, capsys, key, line):
    if key == "target.states":
        text = CHAIN_CONFIG.replace("target.states = [2]", line)
    elif key == "unsafe.states":
        text = CHAIN_CONFIG + line + "\n"
    else:
        text = DI_CONFIG + "obstacle.1.lower = [2, 2]\nobstacle.1.upper = [3, 3]\n" + line + "\n"
    cfg_path = write(tmp_path / "c.cfg", text)
    value = line.split("[")[1].rstrip("]").split(", ")[-1]
    assert cli.main(["synthesize", "--config", cfg_path, "--out", str(tmp_path)]) \
        == cli.EXIT_CONFIG
    assert f"error: key '{key}': {value} is not an integer" in capsys.readouterr().err


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


def test_report_spells_a_missing_initial_cell_none(di_artifacts, tmp_path):
    # [10, 0] lies off the grid, so the trace has no initial cell
    text = DI_CONFIG.replace("simulate.initial.2 = [-2.0, 1.0]", "simulate.initial.2 = [10, 0]")
    cfg_path = write(tmp_path / "di.cfg", text)
    assert cli.main(["simulate", "--config", cfg_path, "--out", di_artifacts,
                     "--no-timestamp"]) == cli.EXIT_CERTIFICATION
    rows = open(os.path.join(di_artifacts, "double_integrator_report.csv")).read().splitlines()
    assert rows[2] == "2,left-winning-set,none,0,none,inf,0,fail"


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


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import symtoc.cli, sys; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_unsafe_states_restrict_explicit_system(tmp_path):
    # detour example: safety pushes the entry time from 2 to 3
    sys5 = FiniteSystem(5, 2, {(0, 0): [1], (0, 1): [2], (1, 0): [3],
                               (2, 1): [4], (4, 1): [3], (3, 0): [3]})
    cfg_path = write(tmp_path / "detour.cfg", """
target.shape = states
target.states = [3]
unsafe.states = [1]
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
    # lower and upper bounds disagree exactly where nondeterminism bites
    branching = FiniteSystem(3, 2, {(0, 0): [1, 2], (0, 1): [1], (1, 0): [2]})
    cfg_path = write(tmp_path / "branch.cfg", """
target.shape = states
target.states = [2]
output.system = branch.sts
output.controller = branch.ctl
output.bounds = branch_bounds.csv
""")
    out = str(tmp_path / "out")
    os.makedirs(out)
    formats.write_system(os.path.join(out, "branch.sts"), branching, timestamp=False)
    assert cli.main(["synthesize", "--config", cfg_path, "--out", out, "--no-timestamp"]) == 0
    lo, up = formats.parse_bounds(os.path.join(out, "branch_bounds.csv"))
    assert lo.tolist() == [1, 1, 0]
    assert up.tolist() == [2, 1, 0]
    ctrl, _ = formats.parse_controller(os.path.join(out, "branch.ctl"))
    assert ctrl.enabled(0).tolist() == [0, 1]


def test_bounds_command_prints(tmp_path, capsys):
    cfg_path = write(tmp_path / "chain.cfg", CHAIN_CONFIG)
    out = str(tmp_path / "out")
    os.makedirs(out)
    formats.write_system(os.path.join(out, "chain.sts"), chain_system(), timestamp=False)
    assert cli.main(["bounds", "--config", cfg_path, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "state,lower,upper" in printed
    assert "0,2,2" in printed


def test_shipped_configs_parse():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("double_integrator.cfg", "unicycle.cfg"):
        cfg = cli.parse_config(os.path.join(here, "configs", name))
        assert cfg.grid is not None
        assert cfg.target is not None
