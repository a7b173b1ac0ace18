import hashlib
from pathlib import Path

import numpy as np
import pytest

from symtoc import (FiniteSystem, GridSpec, Quantizer, RefinedController,
                    SampledFlow, StateSet, TargetSpec, build_abstraction,
                    double_integrator, extract_controller, formats, integrate,
                    simulate, solve_pessimistic, synthesize, target_over,
                    target_under, unicycle)
from symtoc import cli
from symtoc.config import parse_config_text
from symtoc.dynamics import MODEL_REGISTRY, Model
from symtoc.refine import OUTSIDE, TARGET

from helpers import parse_plot

ROOT = Path(__file__).resolve().parents[1]


def line_grid():
    # 1-D grid with centers 0, 1, 2 and two grid inputs (0 and 1)
    return GridSpec(tau=1.0, eta=1.0, mu=1.0, domain_lower=[0.0], domain_upper=[2.0],
                    input_lower=[0.0], input_upper=[1.0])


def branching_controller():
    s = FiniteSystem(3, 2, {(0, 0): [1, 2], (0, 1): [1], (1, 0): [2]})
    W = StateSet(3, [2])
    table = solve_pessimistic(s, W)
    return extract_controller(s, W, table)


def test_tie_break_picks_lowest_input_index():
    ctrl = branching_controller()
    rc = RefinedController(ctrl, Quantizer(line_grid()))
    # both inputs at cell 0 have worst-case successor value 1
    assert rc.quantizer.cell_index(np.array([0.1])) == 0
    assert rc.inputs[0] == 0
    assert np.allclose(rc.input_values[rc.inputs[0]], [0.0])


def test_single_enabled_input_at_center():
    ctrl = branching_controller()
    rc = RefinedController(ctrl, Quantizer(line_grid()))
    cell = rc.quantizer.cell_index(np.array([1.0]))
    assert cell == 1 and rc.inputs[cell] == 0


def test_target_cell_has_no_input():
    ctrl = branching_controller()
    rc = RefinedController(ctrl, Quantizer(line_grid()))
    assert rc.inputs[rc.quantizer.cell_index(np.array([2.0]))] == TARGET


def test_outside_winning_set_has_no_input():
    s = FiniteSystem(3, 2, {(0, 0): [1], (1, 0): [1]})  # state 2 unreachable target
    W = StateSet(3, [2])
    ctrl = extract_controller(s, W, solve_pessimistic(s, W))
    rc = RefinedController(ctrl, Quantizer(line_grid()))
    assert rc.inputs.tolist() == [OUTSIDE, OUTSIDE, TARGET]


def drift():
    # x' = u on the line grid: input 1 moves one cell per period
    return Model("drift", 1, 1, lambda x, u: np.zeros_like(x) + u, linear_matrix=[[0.0]])


def hand_built(transitions, target):
    s = FiniteSystem(3, 2, transitions)
    W = StateSet(3, [target])
    return RefinedController(extract_controller(s, W, solve_pessimistic(s, W)),
                             Quantizer(line_grid()))


def test_applied_input_driving_off_the_grid_leaves_the_winning_set():
    # the table claims cell 2 reaches cell 0 under input 1; the flow leaves the grid
    rc = hand_built({(1, 1): [2], (2, 1): [0]}, 0)
    W = TargetSpec.box([-0.5], [0.5])
    trace = simulate(drift(), rc, np.array([1.0]), W, 10)
    assert trace.reason == "left-winning-set"
    assert [(s.cell, s.input_index) for s in trace.steps] == [(1, 1), (2, 1)]
    assert np.allclose([s.state for s in trace.steps], [[1.0], [2.0]])
    assert trace.achieved is None and not trace.certified
    assert trace.initial_cell == 1 and trace.upper_bound == 2


def test_target_cell_outside_w_leaves_the_winning_set():
    # the controller was solved for cell 1, the run is asked to reach cell 0
    rc = hand_built({(0, 1): [1]}, 1)
    W = TargetSpec.box([-0.5], [0.5])
    trace = simulate(drift(), rc, np.array([1.0]), W, 10)
    assert trace.reason == "left-winning-set"
    assert trace.steps == [] and trace.initial_cell == 1
    assert trace.upper_bound == 0 and not trace.certified


def test_nan_heading_leaves_the_winning_set():
    model = unicycle()
    grid = GridSpec(tau=1.0, eta=[0.5, 0.5, np.pi / 2], mu=0.5,
                    domain_lower=[0, 0, -np.pi], domain_upper=[2, 2, np.pi],
                    input_lower=[0, -0.5], input_upper=[0.5, 0.5], periodic=(False, False, True))
    system, quantizer = build_abstraction(model, grid)
    W = TargetSpec.box([1.5, 0, 0], [2, 2, 0], free=[2])
    w_under = target_under(grid, W)
    rc = RefinedController(extract_controller(system, w_under, solve_pessimistic(system, w_under)),
                           quantizer)
    trace = simulate(model, rc, np.array([1.0, 1.0, np.nan]), W, 10)
    assert trace.reason == "left-winning-set"
    assert trace.steps == [] and trace.initial_cell is None
    assert trace.upper_bound == np.inf and not trace.certified


@pytest.fixture(scope="module")
def di_problem():
    model = double_integrator()
    grid = GridSpec(tau=1.0, eta=0.3, mu=0.1,
                    domain_lower=[-3, -3], domain_upper=[3, 3],
                    input_lower=[-1], input_upper=[1])
    system, quantizer = build_abstraction(model, grid)
    W = TargetSpec.ball([0.0, 0.0], 1.0)
    controller, lower = synthesize(system, target_under(grid, W), target_over(grid, W))
    return model, grid, SampledFlow(grid.tau), quantizer, controller, lower.entry_times(), W


def test_simulation_reaches_target_with_certificate(di_problem):
    model, grid, flow, quantizer, controller, lower, W = di_problem
    rc = RefinedController(controller, quantizer)
    trace = simulate(model, rc, np.array([1.5, 0.0]), W, 50, lower=lower)
    assert trace.reason == "reached-target"
    assert trace.certified
    assert trace.lower_bound <= trace.achieved <= trace.upper_bound
    # consecutive states follow the integrator exactly
    for a, b in zip(trace.steps, trace.steps[1:]):
        assert np.allclose(integrate(model, flow, a.state, a.input), b.state, atol=1e-12)
    # cell value strictly decreases along the run
    values = [s.value for s in trace.steps]
    assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))
    assert len(trace.steps) == trace.achieved


def test_simulation_inside_target_is_empty(di_problem):
    model, grid, flow, quantizer, controller, lower, W = di_problem
    rc = RefinedController(controller, quantizer)
    trace = simulate(model, rc, np.array([0.05, 0.0]), W, 50, lower=lower)
    assert trace.reason == "reached-target"
    assert trace.achieved == 0
    assert trace.steps == []
    assert trace.certified


def test_simulation_step_limit(di_problem):
    model, grid, flow, quantizer, controller, lower, W = di_problem
    rc = RefinedController(controller, quantizer)
    trace = simulate(model, rc, np.array([1.5, 0.0]), W, 0, lower=lower)
    assert trace.reason == "step-limit"
    assert trace.achieved is None
    assert not trace.certified


def test_first_enabled_policy_keeps_certificate(di_problem):
    model, grid, flow, quantizer, controller, lower, W = di_problem
    rc = RefinedController(controller, quantizer)
    for x0 in ([1.5, 0.0], [-2.0, 1.0], [2.4, -1.2]):
        trace = simulate(model, rc, np.array(x0), W, 100, lower=lower)
        assert trace.reason == "reached-target"
        assert trace.certified
        assert all(s.input_index == controller.enabled(s.cell)[0] for s in trace.steps)


def test_plot_input_column_is_the_applied_input(di_problem, tmp_path):
    model, grid, flow, quantizer, controller, lower, W = di_problem
    rc = RefinedController(controller, quantizer)
    winning = controller.domain().indices()
    chosen = rc.inputs[winning]
    assert (chosen == TARGET).any() and (chosen >= 0).any()
    assert OUTSIDE not in chosen
    # one row per winning cell, in cell order
    formats.write_plot(tmp_path / "grid.csv", controller, quantizer, timestamp=False)
    _, rows = parse_plot(tmp_path / "grid.csv")
    inputs = grid.input_values()
    assert len(rows) == winning.size
    for x, u, row in zip(winning, chosen, rows):
        assert np.array_equal(row[:2], quantizer.center(int(x)))
        if u == TARGET:
            assert np.isnan(row[2])
        else:
            assert row[2] == inputs[u][0]
    formats.write_plot(tmp_path / "plain.csv", controller, timestamp=False)
    _, rows = parse_plot(tmp_path / "plain.csv")
    assert [(x, u) for x, u, _ in rows] == \
        [(x, None if u == TARGET else u) for x, u in zip(winning.tolist(), chosen.tolist())]


def test_start_outside_the_domain_has_no_certificate(di_problem):
    model, grid, flow, quantizer, controller, lower, W = di_problem
    rc = RefinedController(controller, quantizer)
    trace = simulate(model, rc, np.array([5.0, 0.0]), W, 50, lower=lower)
    assert trace.reason == "left-winning-set"
    assert trace.initial_cell is None and trace.steps == []
    assert trace.lower_bound == 0 and trace.upper_bound == np.inf
    assert not trace.certified


def test_start_outside_the_winning_set_has_no_certificate(di_problem):
    model, grid, flow, quantizer, controller, lower, W = di_problem
    rc = RefinedController(controller, quantizer)
    cell = int(np.flatnonzero(rc.inputs == OUTSIDE)[0])
    trace = simulate(model, rc, quantizer.center(cell), W, 50, lower=lower)
    assert trace.reason == "left-winning-set"
    assert trace.initial_cell == cell and trace.steps == []
    assert trace.upper_bound == np.inf and not trace.certified


def test_greedy_runs_terminate_within_initial_value(di_problem):
    model, grid, flow, quantizer, controller, lower, W = di_problem
    rc = RefinedController(controller, quantizer)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x0 = rng.uniform(-1.8, 1.8, size=2)
        cell = quantizer.quantize(x0)
        value = controller.value(int(cell))
        if value == np.inf:
            continue
        trace = simulate(model, rc, x0, W, 200, lower=lower)
        assert trace.reason == "reached-target"
        assert trace.achieved <= value


def test_controller_quantizer_size_mismatch():
    ctrl = branching_controller()
    grid = GridSpec(tau=1, eta=1, mu=1, domain_lower=[0], domain_upper=[3],
                    input_lower=[0], input_upper=[1])
    with pytest.raises(ValueError):
        RefinedController(ctrl, Quantizer(grid))


# sha256 of the files `simulate --no-timestamp` writes (every trace CSV and
# the report; see _simulate_digest), recorded before the single-state step
# was made leaner: neither the per-period finiteness check nor the one-call
# quantizer may move a byte. The workloads run with the starts that
# perfbench/workloads.py draws for TRACE_SEED; the shipped configs use their
# own simulate.initial.<k> starts.
TRACE_SEED = 1
TRACE_SHA256 = {
    "double_integrator.cfg": "ea90be8b4663b2260ad384e1f34450544aa32c7f1f6a9023b60f5e4fe8b5e97e",
    "unicycle.cfg": "eb7055a2a56d3e9cb2ba48d77f5da9ce891f1459df86eae7928a1969b7088d38",
    "di_pipeline": "a70f9fcb8d03ebec271ca447ae1f0000dddc3023400860b1f8490741801dc55e",
    "unicycle_pipeline": "0135c51d14420a99e4efd44e2afbc64590e155e2a7567e945dcce67d477cb469",
    "game_chain": "9114404cb4b38493fe2ee01ff52ae190e9655460fe47bc6fac63f5dd6787c81d",
}


# sha256 of the (STS1, CTL1, bounds CSV, export-plot CSV) files that
# `abstract`, `synthesize` and `export-plot` write with --no-timestamp, for the
# same configs and workloads, recorded before STS1 and CTL1 shared one
# tagged-record writer and reader.
ARTIFACT_SHA256 = {
    "double_integrator.cfg": (
        "fe6a19e03c5444ad53d28308c521c981162f42c4f5191984ad22b757e031098e",
        "68d41ff7f345e44bc6400792f549d1db4028feac71047e813e5ca1be3873c3e5",
        "13d60c9a460a3bb884276688a668425a526692840140b353ad52c26345a3ff74",
        "ca704b03a9c461d142734a543fbfebe5328b57f7518fd2d6c1a127db81d18a38"),
    "unicycle.cfg": (
        "d60f059d952de42a07cdb0e074c499f8a615f0fbfe07fd1942a779d923902467",
        "cdf4dded03e1febd5119763e0cc3762a22d07a5fcdea5c3933e5ec6b03af7baa",
        "56be21632030cc2d463d0c2851491674e88377735ca968276bdd85035c22cb06",
        "2014543bb6260e147bbd423ef3cedd5ea16a15d7ebc2533fe1155992d78e148b"),
    "di_pipeline": (
        "c47fc825175fcd5f3ffd7e931a6498a9fbd52aef174f7dfeb308420b2c58c154",
        "5773d4d5fb09f2a14df432d55b6d4e8ee81d44ea6661598c33b1a06763e42c86",
        "967dd813bda0549f8d581acb1b5ceb4d428ebf2fd3a2c978c94b7861e7459a35",
        "ab7e5c40e145f79629c72cb3009b404b8dbd4427052d55c6ec2eb4dc8a0543c0"),
    "unicycle_pipeline": (
        "b543a2d7a235d32a54e87d5ddbcb6a2412af8b599d0ab7648851e50adb4ebd69",
        "8b9e56dcbb4da5330341d54c937ba3aced37f4c78c2fba24769c4bc0134a1d13",
        "b81a725b6462b05808976ec77d15c18e3ee33905aabd92a64aeee9ef03a7b024",
        "7ea813f1adb9bf5c9f378dd821b29770a8555d6366de3fc0c484e0afba41f439"),
    "game_chain": (
        "ba75365995a191931bb268deefb968d73658dd0616dfa2ef8e2c89af98e14faa",
        "d52681996cfb9ba758a89a3accc44c33672e01dc52ad16db2b2bfc8e05150666",
        "c3a428b8bee4233bc0e0d56cb3c7d7c0a6980dcba0d7593c0bf8d34027b8ffcc",
        "9dc264988d6e9bda561eca4ac96937b5db99853aaf0d6d523324ed6d91a2998a"),
}


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _simulate_digest(code, out_dir):
    """One sha256 over the exit code and each written file's name and sha256."""
    h = hashlib.sha256(f"exit {code}\n".encode())
    for path in sorted(Path(out_dir).iterdir()):
        h.update(f"{path.name} {_sha256(path)}\n".encode())
    return h.hexdigest()


def test_trace_bytes_are_pinned_on_the_shipped_configs_and_benchmark_workloads(
        di_bundle, unicycle_bundle, tmp_path, monkeypatch):
    got, artifacts = {}, {}
    for name, b in (("double_integrator.cfg", di_bundle), ("unicycle.cfg", unicycle_bundle)):
        sts, ctl, bounds = (tmp_path / f"{name}.{ext}" for ext in ("sts", "ctl", "csv"))
        plot, out = tmp_path / f"{name}.plot.csv", tmp_path / name
        formats.write_system(sts, b.system, grid=b.cfg.grid, timestamp=False)
        formats.write_controller(ctl, b.controller, grid=b.cfg.grid, timestamp=False)
        formats.write_bounds(bounds, b.lower, b.controller, timestamp=False)
        assert cli.cmd_export_plot(ctl, plot, timestamp=False) == cli.EXIT_OK
        artifacts[name] = tuple(_sha256(p) for p in (sts, ctl, bounds, plot))
        out.mkdir()
        code = cli.cmd_simulate(b.cfg, ctl, out_dir=out, bounds_path=bounds, timestamp=False)
        got[name] = _simulate_digest(code, out)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import conveyor
    import workloads
    monkeypatch.setitem(MODEL_REGISTRY, conveyor.MODEL_ID, conveyor.conveyor)
    for w in workloads.WORKLOADS.values():
        work, out = tmp_path / f"{w.name}_work", tmp_path / w.name
        work.mkdir()
        out.mkdir()
        cfg_path = str(workloads.write_inputs(ROOT, w, TRACE_SEED, work / "run.cfg"))
        cfg = parse_config_text(Path(cfg_path).read_text())
        common = ["--config", cfg_path, "--out", str(work), "--no-timestamp"]
        assert cli.main(["abstract", *common, "--threads", str(w.threads)]) == cli.EXIT_OK
        assert cli.main(["synthesize", *common]) == cli.EXIT_OK
        assert cli.main(["export-plot", *common]) == cli.EXIT_OK
        artifacts[w.name] = tuple(_sha256(work / cfg.output_path(kind))
                                  for kind in ("system", "controller", "bounds", "plot"))
        code = cli.main(["simulate", "--config", cfg_path, "--out", str(out), "--no-timestamp",
                         "--controller", str(work / cfg.output_path("controller")),
                         "--bounds", str(work / cfg.output_path("bounds"))])
        got[w.name] = _simulate_digest(code, out)
    assert got == TRACE_SHA256
    assert artifacts == ARTIFACT_SHA256
