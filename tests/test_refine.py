import numpy as np
import pytest

from symtoc import (FiniteSystem, GridSpec, Quantizer, RefinedController,
                    SampledFlow, StateSet, TargetSpec, build_abstraction,
                    double_integrator, extract_controller, formats, integrate,
                    simulate, solve_pessimistic, synthesize, target_over,
                    target_under, unicycle)
from symtoc.dynamics import Model
from symtoc.refine import OUTSIDE, TARGET

from helpers import parse_plot


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
