import numpy as np
import pytest

from symtoc import (FiniteSystem, GridSpec, Quantizer, RefinedController,
                    SampledFlow, StateSet, TargetSpec, build_abstraction,
                    double_integrator, extract_controller, formats, integrate,
                    simulate, solve_optimistic, solve_pessimistic, target_over,
                    target_under)
from symtoc.refine import OutOfWinningSetError


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
    assert rc.select_input_index(0) == 0
    assert np.allclose(rc.control_input(np.array([0.1])), [0.0])


def test_single_enabled_input_at_center():
    ctrl = branching_controller()
    rc = RefinedController(ctrl, Quantizer(line_grid()))
    assert np.allclose(rc.control_input(np.array([1.0])), [0.0])


def test_target_cell_returns_none():
    ctrl = branching_controller()
    rc = RefinedController(ctrl, Quantizer(line_grid()))
    assert rc.control_input(np.array([2.0])) is None


def test_outside_winning_set_raises():
    s = FiniteSystem(3, 2, {(0, 0): [1], (1, 0): [1]})  # state 2 unreachable target
    W = StateSet(3, [2])
    ctrl = extract_controller(s, W, solve_pessimistic(s, W))
    rc = RefinedController(ctrl, Quantizer(line_grid()))
    with pytest.raises(OutOfWinningSetError, match="cell 0"):
        rc.control_input(np.array([0.0]))


@pytest.fixture(scope="module")
def di_problem():
    model = double_integrator()
    grid = GridSpec(tau=1.0, eta=0.3, mu=0.1,
                    domain_lower=[-3, -3], domain_upper=[3, 3],
                    input_lower=[-1], input_upper=[1])
    flow = SampledFlow(grid.tau)
    system, quantizer = build_abstraction(model, grid, flow)
    W = TargetSpec.ball([0.0, 0.0], 1.0)
    w_under = target_under(grid, quantizer, W)
    w_over = target_over(grid, quantizer, W)
    table = solve_pessimistic(system, w_under)
    controller = extract_controller(system, w_under, table)
    lower = solve_optimistic(system, w_over).entry_times()
    return model, grid, flow, quantizer, controller, lower, W


def test_simulation_reaches_target_with_certificate(di_problem):
    model, grid, flow, quantizer, controller, lower, W = di_problem
    rc = RefinedController(controller, quantizer)
    trace = simulate(model, flow, rc, np.array([1.5, 0.0]), W, 50, lower=lower)
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
    trace = simulate(model, flow, rc, np.array([0.05, 0.0]), W, 50, lower=lower)
    assert trace.reason == "reached-target"
    assert trace.achieved == 0
    assert trace.steps == []
    assert trace.certified


def test_simulation_step_limit(di_problem):
    model, grid, flow, quantizer, controller, lower, W = di_problem
    rc = RefinedController(controller, quantizer)
    trace = simulate(model, flow, rc, np.array([1.5, 0.0]), W, 0, lower=lower)
    assert trace.reason == "step-limit"
    assert trace.achieved is None
    assert not trace.certified


def test_first_enabled_policy_keeps_certificate(di_problem):
    model, grid, flow, quantizer, controller, lower, W = di_problem
    rc = RefinedController(controller, quantizer)
    for x0 in ([1.5, 0.0], [-2.0, 1.0], [2.4, -1.2]):
        trace = simulate(model, flow, rc, np.array(x0), W, 100, lower=lower)
        assert trace.reason == "reached-target"
        assert trace.certified
        assert all(s.input_index == controller.enabled(s.cell)[0] for s in trace.steps)


def test_plot_input_column_is_the_applied_input(di_problem, tmp_path):
    model, grid, flow, quantizer, controller, lower, W = di_problem
    rc = RefinedController(controller, quantizer)
    winning = controller.domain().indices()
    chosen = [rc.select_input_index(int(x)) for x in winning]
    assert any(u is None for u in chosen) and any(u is not None for u in chosen)
    # one row per winning cell, in cell order
    formats.write_plot(tmp_path / "grid.csv", controller, quantizer, timestamp=False)
    _, rows = formats.parse_plot(tmp_path / "grid.csv")
    inputs = grid.input_values()
    assert len(rows) == winning.size
    for x, u, row in zip(winning, chosen, rows):
        assert np.array_equal(row[:2], quantizer.center(int(x)))
        if u is None:
            assert np.isnan(row[2])
        else:
            assert row[2] == inputs[u][0]
    formats.write_plot(tmp_path / "plain.csv", controller, timestamp=False)
    _, rows = formats.parse_plot(tmp_path / "plain.csv")
    assert [(x, u) for x, u, _ in rows] == list(zip(winning.tolist(), chosen))


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
        trace = simulate(model, flow, rc, x0, W, 200, lower=lower)
        assert trace.reason == "reached-target"
        assert trace.achieved <= value


def test_controller_quantizer_size_mismatch():
    ctrl = branching_controller()
    grid = GridSpec(tau=1, eta=1, mu=1, domain_lower=[0], domain_upper=[3],
                    input_lower=[0], input_upper=[1])
    with pytest.raises(ValueError):
        RefinedController(ctrl, Quantizer(grid))
