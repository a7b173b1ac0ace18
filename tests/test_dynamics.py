import importlib.util
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symtoc import (DivergenceError, Model, SampledFlow, double_integrator, integrate,
                    make_model, one_period, reach_radius, unicycle)
from symtoc import dynamics
from symtoc.dynamics import _expm

from helpers import growth_bound_dominates, reach_radius_oracle


def rel_inf_error(got, want):
    return np.abs(got - want).sum(axis=1).max() / np.abs(want).sum(axis=1).max()


# the relative infinity-norm error bound stated in _expm's docstring
EXPM_REL_ERROR = 1e-13


def test_double_integrator_closed_form():
    # x1 = x1 + x2*t + u*t^2/2, x2 = x2 + u*t; polynomial flow, RK4 is exact
    m = double_integrator()
    out = integrate(m, SampledFlow(1.0), np.array([0.0, 0.0]), np.array([1.0]))
    assert np.allclose(out, [0.5, 1.0], atol=1e-12)


def test_equilibrium_is_fixed_point():
    m = double_integrator()
    out = integrate(m, SampledFlow(1.0), np.array([5.0, 0.0]), np.array([0.0]))
    assert np.allclose(out, [5.0, 0.0], atol=1e-14)


def test_unicycle_straight_line():
    m = unicycle()
    out = integrate(m, SampledFlow(0.5), np.array([0.0, 0.0, 0.0]),
                    np.array([0.5, 0.0]))
    assert np.allclose(out, [0.25, 0.0, 0.0], atol=1e-12)


def test_batch_integration_matches_single():
    m = unicycle()
    flow = SampledFlow(0.5)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, size=(20, 3))
    u = np.array([0.3, -0.2])
    batch = integrate(m, flow, xs, u)
    for i in range(20):
        assert np.allclose(batch[i], integrate(m, flow, xs[i], u), atol=1e-14)


def _conveyor():
    """The benchmark's `conveyor` model (perfbench/conveyor.py), loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "conveyor.py"
    spec = importlib.util.spec_from_file_location("perfbench_conveyor", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.conveyor(length=3000.0)


# (model, tau, state box, input box) as the shipped configs and the
# benchmark's game_chain workload use them
INTEGRATE_CASES = {
    "double_integrator": (double_integrator(), 1.0, ([-30, -30], [30, 30]), ([-1], [1])),
    "unicycle": (unicycle(), 0.5, ([0.1, 0.1, -np.pi], [5.1, 2.1, np.pi]), ([0, -0.5], [0.5, 0.5])),
    "conveyor": (_conveyor(), 1.0, ([0], [3000]), ([-1], [2])),
}


@pytest.mark.parametrize("name", sorted(INTEGRATE_CASES))
@settings(max_examples=20, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**32 - 1))
@example(1, 0)
@example(300, 1)
def test_batch_integration_equals_single_states_bit_for_bit(name, k, seed):
    # a lockstep simulation that steps k states in one call must reproduce
    # the k one-state runs exactly; NumPy does not promise that for its
    # vectorized loops, so it is pinned here
    model, tau, (lo, hi), (ilo, ihi) = INTEGRATE_CASES[name]
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, size=(k, model.dim))
    us = rng.uniform(ilo, ihi, size=(k, model.input_dim))
    us[rng.random(k) < 0.5] = ilo  # some rows share an input, as grid inputs do
    flow = SampledFlow(tau)
    batch = integrate(model, flow, xs, us)
    singles = np.stack([integrate(model, flow, xs[i], us[i]) for i in range(k)])
    assert batch.tobytes() == singles.tobytes()


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize("j", range(1, 11))
def test_integrate_raises_when_the_field_turns_non_finite_at_any_substep(j, batch):
    # the first field call of substep j returns inf, -inf or nan (in row 2
    # of a batch); the endpoint check must still raise, naming the model
    calls = []

    def field(x, u):
        calls.append(None)
        out = np.zeros_like(x) + u
        if len(calls) == 4 * (j - 1) + 1:
            out[(2, 0) if batch else (0,)] = (np.inf, -np.inf, np.nan)[j % 3]
        return out

    model = Model(name="spike", dim=1, input_dim=1, field=field, contraction_matrix=[[0.0]])
    x = np.zeros((5, 1)) if batch else np.zeros(1)
    match = "model 'spike' diverged" + (r" \(first bad batch entry 2" if batch else "")
    with pytest.raises(DivergenceError, match=match):
        integrate(model, SampledFlow(1.0), x, np.array([0.5]))


@pytest.mark.parametrize("dims", [(3,), (1,), (-1,), (True,), (0.0,), (0, 0), ("0",)],
                         ids=["past-dim", "at-dim", "negative", "bool", "float", "repeated", "str"])
def test_angular_dims_are_distinct_axes_of_the_model(dims):
    # (3,) on a 1-D model used to pass the grid check, whose k in angular_dims
    # never meets 3, and build 4 states on a grid that wraps nothing; True
    # compares equal to axis 1
    with pytest.raises(ValueError, match=r"model 'm': angular_dims .* must be distinct "
                                         r"integers in 0\.\.0"):
        Model(name="m", dim=1, input_dim=1, field=lambda x, u: 0 * x + u,
              linear_matrix=np.zeros((1, 1)), angular_dims=dims)
    Model(name="m", dim=1, input_dim=1, field=lambda x, u: 0 * x + u,
          linear_matrix=np.zeros((1, 1)), angular_dims=(np.int64(0),))


def test_rk4_order_on_smooth_model():
    # halving the step should cut the error roughly 16x (4th order)
    m = unicycle()
    x0 = np.array([0.2, -0.1, 0.4])
    u = np.array([0.5, 1.3])
    tau = 2.0
    ref = integrate(m, SampledFlow(tau, substeps=512), x0, u)
    e_coarse = np.abs(integrate(m, SampledFlow(tau, substeps=4), x0, u) - ref).max()
    e_fine = np.abs(integrate(m, SampledFlow(tau, substeps=8), x0, u) - ref).max()
    factor = e_coarse / e_fine
    assert 8.0 <= factor <= 32.0


# one_period against a 512-substep RK4: RK4's own error at that step is
# below 1e-14 on both models, so the tolerance bounds the rounding of the
# two ways, far below the builder's 1e-9 tie shave
ONE_PERIOD_TOL = 1e-11

taus = st.floats(0.05, 2.0)


def _close_to_fine_rk4(model, tau, x, u):
    x, u = np.array(x), np.array(u)
    got = one_period(model, SampledFlow(tau), x, u)
    want = integrate(model, SampledFlow(tau, substeps=512), x, u)
    assert np.all(np.abs(got - want) <= ONE_PERIOD_TOL * (1.0 + np.abs(want))), (got, want)


@settings(max_examples=200, deadline=None)
@given(taus, st.floats(-30, 30), st.floats(-30, 30), st.floats(-1, 1))
@example(1.0, 0.0, 0.0, 1.0)
@example(1.0, -30.0, 30.0, -1.0)
@example(0.5, 30.0, -30.0, 0.0)
def test_one_period_matches_fine_rk4_on_the_double_integrator(tau, x1, x2, u):
    _close_to_fine_rk4(double_integrator(), tau, [x1, x2], [u])


@settings(max_examples=200, deadline=None)
@given(taus, st.floats(0, 5.1), st.floats(0, 2.1), st.floats(-np.pi, np.pi),
       st.floats(0, 0.5), st.floats(-0.5, 0.5))
@example(0.5, 1.0, 1.0, 0.3, 0.5, 0.0)                # omega = 0
@example(0.5, 1.0, 1.0, np.pi - 1e-9, 0.5, 0.5)       # below the seam, turning across it
@example(0.5, 1.0, 1.0, -np.pi + 1e-9, 0.5, -0.5)     # above the seam, turning across it
@example(0.5, 1.0, 1.0, np.pi, 0.0, 0.5)              # v = 0 on the seam
@example(2.0, 5.1, 2.1, -np.pi, 0.5, 0.5)             # extreme inputs and corner
@example(2.0, 0.0, 0.0, np.pi, 0.0, -0.5)
def test_one_period_matches_fine_rk4_on_the_unicycle(tau, x, y, theta, v, w):
    _close_to_fine_rk4(unicycle(), tau, [x, y, theta], [v, w])


def test_one_period_batch_matches_single_states():
    rng = np.random.default_rng(3)
    for model, xs, u in ((double_integrator(), rng.uniform(-5, 5, (20, 2)), np.array([0.3])),
                         (unicycle(), rng.uniform(-3, 3, (20, 3)), np.array([0.4, -0.2]))):
        batch = one_period(model, SampledFlow(0.5), xs, u)
        for i in range(20):
            assert np.array_equal(batch[i], one_period(model, SampledFlow(0.5), xs[i], u))


def test_one_period_falls_back_to_rk4_without_an_exact_map():
    m = Model(name="drift", dim=1, input_dim=1, field=lambda x, u: np.sin(x) + u,
              contraction_matrix=[[1.0]])
    x, u, flow = np.array([[0.3], [1.2]]), np.array([0.5]), SampledFlow(0.7)
    assert np.array_equal(one_period(m, flow, x, u), integrate(m, flow, x, u))


@pytest.mark.parametrize("model", [
    double_integrator(),  # the derived linear map
    unicycle(),           # the model's own flow_map
    Model(name="drift", dim=2, input_dim=1, field=lambda x, u: np.sin(x) + u[..., :1],
          contraction_matrix=np.eye(2)),  # the RK4 fallback
], ids=["linear", "flow_map", "rk4"])
def test_one_period_raises_on_a_non_finite_state(model):
    x = np.zeros((3, model.dim))
    x[1, 0] = np.nan
    with pytest.raises(DivergenceError, match=f"model '{model.name}' diverged"):
        one_period(model, SampledFlow(0.5), x, np.zeros(model.input_dim))
    x[1, 0] = np.inf
    with pytest.raises(DivergenceError, match="first bad batch entry 1"):
        one_period(model, SampledFlow(0.5), x, np.zeros(model.input_dim))


def test_growth_radius_double_integrator():
    m = double_integrator()
    r = reach_radius(m, SampledFlow(1.0), 0.15)
    assert np.allclose(r, [0.3, 0.3], atol=1e-12)


def test_growth_radius_zero():
    for m in (double_integrator(), unicycle()):
        assert np.allclose(reach_radius(m, SampledFlow(1.0), 0.0), 0.0)


def test_growth_radius_monotone():
    m = unicycle()
    flow = SampledFlow(0.5)
    r1 = reach_radius(m, flow, 0.05)
    r2 = reach_radius(m, flow, 0.1)
    assert np.all(r2 >= r1)


@pytest.mark.parametrize("t", np.linspace(-10, 10, 41))
def test_expm_diagonal_closed_form(t):
    d = np.array([t, -t / 3, t / 7, 0.0])
    assert rel_inf_error(_expm(np.diag(d), "m"), np.diag(np.exp(d))) < EXPM_REL_ERROR


@pytest.mark.parametrize("t", [0.0, 0.1, 0.25, 1.0, 3.0, 7.3, 10.0])
def test_expm_nilpotent_jordan_block_is_exact(t):
    n = np.diag([t, t, t], 1)
    want = np.eye(4) + n + n @ n / 2 + n @ n @ n / 6
    assert np.array_equal(_expm(n, "m"), want)


@pytest.mark.parametrize("t", np.linspace(-10, 10, 41))
def test_expm_rotation_generator_closed_form(t):
    want = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    assert rel_inf_error(_expm(np.array([[0.0, -t], [t, 0.0]]), "m"), want) < EXPM_REL_ERROR


def test_expm_non_finite_raises_divergence_naming_the_model():
    with pytest.raises(DivergenceError, match="non-finite growth matrix for model 'm'"):
        _expm(np.array([[np.nan]]), "m")
    with pytest.raises(DivergenceError, match="overflow for model 'm'"):
        _expm(np.array([[1000.0]]), "m")
    huge = Model(name="huge", dim=1, input_dim=1, field=lambda x, u: x,
                 contraction_matrix=[[1000.0]], input_sensitivity=[[1.0]])
    for radius in (lambda: reach_radius(huge, SampledFlow(1.0), 0.0, du=0.1),
                   lambda: reach_radius(huge, SampledFlow(1.0), 0.1, u=[0.0])):
        with pytest.raises(DivergenceError, match="huge"):
            radius()
    # e^{A tau} = I + A tau stays finite; the input deviation's tau^2/2 does not
    far = SampledFlow(1e300)
    assert np.isfinite(reach_radius(double_integrator(), far, 0.1)).all()
    with pytest.raises(DivergenceError, match="double_integrator"):
        reach_radius(double_integrator(), far, 0.1, du=0.1)


def test_reach_radius_uses_the_per_input_contraction():
    # L(v)*tau is nilpotent, so exp(L(v)*tau) = I + L(v)*tau exactly
    m = unicycle()
    flow = SampledFlow(0.5)
    r = np.array([0.1, 0.1, 0.05])
    for v in (0.0, 0.2, 0.5):
        u = np.array([v, 0.3])
        want = r + flow.tau * v * np.array([r[2], r[2], 0.0])
        assert np.array_equal(reach_radius(m, flow, r, u=u), want)
        assert np.array_equal(reach_radius(m, flow, r, 0.05, u),
                              want + reach_radius(m, flow, 0.0, 0.05, u))
    assert np.array_equal(reach_radius(m, flow, r),
                          reach_radius(m, flow, r, u=np.array([0.5, 0.0])))


# (model, input box) for the radius tests: a linear model, one with a
# per-input contraction, and one with a constant contraction (the conveyor,
# given its input sensitivity |df/du| = 1)
RADIUS_CASES = {
    "double_integrator": (double_integrator(), ([-1], [1])),
    "unicycle": (unicycle(), ([0, -0.5], [0.5, 0.5])),
    "conveyor": (replace(_conveyor(), input_sensitivity=[[1.0]]), ([-1], [2])),
}


@st.composite
def radius_cases(draw):
    name = draw(st.sampled_from(sorted(RADIUS_CASES)))
    model, (ilo, ihi) = RADIUS_CASES[name]
    tau = draw(st.floats(0.05, 2.0))
    side = st.floats(0.0, 1.0)
    r = draw(side | st.lists(side, min_size=model.dim, max_size=model.dim).map(np.array))
    du = draw(st.just(0.0) | st.floats(1e-3, 1.0))
    u = draw(st.none() | st.tuples(*(st.floats(lo, hi) for lo, hi in zip(ilo, ihi))).map(np.array))
    return model, SampledFlow(tau), r, du, u


@settings(max_examples=300, deadline=None)
@given(radius_cases())
def test_reach_radius_equals_the_growth_plus_deviation_oracle_bit_for_bit(case):
    model, flow, r, du, u = case
    got = reach_radius(model, flow, r, du, u)
    assert got.tobytes() == reach_radius_oracle(model, flow, r, du, u).tobytes()
    # the growth and the input deviation add: each is the radius with the other zero
    apart = reach_radius(model, flow, r, 0.0, u) + reach_radius(model, flow, 0.0, du, u)
    assert got.tobytes() == apart.tobytes()


def test_reach_radius_rejects_what_it_cannot_bound():
    drift = Model(name="drift", dim=1, input_dim=1, field=lambda x, u: u + 0 * x,
                  contraction_matrix=[[0.0]])
    flow = SampledFlow(1.0)
    assert np.array_equal(reach_radius(drift, flow, 0.1), [0.1])
    with pytest.raises(ValueError, match="model 'drift' declares no input_sensitivity"):
        reach_radius(drift, flow, 0.1, du=0.05)
    for model in (drift, double_integrator()):
        with pytest.raises(ValueError, match="nonnegative"):
            reach_radius(model, flow, 0.1, du=-0.05)
        with pytest.raises(ValueError, match="nonnegative"):
            reach_radius(model, flow, -0.1)
        with pytest.raises(ValueError, match="one entry per coordinate"):
            reach_radius(model, flow, [0.1] * (model.dim + 1))


def test_unicycle_growth_bound_dominates_monte_carlo():
    m = unicycle()
    ok = growth_bound_dominates(m, SampledFlow(0.5), 0.1,
                                domain_lower=[0, 0, -np.pi], domain_upper=[5, 2, np.pi],
                                input_lower=[0, -0.5], input_upper=[0.5, 0.5],
                                samples=1000, seed=42)
    assert ok


def test_double_integrator_growth_bound_dominates():
    m = double_integrator()
    ok = growth_bound_dominates(m, SampledFlow(1.0), 0.15,
                                domain_lower=[-30, -30], domain_upper=[30, 30],
                                input_lower=[-1], input_upper=[1],
                                samples=1000, seed=1)
    assert ok


def test_divergence_error_names_model():
    def f(x, u):
        return x * x  # finite-time blowup from x=2 at t=0.5
    m = Model(name="blowup", dim=1, input_dim=1, field=f,
              linear_matrix=np.array([[1.0]]))
    with pytest.raises(DivergenceError, match="blowup"):
        integrate(m, SampledFlow(5.0, substeps=50), np.array([2.0]), np.array([0.0]))


def test_model_requires_exactly_one_growth_matrix():
    def f(x, u):
        return x
    with pytest.raises(ValueError):
        Model(name="m", dim=1, input_dim=1, field=f)
    with pytest.raises(ValueError):
        Model(name="m", dim=1, input_dim=1, field=f,
              linear_matrix=np.eye(1), contraction_matrix=np.eye(1))


def test_registry():
    m = make_model("double_integrator")
    assert m.dim == 2
    u = make_model("unicycle", {"v_max": 0.4})
    assert u.contraction_matrix[0, 2] == pytest.approx(0.4)
    with pytest.raises(KeyError):
        make_model("missing_model")


def test_flow_validation():
    with pytest.raises(ValueError):
        SampledFlow(0.0)
    with pytest.raises(ValueError):
        SampledFlow(1.0, substeps=0)


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, -1.0])
def test_flow_rejects_a_period_that_is_not_positive_and_finite(tau):
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        SampledFlow(tau)


@pytest.mark.parametrize("substeps", [2.5, 3.0, True, np.bool_(True), "3", None, -2])
def test_flow_rejects_a_substep_count_that_is_not_an_integer_of_at_least_one(substeps):
    # 2.5 used to pass and fail later inside range(); True counted as one substep
    with pytest.raises(ValueError, match="substep count must be an integer >= 1"):
        SampledFlow(1.0, substeps)


def test_flow_takes_numpy_integer_substeps():
    assert SampledFlow(np.float64(0.5), np.int64(3)).substeps == 3


magnitudes = st.sampled_from([1.0, 1e3, 1e8, 1e150, 1e300, 1.7e308])


@st.composite
def one_state_cases(draw):
    """A model, a flow, and one state with one input, from everyday values to
    magnitudes that overflow inside the RK4 stages, and non-finite ones."""
    name = draw(st.sampled_from(sorted(INTEGRATE_CASES)))
    model = INTEGRATE_CASES[name][0]
    value = st.floats(-1.0, 1.0) | st.floats(allow_nan=True, allow_infinity=True)
    scaled = st.tuples(value, magnitudes).map(lambda p: p[0] * p[1])
    x = draw(st.lists(scaled, min_size=model.dim, max_size=model.dim))
    u = draw(st.lists(scaled, min_size=model.input_dim, max_size=model.input_dim))
    flow = SampledFlow(draw(st.floats(0.05, 4.0)), draw(st.integers(1, 12)))
    return model, flow, np.array(x), np.array(u)


def _outcome(run):
    """The endpoint's bytes, or the DivergenceError's message."""
    try:
        return run().tobytes()
    except DivergenceError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(one_state_cases())
@example((double_integrator(), SampledFlow(1.0), np.array([1e308, 1e308]), np.array([0.0])))
@example((INTEGRATE_CASES["conveyor"][0], SampledFlow(2.0), np.array([1500.0]),
          np.array([1.7e308])))
@example((unicycle(), SampledFlow(0.5), np.array([0.0, 0.0, 1e300]), np.array([1e300, 1e300])))
def test_one_state_integrate_equals_its_batch_row_bit_for_bit(case):
    # the one-state path runs RK4 on Python floats, the batch path on arrays:
    # they must give the same bits, or raise the same DivergenceError
    model, flow, x, u = case
    one = _outcome(lambda: integrate(model, flow, x, u))
    row = _outcome(lambda: integrate(model, flow, x[None], u[None])[0])
    assert one == row


def _count_calls(monkeypatch, name):
    calls = []
    orig = getattr(dynamics, name)

    def counted(*args):
        calls.append(args)
        return orig(*args)
    monkeypatch.setattr(dynamics, name, counted)
    return calls


def test_linear_exponentials_are_computed_once_per_tau(monkeypatch):
    m = double_integrator()
    flow, other = SampledFlow(1.0), SampledFlow(0.5)
    cold = [one_period(m, flow, [1.0, 2.0], [0.5]), reach_radius(m, flow, 0.15, 0.05)]
    augmented = _count_calls(monkeypatch, "_expm_and_integral")
    plain = _count_calls(monkeypatch, "_expm")
    for _ in range(3):
        assert one_period(m, flow, [1.0, 2.0], [0.5]).tobytes() == cold[0].tobytes()
        assert reach_radius(m, flow, 0.15, 0.05).tobytes() == cold[1].tobytes()
    assert augmented == [] and plain == []
    one_period(m, other, [1.0, 2.0], [0.5])
    reach_radius(m, other, 0.15, 0.05)
    assert len(augmented) == 2  # the flow map's and the input deviation's, at the new tau
    # a model made by replace() starts without the old model's exponentials
    faster = replace(m, linear_matrix=2 * m.linear_matrix)
    assert reach_radius(faster, flow, 0.15)[0] > reach_radius(m, flow, 0.15)[0]


def test_kept_exponentials_are_read_only():
    m = double_integrator()
    one_period(m, SampledFlow(1.0), [1.0, 2.0], [0.5])
    (e, g), = m._per_tau.values()
    with pytest.raises(ValueError, match="read-only"):
        e[0, 0] = 2.0


def test_a_duplicate_first_computation_keeps_equal_arrays(monkeypatch):
    # builder threads may all miss the memo; each computes the exponentials
    # (the barrier holds every thread until all have missed), and every
    # result is the same bits as a one-thread computation
    threads = 4
    barrier = threading.Barrier(threads, timeout=10)
    orig = dynamics._expm_and_integral

    def all_compute(*args):
        barrier.wait()
        return orig(*args)
    monkeypatch.setattr(dynamics, "_expm_and_integral", all_compute)
    m = double_integrator()
    flow = SampledFlow(1.0)
    x = np.random.default_rng(3).uniform(-5, 5, size=(50, 2))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            got = list(pool.map(lambda u: one_period(m, flow, x, [u]), [0.5] * threads,
                                timeout=30))
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(dynamics, "_expm_and_integral", orig)
    want = one_period(double_integrator(), flow, x, [0.5]).tobytes()
    assert [g.tobytes() for g in got] == [want] * threads
    assert len(m._per_tau) == 1
