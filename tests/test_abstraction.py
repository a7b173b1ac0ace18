import hashlib
import itertools
import re
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symtoc import (DivergenceError, GridSpec, Model, Quantizer, SampledFlow,
                    TargetBox, TargetSpec, build_abstraction, double_integrator, integrate,
                    one_period, reach_radius, target_over, target_under, unicycle)
from symtoc.config import parse_config_text
from symtoc.dynamics import MODEL_REGISTRY

from helpers import build_system, coords_to_index, enabled_inputs, post, transitions

ROOT = Path(__file__).resolve().parents[1]


def di_grid(extent=3.0, eta=0.3, mu=0.1, tau=1.0):
    return GridSpec(tau=tau, eta=eta, mu=mu,
                    domain_lower=[-extent, -extent], domain_upper=[extent, extent],
                    input_lower=[-1.0], input_upper=[1.0])


def stationary_model(dim=2):
    def f(x, u):
        return np.zeros_like(x)
    return Model(name="stationary", dim=dim, input_dim=1, field=f,
                 linear_matrix=np.zeros((dim, dim)))


def test_grid_counts_match_parameterization():
    g = GridSpec(tau=1.0, eta=0.3, mu=0.1,
                 domain_lower=[-30, -30], domain_upper=[30, 30],
                 input_lower=[-1], input_upper=[1])
    assert g.cells_per_axis().tolist() == [201, 201]
    assert g.num_cells == 40401
    assert g.num_inputs == 21
    assert np.allclose(g.input_values()[:3].ravel(), [-1.0, -0.9, -0.8])
    assert g.input_values()[-1, 0] == pytest.approx(1.0)
    assert np.allclose(g.eps, 0.15)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(tau=1, eta=0, mu=0.1, domain_lower=[0], domain_upper=[1],
                 input_lower=[0], input_upper=[1])
    with pytest.raises(ValueError):
        GridSpec(tau=1, eta=0.1, mu=0.1, domain_lower=[0], domain_upper=[-1],
                 input_lower=[0], input_upper=[1])
    for bad in ({"tau": np.nan}, {"eta": [np.nan]}, {"mu": np.inf},
                {"domain_upper": [np.inf]}, {"input_upper": [np.inf]}):
        args = dict(tau=1, eta=0.1, mu=0.1, domain_lower=[0], domain_upper=[1],
                    input_lower=[0], input_upper=[1])
        with pytest.raises(ValueError, match="must be finite"):
            GridSpec(**{**args, **bad})


def test_grid_counts_must_fit_int32_ids():
    # a step of 2^-10 keeps the domain below the magnitude where rounding
    # exceeds the tie shave
    eta = 2.0 ** -10
    line = dict(tau=1, eta=eta, mu=1, domain_lower=[0], input_lower=[0], input_upper=[0])
    assert GridSpec(domain_upper=[(2**31 - 2) * eta], **line).num_cells == 2**31 - 1
    with pytest.raises(ValueError, match=r"2\.15e\+09 cells, but state and input ids are int32"):
        GridSpec(domain_upper=[(2**31 - 1) * eta], **line)
    with pytest.raises(ValueError, match=r"^inf cells"):  # finite per axis, not in product
        GridSpec(tau=1, eta=1e-300, mu=1, domain_lower=[0, 0], domain_upper=[1, 1],
                 input_lower=[0], input_upper=[0])
    with pytest.raises(ValueError, match=r"^2e\+300 inputs"):
        GridSpec(tau=1, eta=1, mu=1e-300, domain_lower=[0], domain_upper=[1],
                 input_lower=[0], input_upper=[2])


def test_domain_must_stay_where_rounding_is_below_the_tie_shave():
    line = dict(tau=1, eta=1, mu=1, input_lower=[0], input_upper=[0])
    assert GridSpec(domain_lower=[-9e6, 0], domain_upper=[-9e6 + 10, 9e6], **line).dim == 2
    for lower, upper, axis in (([1e7], [1e7 + 3], 1), ([-1e7], [-1e7 + 3], 1),
                               ([0, -1e7], [1, 0], 2)):
        with pytest.raises(ValueError, match=rf"^domain axis x{axis} reaches magnitude 1e\+07, "
                                             r"above 9\.01e\+06"):
            GridSpec(domain_lower=lower, domain_upper=upper, **line)


def test_single_cell_domain():
    g = GridSpec(tau=1, eta=0.5, mu=1, domain_lower=[0, 0], domain_upper=[0, 0],
                 input_lower=[0], input_upper=[0])
    assert g.num_cells == 1
    assert Quantizer(g).center(0).tolist() == [0.0, 0.0]


def test_quantizer_roundtrip_and_relation_bound():
    q = Quantizer(di_grid())
    rng = np.random.default_rng(5)
    cells = rng.integers(0, q.num_cells, size=200)
    assert np.array_equal(q.cell_index(q.center(cells)), cells)
    xs = rng.uniform(-3, 3, size=(500, 2))
    cells = q.cell_index(xs)
    centers = q.center(cells)
    assert np.abs(xs - centers).max() <= 0.15 + 1e-12


def test_quantizer_rounds_half_up():
    q = Quantizer(di_grid())
    # midpoint between centers 0.0 and 0.3 goes to the upper cell
    c = q.cell_index(np.array([0.15, 0.15]))
    assert np.allclose(q.center(c), [0.3, 0.3], atol=1e-9)


def test_cell_index_outside_domain_is_minus_one():
    q = Quantizer(di_grid())
    assert q.cell_index(np.array([3.5, 0.0])) == -1


def test_cell_index_marks_off_grid_and_non_finite_states():
    q = Quantizer(unicycle_grid())
    inside = [0.8, 0.8, 0.0]
    rows = np.array([inside, [0.8, 0.8, np.nan], [np.inf, 0.8, 0.0], [0.8, -np.inf, 0.0],
                     [1.8, 0.8, 0.0], [0.8, 0.8, 1e300], [0.5, 1e300, 1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells = q.cell_index(rows)
        assert q.cell_index(rows[1]) == -1
    assert cells[0] == q.cell_index(inside) and isinstance(q.cell_index(inside), int)
    assert cells[1:5].tolist() == [-1, -1, -1, -1]
    assert cells[5] >= 0  # a finite heading wraps, however large
    assert cells[6] == -1
    assert q.cell_index([1e300, 0.8, 0.0]) == q.cell_index([-1e300, 0.8, 0.0]) == -1
    assert q.cell_index([1e308, 0.8, 0.0]) == -1


@st.composite
def lookup_cases(draw):
    """A grid with per-axis steps, some axes periodic (with a seam gap when the
    step does not divide the period), and points at its hard places: cell
    faces and 1 ulp either side, the seam gap, past the top edge, far off the
    grid, and non-finite."""
    dim = draw(st.integers(1, 3))
    periodic = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    lower = draw(st.lists(st.floats(-10, 10), min_size=dim, max_size=dim))
    eta = draw(st.lists(st.floats(0.05, 2.0), min_size=dim, max_size=dim))
    cells = draw(st.lists(st.integers(1, 12), min_size=dim, max_size=dim))
    gap = draw(st.lists(st.floats(0.0, 0.99), min_size=dim, max_size=dim))
    upper = [lo + ((K - 1 + g) * e if not p else (K - 1 + max(g, 0.01)) * e)
             for lo, e, K, g, p in zip(lower, eta, cells, gap, periodic)]
    grid = GridSpec(tau=1, eta=eta, mu=1, domain_lower=lower, domain_upper=upper,
                    input_lower=[0], input_upper=[0], periodic=periodic)
    K = grid.cells_per_axis()

    def coordinate(k):
        lo, e, span = lower[k], eta[k], upper[k] - lower[k]
        j = draw(st.integers(-2, int(K[k]) + 1))
        face = lo + (j + 0.5) * e
        kind = draw(st.sampled_from(["face", "center", "top", "gap", "far", "nonfinite",
                                     "uniform"]))
        if kind == "face":
            return float(np.nextafter(face, draw(st.sampled_from([-np.inf, face, np.inf]))))
        if kind == "center":
            return lo + j * e
        if kind == "top":  # the closed top edge, 1 ulp either side, and past it
            edge = lo + (K[k] - 0.5) * e
            return draw(st.sampled_from([float(np.nextafter(edge, -np.inf)), edge,
                                         float(np.nextafter(edge, np.inf)), upper[k] + 1e-3]))
        if kind == "gap":  # between the last center and one period on, and its midpoint
            last = (K[k] - 1) * e
            tie = lo + 0.5 * (last + span)
            return draw(st.sampled_from([float(np.nextafter(tie, -np.inf)), tie,
                                         float(np.nextafter(tie, np.inf))])
                        | st.floats(0, 1).map(lambda t: lo + last + t * (span - last)))
        if kind == "far":
            return draw(st.sampled_from([1e300, -1e300, 1.7e308, -1.7e308]))
        if kind == "nonfinite":
            return draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return draw(st.floats(lo - 2 * span - 1, lo + 3 * span + 1))

    rows = [[coordinate(k) for k in range(dim)] for _ in range(draw(st.integers(1, 6)))]
    return Quantizer(grid), np.array(rows)


# centers 0, 0.375 and 0.75 on a circle of period 1: 0.875 is an exact seam tie
SEAM_TIE = (Quantizer(GridSpec(tau=1, eta=0.375, mu=1, domain_lower=[0], domain_upper=[1],
                               input_lower=[0], input_upper=[0], periodic=[True])),
            np.array([[0.875], [np.nextafter(0.875, 0)], [np.nextafter(0.875, 1)], [-0.125]]))


# finite coordinates near the float maximum on axes with eta < 1, where the
# batch path's d / eta would overflow unless it replaced them first
FAR_FINITE = [
    (Quantizer(GridSpec(tau=1, eta=0.25, mu=1, domain_lower=[0], domain_upper=[1],
                        input_lower=[0], input_upper=[0])),
     np.array([[1.7e308], [-1.7e308]])),
    (Quantizer(GridSpec(tau=1, eta=[0.25, 0.5], mu=1, domain_lower=[0, 0], domain_upper=[1, 2],
                        input_lower=[0], input_upper=[0], periodic=[False, True])),
     np.array([[1.7e308, 0.3], [-1.7e308, 0.3], [0.3, 1.7e308], [0.3, -1.7e308]])),
]


@settings(max_examples=400, deadline=None)
@given(lookup_cases())
@example(SEAM_TIE)
@example(FAR_FINITE[0])
@example(FAR_FINITE[1])
def test_one_state_cell_index_equals_its_batch_row(case):
    # a 1-D state goes through the per-axis loop on Python floats, a 2-D
    # array through `_axis_cell`; both must pick the same cell
    q, rows = case
    batch = q.cell_index(rows)
    for x, cell in zip(rows, batch.tolist()):
        one = q.cell_index(x)
        assert isinstance(one, int) and one == cell == int(q.cell_index(x[None])[0]), x.tolist()


@pytest.mark.parametrize("point", [[1.0], [0.5, 0.5, 9.0], []], ids=["short", "long", "empty"])
def test_point_lookups_check_the_point_length(point):
    # a short point used to broadcast to a cell (cell_index([1.0]) gave 12),
    # and contains read only the axes it was given
    grid = di_grid()
    q = Quantizer(grid)
    want = rf"{len(point)} coordinates, the grid 2"
    with pytest.raises(ValueError, match=want):
        q.cell_index(point)
    with pytest.raises(ValueError, match=want):
        q.cell_index([point, point])
    with pytest.raises(ValueError, match=rf"{len(point)} coordinates, the target 2"):
        TargetSpec.box([0, 0], [1, 1]).contains(point, grid)


def test_double_integrator_nine_successor_cells():
    # from the cell centered at the origin under u=1: nominal (0.5, 1.0),
    # radius (0.3, 0.3), box [0.2,0.8]x[0.7,1.3]
    grid = di_grid()
    system, q = build_system(double_integrator(), grid)
    cell = q.cell_index(np.array([0.0, 0.0]))
    u_one = 20  # inputs -1.0 .. 1.0 step 0.1
    assert grid.input_values()[u_one, 0] == pytest.approx(1.0)
    succ = post(system, int(cell), u_one)
    centers = {tuple(np.round(q.center(int(s)), 6)) for s in succ}
    expected = {(x, y) for x in (0.3, 0.6, 0.9) for y in (0.6, 0.9, 1.2)}
    assert centers == expected


def test_stationary_model_self_loop_successor():
    # zero dynamics, zero growth matrix: the reachable box is the cell's own
    # quantizer region, so the only successor is the cell itself
    grid = di_grid(extent=1.5, eta=0.3, mu=1.0)
    system, q = build_system(stationary_model(), grid)
    interior = q.cell_index(np.array([0.0, 0.0]))
    succ = post(system, int(interior), 0)
    assert succ.tolist() == [int(interior)]


def test_boundary_cells_are_disabled():
    # any cell whose over-approximation box crosses the domain edge loses the input
    grid = di_grid(extent=1.5, eta=0.3, mu=1.0)
    system, q = build_system(stationary_model(), grid)
    edge = q.cell_index(np.array([1.5, 0.0]))
    assert enabled_inputs(system, int(edge)).tolist() == []
    # double integrator pushed outward at the fast edge
    grid2 = di_grid()
    system2, q2 = build_system(double_integrator(), grid2)
    corner = q2.cell_index(np.array([3.0, 3.0]))
    assert post(system2, int(corner), 20).size == 0


def test_build_deterministic_and_thread_invariant():
    # M = 5 is a multiple of neither 2 nor 3, so the calling thread and the
    # helpers get unequal shares, and 7 threads are more than there are inputs
    grid = di_grid(extent=1.5, mu=0.5)
    assert grid.num_inputs == 5
    a, _ = build_system(double_integrator(), grid)
    assert a.num_transitions > 0
    for threads in (1, 2, 3, 5, 7):
        assert build_system(double_integrator(), grid, threads=threads)[0] == a


def drift_grid():
    """A 1-D grid with M = 5 inputs, -0.5 to 0.5 in steps of 0.25."""
    return GridSpec(tau=1.0, eta=0.1, mu=0.25, domain_lower=[-1], domain_upper=[1],
                    input_lower=[-0.5], input_upper=[0.5])


def recording_drift(calls, diverge=()):
    """x' = u, integrated by RK4; each field call adds (u, thread id) to
    `calls`, and the field is infinite for the inputs in `diverge`."""
    def field(x, u):
        calls.add((float(u[0]), threading.get_ident()))
        return np.full_like(x, np.inf) if float(u[0]) in diverge else 0 * x + u
    return Model(name="drift", dim=1, input_dim=1, field=field, contraction_matrix=[[0.0]])


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_calling_thread_builds_every_threads_th_input(threads):
    calls = set()
    grid = drift_grid()
    build_abstraction(recording_drift(calls), grid, threads=threads)
    me = threading.get_ident()
    ran_on = {float(v): {t for w, t in calls if w == v} for v in grid.input_values()[:, 0]}
    for u, where in enumerate(ran_on.values()):
        assert len(where) == 1
        assert (where == {me}) == (u % threads == 0), (u, threads)
    assert len(set().union(*ran_on.values()) - {me}) <= threads - 1


@pytest.mark.parametrize("threads", [1, 2, 3, 5])
def test_lowest_diverging_input_is_reported_for_every_thread_count(threads):
    # inputs 3 and 4 diverge: with 2 threads a helper builds 3 and the
    # calling thread 4, with 3 threads the other way round
    with pytest.raises(DivergenceError, match=re.escape("input [0.25]")):
        build_abstraction(recording_drift(set(), diverge=(0.25, 0.5)), drift_grid(),
                          threads=threads)


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_raise(threads):
    with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
        build_abstraction(double_integrator(), di_grid(extent=1.5), threads=threads)


def test_target_under_over_ball():
    grid = di_grid()
    q = Quantizer(grid)
    W = TargetSpec.ball([0.0, 0.0], 1.0)
    under = target_under(grid, W)
    over = target_over(grid, W)
    probe = q.cell_index(np.array([0.9, 0.0]))      # box [0.75,1.05]x[-0.15,0.15]
    inside = q.cell_index(np.array([0.6, 0.6]))     # box [0.45,0.75]^2
    assert probe not in under
    assert probe in over
    assert inside in under
    assert under <= over


def test_target_full_domain_selects_all_cells():
    grid = di_grid()
    q = Quantizer(grid)
    W = TargetSpec.box([-3, -3], [3, 3])
    assert len(target_over(grid, W)) == q.num_cells
    # edge cell boxes stick out of the domain by eta/2, so the inner cover
    # keeps only the interior cells
    assert len(target_under(grid, W)) == (q.cells[0] - 2) * (q.cells[1] - 2)


def test_target_point_and_vanishing_under():
    grid = di_grid()
    q = Quantizer(grid)
    point = TargetSpec.box([0.6, 0.9], [0.6, 0.9])  # a cell center
    over = target_over(grid, point)
    assert len(over) == 1
    assert int(over.indices()[0]) == q.cell_index(np.array([0.6, 0.9]))
    tiny = TargetSpec.ball([0.05, 0.05], 0.1)  # smaller than any cell box
    assert len(target_under(grid, tiny)) == 0


def test_target_union_joint_coverage():
    grid = GridSpec(tau=1, eta=0.5, mu=1, domain_lower=[0, 0], domain_upper=[2, 2],
                    input_lower=[0], input_upper=[0])
    q = Quantizer(grid)
    W = TargetSpec.union(TargetSpec.box([0, 0], [1, 2]), TargetSpec.box([1, 0], [2, 2]))
    under = target_under(grid, W)
    straddling = q.cell_index(np.array([1.0, 1.0]))  # box [0.75,1.25] crosses x=1
    assert straddling in under
    W_gap = TargetSpec.union(TargetSpec.box([0, 0], [0.9, 2]), TargetSpec.box([1.1, 0], [2, 2]))
    assert q.cell_index(np.array([1.0, 1.0])) not in target_under(grid, W_gap)


def test_target_free_dimension():
    grid = GridSpec(tau=0.5, eta=0.2, mu=0.1,
                    domain_lower=[0, 0, -np.pi], domain_upper=[2, 2, np.pi],
                    input_lower=[0, -0.5], input_upper=[0.5, 0.5],
                    periodic=(False, False, True))
    q = Quantizer(grid)
    W = TargetSpec.box([1.0, 1.0, 0.0], [1.4, 1.4, 0.0], free=[2])
    over = target_over(grid, W)
    # every theta layer of a covered (x, y) cell is included
    xy = q.cell_index(np.array([1.2, 1.2, 0.0]))
    coords = q.index_to_coords(int(xy))
    for k in range(q.cells[2]):
        c = coords.copy()
        c[2] = k
        assert int(coords_to_index(q, c)) in over


@pytest.mark.parametrize("free", [[-1], [1.7], [2], [True, False]])  # a mask is no axis list
def test_target_free_axes_are_integers_in_range(free):
    with pytest.raises(ValueError, match="free axis"):
        TargetSpec.box([0, 0], [1, 1], free=free)
    with pytest.raises(ValueError, match="free axis"):
        TargetSpec.ball([0, 0], 1, free=free)


@st.composite
def lattice_covers_case(draw):
    """A small grid and a union target whose bounds, cell edges and periods
    all sit on the eta/4 lattice (dyadic steps, so lattice points are exact)."""
    dim = draw(st.integers(1, 3))
    most = {1: 6, 2: 4, 3: 3}[dim]
    eta = np.array([draw(st.sampled_from([0.5, 1.0, 2.0])) for _ in range(dim)])
    periodic = tuple(draw(st.booleans()) for _ in range(dim))
    lower = np.array([draw(st.integers(-8, 8)) for _ in range(dim)]) * eta / 4
    quarters = [draw(st.integers(1, 4 * most)) if periodic[k]  # tiling or with a seam
                else 4 * draw(st.integers(0, most - 1)) + draw(st.integers(0, 3))
                for k in range(dim)]
    grid = GridSpec(tau=1, eta=eta, mu=1, domain_lower=lower,
                    domain_upper=lower + np.array(quarters) * eta / 4,
                    input_lower=[0], input_upper=[0], periodic=periodic)
    members = []
    for _ in range(draw(st.integers(1, 3))):
        start = np.array([draw(st.integers(-4, 4 * most + 4)) for _ in range(dim)])
        width = np.array([draw(st.integers(0, 4 * most)) for _ in range(dim)])  # 0: point, segment
        free = tuple(draw(st.booleans()) and draw(st.booleans()) for _ in range(dim))
        members.append(TargetBox(lower + start * eta / 4, lower + (start + width) * eta / 4, free))
    return grid, TargetSpec(members)


@settings(max_examples=120, deadline=None)
@given(lattice_covers_case())
def test_covers_match_lattice_oracle(case):
    """With every bound on the eta/4 lattice, a closed cell box meets the
    target iff one of its eta/8 lattice points is in it, and lies in the union
    iff all of them are; `contains` judges each point."""
    grid, spec = case
    q = Quantizer(grid)
    offsets = np.array(list(itertools.product(*[np.arange(-4, 5) * e / 8 for e in grid.eta])))
    over = np.zeros(q.num_cells, dtype=bool)
    under = np.zeros(q.num_cells, dtype=bool)
    for idx in range(q.num_cells):
        hits = [spec.contains(p, grid) for p in q.center(idx) + offsets]
        over[idx], under[idx] = any(hits), all(hits)
    assert np.array_equal(target_over(grid, spec).mask, over)
    assert np.array_equal(target_under(grid, spec).mask, under)


def test_contains_tolerance_on_both_sides_of_a_bound():
    grid = GridSpec(tau=1, eta=0.5, mu=1, domain_lower=[0, 0], domain_upper=[4, 4],
                    input_lower=[0], input_upper=[0], periodic=(True, False))
    W = TargetSpec.box([1, 1], [2, 2])
    for x in ([1 - 1e-13, 1.5], [2 + 1e-13, 1.5], [1.5, 1 - 1e-13], [1.5, 2 + 1e-13]):
        assert W.contains(x, grid)
    for x in ([1 - 1e-11, 1.5], [2 + 1e-11, 1.5], [1.5, 1 - 1e-11]):
        assert not W.contains(x, grid)
    assert W.contains([5 - 1e-13, 1.5], grid)  # one period on, from below


def unicycle_grid(eta=0.2):
    return GridSpec(tau=0.5, eta=eta, mu=0.25,
                    domain_lower=[0, 0, -np.pi], domain_upper=[1.6, 1.6, np.pi],
                    input_lower=[0, -0.5], input_upper=[0.5, 0.5],
                    periodic=(False, False, True))


def test_periodic_quantize_wraps():
    q = Quantizer(unicycle_grid())
    near_pi = q.cell_index(np.array([0.8, 0.8, np.pi - 0.01]))
    past_pi = q.cell_index(np.array([0.8, 0.8, np.pi + 0.05]))  # wraps past the seam
    assert near_pi != past_pi
    c = q.center(past_pi)
    assert c[2] == pytest.approx(-np.pi, abs=0.11)


def test_periodic_seam_gap_maps_to_the_closer_center():
    # heading centers 0 and 0.55 on a circle of period 1: past 0.825 a value
    # is nearer the first center (one period on) than the last one
    grid = GridSpec(tau=1, eta=[0.5, 0.55], mu=1, domain_lower=[0, 0], domain_upper=[1, 1],
                    input_lower=[0], input_upper=[0], periodic=(False, True))
    q = Quantizer(grid)
    thetas = [0.0, 0.27, 0.28, 0.8, 0.82, 0.83, 0.9, 0.999, 1.0, -0.05, 1.3, 2.9]
    want = [0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 0]
    rows = np.array([[0.7, t] for t in thetas])
    cells = q.cell_index(rows)
    assert q.index_to_coords(cells).tolist() == [[1, w] for w in want]
    assert [q.cell_index(r) for r in rows] == cells.tolist()


def test_periodic_successors_wrap_across_seam():
    grid = unicycle_grid()
    system, q = build_system(unicycle(), grid)
    inputs = grid.input_values()
    cell = q.cell_index(np.array([0.8, 0.8, np.pi - 0.05]))
    # holding the heading at the seam: successor cells sit on both sides
    u_hold = int(np.argmax((inputs[:, 0] == 0.0) & (inputs[:, 1] == 0.0)))
    thetas = np.array([q.center(int(s))[2] for s in post(system, int(cell), u_hold)])
    assert thetas.size > 0
    assert thetas.min() < -2.5 and thetas.max() > 2.5
    # turning left from just below pi: every successor heading has wrapped
    u_left = int(np.argmax((inputs[:, 0] == 0.0) & (inputs[:, 1] == 0.5)))
    thetas = np.array([q.center(int(s))[2] for s in post(system, int(cell), u_left)])
    assert thetas.size > 0
    assert np.all(thetas < -2.5)


def test_monte_carlo_soundness_small_grid():
    rng = np.random.default_rng(123)
    grid = di_grid(extent=1.5)
    flow = SampledFlow(grid.tau)
    model = double_integrator()
    system, q = build_system(model, grid)
    inputs = grid.input_values()
    checked = 0
    while checked < 1000:
        cell = int(rng.integers(0, q.num_cells))
        u = int(rng.integers(0, grid.num_inputs))
        if post(system, cell, u).size == 0:
            continue
        x = q.center(cell) + rng.uniform(-0.15, 0.15, size=2)
        nxt = integrate(model, flow, x, inputs[u])
        assert int(q.cell_index(nxt)) in post(system, cell, u)
        checked += 1


def _boundary_misses(model, grid, margin, cells):
    """Starts on the closed lower faces of `cells`: per cell, every point with
    a nonempty set of axes at the cell's lower edge and the others at its
    center (face centers, lower edges, the lower corner). Each is driven by
    every grid input, and with the margin also by the inputs shifted to the
    corners of the +-mu/2 box, through RK4, through a 512-substep reference
    and through `one_period`, the builder's map. Returns (checks, misses):
    pairs enabled at the start's cell, and those whose end cell is not among
    the pair's successors."""
    system, q = build_system(model, grid, input_margin=margin)
    N, M = system.num_states, system.num_inputs
    lower = [s for s in itertools.product((0.0, -0.5), repeat=grid.dim) if any(s)]
    starts = (q.center(cells)[:, None, :] + np.array(lower) * grid.eta).reshape(-1, grid.dim)
    source = q.cell_index(starts)
    pair = source[:, None] * M + np.arange(M)
    start, u = np.nonzero((source[:, None] >= 0) & (system.pair_counts[pair] > 0))
    pair = pair[start, u]
    shifts = [np.zeros(grid.input_dim)]
    if margin:
        shifts += [np.array(c) * grid.mu
                   for c in itertools.product((-0.5, 0.5), repeat=grid.input_dim)]
    # (pair, successor) keys, ascending: CSR order with sorted successor lists
    edges = np.repeat(np.arange(N * M), system.pair_counts) * N + system._targets
    checks = misses = 0
    x = starts[start]
    for shift in shifts:
        v = grid.input_values()[u] + shift
        for end in (integrate(model, SampledFlow(grid.tau), x, v),
                    integrate(model, SampledFlow(grid.tau, 512), x, v),
                    one_period(model, SampledFlow(grid.tau), x, v)):
            cell = q.cell_index(end)
            key = pair * N + cell
            at = np.minimum(np.searchsorted(edges, key), edges.size - 1)
            checks += key.size
            misses += int(np.count_nonzero((cell < 0) | (edges[at] != key)))
    return checks, misses


@pytest.mark.parametrize("margin", [False, True], ids=["grid-inputs", "margin"])
def test_boundary_starts_stay_in_their_successor_sets(margin):
    # the quantizer's regions are closed below, so a start on a lower face or
    # corner belongs to the cell and its successors must cover it
    grid = di_grid(extent=1.5)
    checks, misses = _boundary_misses(double_integrator(), grid, margin,
                                      np.arange(grid.num_cells))
    assert checks > 5000 and misses == 0
    grid = unicycle_grid()
    q = Quantizer(grid)
    coords = q.index_to_coords(np.arange(q.num_cells))
    # a fixed sample of the cells at the heading seam, whose lower face wraps
    # to +pi, and of the others
    rng = np.random.default_rng(7)
    cells = [rng.choice(np.flatnonzero(layer), 30, replace=False)
             for layer in (coords[:, 2] == 0, coords[:, 2] > 0)]
    checks, misses = _boundary_misses(unicycle(), grid, margin, np.concatenate(cells))
    assert checks > 5000 and misses == 0


def _circ_dist(a, b, period):
    d = abs(a - b) % period
    return min(d, period - d)


def test_successor_sets_pinched_between_independent_bounds():
    """Vice grip on the builder: every successor cell's closed box must touch
    the reachable box (outer bound), and every quantized sample of the box
    must be a successor (inner bound). Checked on the wrapped unicycle grid."""
    rng = np.random.default_rng(424)
    grid = unicycle_grid()
    model = unicycle()
    flow = SampledFlow(grid.tau)
    system, q = build_system(model, grid)
    inputs = grid.input_values()
    period = 2 * np.pi
    for _ in range(200):
        cell = int(rng.integers(0, q.num_cells))
        u = int(rng.integers(0, grid.num_inputs))
        succ = post(system, cell, u)
        if succ.size == 0:
            continue
        radius = reach_radius(model, flow, grid.eps, u=inputs[u])
        nominal = integrate(model, flow, q.center(cell), inputs[u])
        blo, bhi = nominal - radius, nominal + radius
        # outer: closed cell box touches the closed reachable box
        for s in succ:
            c = q.center(int(s))
            for k in range(grid.dim):
                h = 0.5 * grid.eta[k]
                if grid.periodic[k]:
                    mid = 0.5 * (blo[k] + bhi[k])
                    assert _circ_dist(c[k], mid, period) <= (bhi[k] - blo[k]) / 2 + h + 1e-7, (cell, u, s, k)
                else:
                    assert c[k] + h >= blo[k] - 1e-7 and c[k] - h <= bhi[k] + 1e-7, (cell, u, s, k)
        # inner: dense box samples quantize into the successor set
        pts = rng.uniform(blo + 1e-7, bhi - 1e-7, size=(64, grid.dim))
        succ_set = set(succ.tolist())
        for p in pts:
            assert int(q.cell_index(p)) in succ_set, (cell, u, p.tolist())


def test_model_grid_dimension_mismatch():
    with pytest.raises(ValueError):
        build_abstraction(unicycle(), di_grid())


@pytest.mark.parametrize("model, lower, upper, periodic, message", [
    # a heading circle of period 2 would be quantized as if it were one turn
    (unicycle, [0, 0, -1], [2, 2, 1], (False, False, True),
     "angular axis x3 spans 2, not one turn (2*pi)"),
    (unicycle, [0, 0, -np.pi], [2, 2, np.pi], (False, False, False),
     "axis x3 does not wrap, but model 'unicycle' has an angle there"),
    (double_integrator, [-1, -1], [1, 1], (True, False),
     "axis x1 wraps, but model 'double_integrator' has no angle there"),
])
def test_grid_must_wrap_exactly_the_model_angles(model, lower, upper, periodic, message):
    m = model()
    grid = GridSpec(tau=0.5, eta=0.5, mu=0.5, domain_lower=lower, domain_upper=upper,
                    input_lower=[-0.5] * m.input_dim, input_upper=[0.5] * m.input_dim,
                    periodic=periodic)
    with pytest.raises(ValueError, match=re.escape(message)):
        build_abstraction(m, grid)


def test_one_cell_domain_builds_one_state_system():
    # a point domain cannot contain the reachable box, so the cell blocks
    grid = GridSpec(tau=1.0, eta=0.3, mu=1.0, domain_lower=[0, 0], domain_upper=[0, 0],
                    input_lower=[0], input_upper=[0])
    system, q = build_system(stationary_model(), grid)
    assert system.num_states == 1
    assert system.num_transitions == 0


def test_input_margin_requires_sensitivity_data():
    grid = di_grid(extent=1.5, eta=0.3, mu=1.0)
    with pytest.raises(ValueError, match="input_sensitivity"):
        build_abstraction(stationary_model(), grid, input_margin=True)


def test_input_margin_widens_successors_and_shrinks_enabled_pairs():
    grid = di_grid(extent=1.5)
    plain, q = build_system(double_integrator(), grid)
    wide, _ = build_system(double_integrator(), grid, input_margin=True)
    widened = False
    for x, u, succ in transitions(wide):
        plain_succ = post(plain, x, u)
        # a pair the bigger box keeps is also present without the margin,
        # with no fewer successors
        assert plain_succ.size > 0
        assert set(plain_succ.tolist()) <= set(succ.tolist())
        widened |= succ.size > plain_succ.size
    assert widened
    assert wide.num_transitions > 0


@pytest.mark.parametrize("case", ["growing", "huge-input-step"])
def test_boxes_far_off_the_domain_raise_no_numeric_warning(case):
    # endpoints near 1e304 (growing) and input deviations near 1e300 make
    # boxes whose cell index once overflowed the int64 cast
    if case == "growing":
        model = Model(name="grow", dim=1, input_dim=1, field=lambda x, u: 700.0 * x + u,
                      linear_matrix=[[700.0]])
        grid = GridSpec(tau=1, eta=0.5, mu=1, domain_lower=[-3], domain_upper=[3],
                        input_lower=[0], input_upper=[0])
    else:
        model = double_integrator()
        grid = di_grid(extent=3.0, eta=0.3, mu=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system, _ = build_system(model, grid, input_margin=case != "growing")
    assert (system.num_states, system.num_transitions) == ({"growing": 13}.get(case, 441), 0)


def heading_model():
    """One angle driven by its input at rate u."""
    return Model(name="heading", dim=1, input_dim=1, field=lambda x, u: u.copy(),
                 linear_matrix=[[0.0]], angular_dims=(0,), input_sensitivity=[[1.0]])


def heading_grid(**kw):
    return GridSpec(**{"tau": 1.0, "eta": 2 * np.pi / 8, "mu": 6.0, "domain_lower": [-np.pi],
                       "domain_upper": [np.pi], "input_lower": [-3.0], "input_upper": [3.0],
                       "periodic": (True,), **kw})


def test_box_covering_the_circle_reaches_every_heading_cell():
    # with the margin the box radius is pi/8 + 3 >= pi, so every pair
    # reaches all 8 heading cells; without it the box spans 2 cells
    grid = heading_grid()
    wide, _ = build_system(heading_model(), grid, input_margin=True)
    assert wide.pair_counts.tolist() == [8] * (8 * 2)
    assert wide._targets.tolist() == list(range(8)) * (8 * 2)
    plain, _ = build_system(heading_model(), grid)
    assert set(plain.pair_counts.tolist()) == {2}


@pytest.mark.parametrize("periodic", [False, True], ids=["line", "circle"])
@pytest.mark.parametrize("below", [0.0, 1.2e-9], ids=["on-boundary", "just-below"])
def test_box_narrower_than_the_tie_shave_keeps_its_nominal_cell(periodic, below):
    # x' = -40 (x - c) shrinks a cell to a box about 1e-18 wide around c, so
    # the tie shave would pull its corners past each other; they stop at the
    # nominal point, whose cell is then the one successor on either axis kind
    # a cell boundary, or below it by more than the quantizer's tie
    # tolerance (1e-9 eta) but less than one shave
    c = -np.pi + 4.5 * 2 * np.pi / 8 - below
    model = Model(name="settle", dim=1, input_dim=1, field=lambda x, u: -40.0 * x + u,
                  linear_matrix=[[-40.0]], angular_dims=(0,) if periodic else ())
    grid = heading_grid(input_lower=[40 * c], input_upper=[40 * c], periodic=(periodic,))
    system, q = build_system(model, grid)
    nominal = one_period(model, SampledFlow(grid.tau), q.centers(), grid.input_values()[0])
    assert system.pair_counts.tolist() == [1] * q.num_cells
    assert system._targets.tolist() == q.cell_index(nominal).tolist()


def test_per_axis_eta_grid():
    grid = GridSpec(tau=1.0, eta=[0.5, 0.25], mu=1.0, domain_lower=[0, 0],
                    domain_upper=[1, 1], input_lower=[0], input_upper=[0])
    assert grid.cells_per_axis().tolist() == [3, 5]
    q = Quantizer(grid)
    assert np.allclose(q.center(q.cell_index(np.array([0.6, 0.6]))), [0.5, 0.5])


# sha256 of each abstraction's CSR, the offsets as little-endian int64 then
# the targets as little-endian int32, recorded when the builder still took
# every nominal endpoint from RK4 and enumerated successors digit by digit:
# neither the exact one-period maps nor the block enumeration may move a
# single transition
CSR_SHA256 = {
    "double_integrator.cfg": "b0dfbe23e0f63bf3450888c5e9c64e8ec33d9f1061fca9eee5c1ee6997261cae",
    "unicycle.cfg": "dae10345a401426fabf61805b925d479dd9a186b0b824181307b975db5bb3bba",
    "di_pipeline": "144eb500aaf0691a97dcb17977902ad0466af63d435f6889a107eff5134afce3",
    "unicycle_pipeline": "4756a02ef2ed5c71b28f6a46d76a2eeb2156c402cc5de67dee91553190b9e09a",
    "game_chain": "1040ad320cf7d7853193cb062bbbac5737c2cce00a6d7557430ff7553064d7f8",
}


def _csr_sha256(system):
    h = hashlib.sha256(system._offsets.astype("<i8").tobytes())
    h.update(system._targets.astype("<i4").tobytes())
    return h.hexdigest()


def test_csr_is_pinned_on_the_shipped_configs_and_benchmark_workloads(
        di_bundle, unicycle_bundle, monkeypatch):
    got = {"double_integrator.cfg": _csr_sha256(di_bundle.system),
           "unicycle.cfg": _csr_sha256(unicycle_bundle.system)}
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import conveyor
    import workloads
    monkeypatch.setitem(MODEL_REGISTRY, conveyor.MODEL_ID, conveyor.conveyor)
    for w in workloads.WORKLOADS.values():
        cfg = parse_config_text(workloads.base_config(ROOT, w))
        boxes, _ = build_abstraction(cfg.build_model(), cfg.grid, threads=w.threads,
                                     input_margin=cfg.input_margin)
        got[w.name] = _csr_sha256(boxes.expand())
    assert got == CSR_SHA256


def test_build_holds_one_copy_of_the_transitions(monkeypatch):
    # `expand` sizes every pair before it allocates the CSR and writes each
    # successor into it once (2.1x the CSR here, the boxes included); one that
    # kept every input's successor array until a merge would hold the
    # transitions twice and peak at 2.6x
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    cfg = parse_config_text(workloads.base_config(ROOT, workloads.WORKLOADS["di_pipeline"]))
    model = cfg.build_model()
    tracemalloc.start()
    try:
        boxes, _ = build_abstraction(model, cfg.grid, threads=1, input_margin=cfg.input_margin)
        built = tracemalloc.get_traced_memory()[1]
        system = boxes.expand()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr = system._offsets.nbytes + system._targets.nbytes
    assert peak < 2.2 * csr
    # the boxes alone, all that `abstract` holds, take a fraction of the CSR
    assert built < 0.5 * csr
