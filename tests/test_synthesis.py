import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symtoc import (FiniteSystem, IntegrityError, StateSet, extract_controller,
                    reach_step, solve_optimistic, solve_pessimistic,
                    solve_safety, synthesis, synthesize)

from helpers import (adversarial_worst_case, allowed_inputs, brute_force_optimistic,
                     brute_force_pessimistic, brute_force_safety, entry_time,
                     random_system, random_target)


@pytest.fixture(params=[0, 10**9], ids=["vectorized", "narrow"])
def wave_path(request, monkeypatch):
    """Send every wave of the backward kernel down one path: with the limit 0
    no wave is narrow, with a huge one every wave is."""
    monkeypatch.setattr(synthesis, "_NARROW", request.param)


def chain():
    return FiniteSystem(3, 1, {(0, 0): [1], (1, 0): [2]})


def branching():
    return FiniteSystem(3, 2, {(0, 0): [1, 2], (0, 1): [1], (1, 0): [2]})


def test_pessimistic_chain():
    t = solve_pessimistic(chain(), StateSet(3, [2]))
    assert t.levels.tolist() == [3, 2, 1]
    assert [entry_time(t, x) for x in range(3)] == [2, 1, 0]


def test_pessimistic_branching():
    t = solve_pessimistic(branching(), StateSet(3, [2]))
    assert [entry_time(t, x) for x in range(3)] == [2, 1, 0]


def test_pessimistic_full_and_empty_target():
    s = branching()
    t = solve_pessimistic(s, StateSet.full(3))
    assert t.levels.tolist() == [1, 1, 1]
    t = solve_pessimistic(s, StateSet(3, []))
    assert [entry_time(t, x) for x in range(3)] == [math.inf] * 3


def test_optimistic_branching_beats_pessimistic():
    s = branching()
    opt = solve_optimistic(s, StateSet(3, [2]))
    assert [entry_time(opt, x) for x in range(3)] == [1, 1, 0]
    pes = solve_pessimistic(s, StateSet(3, [2]))
    assert entry_time(opt, 0) < entry_time(pes, 0)


def test_optimistic_equals_pessimistic_on_deterministic():
    t = solve_optimistic(chain(), StateSet(3, [2]))
    assert [entry_time(t, x) for x in range(3)] == [2, 1, 0]


def test_optimistic_empty_target():
    t = solve_optimistic(branching(), StateSet(3, []))
    assert all(entry_time(t, x) == math.inf for x in range(3))


def test_optimistic_matches_materialized_determinization(wave_path):
    # inputs of the determinized system are (input, successor) pairs with
    # singleton posts; the pessimistic solve on it is the optimistic solve
    rng = np.random.default_rng(21)
    for _ in range(30):
        s = random_system(rng, max_states=10)
        n, m = s.num_states, s.num_inputs
        det = {}
        for x, u, succ in s.transitions():
            for t in succ:
                det[(x, u * n + int(t))] = [int(t)]
        det_sys = FiniteSystem(n, m * n, det)
        W = random_target(rng, n)
        a = solve_pessimistic(det_sys, W).levels
        b = solve_optimistic(s, W).levels
        assert np.array_equal(a, b)


def test_solvers_match_brute_force(wave_path):
    rng = np.random.default_rng(99)
    for i in range(60):
        s = random_system(rng, density=0.2 + 0.6 * (i % 5) / 4)
        W = random_target(rng, s.num_states)
        pes = solve_pessimistic(s, W)
        opt = solve_optimistic(s, W)
        bf_pes = brute_force_pessimistic(s, W.indices())
        bf_opt = brute_force_optimistic(s, W.indices())
        for x in range(s.num_states):
            assert entry_time(pes, x) == bf_pes[x]
            assert entry_time(opt, x) == bf_opt[x]


def test_fixed_point_within_state_count_iterations():
    rng = np.random.default_rng(13)
    for _ in range(40):
        s = random_system(rng, max_states=20)
        W = random_target(rng, s.num_states)
        for table in (solve_pessimistic(s, W), solve_optimistic(s, W)):
            assert table.iterations <= s.num_states
            finite = table.levels[table.levels <= s.num_states]
            if finite.size:
                assert finite.max() <= s.num_states


def test_reach_step_monotone():
    rng = np.random.default_rng(4)
    for _ in range(40):
        s = random_system(rng)
        W = random_target(rng, s.num_states)
        z1 = random_target(rng, s.num_states)
        extra = random_target(rng, s.num_states)
        z2 = z1 | extra
        assert reach_step(s, W, z1) <= reach_step(s, W, z2)


def test_solver_levels_equal_iterated_operator():
    rng = np.random.default_rng(17)
    for _ in range(30):
        s = random_system(rng)
        W = random_target(rng, s.num_states)
        table = solve_pessimistic(s, W)
        z = StateSet(s.num_states, [])
        for k in range(1, s.num_states + 2):
            z_next = reach_step(s, W, z)
            newly = z_next - z
            for x in newly.indices():
                assert int(table.levels[x]) == k
            if z_next == z:
                break
            z = z_next
        assert np.array_equal(z.mask, table.winning().mask)


def test_optimistic_levels_never_exceed_pessimistic():
    rng = np.random.default_rng(42)
    for _ in range(40):
        s = random_system(rng)
        W = random_target(rng, s.num_states)
        opt = solve_optimistic(s, W)
        pes = solve_pessimistic(s, W)
        assert np.all(opt.levels <= pes.levels)


def test_safety_all_safe_nonblocking():
    s = FiniteSystem(2, 2, {(0, 0): [1], (0, 1): [0], (1, 0): [0], (1, 1): [1]})
    ctrl = solve_safety(s, StateSet.full(2))
    assert len(ctrl.domain) == 2
    for x in range(2):
        assert allowed_inputs(ctrl, x).tolist() == [0, 1]


def test_safety_hand_example():
    # Safe={0,1}: staying put at 0 with input a is the only safe behaviour
    s = FiniteSystem(3, 2, {(0, 0): [0], (0, 1): [1], (1, 0): [2]})
    ctrl = solve_safety(s, StateSet(3, [0, 1]))
    assert ctrl.domain.indices().tolist() == [0]
    assert allowed_inputs(ctrl, 0).tolist() == [0]
    assert ctrl.iterations == 2  # 2 is unsafe (level 1), 1 is lost next (level 2)


def test_safety_empty():
    s = chain()
    ctrl = solve_safety(s, StateSet(3, []))
    assert len(ctrl.domain) == 0
    assert not ctrl.allowed.any()


def with_loops_and_dead_state(rng, s):
    """Copy of s with self-loops added to some pairs and every pair of one state disabled."""
    dead = int(rng.integers(s.num_states))
    trans = {}
    for x, u, succ in s.transitions():
        if x != dead:
            trans[(x, u)] = succ.tolist() + ([x] if rng.random() < 0.4 else [])
    return FiniteSystem(s.num_states, s.num_inputs, trans)


def test_safety_matches_brute_force(wave_path):
    def check(s, safe):
        ctrl = solve_safety(s, safe)
        z, allowed = brute_force_safety(s, safe.indices())
        assert set(ctrl.domain.indices().tolist()) == z
        for x in z:
            assert allowed_inputs(ctrl, x).tolist() == allowed[x]
        assert not ctrl.allowed[~ctrl.domain.mask].any()

    rng = np.random.default_rng(31)
    for _ in range(40):
        s = random_system(rng)
        check(s, random_target(rng, s.num_states))
    # empty and full safe sets, self-loops, states with every pair disabled
    rng = np.random.default_rng(32)
    for i in range(40):
        s = random_system(rng, density=0.2 + 0.6 * (i % 5) / 4)
        s = with_loops_and_dead_state(rng, s)
        n = s.num_states
        for safe in (StateSet(n, []), StateSet.full(n), random_target(rng, n)):
            check(s, safe)


def sink_chain(n, inputs=1):
    """x -> x+1 under each of the inputs; the last state is a sink with a
    self-loop. Every wave of a solve is one state gathering `inputs` pairs."""
    nxt = np.minimum(np.arange(1, n + 1), n - 1)
    return FiniteSystem.from_csr(n, inputs, np.arange(n * inputs + 1), np.repeat(nxt, inputs))


def test_long_chain_solves_scale_linearly():
    # one state per wave for n waves: a solver that re-sweeps all T
    # transitions per wave grows like 16x from n to 4n, a linear one like 4x;
    # the two sizes alternate so that a burst of machine load hits both. The
    # single-input chain runs the narrow loop, the 200-input one gathers
    # more pairs a wave than _NARROW and runs vectorized.
    assert synthesis._NARROW < 200
    for n, inputs in ((2000, 1), (250, 200)):
        for solve in (solve_safety, solve_pessimistic, solve_optimistic):
            best = {}
            for _ in range(3):
                for size in (n, 4 * n):
                    s = sink_chain(size, inputs)
                    s.reverse()
                    sink = StateSet(size, [size - 1])
                    t0 = time.process_time()
                    result = solve(s, ~sink if solve is solve_safety else sink)
                    best[size] = min(best.get(size, math.inf), time.process_time() - t0)
                    assert result.iterations == size
            assert best[4 * n] < 8 * best[n], (solve.__name__, inputs, best)


def test_narrow_and_vectorized_waves_agree(monkeypatch):
    # random games with self-loops and a dead state, seeded so that a pair
    # with two successors is hit twice in the first wave; the kernel also
    # runs with random needs, 0 included, on pairs that have successors.
    # The limit 4 mixes both paths within one solve.
    def run(s, W, safe, pair_need, state_need):
        seeds = W.indices()
        return (solve_pessimistic(s, W).levels, solve_optimistic(s, W).levels,
                solve_safety(s, safe).allowed,
                *synthesis._backward(s, seeds, pair_need, state_need),
                *synthesis._backward(s, seeds, pair_need, 1))

    rng = np.random.default_rng(5)
    for i in range(60):
        s = with_loops_and_dead_state(rng, random_system(rng, max_states=30,
                                                         density=0.2 + 0.6 * (i % 5) / 4))
        n, m = s.num_states, s.num_inputs
        W, safe = random_target(rng, n), random_target(rng, n)
        forked = [succ for _, _, succ in s.transitions() if succ.size > 1]
        if forked:
            W = W | StateSet(n, forked[0].tolist())
        pair_need = rng.integers(0, 3, n * m)
        state_need = rng.integers(0, m + 1, n)
        results = []
        for limit in (0, 4, 10**9):
            monkeypatch.setattr(synthesis, "_NARROW", limit)
            results.append(run(s, W, safe, pair_need, state_need))
        for vectorized, *others in zip(*results):
            for other in others:
                assert np.array_equal(vectorized, other)


def test_extract_controller_branching():
    s = branching()
    W = StateSet(3, [2])
    table = solve_pessimistic(s, W)
    ctrl = extract_controller(s, W, table)
    assert ctrl.enabled(0).tolist() == [0, 1]  # both inputs reach level 2
    assert ctrl.enabled(1).tolist() == [0]
    assert ctrl.enabled(2).tolist() == []      # target cell needs no move
    assert ctrl.value(0) == 2 and ctrl.value(2) == 0


def test_extract_controller_chain():
    s = chain()
    W = StateSet(3, [2])
    ctrl = extract_controller(s, W, solve_pessimistic(s, W))
    assert ctrl.enabled(0).tolist() == [0]
    assert ctrl.enabled(1).tolist() == [0]


def test_extract_controller_integrity_checks():
    s = branching()
    W = StateSet(3, [2])
    opt = solve_optimistic(s, W)
    with pytest.raises(IntegrityError):
        extract_controller(s, W, opt)
    pes = solve_pessimistic(s, W)
    with pytest.raises(IntegrityError):
        extract_controller(s, StateSet(3, [1]), pes)  # wrong target
    other = FiniteSystem(4, 1, {(0, 0): [1]})
    with pytest.raises(IntegrityError):
        extract_controller(other, StateSet(4, [1]), pes)


def test_controller_every_enabled_input_makes_progress():
    rng = np.random.default_rng(71)
    for _ in range(40):
        s = random_system(rng)
        W = random_target(rng, s.num_states)
        table = solve_pessimistic(s, W)
        ctrl = extract_controller(s, W, table)
        for x in range(s.num_states):
            lvl = table.levels[x]
            if 1 < lvl <= s.num_states:
                assert ctrl.enabled(x).size > 0
                for u in ctrl.enabled(x):
                    worst = max(table.levels[int(t)] for t in s.post(x, int(u)))
                    assert worst == lvl - 1


@st.composite
def games(draw):
    """A system with disabled pairs and self-loops, a target, and a safe set or None."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 3))
    trans = {}
    for x in range(n):
        for u in range(m):
            succ = draw(st.lists(st.integers(0, n - 1), max_size=3))  # [] disables (x,u)
            if succ and draw(st.booleans()):
                succ.append(x)
            trans[(x, u)] = succ
    target = draw(st.sets(st.integers(0, n - 1)))
    safe = draw(st.none() | st.sets(st.integers(0, n - 1)))
    return FiniteSystem(n, m, trans), StateSet(n, target), safe


@settings(max_examples=300, deadline=None)
@given(game=games())
def test_enabled_inputs_lead_exactly_one_level_down(game):
    # the controller stores only levels: every enabled input's worst successor
    # is exactly one level below its state, which worst_values derives
    s, W, safe = game
    unsafe = None if safe is None else ~StateSet(s.num_states, safe)
    system = s if safe is None else s.restrict(solve_safety(s, ~unsafe).allowed)
    ctrl, _ = synthesize(s, W, W, unsafe)
    for x in range(s.num_states):
        worst = [max(ctrl.levels[t] for t in system.post(x, int(u))) for u in ctrl.enabled(x)]
        assert worst == [ctrl.levels[x] - 1] * len(worst)
        assert ctrl.worst_values(x).tolist() == [w - 1 for w in worst]
    assert ctrl.worst_values_flat.tolist() == [
        v for x in range(s.num_states) for v in ctrl.worst_values(x).tolist()]


def test_controller_adversarially_sound():
    # every adversarially resolved run from x enters W within value(x) steps
    rng = np.random.default_rng(55)
    for _ in range(30):
        s = random_system(rng, max_states=10)
        W = random_target(rng, s.num_states)
        table = solve_pessimistic(s, W)
        ctrl = extract_controller(s, W, table)
        memo = {}
        for x in range(s.num_states):
            if table.levels[x] <= s.num_states:
                assert adversarial_worst_case(s, ctrl, x, memo) <= ctrl.value(x)


def test_safe_reach_trivial_safety_equals_plain():
    # non-blocking variant of the branching system: target state self-loops
    s = FiniteSystem(3, 2, {(0, 0): [1, 2], (0, 1): [1], (1, 0): [2], (2, 0): [2]})
    W = StateSet(3, [2])
    ctrl, lower = synthesize(s, W, W, StateSet(3, []))
    plain, plain_lower = synthesize(s, W, W)
    assert np.array_equal(ctrl.levels, plain.levels)
    assert np.array_equal(ctrl.enabled_inputs_flat, plain.enabled_inputs_flat)
    assert np.array_equal(lower.levels, plain_lower.levels)


@settings(max_examples=300, deadline=None)
@given(game=games(), data=st.data())
def test_synthesize_equals_the_step_by_step_composition(game, data):
    s, w_under, safe = game
    n = s.num_states
    w_over = w_under | StateSet(n, data.draw(st.sets(st.integers(0, n - 1))))
    unsafe = None if safe is None else ~StateSet(n, safe)
    # by hand: safety, restriction, pessimistic game and extraction on the
    # safe target, optimistic game on the same system
    system, target = s, w_under
    if unsafe is not None:
        safety = solve_safety(s, ~unsafe)
        system = s.restrict(safety.allowed)
        assert system._reverse_cache is not None  # filtered from the parent's
        target = w_under & safety.domain
    ctrl = extract_controller(system, target, solve_pessimistic(system, target))
    lower = solve_optimistic(system, w_over)
    got, got_lower = synthesize(s, w_under, w_over, unsafe)
    assert np.array_equal(got.levels, ctrl.levels)
    assert np.array_equal(got.offsets, ctrl.offsets)
    assert np.array_equal(got.enabled_inputs_flat, ctrl.enabled_inputs_flat)
    assert np.array_equal(got_lower.levels, lower.levels)
    assert got_lower.mode == "optimistic"


def test_safe_reach_releases_the_full_systems_reverse():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_system(rng)
        unsafe, W = random_target(rng, s.num_states), random_target(rng, s.num_states)
        s.reverse()
        synthesize(s, W, W, unsafe)
        assert s._reverse_cache is None  # the restricted system held its own copy
        s.reverse()
        synthesize(s, W, W)
        assert s._reverse_cache is not None  # no restriction, nothing to release


def test_safety_excludes_blocking_states():
    # the safety operator demands a non-empty safe move, so sink states fall out
    s = branching()
    ctrl = solve_safety(s, StateSet.full(3))
    assert 2 not in ctrl.domain


def test_safe_reach_detour_is_strictly_slower():
    # fast route 0-1-3 crosses unsafe state 1; safe route 0-2-4-3 needs one more step
    s = FiniteSystem(5, 2, {
        (0, 0): [1], (0, 1): [2],
        (1, 0): [3],
        (2, 1): [4],
        (4, 1): [3],
        (3, 0): [3],
    })
    W = StateSet(5, [3])
    unconstrained = solve_pessimistic(s, W)
    assert entry_time(unconstrained, 0) == 2
    unsafe = StateSet(5, [1])
    ctrl, lower = synthesize(s, W, W, unsafe)
    assert ctrl.value(0) == 3
    assert entry_time(lower, 0) == 3  # the optimistic game avoids state 1 too
    safety = solve_safety(s, ~unsafe)
    assert safety.domain.indices().tolist() == [0, 2, 3, 4]
    bf = brute_force_pessimistic(s.restrict(safety.allowed), (W & safety.domain).indices())
    assert bf[0] == 3


def test_safe_reach_unreachable_target_reports_empty():
    s = FiniteSystem(3, 1, {(0, 0): [1], (1, 0): [1], (2, 0): [2]})
    ctrl, lower = synthesize(s, StateSet(3, []), StateSet(3, []), StateSet(3, []))
    assert len(ctrl.domain()) == 0
    assert len(lower.winning()) == 0
