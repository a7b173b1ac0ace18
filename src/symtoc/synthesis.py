"""Fixed-point solvers for reachability and safety games on finite systems.

Transitions all cost one sampling period, so entry-time levels are breadth
layers of the one-step predecessor operator

    reach_step(Z) = W  union  { x : exists u with {} != Post_u(x) subset Z }.

The pessimistic solver treats nondeterminism adversarially (all successors
must already be won); the optimistic solver resolves it favourably (one
successor suffices), which equals solving the game on the determinized
system whose inputs are (input, successor) pairs. Finite levels never exceed
the state count; unreachable states carry the sentinel level num_states+1.

All three solves are calls of one counter-based backward kernel, `_backward`
(attractor construction with per-pair and per-state counters, as in the
fixed points of SCOTS): a wave of newly decided states counts down the pairs
that lead into it, a pair fires when its counter crosses zero and a state is
decided when its own counter does. Every transition is touched once, so each
solve costs O(T + N*M) in the worst case. The pessimistic solve waits for
all successors of a pair, the optimistic one for any, and the safety solve
is the adversary's attractor to the unsafe states, whose complement is the
maximal safe set. `reach_step` is the operator applied directly; it is kept
as the test oracle.

Each solver call is single-threaded over the shared immutable system;
independent solver calls may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fts import FiniteSystem, StateSet, segment_indices, segment_sums


class IntegrityError(ValueError):
    """A table or controller was paired with a system it was not computed from."""


@dataclass
class EntryTimeTable:
    """Per-state level l(x) of the fixed-point iteration; entry time is l(x)-1.

    Levels are 1 on target states, k for states first won after k operator
    applications, and num_states+1 (the infinity sentinel) elsewhere;
    iterations is the highest finite level (0 when nothing is won).
    """
    levels: np.ndarray
    mode: str  # "pessimistic" or "optimistic"
    num_states: int
    iterations: int

    def entry_times(self) -> np.ndarray:
        """Float vector of entry times with inf for unreachable states."""
        out = self.levels.astype(float) - 1.0
        out[self.levels > self.num_states] = np.inf
        return out

    def winning(self) -> StateSet:
        return StateSet.from_mask(self.levels <= self.num_states)


@dataclass
class SafetyController:
    """Least restrictive safety result: allowed inputs on the maximal safe set.

    iterations is the depth of the adversary's attractor: unsafe and blocking
    states are level 1, and a state lost in wave k is level k.
    """
    allowed: np.ndarray  # bool, (num_states, num_inputs)
    domain: StateSet
    iterations: int = 0


@dataclass
class SymbolicController:
    """Per-state enabled input sets with their certified entry-time values.

    Enabled sets are non-empty exactly on winning states outside the target
    and hold the inputs attaining V(x) = 1 + min_u max V(Post_u(x)), so the
    worst-case successor value of each is V(x) - 1: the levels are the only
    stored fact and `worst_values` derives the rest. Stored CSR-style: inputs
    of state x live at enabled_inputs_flat[offsets[x]:offsets[x+1]].
    """
    num_states: int
    num_inputs: int
    levels: np.ndarray
    offsets: np.ndarray
    enabled_inputs_flat: np.ndarray

    def value(self, x: int):
        lvl = int(self.levels[x])
        return lvl - 1 if lvl <= self.num_states else math.inf

    def values(self) -> np.ndarray:
        out = self.levels.astype(float) - 1.0
        out[self.levels > self.num_states] = np.inf
        return out

    def enabled(self, x: int) -> np.ndarray:
        return self.enabled_inputs_flat[self.offsets[x]:self.offsets[x + 1]]

    def worst_values(self, x: int) -> np.ndarray:
        return np.full(self.offsets[x + 1] - self.offsets[x], self.levels[x] - 2)

    @property
    def worst_values_flat(self) -> np.ndarray:  # aligned with enabled_inputs_flat
        return np.repeat(self.levels - 2, np.diff(self.offsets))

    def domain(self) -> StateSet:
        return StateSet.from_mask(self.levels <= self.num_states)



def reach_step(sys: FiniteSystem, W: StateSet, Z: StateSet) -> StateSet:
    """One application of the reachability predecessor operator (for property checks)."""
    outside = ~Z.mask[sys._targets]
    bad = segment_sums(outside, sys._offsets)
    pair_ok = (sys.pair_counts > 0) & (bad == 0)
    x_ok = pair_ok.reshape(sys.num_states, sys.num_inputs).any(axis=1)
    return StateSet.from_mask(W.mask | x_ok)


def _check_target(sys: FiniteSystem, W: StateSet):
    if W.num_states != sys.num_states:
        raise IntegrityError("target set sized for a different system")


def _backward(sys: FiniteSystem, seeds: np.ndarray, pair_need, state_need):
    """Counter-based backward propagation from `seeds`, one wave per level.

    Pair k = x*M+u starts with counter pair_need[k] and state x with
    state_need[x]. When a state joins a wave, every pair with a transition
    into it counts down once; a pair fires when its counter crosses zero, a
    fired pair counts its state down once, and a state joins the next wave
    when its counter crosses zero. Seeds get level 1, a state joining wave k
    gets level k, and states never reached keep the sentinel num_states+1.

    A wave of at most _NARROW states that gather at most _NARROW reverse
    pairs in all runs as a plain loop, pair by pair: a counter fires when its
    count before the decrement was 1, and a state joining the next wave gets
    its level at once, so a later hit in the same wave finds it decided.
    Wider waves run vectorized: counters are decremented by indexing and
    repeats dropped by `_once`, never by sorting. Either way every
    transition is gathered once, when its successor joins a wave, so the
    work is O(T + N*M), and both paths leave the same levels and counters.

    Either need may be the scalar 1 instead of an array, which skips that
    counter: a state that already has its level is dropped by the level
    test, so with state_need 1 a state joins on its first fired pair, and
    with both 1 the kernel is plain backward breadth-first search. A scalar
    pair_need needs a scalar state_need, or repeat hits would count twice.

    Returns (levels, pair_cnt): pair_cnt holds the pair counters as the
    propagation left them, None when pair_need is scalar.
    """
    N, M = sys.num_states, sys.num_inputs
    inf = N + 1
    levels = np.full(N, inf, dtype=np.int64)
    levels[seeds] = 1
    pair_cnt = np.array(pair_need, dtype=np.int64) if np.ndim(pair_need) else None
    state_cnt = np.array(state_need, dtype=np.int64) if np.ndim(state_need) else None
    rev_offsets, rev_pairs = sys.reverse()
    rev_starts, rev_stops = rev_offsets[:-1], rev_offsets[1:]
    seen = np.empty(max(N * M, N) if state_cnt is not None else N, dtype=np.intp)
    # the narrow loop reads and writes through memoryviews, whose items are
    # plain Python ints, not NumPy scalars
    lv, offs, rp = memoryview(levels), memoryview(rev_offsets), memoryview(rev_pairs)
    pc = memoryview(pair_cnt) if pair_cnt is not None else None
    sc = memoryview(state_cnt) if state_cnt is not None else None
    frontier = seeds
    level = 1
    while len(frontier):
        level += 1
        if _is_narrow(frontier, offs):
            joined = []
            for y in frontier:
                for k in rp[offs[y]:offs[y + 1]]:
                    if pc is not None:
                        c = pc[k]
                        pc[k] = c - 1
                        if c != 1:
                            continue
                    x = k // M
                    if sc is not None:
                        c = sc[x]
                        sc[x] = c - 1
                        if c != 1:
                            continue
                    if lv[x] == inf:
                        lv[x] = level
                        joined.append(x)
            frontier = joined
        else:
            frontier = np.asarray(frontier)
            starts, stops = rev_starts[frontier], rev_stops[frontier]
            pairs = rev_pairs[segment_indices(starts, stops - starts)]
            if pair_cnt is not None:
                pairs = _count_down(pair_cnt, pairs)
            if state_cnt is not None:
                states = _count_down(state_cnt, _once(pairs, seen) // M)
            else:
                states = pairs // M
            states = states[levels[states] == inf]
            frontier = _once(states, seen)
            levels[frontier] = level
    return levels, pair_cnt


# Waves gathering at most this many reverse pairs run as the plain loop. A
# vectorized wave pays a fixed 20-50 us for its dozen NumPy calls, the loop
# 0.1-0.3 us a pair: on chains of one-state waves the loop stayed cheaper
# up to about 200 pairs a wave in all three solves, and deep, narrow games
# gather 8-64 pairs a wave.
_NARROW = 128


def _is_narrow(frontier, offs) -> bool:
    """Whether at most _NARROW states gather at most _NARROW reverse pairs.

    Counting stops once the pairs pass the limit, so on a wide wave the
    test costs a few lookups, not one per state.
    """
    if len(frontier) > _NARROW:
        return False
    left = _NARROW
    for y in frontier:
        left -= offs[y + 1] - offs[y]
        if left < 0:
            return False
    return True


def _count_down(cnt: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Decrement cnt once per occurrence in ids; return the ids whose counter
    crossed zero (an id hit twice in the call is returned twice)."""
    before = cnt[ids]
    np.subtract.at(cnt, ids, 1)
    return ids[(before > 0) & (cnt[ids] <= 0)]


def _once(ids: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """ids with repeats dropped, in O(len(ids)); np.unique would sort or hash.

    `seen` is scratch indexed by the ids. Of the positions written for one
    value exactly one is stored, so exactly one occurrence survives.
    """
    at = np.arange(ids.size)
    seen[ids] = at
    return ids[seen[ids] == at]


def _depth(levels: np.ndarray, num_states: int) -> int:
    """Highest finite level, 0 when no state has one."""
    return int(levels[levels <= num_states].max(initial=0))


def solve_pessimistic(sys: FiniteSystem, W: StateSet) -> EntryTimeTable:
    """Levels of the minimal fixed point with adversarial nondeterminism.

    A pair (x,u) waits for all of its successors: it fires once the last
    one is won, and x is won one level later (the backward kernel with
    pair_need = successor counts and state_need = 1).
    """
    _check_target(sys, W)
    levels, _ = _backward(sys, W.indices(), sys.pair_counts, 1)
    return EntryTimeTable(levels, "pessimistic", sys.num_states,
                          _depth(levels, sys.num_states))


def solve_optimistic(sys: FiniteSystem, W: StateSet) -> EntryTimeTable:
    """Levels with favourable nondeterminism: one winning successor suffices.

    Equivalent to solve_pessimistic on the determinized system whose input
    alphabet is (input, successor): singleton successor sets turn the subset
    test into membership, so this is backward breadth-first search (the
    kernel with both needs 1: a pair fires on its first won successor).
    """
    _check_target(sys, W)
    levels, _ = _backward(sys, W.indices(), 1, 1)
    return EntryTimeTable(levels, "optimistic", sys.num_states,
                          _depth(levels, sys.num_states))


def solve_safety(sys: FiniteSystem, safe: StateSet) -> SafetyController:
    """Maximal fixed point of Z -> {x in safe : exists u, {} != Post_u(x) subset Z}.

    Computed as the complement of the adversary's attractor: seeded with the
    unsafe states and the states without enabled inputs, a pair dies on its
    first lost successor and a state is lost once all its enabled pairs are
    dead. The result is the least restrictive safety controller, allowing
    every input whose successors stay in the fixed point; its iterations
    are the attractor depth.
    """
    _check_target(sys, safe)
    N, M = sys.num_states, sys.num_inputs
    enabled = sys.pair_counts > 0
    per_state = enabled.reshape(N, M).sum(axis=1)
    seeds = np.flatnonzero(~safe.mask | (per_state == 0))
    levels, pair_cnt = _backward(sys, seeds, enabled, per_state)
    Z = levels > N
    allowed = (pair_cnt > 0).reshape(N, M) & Z[:, None]
    return SafetyController(allowed=allowed, domain=StateSet.from_mask(Z),
                            iterations=_depth(levels, N))


def extract_controller(sys: FiniteSystem, W: StateSet,
                       table: EntryTimeTable) -> SymbolicController:
    """Time-optimal controller from a pessimistic table.

    At every winning non-target state, enables exactly the inputs whose
    worst-case successor level is one below the state's own level; target
    states get an empty enabled set.
    """
    _check_target(sys, W)
    if table.mode != "pessimistic":
        raise IntegrityError("controller extraction needs a pessimistic table")
    if table.num_states != sys.num_states or table.levels.size != sys.num_states:
        raise IntegrityError("table was computed for a different system")
    if not np.array_equal(table.levels == 1, W.mask):
        raise IntegrityError("table target states do not match W")
    N, M = sys.num_states, sys.num_inputs
    nonempty = sys.pair_counts > 0
    # levels are at most N+1, so the per-transition gather, the largest
    # temporary here, fits int32 whenever the state ids do
    level_type = np.int32 if N < np.iinfo(np.int32).max else np.int64
    worst = np.full(N * M, N + 1, dtype=level_type)
    if sys._targets.size:
        starts = sys._offsets[:-1][nonempty]
        worst[nonempty] = np.maximum.reduceat(table.levels.astype(level_type)[sys._targets], starts)
    worst = worst.reshape(N, M)
    interior = (table.levels > 1) & (table.levels <= N)
    # a pair is enabled when its worst successor is below the state's level
    enabled_pair = nonempty.reshape(N, M) & interior[:, None] & (worst < table.levels[:, None])
    per_state = enabled_pair.sum(axis=1)
    if np.any(interior & (per_state == 0)):
        raise IntegrityError("winning state with no admissible input; table/system mismatch")
    offsets = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(per_state, out=offsets[1:])
    enabled_ids = np.flatnonzero(enabled_pair)
    return SymbolicController(
        num_states=N,
        num_inputs=M,
        levels=table.levels.copy(),
        offsets=offsets,
        enabled_inputs_flat=(enabled_ids % M).astype(np.int32),
    )


def synthesize(sys: FiniteSystem, w_under: StateSet, w_over: StateSet,
               unsafe: StateSet | None = None):
    """(SymbolicController, optimistic EntryTimeTable) of one problem.

    The controller is extracted from the pessimistic game towards the inner
    target cover w_under, the lower bounds are the optimistic game towards
    the outer cover w_over. With `unsafe`, both games run on `sys` restricted
    to the least restrictive safety controller's inputs, the pessimistic
    target shrinks to the maximal safe set, and the reverse adjacency of
    `sys` is released once the restricted system holds its filtered copy.
    An empty winning set is reported through the controller, not raised.
    """
    for given in (w_under, w_over, unsafe):
        if given is not None:
            _check_target(sys, given)
    if unsafe is not None:
        safety = solve_safety(sys, ~unsafe)
        restricted = sys.restrict(safety.allowed)
        sys._reverse_cache = None  # the restricted system holds its filtered copy
        sys, w_under = restricted, w_under & safety.domain
    controller = extract_controller(sys, w_under, solve_pessimistic(sys, w_under))
    return controller, solve_optimistic(sys, w_over)
