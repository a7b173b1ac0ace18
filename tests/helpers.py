"""Independent oracles for the solver tests: definitional value iteration with
plain Python dicts and sets, plus random system generators, readers for the
trace and plot CSVs that only the tests read back, per-state accessors of
the solver results, and a Monte-Carlo check of a model's growth bound.

These deliberately avoid the package's layered/vectorized code paths: values
are computed straight from the fixed-point definitions so solver bugs cannot
cancel out.
"""

import math

import numpy as np

from symtoc import FiniteSystem, StateSet, growth_radius, integrate
from symtoc.formats import FormatError


def brute_force_pessimistic(sys, w_indices):
    """Min-max game values: worst-case steps to W under the best strategy."""
    W = set(int(x) for x in w_indices)
    n = sys.num_states
    V = {x: (0 if x in W else math.inf) for x in range(n)}
    for _ in range(n + 1):
        newV = {}
        for x in range(n):
            if x in W:
                newV[x] = 0
                continue
            best = math.inf
            for u in sys.enabled_inputs(x):
                worst = max(V[int(t)] for t in sys.post(x, int(u)))
                best = min(best, 1 + worst)
            newV[x] = best
        if newV == V:
            break
        V = newV
    return V


def brute_force_optimistic(sys, w_indices):
    """Min-min values: steps to W when nondeterminism cooperates."""
    W = set(int(x) for x in w_indices)
    n = sys.num_states
    V = {x: (0 if x in W else math.inf) for x in range(n)}
    for _ in range(n + 1):
        newV = {}
        for x in range(n):
            if x in W:
                newV[x] = 0
                continue
            best = math.inf
            for u in sys.enabled_inputs(x):
                for t in sys.post(x, int(u)):
                    best = min(best, 1 + V[int(t)])
            newV[x] = best
        if newV == V:
            break
        V = newV
    return V


def brute_force_safety(sys, safe_indices):
    """Greatest fixed point by repeated removal, with sets."""
    Z = set(int(x) for x in safe_indices)
    while True:
        keep = set()
        for x in Z:
            for u in sys.enabled_inputs(x):
                if all(int(t) in Z for t in sys.post(x, int(u))):
                    keep.add(x)
                    break
        if keep == Z:
            break
        Z = keep
    allowed = {x: [int(u) for u in sys.enabled_inputs(x)
                   if all(int(t) in Z for t in sys.post(x, int(u)))]
               for x in Z}
    return Z, allowed


def random_system(rng, max_states=12, max_inputs=3, density=0.5):
    n = int(rng.integers(1, max_states + 1))
    m = int(rng.integers(1, max_inputs + 1))
    trans = {}
    for x in range(n):
        for u in range(m):
            if rng.random() < density:
                size = int(rng.integers(1, min(3, n) + 1))
                succ = rng.choice(n, size=size, replace=False)
                trans[(x, u)] = succ.tolist()
    return FiniteSystem(n, m, trans)


def random_target(rng, n):
    size = int(rng.integers(0, n + 1))
    return StateSet(n, rng.choice(n, size=size, replace=False).tolist())


def aggregated_pair(rng, max_concrete=60, max_groups=15, max_inputs=3,
                    deterministic=True):
    """A concrete system plus its aggregation abstraction.

    States sharing a group have identical enabled-input sets, so the
    abstraction can both adversarially match every concrete move and be
    matched by one, making its bound bracket exact for the grouping.
    Returns (abstract, concrete, group_of, W_concrete_indices).
    """
    n_b = int(rng.integers(2, max_concrete + 1))
    n_a = int(rng.integers(1, min(max_groups, n_b) + 1))
    m = int(rng.integers(1, max_inputs + 1))
    group_of = np.concatenate([np.arange(n_a), rng.integers(0, n_a, n_b - n_a)])
    rng.shuffle(group_of)
    enabled = [set(int(u) for u in range(m) if rng.random() < 0.7) for _ in range(n_a)]
    concrete = {}
    for s in range(n_b):
        for u in enabled[group_of[s]]:
            if deterministic:
                succ = [int(rng.integers(0, n_b))]
            else:
                size = int(rng.integers(1, min(3, n_b) + 1))
                succ = rng.choice(n_b, size=size, replace=False).tolist()
            concrete[(s, u)] = succ
    abstract = {}
    for s in range(n_b):
        for u in enabled[group_of[s]]:
            key = (int(group_of[s]), u)
            abstract.setdefault(key, set()).update(int(group_of[t]) for t in concrete[(s, u)])
    sys_b = FiniteSystem(n_b, m, concrete)
    sys_a = FiniteSystem(n_a, m, {k: sorted(v) for k, v in abstract.items()})
    w_size = int(rng.integers(1, n_b + 1))
    w_b = sorted(int(x) for x in rng.choice(n_b, size=w_size, replace=False))
    return sys_a, sys_b, group_of, w_b


def lift_targets(group_of, n_a, w_b):
    """Inner and outer covers of a concrete target under the grouping relation."""
    w_set = set(w_b)
    members = [set() for _ in range(n_a)]
    for s, g in enumerate(group_of):
        members[g].add(s)
    under = [a for a in range(n_a) if members[a] and members[a] <= w_set]
    over = [a for a in range(n_a) if members[a] & w_set]
    return under, over


def adversarial_worst_case(sys, controller, x, memo=None):
    """Longest path to a target cell if successors resolve adversarially but the
    controller may pick any of its enabled inputs; infinity if a run can avoid W."""
    if memo is None:
        memo = {}
    if x in memo:
        return memo[x]
    if int(controller.levels[x]) == 1:
        memo[x] = 0
        return 0
    worst = 0
    for u in controller.enabled(x):
        for t in sys.post(x, int(u)):
            worst = max(worst, 1 + adversarial_worst_case(sys, controller, int(t), memo))
    memo[x] = worst
    return worst


def parse_trace(path):
    """Read a trace CSV back; returns (rows, reason, achieved).

    rows is a list of (k, state, input, cell, value) tuples mirroring what
    write_trace emitted; achieved is None when the run did not enter the target.
    """
    rows = []
    reason = None
    achieved = None
    header = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("# reason="):
                parts = dict(tok.split("=", 1) for tok in line[2:].split())
                reason = parts["reason"]
                achieved = None if parts["achieved"] == "none" else int(parts["achieved"])
                continue
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                dim = sum(1 for h in header if h.startswith("x"))
                input_dim = sum(1 for h in header if h.startswith("u"))
                continue
            parts = line.split(",")
            k = int(parts[0])
            state = np.array([float(v) for v in parts[1:1 + dim]])
            inp = np.array([float(v) for v in parts[1 + dim:1 + dim + input_dim]])
            cell = int(parts[1 + dim + input_dim])
            value = int(parts[2 + dim + input_dim])
            rows.append((k, state, inp, cell, value))
    if reason is None:
        raise FormatError("trace file has no final reason comment")
    return rows, reason, achieved


def parse_plot(path):
    """Read a plot CSV back; returns (header_fields, rows) with rows as lists of
    floats (empty input fields become nan) or ints for the gridless format."""
    header = None
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            parts = line.split(",")
            if header[0] == "state":
                rows.append((int(parts[0]),
                             None if parts[1] == "" else int(parts[1]),
                             int(parts[2])))
            else:
                rows.append([float("nan") if p == "" else float(p) for p in parts])
    if header is None:
        raise FormatError("plot file has no header")
    return header, rows


def entry_time(table, x):
    """Entry time of state x in an EntryTimeTable: its level minus one, or
    infinity at the sentinel level."""
    lvl = int(table.levels[x])
    return lvl - 1 if lvl <= table.num_states else math.inf


def allowed_inputs(safety, x):
    """Inputs a SafetyController allows at state x, ascending."""
    return np.flatnonzero(safety.allowed[x])


def coords_to_index(quantizer, coords):
    """Flat cell index of per-axis grid coordinates (the last axis of coords)."""
    return (np.asarray(coords, dtype=np.int64) * quantizer.strides).sum(axis=-1)


def growth_bound_dominates(model, flow, r, domain_lower, domain_upper,
                           input_lower, input_upper, samples=1000, seed=0):
    """Monte-Carlo check that growth_radius dominates observed trajectory spread.

    Draws random nominal states in the domain box, random inputs in the input
    box, and random perturbed starts within infinity-distance r; returns True
    if every perturbed endpoint stays inside the growth box of its nominal
    endpoint.
    """
    rng = np.random.default_rng(seed)
    lo = np.asarray(domain_lower, dtype=float)
    hi = np.asarray(domain_upper, dtype=float)
    ilo = np.asarray(input_lower, dtype=float)
    ihi = np.asarray(input_upper, dtype=float)
    x = rng.uniform(lo, hi, size=(samples, model.dim))
    u = rng.uniform(ilo, ihi, size=(samples, model.input_dim))
    dx = rng.uniform(-r, r, size=(samples, model.dim))
    nominal = integrate(model, flow, x, u)
    perturbed = integrate(model, flow, x + dx, u)
    bound = growth_radius(model, flow, r)
    return bool(np.all(np.abs(perturbed - nominal) <= bound + 1e-12))
