"""Independent oracles for the solver tests: definitional value iteration with
plain Python dicts and sets, plus random system generators, readers for the
trace and plot CSVs that only the tests read back, a system built from a
mapping, successor boxes from a mapping, a build expanded to its system, a
line grid with one cell per state for hand-built systems, per-pair
and per-state accessors of systems and solver results, a Monte-Carlo check of
a model's growth bound and an oracle of its reachable-box radius.

These deliberately avoid the package's layered/vectorized code paths: values
are computed straight from the fixed-point definitions so solver bugs cannot
cancel out.
"""

import math

import numpy as np

from symtoc import (FiniteSystem, GridSpec, StateSet, SuccessorBoxes, build_abstraction,
                    integrate, reach_radius)
from symtoc.dynamics import _expm, _expm_and_integral
from symtoc.formats import FormatError


def make_system(num_states, num_inputs, transitions=()):
    """A FiniteSystem from a {(state, input): successors} mapping: each list is
    sorted with repeats dropped, and an empty list leaves the pair disabled,
    as an absent one."""
    pairs = {int(x) * num_inputs + int(u): np.unique(np.asarray(list(succ), dtype=np.int64))
             for (x, u), succ in dict(transitions).items()}
    counts = np.zeros(num_states * num_inputs, dtype=np.int64)
    counts[list(pairs)] = [a.size for a in pairs.values()]
    targets = np.concatenate([np.zeros(0, dtype=np.int64), *(pairs[k] for k in sorted(pairs))])
    return FiniteSystem.from_csr(num_states, num_inputs,
                                 np.concatenate([[0], np.cumsum(counts)]), targets)


def build_system(model, grid, **kwargs):
    """`build_abstraction`'s boxes expanded: (FiniteSystem, Quantizer)."""
    boxes, quantizer = build_abstraction(model, grid, **kwargs)
    return boxes.expand(), quantizer


def make_boxes(grid, boxes=()):
    """SuccessorBoxes on `grid` from a {(cell, input): (starts, counts)} mapping,
    one start and one count per grid axis (or one number each on a 1-D grid);
    each input's shapes are its distinct count vectors, ascending."""
    n = grid.dim
    rows = [[] for _ in range(grid.num_inputs)]
    for (x, u), (starts, counts) in sorted(dict(boxes).items()):
        rows[u].append((x, np.ravel(starts), tuple(np.ravel(counts).tolist())))
    inputs = []
    for pairs in rows:
        shapes = sorted({counts for _, _, counts in pairs})
        inputs.append((np.array([x for x, _, _ in pairs], dtype=np.int32),
                       np.array([s for _, s, _ in pairs], dtype=np.int32).reshape(-1, n),
                       np.array([shapes.index(c) for _, _, c in pairs], dtype=np.int32),
                       np.array(shapes, dtype=np.int32).reshape(-1, n)))
    return SuccessorBoxes(grid, inputs)


def random_boxes(rng, grid, density=0.5):
    """SuccessorBoxes of random boxes on `grid`: each pair is enabled with
    probability `density`, with a random count per axis and a start that keeps
    the box on the grid (any start on a periodic axis)."""
    K = grid.cells_per_axis()
    mapping = {}
    for x in range(grid.num_cells):
        for u in range(grid.num_inputs):
            if rng.random() < density:
                counts = rng.integers(1, K + 1)
                starts = np.where(grid.periodic, rng.integers(0, K), rng.integers(0, K - counts + 1))
                mapping[(x, u)] = (starts, counts)
    return make_boxes(grid, mapping)


def line_grid(n, m):
    """A 1-D grid of n cells and m inputs (n, m >= 1), tau = eta = mu = 1 on
    [0, n-1] x [0, m-1]: cell x is centered at x and input u is the value u."""
    return GridSpec(tau=1.0, eta=1.0, mu=1.0, domain_lower=[0.0], domain_upper=[n - 1.0],
                    input_lower=[0.0], input_upper=[m - 1.0])


def line_grid_meta(n, m):
    """The `# grid:` metadata of line_grid(n, m) on one line, for hand-written
    STS2 and CTL1 texts."""
    return (f"# grid: tau=1 mu=1 eta=[1] periodic=[0] domain_lower=[0] domain_upper=[{n - 1}]"
            f" input_lower=[0] input_upper=[{m - 1}]\n")


def post(sys, x, u):
    """Sorted successors of state x under input u; empty when u is disabled at x."""
    k = int(x) * sys.num_inputs + int(u)
    return sys._targets[sys._offsets[k]:sys._offsets[k + 1]]


def enabled_inputs(sys, x):
    """Inputs with a non-empty successor set at state x, ascending."""
    k = int(x) * sys.num_inputs
    return np.flatnonzero(np.diff(sys._offsets[k:k + sys.num_inputs + 1]) > 0)


def transitions(sys):
    """(x, u, successors) of every enabled pair, in pair order."""
    for k in np.flatnonzero(sys.pair_counts > 0):
        x, u = divmod(int(k), sys.num_inputs)
        yield x, u, post(sys, x, u)


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
            for u in enabled_inputs(sys, x):
                worst = max(V[int(t)] for t in post(sys, x, u))
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
            for u in enabled_inputs(sys, x):
                for t in post(sys, x, u):
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
            for u in enabled_inputs(sys, x):
                if all(int(t) in Z for t in post(sys, x, u)):
                    keep.add(x)
                    break
        if keep == Z:
            break
        Z = keep
    allowed = {x: [int(u) for u in enabled_inputs(sys, x)
                   if all(int(t) in Z for t in post(sys, x, u))]
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
    return make_system(n, m, trans)


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
    sys_b = make_system(n_b, m, concrete)
    sys_a = make_system(n_a, m, abstract)
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
    for u in enabled(controller, x):
        for t in post(sys, x, u):
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
    floats (empty input fields become nan)."""
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
            rows.append([float("nan") if p == "" else float(p) for p in line.split(",")])
    if header is None:
        raise FormatError("plot file has no header")
    return header, rows


def entry_time(table, x):
    """Entry time of state x in an EntryTimeTable, or value of x under a
    SymbolicController: its level minus one, or infinity at the sentinel
    level."""
    lvl = int(table.levels[x])
    return lvl - 1 if lvl <= table.num_states else math.inf


def enabled(ctrl, x):
    """Inputs a SymbolicController enables at state x, ascending."""
    return ctrl.enabled_inputs_flat[ctrl.offsets[x]:ctrl.offsets[x + 1]]


def allowed_inputs(safety, x):
    """Inputs a SafetyController allows at state x, ascending."""
    return np.flatnonzero(safety.allowed[x])


def coords_to_index(quantizer, coords):
    """Flat cell index of per-axis grid coordinates (the last axis of coords)."""
    return (np.asarray(coords, dtype=np.int64) * quantizer.strides).sum(axis=-1)


def growth_bound_dominates(model, flow, r, domain_lower, domain_upper,
                           input_lower, input_upper, samples=1000, seed=0):
    """Monte-Carlo check that reach_radius dominates observed trajectory spread.

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
    bound = reach_radius(model, flow, r)
    return bool(np.all(np.abs(perturbed - nominal) <= bound + 1e-12))


def reach_radius_oracle(model, flow, r, du=0.0, u=None):
    """The reachable-box radius as two separate terms, the growth radius plus
    the input deviation, by the formulas `reach_radius` folds into one call.

    Growth: ||e^{A tau}||_inf * max(r) on every axis for a linear model, else
    e^{L tau} r. Deviation: (integral of e^{L s} over [0, tau]) S du, zero
    when du is 0 or the model has no input sensitivity S. L is the
    contraction for u where the model gives one, else the model's own.
    """
    r = np.asarray(r, dtype=float)
    r = np.full(model.dim, float(r)) if r.ndim == 0 else r
    if u is not None and model.contraction_for_input is not None:
        lip = np.asarray(model.contraction_for_input(np.asarray(u, dtype=float)), dtype=float)
    elif model.contraction_matrix is not None:
        lip = model.contraction_matrix
    else:
        lip = np.abs(model.linear_matrix)
    if model.linear_matrix is not None:
        gain = np.abs(_expm(model.linear_matrix * flow.tau, model.name)).sum(axis=1).max()
        growth = np.full(model.dim, gain * float(r.max()))
    else:
        growth = _expm(lip * flow.tau, model.name) @ r
    if model.input_sensitivity is None or du <= 0:
        return growth + np.zeros(model.dim)
    phi = _expm_and_integral(lip, flow.tau, model.name)[1]
    return growth + phi @ (model.input_sensitivity @ np.full(model.input_dim, float(du)))
