"""Grid abstractions of sampled control systems and target-set lifting.

A GridSpec quantizes an axis-aligned state domain with step eta (per axis)
and the input box with step mu; each cell stands for the concrete states
within eta/2 of its center, and the quantizer maps every point to exactly
one cell (a half-up partition). The builder computes, per cell and grid
input, a reachable-set box (nominal endpoint, exact for linear models and
models with a closed-form flow map and RK4 otherwise, inflated by the growth
radius) and connects the cell to every cell the quantizer can map a box
point to. Inputs whose box leaves the domain are disabled rather than
clipped, so the finite system never hides a successor.

Angular coordinates wrap: quantization, successor enumeration and target
tests are all performed on the circle for axes marked periodic.

A target (or obstacle) is a union of closed boxes. Its outer cover holds the
cells whose closed box meets the target, and its inner cover the cells whose
closed box lies in the union of the members; both are exact for unions. Both
rest on one per-axis closed-interval test (`_axis_in`): the outer cover tests
each cell center against the members widened by eta/2, and the inner cover
cuts each cell at every member bound and tests the midpoint of every piece.
The covers allow 1e-9*eta per axis on both sides of every bound; membership
of a concrete point (`TargetSpec.contains`) is the same test with 1e-12.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import DivergenceError, Model, SampledFlow, one_period, reach_radius
from .fts import FiniteSystem, StateSet, segment_indices

_REL_TOL = 1e-9  # tolerance, in units of eta, for quantization ties and target covers
# Reachable-box corners are pulled inward by this absolute amount before
# quantization, so a corner landing exactly on a cell boundary resolves to
# the cell the attainable values actually fall in (the quantizer regions are
# half-open above; the boundary value itself belongs to the next cell but is
# only reached from states outside the source region). Absolute, so nested
# grids of different steps shave identically. Assumes coordinates and
# integration noise well above 1e-12 in magnitude.
_TIE_SHAVE = 1e-9
# A coordinate of magnitude m is rounded by up to m * 2^-53 before a periodic
# axis wraps it; past this magnitude that rounding exceeds the tie shave, so
# the builder rejects such endpoints on periodic axes.
_MAX_WRAPPED = _TIE_SHAVE * 2.0 ** 53
_MAX_IDS = 2.0 ** 31  # state and input ids are stored as int32
# Successors the builder enumerates per block: a block's int64 work arrays
# stay near 256 KB, so the memory of a build does not grow with the
# successors of one input.
_ENUM_BLOCK = 1 << 15


class OutOfDomainError(ValueError):
    """A concrete state fell outside the gridded region."""


def _axis_cell(vals, lo, eta, K, period, periodic):
    """Nearest-center cell index per value, ties rounding half-up.

    lo, eta, K, period and periodic broadcast against vals: one axis's
    scalars, or one entry per column of a (points, dim) array. On a
    non-periodic axis the closed top edge (last center + eta/2) clips to the
    last cell; there is no range validation, callers decide how to treat
    out-of-range indices. On a periodic axis values are taken on the circle,
    and those in the seam gap past the last center map to whichever of the
    last and first centers is closer (first on ties).
    """
    periodic = np.asarray(periodic)
    # a scalar flag (the builder's per-axis calls) skips the reductions
    wrap, every = (periodic.any(), periodic.all()) if periodic.ndim else (bool(periodic),) * 2
    d = np.asarray(vals, dtype=float) - lo
    if wrap:
        np.mod(d, period, out=d, where=periodic)
    v = d / eta + 0.5
    i = np.floor(v + _REL_TOL).astype(np.int64)
    if wrap:
        seam = (i >= K) & periodic
        if seam.any():
            ds, Ks, etas, ps = (np.broadcast_to(a, i.shape)[seam] for a in (d, K, eta, period))
            i[seam] = np.where(ps - ds <= ds - (Ks - 1) * etas, 0, Ks - 1)
    if not every:
        i = np.where((i == K) & (v <= K + _REL_TOL), K - 1, i)
    return i


@dataclass(frozen=True)
class GridSpec:
    """Quantization parameters: sampling period tau, state step eta, input step mu.

    eta may be one number (uniform across coordinates) or one step per axis;
    it is stored as a per-axis vector either way.
    """
    tau: float
    eta: float
    mu: float
    domain_lower: np.ndarray
    domain_upper: np.ndarray
    input_lower: np.ndarray
    input_upper: np.ndarray
    periodic: tuple = ()

    def __post_init__(self):
        for name in ("domain_lower", "domain_upper", "input_lower", "input_upper"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        if self.domain_lower.shape != self.domain_upper.shape or self.domain_lower.ndim != 1:
            raise ValueError("domain bounds must be equal-length vectors")
        if self.input_lower.shape != self.input_upper.shape or self.input_lower.ndim != 1:
            raise ValueError("input bounds must be equal-length vectors")
        eta = np.atleast_1d(np.asarray(self.eta, dtype=float))
        if eta.size == 1:
            eta = np.full(self.dim, eta[0])
        if eta.shape != (self.dim,):
            raise ValueError("eta must be one number or one step per state axis")
        object.__setattr__(self, "eta", eta)
        if not np.isfinite(np.hstack([self.tau, self.mu, eta, self.domain_lower, self.domain_upper,
                                      self.input_lower, self.input_upper])).all():
            raise ValueError("tau, eta, mu and the bounds must be finite")
        if self.tau <= 0 or np.any(eta <= 0) or self.mu <= 0:
            raise ValueError("tau, eta and mu must be positive")
        if np.any(self.domain_upper < self.domain_lower):
            raise ValueError("domain upper bound below lower bound")
        if np.any(self.input_upper < self.input_lower):
            raise ValueError("input upper bound below lower bound")
        per = tuple(bool(b) for b in self.periodic) or (False,) * self.dim
        if len(per) != self.dim:
            raise ValueError("periodic flags must match the state dimension")
        object.__setattr__(self, "periodic", per)
        if any(per[k] and self.domain_upper[k] <= self.domain_lower[k] for k in range(self.dim)):
            raise ValueError("periodic axes need a positive period (upper > lower)")
        for what, counts in zip(("cells", "inputs"), self._axis_counts()):
            with np.errstate(over="ignore"):
                total = np.prod(counts)
            if not total < _MAX_IDS:
                raise ValueError(f"{total:.3g} {what}, but state and input ids are "
                                 f"int32: a grid needs fewer than 2^31 {what}")

    @property
    def dim(self) -> int:
        return self.domain_lower.size

    @property
    def input_dim(self) -> int:
        return self.input_lower.size

    @property
    def eps(self) -> np.ndarray:
        return 0.5 * self.eta

    def periods(self) -> np.ndarray:
        return self.domain_upper - self.domain_lower

    def _axis_counts(self):
        """Cells and inputs per axis as floats, before any integer cast."""
        span = self.domain_upper - self.domain_lower
        with np.errstate(over="ignore"):
            cells = np.where(self.periodic,
                             # exact tiling of the circle when eta divides the period
                             np.maximum(1, np.ceil(span / self.eta - _REL_TOL)),
                             np.floor(span / self.eta + _REL_TOL) + 1)
            inputs = np.floor((self.input_upper - self.input_lower) / self.mu + _REL_TOL) + 1
        return cells, inputs

    def cells_per_axis(self) -> np.ndarray:
        return self._axis_counts()[0].astype(np.int64)

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.cells_per_axis()))

    def inputs_per_axis(self) -> np.ndarray:
        return self._axis_counts()[1].astype(np.int64)

    @property
    def num_inputs(self) -> int:
        return int(np.prod(self.inputs_per_axis()))

    def input_values(self) -> np.ndarray:
        """All grid inputs, shape (num_inputs, input_dim), C-order over axes."""
        axes = [self.input_lower[k] + self.mu * np.arange(n)
                for k, n in enumerate(self.inputs_per_axis())]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


class Quantizer:
    """Bijection between flat cell indices and grid coordinates / cell centers."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.cells = grid.cells_per_axis()
        self.num_cells = int(np.prod(self.cells))
        strides = np.ones(grid.dim, dtype=np.int64)
        for k in range(grid.dim - 2, -1, -1):
            strides[k] = strides[k + 1] * self.cells[k + 1]
        self.strides = strides
        self._periods = grid.periods()
        self._periodic = np.array(grid.periodic)
        self._centers = None

    def index_to_coords(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        coords = np.empty(idx.shape + (self.grid.dim,), dtype=np.int64)
        rem = idx
        for k in range(self.grid.dim):
            coords[..., k] = rem // self.strides[k]
            rem = rem % self.strides[k]
        return coords

    def center(self, idx) -> np.ndarray:
        coords = self.index_to_coords(idx)
        return self.grid.domain_lower + self.grid.eta * coords

    def centers(self) -> np.ndarray:
        """Centers of all cells, shape (num_cells, dim); cached."""
        if self._centers is None:
            self._centers = self.center(np.arange(self.num_cells))
            self._centers.setflags(write=False)
        return self._centers

    def cell_bounds(self, idx):
        c = self.center(idx)
        h = 0.5 * self.grid.eta
        return c - h, c + h

    def cell_index(self, x) -> np.ndarray | int:
        """Flat index of the cell whose center is nearest to x (ties round
        half-up), or -1 where x is non-finite or outside the region covered
        by cells on a non-periodic axis. A 1-D x is one state and gives an
        int; otherwise each row is a state."""
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        g = self.grid
        ok = np.isfinite(pts).all(axis=1)
        pts = np.where(ok[:, None], pts, g.domain_lower)
        # periodic columns always come out in range
        i = _axis_cell(pts, g.domain_lower, g.eta, self.cells, self._periods, self._periodic)
        ok &= ((i >= 0) & (i < self.cells)).all(axis=1)
        flat = np.where(ok, i @ self.strides, -1)
        return int(flat[0]) if x.ndim == 1 else flat

    def quantize(self, x) -> np.ndarray | int:
        """`cell_index`, raising OutOfDomainError where it gives -1."""
        flat = self.cell_index(x)
        bad = np.flatnonzero(np.atleast_1d(flat) < 0)
        if bad.size:
            state = np.atleast_2d(np.asarray(x, dtype=float))[bad[0]]
            raise OutOfDomainError(f"state {state.tolist()} outside gridded domain")
        return flat


# -- target specifications ---------------------------------------------

@dataclass(frozen=True)
class TargetBox:
    """One axis-aligned member of a target: closed interval per axis, or free."""
    lower: np.ndarray
    upper: np.ndarray
    free: tuple

    def __post_init__(self):
        object.__setattr__(self, "lower", np.atleast_1d(np.asarray(self.lower, dtype=float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if self.lower.shape != self.upper.shape:
            raise ValueError("box bounds must have equal length")
        fr = tuple(bool(b) for b in self.free) or (False,) * self.lower.size
        if len(fr) != self.lower.size:
            raise ValueError("free flags must match the box dimension")
        object.__setattr__(self, "free", fr)
        if any(self.upper[k] < self.lower[k] and not fr[k] for k in range(self.lower.size)):
            raise ValueError("box upper bound below lower bound")


class TargetSpec:
    """Concrete-coordinate region: a union of boxes (a ball in the max norm is a box)."""

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise ValueError("target needs at least one member")
        dim = members[0].lower.size
        if any(m.lower.size != dim for m in members):
            raise ValueError("all target members must share a dimension")
        self.members = members
        self.dim = dim

    @staticmethod
    def _free_mask(free, dim):
        mask = [False] * dim
        for d in free:
            mask[int(d)] = True
        return tuple(mask)

    @classmethod
    def box(cls, lower, upper, free=()) -> "TargetSpec":
        """Axis-aligned box; `free` lists coordinate indices left unconstrained."""
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        return cls([TargetBox(lower, upper, cls._free_mask(free, lower.size))])

    @classmethod
    def ball(cls, center, radius, free=()) -> "TargetSpec":
        """Ball in the max norm, which is a box; `free` as in box()."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        return cls([TargetBox(center - radius, center + radius,
                              cls._free_mask(free, center.size))])

    @classmethod
    def union(cls, *specs) -> "TargetSpec":
        members = []
        for s in specs:
            members.extend(s.members)
        return cls(members)

    def contains(self, x, grid: GridSpec | None = None) -> bool:
        """Closed membership of a concrete point, 1e-12 on both sides of every
        bound, wrapping the periodic axes of `grid`."""
        x = np.asarray(x, dtype=float)
        return any(all(_axis_in(grid, m, k, x[k], 0.0, 1e-12) for k in range(self.dim))
                   for m in self.members)


def _axis_in(grid, member, k, v, grow, tol):
    """Whether coordinate(s) v lie in the member's closed interval on axis k
    widened by grow + tol on both sides: true on free axes, tested on the
    circle on periodic axes of `grid` (None: no axis wraps)."""
    if member.free[k]:
        return True
    lo = member.lower[k] - grow - tol
    hi = member.upper[k] + grow + tol
    if grid is None or not grid.periodic[k]:
        return (lo <= v) & (v <= hi)
    period = grid.domain_upper[k] - grid.domain_lower[k]
    return (hi - lo >= period) | (np.mod(v - lo, period) <= hi - lo)


def _hits(grid, spec, pts, grow, tol):
    """Which points of the product of the per-axis coordinate arrays `pts` lie
    in some member widened by grow[k] + tol[k]; shaped like the product."""
    shape = tuple(p.size for p in pts)
    hit = np.zeros(shape, dtype=bool)
    for m in spec.members:
        inside = np.ones(shape, dtype=bool)
        for k, p in enumerate(pts):
            inside &= np.reshape(_axis_in(grid, m, k, p, grow[k], tol[k]),
                                 (-1,) + (1,) * (len(pts) - 1 - k))
        hit |= inside
    return hit


def _axis_centers(grid):
    return [grid.domain_lower[k] + grid.eta[k] * np.arange(K)
            for k, K in enumerate(grid.cells_per_axis())]


def _pieces(grid, spec, k, centers, tol):
    """Cut each cell's closed interval on axis k at every member bound widened
    by tol (on a periodic axis, at its image in the cell's first period);
    returns the piece midpoints, cell by cell, and each cell's first piece.
    Within one period of the cell's start no bound lies inside a piece, so the
    midpoints decide the cell (when eta exceeds the period, the last piece runs
    past it and only adds one more point of the box)."""
    a = centers - 0.5 * grid.eta[k]
    b = centers + 0.5 * grid.eta[k]
    cuts = np.array([v for m in spec.members if not m.free[k]
                     for v in (m.lower[k] - tol, m.upper[k] + tol)])
    pos = np.broadcast_to(cuts, (a.size, cuts.size))
    if grid.periodic[k]:
        period = grid.domain_upper[k] - grid.domain_lower[k]
        pos = a[:, None] + np.mod(cuts - a[:, None], period)
    inside = (a[:, None] < pos) & (pos < b[:, None])
    edges = np.concatenate([a[:, None], np.sort(np.where(inside, pos, b[:, None]), axis=1),
                            b[:, None]], axis=1)
    count = 1 + inside.sum(axis=1)
    mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
    return mids[np.arange(cuts.size + 1) < count[:, None]], np.cumsum(count) - count


def target_over(grid: GridSpec, spec: TargetSpec) -> StateSet:
    """Cells whose closed box meets the target (the outer cell cover)."""
    if spec.dim != grid.dim:
        raise ValueError("target dimension does not match the grid")
    hit = _hits(grid, spec, _axis_centers(grid), grid.eps, _REL_TOL * grid.eta)
    return StateSet.from_mask(hit.ravel())


def target_under(grid: GridSpec, spec: TargetSpec) -> StateSet:
    """Cells whose closed box lies in the union of the members (the inner cell cover)."""
    if spec.dim != grid.dim:
        raise ValueError("target dimension does not match the grid")
    tol = _REL_TOL * grid.eta
    cut = [_pieces(grid, spec, k, c, tol[k])
           for k, c in enumerate(_axis_centers(grid))]
    hit = _hits(grid, spec, [mids for mids, _ in cut], np.zeros(grid.dim), tol)
    for k, (_, first) in enumerate(cut):
        hit = np.logical_and.reduceat(hit, first, axis=k)
    return StateSet.from_mask(hit.ravel())


# -- abstraction builder -----------------------------------------------

def build_abstraction(model: Model, grid: GridSpec, threads: int = 1,
                      input_margin: bool = False):
    """Finite over-approximating abstraction of the sampled dynamics on the grid.

    For every cell center and grid input the nominal endpoint after one
    period grid.tau (`one_period`: exact where the model allows, RK4
    otherwise) is inflated by the growth radius at eta/2
    (input-specific when the model provides per-input contraction data);
    successors are all cells the quantizer can map a point of the resulting
    box to. The input is disabled at a cell when the box is not contained in
    the domain (non-periodic axes). All cells are initial. Returns
    (FiniteSystem, Quantizer). Raises DivergenceError when an endpoint on a
    periodic axis is too large to wrap soundly (`_MAX_WRAPPED`).

    With input_margin (the config's `grid.input_margin`) the boxes also cover
    concrete inputs within mu/2 of each grid input, for plants whose
    actuation is quantized; it requires the model to declare
    input_sensitivity.

    Per-input work may run on a thread pool; results are merged in input
    order, so the output is identical for any thread count.
    """
    flow = SampledFlow(grid.tau)
    if model.dim != grid.dim or model.input_dim != grid.input_dim:
        raise ValueError("model dimensions do not match the grid")
    if grid.num_cells == 0:
        raise ValueError("grid has no cells")
    quantizer = Quantizer(grid)
    centers = quantizer.centers()
    inputs = grid.input_values()
    n, N, M = grid.dim, quantizer.num_cells, inputs.shape[0]
    eta = grid.eta
    K = quantizer.cells
    periods = grid.periods()
    abs_tol = _REL_TOL * eta
    eff_lo = grid.domain_lower
    last_center = grid.domain_lower + (K - 1) * eta
    eff_hi = np.minimum(grid.domain_upper, last_center + 0.5 * eta)
    margin = 0.5 * grid.mu if input_margin else 0.0
    if margin > 0 and model.input_sensitivity is None:
        raise ValueError(f"model '{model.name}' declares no input_sensitivity; "
                         "an input margin cannot be covered")

    # A box corner landing exactly on a cell boundary: the bottom corner
    # always resolves to the boundary's upper cell (the boundary value is the
    # closed lower edge of that cell's region). The top corner resolves down
    # without a margin (the boundary value is only produced by states outside
    # the half-open source region) but stays inclusive with one (the covered
    # input cell is closed, so margin-induced extremes are attained).
    top_shave = -_TIE_SHAVE if margin > 0 else _TIE_SHAVE

    def job(u):
        radius = reach_radius(model, flow, grid.eps, du=margin, u=inputs[u])
        nominal = one_period(model, flow, centers, inputs[u])
        for k in np.flatnonzero(grid.periodic):
            m = float(np.abs(nominal[:, k]).max())
            if m > _MAX_WRAPPED:
                raise DivergenceError(
                    f"model '{model.name}': an endpoint on periodic axis x{k + 1} has "
                    f"magnitude {m:.3g}, above {_MAX_WRAPPED:.3g}, where its rounding "
                    f"exceeds the {_TIE_SHAVE:g} tie shave")
        blo = nominal - radius
        bhi = nominal + radius
        enabled = np.ones(N, dtype=bool)
        starts = np.zeros((N, n), dtype=np.int64)
        counts = np.ones((N, n), dtype=np.int64)
        for k in range(n):
            axis = (grid.domain_lower[k], eta[k], int(K[k]), periods[k], grid.periodic[k])
            if grid.periodic[k]:
                if 2.0 * radius[k] >= periods[k] - abs_tol[k]:
                    starts[:, k] = 0
                    counts[:, k] = K[k]
                    continue
                s = _axis_cell(blo[:, k] + _TIE_SHAVE, *axis)
                e = _axis_cell(bhi[:, k] - top_shave, *axis)
                starts[:, k] = s
                counts[:, k] = np.mod(e - s, K[k]) + 1
            else:
                enabled &= (blo[:, k] >= eff_lo[k] - abs_tol[k]) & (bhi[:, k] <= eff_hi[k] + abs_tol[k])
                s = np.clip(_axis_cell(blo[:, k] + _TIE_SHAVE, *axis), 0, K[k] - 1)
                e = np.clip(_axis_cell(bhi[:, k] - top_shave, *axis), 0, K[k] - 1)
                starts[:, k] = s
                counts[:, k] = np.maximum(e - s + 1, 1)
        sel = np.flatnonzero(enabled)
        starts = starts[sel]
        counts = counts[sel]
        tot = counts.prod(axis=1)
        first = np.cumsum(tot) - tot
        succ = np.empty(int(tot.sum()), dtype=np.int32)
        # all boxes of one input have the same size, so they span one of a
        # few cell counts per axis; the cells of one such shape are
        # enumerated together, at most _ENUM_BLOCK successors per block. A
        # box that wraps a periodic axis comes out unsorted, hence the sort.
        shape_id = np.ravel_multi_index((counts - 1).T, K)
        ids = np.sort(shape_id)
        for sid in ids[np.diff(ids, prepend=-1) != 0]:  # np.unique would import numpy.ma
            cells = np.flatnonzero(shape_id == sid)
            shape = counts[cells[0]]
            step = max(1, _ENUM_BLOCK // int(tot[cells[0]]))
            for b in range(0, cells.size, step):
                rows = cells[b:b + step]
                flat = np.zeros((rows.size, 1), dtype=np.int64)
                for k in range(n):
                    coord = starts[rows, k][:, None] + np.arange(shape[k])
                    if grid.periodic[k]:
                        coord %= K[k]
                    flat = (flat[:, :, None] + coord[:, None, :] * quantizer.strides[k]).reshape(rows.size, -1)
                flat.sort(axis=1)
                succ[first[rows][:, None] + np.arange(flat.shape[1])] = flat
        return sel, tot, succ

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, range(M)))
    else:
        results = [job(u) for u in range(M)]

    counts_mat = np.zeros((N, M), dtype=np.int64)
    for u, (sel, tot, _) in enumerate(results):
        counts_mat[sel, u] = tot
    offsets = np.zeros(N * M + 1, dtype=np.int64)
    np.cumsum(counts_mat.ravel(), out=offsets[1:])
    targets = np.zeros(offsets[-1], dtype=np.int32)
    for u, (sel, tot, tgt) in enumerate(results):
        targets[segment_indices(offsets[sel * M + u], tot)] = tgt
    system = FiniteSystem.from_csr(N, M, offsets, targets, initial=StateSet.full(N))
    return system, quantizer
