"""Continuous-time models, sampled-time integration, and growth-bound radii.

A Model couples a vector field with the data needed to over-approximate
reachable sets after one sampling period: either a system matrix A (linear
dynamics, radius scales with the infinity norm of exp(A*tau)) or a
component-wise contraction matrix L (radius vector exp(L*tau) @ r). Every
matrix exponential goes through `_expm`, a scaling-and-squaring Taylor
series, so numpy is the only numerical dependency. `integrate` is fixed-step
RK4; `one_period` is the exact one-period map where the model has one (its
own `flow_map`, or the matrix-exponential map of a linear model) and RK4
otherwise. All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class DivergenceError(RuntimeError):
    """Raised when integration or the growth bound produces non-finite values."""


@dataclass(frozen=True)
class SampledFlow:
    """Sampling period and the number of internal integrator substeps."""
    tau: float
    substeps: int = 10  # default keeps the internal step at tau/10 or below

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("sampling period tau must be positive")
        if self.substeps < 1:
            raise ValueError("substep count must be >= 1")


@dataclass(frozen=True)
class Model:
    """Control system dynamics plus reachable-set growth data.

    field(x, u) must accept arrays of shape (..., dim) and (..., input_dim)
    and return the state derivative with shape (..., dim). Exactly one of
    linear_matrix (A) and contraction_matrix (L) must be given.
    linear_matrix declares the field affine in the state,
    f(x, u) = A x + f(0, u); the growth radius and the exact one-period map
    of `one_period` both rest on that.
    angular_dims lists coordinates that live on a circle (wrapped by grids).

    Optional refinements used by the abstraction builder:
    input_sensitivity bounds |df/du| entrywise (dim x input_dim) and enables
    accounting for input quantization error; contraction_for_input maps a
    concrete input to a (usually tighter) contraction matrix valid for that
    input alone; flow_map(x, u, tau) is the closed-form state after time tau
    under the constant input u, with the shapes of field, which `one_period`
    uses in place of RK4.
    """
    name: str
    dim: int
    input_dim: int
    field: Callable[[np.ndarray, np.ndarray], np.ndarray]
    linear_matrix: np.ndarray | None = None
    contraction_matrix: np.ndarray | None = None
    angular_dims: tuple = ()
    input_sensitivity: np.ndarray | None = None
    contraction_for_input: Callable[[np.ndarray], np.ndarray] | None = None
    flow_map: Callable[[np.ndarray, np.ndarray, float], np.ndarray] | None = None

    def __post_init__(self):
        if (self.linear_matrix is None) == (self.contraction_matrix is None):
            raise ValueError("exactly one of linear_matrix / contraction_matrix required")
        m = self.linear_matrix if self.linear_matrix is not None else self.contraction_matrix
        m = np.asarray(m, dtype=float)
        if m.shape != (self.dim, self.dim):
            raise ValueError("growth matrix must be dim x dim")
        object.__setattr__(self, "linear_matrix",
                           m if self.contraction_matrix is None else None)
        object.__setattr__(self, "contraction_matrix",
                           m if self.linear_matrix is None else None)
        if self.input_sensitivity is not None:
            s = np.asarray(self.input_sensitivity, dtype=float)
            if s.shape != (self.dim, self.input_dim):
                raise ValueError("input_sensitivity must be dim x input_dim")
            object.__setattr__(self, "input_sensitivity", np.abs(s))

    def state_contraction(self, u=None) -> np.ndarray:
        """Entrywise bound on |df/dx| valid for the given input (or any input)."""
        if u is not None and self.contraction_for_input is not None:
            return np.asarray(self.contraction_for_input(np.asarray(u, dtype=float)), dtype=float)
        if self.contraction_matrix is not None:
            return self.contraction_matrix
        return np.abs(self.linear_matrix)


def integrate(model: Model, flow: SampledFlow, x, u) -> np.ndarray:
    """Classic fixed-step RK4 approximation of the state after one period tau.

    The input is held constant over the period. x may be a single state
    (dim,) or a batch (..., dim); u broadcasts likewise. Raises
    DivergenceError if the endpoint is non-finite. That is checked once, at
    the end: a coordinate that turns non-finite at some substep stays so,
    since each substep adds its increment to it (inf + finite is inf, and
    inf - inf and nan + anything are nan), so a check after every substep
    fails on exactly the same calls.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    h = flow.tau / flow.substeps
    y = x
    f = model.field
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(flow.substeps):
            k1 = f(y, u)
            k2 = f(y + 0.5 * h * k1, u)
            k3 = f(y + 0.5 * h * k2, u)
            k4 = f(y + h * k3, u)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    _require_finite(model, y, u)
    return y


def one_period(model: Model, flow: SampledFlow, x, u) -> np.ndarray:
    """State after one period tau under the constant input u, exact where it can be.

    Takes the model's own flow_map when it has one; for a linear model
    (f(x, u) = A x + f(0, u)) the exact map e^{A tau} x + G f(0, u), where
    [e^{A tau} | G] comes from one augmented matrix exponential (Van Loan,
    IEEE TAC 1978); otherwise `integrate`. Shapes as for `integrate`.
    Raises DivergenceError on a non-finite endpoint.
    """
    if model.flow_map is None and model.linear_matrix is None:
        return integrate(model, flow, x, u)
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if model.flow_map is not None:
            y = model.flow_map(x, u, flow.tau)
        else:
            e, g = _expm_and_integral(model.linear_matrix, flow.tau, model.name)
            y = x @ e.T + model.field(np.zeros_like(x), u) @ g.T
    _require_finite(model, y, u)
    return y


def _require_finite(model: Model, y, u):
    if not np.all(np.isfinite(y)):
        flat = np.atleast_2d(y.reshape(-1, model.dim))
        bad = int(np.flatnonzero(~np.isfinite(flat).all(axis=1))[0])
        raise DivergenceError(
            f"integration of model '{model.name}' diverged "
            f"(first bad batch entry {bad}, "
            f"input {np.atleast_1d(u).ravel()[:model.input_dim].tolist()})")


def _expm(a, name: str) -> np.ndarray:
    """exp(a) by scaling and squaring a Taylor series (Moler & Van Loan 2003).

    a is scaled by 2^-s until its infinity norm is below 1/2, the series
    is summed until a term no longer changes the sum, and the sum is squared
    s times. Against closed forms of diagonal, nilpotent and rotation
    generators of infinity norm up to 10, the relative infinity-norm error
    is below 1e-13, and a nilpotent Jordan block equals its closed-form
    polynomial exactly. For entrywise-nonnegative a every omitted term is nonnegative, so
    the truncation can only under-estimate exp(a); before squaring, the
    omitted tail of each row sums to less than one rounding unit (2^-53) of
    that row's sum. Raises DivergenceError, naming the model `name`, on
    non-finite input, an infinite norm or a non-finite output.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise DivergenceError(f"non-finite growth matrix for model '{name}'")
    with np.errstate(over="ignore"):
        norm = np.abs(a).sum(axis=1).max(initial=0.0)
    if norm == np.inf:
        raise DivergenceError(f"matrix exponential overflow for model '{name}'")
    s = max(0, int(np.frexp(norm)[1]) + 1)  # norm < 2^(s-1)
    a = np.ldexp(a, -s)  # a / 2.0 ** s would overflow computing 2^s for s > 1023
    out = term = np.eye(a.shape[0])
    k = 0
    while True:
        k += 1
        term = term @ a / k
        total = out + term
        if np.array_equal(total, out):
            break
        out = total
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            out = out @ out
    if not np.all(np.isfinite(out)):
        raise DivergenceError(f"matrix exponential overflow for model '{name}'")
    return out


def _radius_vector(r, dim) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    if r.ndim == 0:
        return np.full(dim, float(r))
    if r.shape != (dim,):
        raise ValueError("radius vector must have one entry per coordinate")
    return r


def growth_radius(model: Model, flow: SampledFlow, r, u=None) -> np.ndarray:
    """Per-coordinate radius dominating trajectory spread after time tau.

    Any trajectory started within infinity-distance r of a nominal point
    stays within the returned box around the nominal endpoint. r may be a
    per-coordinate vector (used for grids with per-axis steps). A nonlinear
    model uses its contraction for the input u when it provides one.
    """
    rv = _radius_vector(r, model.dim)
    if model.linear_matrix is not None:
        m = _expm(model.linear_matrix * flow.tau, model.name)
        gain = np.abs(m).sum(axis=1).max()  # infinity norm
        return np.full(model.dim, gain * float(rv.max()))
    return _expm(model.state_contraction(u) * flow.tau, model.name) @ rv


def input_deviation_radius(model: Model, flow: SampledFlow, du: float,
                           u=None) -> np.ndarray:
    """Per-coordinate endpoint spread caused by an input error of size du.

    Bounds the divergence of trajectories from the same start whose constant
    inputs differ by at most du in every coordinate, via the comparison
    system d' <= L d + S du with L the state contraction and S the input
    sensitivity. Zero when the model declares no input sensitivity.
    """
    if model.input_sensitivity is None or du <= 0:
        return np.zeros(model.dim)
    phi = _expm_and_integral(model.state_contraction(u), flow.tau, model.name)[1]
    return phi @ (model.input_sensitivity @ np.full(model.input_dim, float(du)))


def _expm_and_integral(a, tau: float, name: str):
    """(exp(a tau), integral of exp(a s) over [0, tau]) from one `_expm` of
    the augmented matrix [[a, I], [0, 0]] * tau (Van Loan, IEEE TAC 1978)."""
    n = a.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = a
    aug[:n, n:] = np.eye(n)
    e = _expm(aug * tau, name)
    return e[:n, :n], e[:n, n:]


def reach_radius(model: Model, flow: SampledFlow, r, du: float = 0.0,
                 u=None) -> np.ndarray:
    """Radius used by the abstraction builder for one grid input u: the
    growth radius for u plus the spread of an input error du."""
    return growth_radius(model, flow, r, u) + input_deviation_radius(model, flow, du, u)


# -- built-in models ---------------------------------------------------

def double_integrator() -> Model:
    """Point mass under acceleration control: x1' = x2, x2' = u."""
    def f(x, u):
        out = np.empty_like(x)
        out[..., 0] = x[..., 1]
        out[..., 1] = u[..., 0]
        return out
    return Model(name="double_integrator", dim=2, input_dim=1, field=f,
                 linear_matrix=np.array([[0.0, 1.0], [0.0, 0.0]]),
                 input_sensitivity=np.array([[0.0], [1.0]]))


def unicycle(v_max: float = 0.5) -> Model:
    """Planar vehicle: x' = v cos(theta), y' = v sin(theta), theta' = omega.

    The contraction matrix bounds the Jacobian magnitude entrywise; the
    global one is valid for speeds up to v_max, and the per-input one
    tightens it to the applied speed.
    """
    def f(x, u):
        out = np.empty_like(x)
        v = u[..., 0]
        out[..., 0] = v * np.cos(x[..., 2])
        out[..., 1] = v * np.sin(x[..., 2])
        out[..., 2] = u[..., 1]
        return out

    def contraction_for_input(u):
        v = abs(float(u[0]))
        return np.array([[0.0, 0.0, v],
                         [0.0, 0.0, v],
                         [0.0, 0.0, 0.0]])

    def flow_map(x, u, tau):
        # constant v and omega: the heading turns uniformly and the position
        # moves by the chord, of length v*tau*sinc(omega*tau/2), along the
        # mean heading; np.sinc(t) = sin(pi t)/(pi t) is 1 at omega = 0
        v, w = u[..., 0], u[..., 1]
        chord = v * tau * np.sinc(w * tau / (2.0 * np.pi))
        mid = x[..., 2] + 0.5 * w * tau
        out = np.empty_like(x)
        out[..., 0] = x[..., 0] + chord * np.cos(mid)
        out[..., 1] = x[..., 1] + chord * np.sin(mid)
        out[..., 2] = x[..., 2] + w * tau
        return out

    L = contraction_for_input([v_max])
    return Model(name="unicycle", dim=3, input_dim=2, field=f,
                 contraction_matrix=L, angular_dims=(2,),
                 input_sensitivity=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                 contraction_for_input=contraction_for_input, flow_map=flow_map)


MODEL_REGISTRY: dict[str, Callable[..., Model]] = {
    "double_integrator": double_integrator,
    "unicycle": unicycle,
}


def register_model(name: str, factory: Callable[..., Model]):
    """Add a user model factory so configs can refer to it by id."""
    MODEL_REGISTRY[name] = factory


def make_model(model_id: str, params: dict | None = None) -> Model:
    if model_id not in MODEL_REGISTRY:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise KeyError(f"unknown model id '{model_id}' (known: {known})")
    return MODEL_REGISTRY[model_id](**(params or {}))
