"""Difference operators, right-hand-side maps, and assembled neutral systems.

The difference operator is D phi = phi(0) - sum_j A_j phi(-Delta_j). The
right-hand side f is a sum of linear pointwise-delay terms, distributed
(kernel-integral) terms, named pointwise nonlinearities and input terms.
f(0) = 0 (and f(0, 0) = 0 in the input case) is checked on construction by
evaluating every term at zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, HorizonError, PreconditionError
from .histories import CUBIC, LINEAR, HistorySegment

_TOL = 1e-9


def _apply(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for one vector x (n,), or for each row of a (B, n) stack, where
    every row rounds as the product with that row alone does."""
    if x.ndim == 1:
        return a @ x
    # one row: the same matrix-vector product, without the stacked-matmul overhead
    return a.dot(x.T).T if len(x) == 1 else np.matmul(a, x[..., None])[..., 0]


@dataclass(frozen=True)
class DifferenceOperator:
    """D phi = phi(0) - sum_j A_j phi(-Delta_j) with positive, distinct delays."""

    delays: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        delays = np.atleast_1d(np.asarray(self.delays, dtype=float))
        matrices = np.asarray(self.matrices, dtype=float)
        if matrices.ndim == 2:
            matrices = matrices[None, :, :]
        if delays.ndim != 1 or delays.size < 1:
            raise PreconditionError("at least one delay term is required")
        if matrices.ndim != 3 or matrices.shape[0] != delays.size:
            raise DimensionError("need one square matrix per delay")
        if matrices.shape[1] != matrices.shape[2]:
            raise DimensionError("delay matrices must be square")
        if np.any(delays <= 0):
            raise PreconditionError("delays must be positive")
        if np.unique(np.round(delays / _TOL)).size != delays.size:
            raise PreconditionError("delays must be pairwise distinct")
        order = np.argsort(delays)
        delays = delays[order].copy()
        matrices = matrices[order].copy()
        delays.setflags(write=False)
        matrices.setflags(write=False)
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "matrices", matrices)

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    @property
    def p(self) -> int:
        return self.delays.size

    @property
    def max_delay(self) -> float:
        return float(self.delays[-1])

    @property
    def min_delay(self) -> float:
        return float(self.delays[0])

    def coefficient_norm_sum(self) -> float:
        """Sum of spectral norms of the A_j; bounds |D phi| <= (1 + sum) ||phi||."""
        return float(sum(np.linalg.norm(a, 2) for a in self.matrices))


def dop_apply(dop: DifferenceOperator, phi) -> np.ndarray:
    """Apply the difference operator to a history, using its interpolation."""
    if phi.delta < dop.max_delay - _TOL * max(1.0, dop.max_delay):
        raise HorizonError(
            f"history horizon {phi.delta} shorter than max delay {dop.max_delay}"
        )
    pts = phi.eval(np.concatenate(([0.0], -dop.delays)))
    if pts.shape[1] != dop.n:
        raise DimensionError(f"history dimension {pts.shape[1]} != operator dimension {dop.n}")
    out = pts[0].copy()
    for j in range(dop.p):
        out -= dop.matrices[j] @ pts[j + 1]
    return out


# -- primitive pointwise nonlinearities ---------------------------------------

def _sat(x, limit=1.0):
    return np.clip(x, -limit, limit)


_PRIMITIVES = {
    "saturation": lambda x, params: _sat(x, params.get("limit", 1.0)),
    "sine": lambda x, params: np.sin(x),
    "cubic": lambda x, params: x**3,
    "table": lambda x, params: np.interp(
        x, np.asarray(params["x"], float), np.asarray(params["y"], float)
    ),
}


def primitive_nonlinearity(name: str, params: dict):
    if name not in _PRIMITIVES:
        raise PreconditionError(
            f"unknown primitive nonlinearity {name!r}; known: {sorted(_PRIMITIVES)}"
        )
    fn = _PRIMITIVES[name]
    if name == "table":
        xs = np.asarray(params["x"], float)
        ys = np.asarray(params["y"], float)
        if not np.all(np.diff(xs) > 0):
            raise PreconditionError("table nonlinearity needs increasing x")
        if abs(float(np.interp(0.0, xs, ys))) > _TOL:
            raise PreconditionError("table nonlinearity must vanish at 0")
    return lambda x: fn(np.asarray(x, dtype=float), params)


@dataclass(frozen=True)
class LinearTerm:
    """B phi(-tau); tau = 0 reads the endpoint value."""

    delay: float
    matrix: np.ndarray

    def __post_init__(self):
        if self.delay < 0:
            raise PreconditionError("delay must be >= 0")
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError("linear term matrix must be square")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "delay", float(self.delay))

    @property
    def n(self):
        return self.matrix.shape[0]

    def eval(self, seg, u):
        return _apply(self.matrix, seg.eval(-self.delay))


@dataclass(frozen=True)
class NonlinearTerm:
    """C g(phi(-tau)) with g a named componentwise primitive."""

    delay: float
    fn: str
    matrix: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.delay < 0:
            raise PreconditionError("delay must be >= 0")
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError("nonlinear term matrix must be square")
        g = primitive_nonlinearity(self.fn, self.params)
        if np.max(np.abs(g(np.zeros(m.shape[0])))) > _TOL:
            raise PreconditionError(f"nonlinearity {self.fn!r} must vanish at 0")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "delay", float(self.delay))
        object.__setattr__(self, "_g", g)

    @property
    def n(self):
        return self.matrix.shape[0]

    def eval(self, seg, u):
        return _apply(self.matrix, self._g(seg.eval(-self.delay)))


@dataclass(frozen=True)
class DistributedTerm:
    """Integral term int K(s) phi(s) ds over the kernel's grid span in [-Delta, 0].

    The kernel is sampled on its grid and interpolated linearly between nodes;
    the integral uses trapezoid panels for linear histories and two-point
    Gauss-Legendre panels (cubic-exact) for cubic-Hermite histories, on the
    union of the kernel grid and the history's own panel boundaries. The
    quadrature of each panel set is kept, a bounded number of them at once,
    since a step evaluates the term several times on the same panels.
    """

    grid: np.ndarray
    kernel: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float).ravel()
        kernel = np.asarray(self.kernel, dtype=float)
        if kernel.ndim == 1:
            kernel = kernel[:, None, None]
        if kernel.ndim != 3 or kernel.shape[0] != grid.size:
            raise DimensionError("kernel needs one matrix per grid node")
        if kernel.shape[1] != kernel.shape[2]:
            raise DimensionError("kernel matrices must be square")
        if grid.size < 2 or not np.all(np.diff(grid) > 0):
            raise PreconditionError("kernel grid must be strictly increasing")
        if grid[-1] > _TOL or grid[0] > 0:
            raise PreconditionError("kernel grid must lie in [-Delta, 0]")
        grid = grid.copy()
        kernel = kernel.copy()
        grid.setflags(write=False)
        kernel.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "_cache", {})

    @property
    def n(self):
        return self.kernel.shape[1]

    @property
    def max_delay(self):
        return float(-self.grid[0])

    def _kernel_at(self, s: np.ndarray) -> np.ndarray:
        idx = np.clip(np.searchsorted(self.grid, s, side="right") - 1, 0, self.grid.size - 2)
        theta = (s - self.grid[idx]) / (self.grid[idx + 1] - self.grid[idx])
        return (1.0 - theta)[:, None, None] * self.kernel[idx] + theta[:, None, None] * self.kernel[idx + 1]

    def _quadrature(self, seg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes, weights and kernel matrices of the integral over the kernel's span for `seg`."""
        panels = np.asarray(seg.quad_panels(), dtype=float)
        interp = getattr(seg, "interp", CUBIC)
        key = (panels.tobytes(), interp)
        if key in self._cache:
            return self._cache[key]
        edges = np.union1d(self.grid, panels[(panels >= self.grid[0]) & (panels <= self.grid[-1])])
        a, b = edges[:-1], edges[1:]
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        if interp == LINEAR:
            nodes = edges
            weights = np.zeros_like(edges)
            weights[:-1] += half
            weights[1:] += half
        else:
            offset = half / np.sqrt(3.0)
            nodes = np.concatenate([mid - offset, mid + offset])
            weights = np.concatenate([half, half])
        if len(self._cache) >= 64:
            self._cache.clear()
        self._cache[key] = (nodes, weights, self._kernel_at(nodes))
        return self._cache[key]

    def eval(self, seg, u):
        rows = getattr(seg, "rows", None)
        if rows is not None:  # a stage of several histories: one quadrature each
            return np.array([self.eval(row, u) for row in rows])
        nodes, weights, kmats = self._quadrature(seg)
        return np.einsum("k,kij,kj->i", weights, kmats, seg.eval(nodes))


@dataclass(frozen=True)
class InputTerm:
    """G g(u) with g an optional componentwise primitive (identity when absent)."""

    matrix: np.ndarray
    fn: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise DimensionError("input term matrix must be n x m")
        g = primitive_nonlinearity(self.fn, self.params) if self.fn else None
        if g is not None and np.max(np.abs(g(np.zeros(m.shape[1])))) > _TOL:
            raise PreconditionError(f"input nonlinearity {self.fn!r} must vanish at 0")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_g", g)

    @property
    def n(self):
        return self.matrix.shape[0]

    @property
    def m(self):
        return self.matrix.shape[1]

    def eval(self, seg, u):
        if u is None:
            raise PreconditionError("input term evaluated without an input value")
        v = np.asarray(u, dtype=float)
        if self._g is not None:
            v = self._g(v)
        return _apply(self.matrix, v)


@dataclass(frozen=True)
class RhsMap:
    """f(phi) or f(phi, u) as a sum of terms; Lipschitz on bounded sets assumed."""

    n: int
    m: int = 0
    terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if isinstance(t, InputTerm):
                if self.m == 0:
                    raise DimensionError("input term in an input-free map (m = 0)")
                if t.m != self.m or t.n != self.n:
                    raise DimensionError("input term dimensions disagree with map")
            elif t.n != self.n:
                raise DimensionError("term dimension disagrees with map dimension")

    @property
    def max_delay(self) -> float:
        d = 0.0
        for t in self.terms:
            if isinstance(t, (LinearTerm, NonlinearTerm)):
                d = max(d, t.delay)
            elif isinstance(t, DistributedTerm):
                d = max(d, t.max_delay)
        return d

    def positive_delays(self) -> list[float]:
        out = []
        for t in self.terms:
            if isinstance(t, (LinearTerm, NonlinearTerm)) and t.delay > 0:
                out.append(t.delay)
        return out

    def eval(self, seg, u=None) -> np.ndarray:
        """f on a history, or row-wise on a stage view of a batch of them."""
        out = np.zeros(self.n)
        for t in self.terms:
            out = out + t.eval(seg, u)
        return out


def rhs_eval(rhs: RhsMap, phi, u=None) -> np.ndarray:
    """Evaluate the right-hand side on a history (and input value, if any)."""
    if rhs.m > 0 and u is not None:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != (rhs.m,):
            raise DimensionError(f"input has shape {u.shape}, expected ({rhs.m},)")
    if rhs.m == 0 and u is not None:
        raise DimensionError("input passed to an input-free right-hand side")
    if phi.delta < rhs.max_delay - _TOL:
        raise HorizonError(
            f"history horizon {phi.delta} shorter than rhs max delay {rhs.max_delay}"
        )
    return rhs.eval(phi, u)


@dataclass(frozen=True)
class NfdeSystem:
    """d/dt D x_t = f(x_t) (or f(x_t, u(t))) with horizon Delta = max delay."""

    dop: DifferenceOperator
    rhs: RhsMap
    delta: float | None = None

    def __post_init__(self):
        if self.dop.n != self.rhs.n:
            raise DimensionError("operator and rhs dimensions disagree")
        needed = max(self.dop.max_delay, self.rhs.max_delay)
        delta = needed if self.delta is None else float(self.delta)
        if delta < needed - _TOL:
            raise PreconditionError(f"delta {delta} smaller than largest delay {needed}")
        object.__setattr__(self, "delta", delta)

    @property
    def n(self) -> int:
        return self.dop.n

    @property
    def m(self) -> int:
        return self.rhs.m

    def min_positive_delay(self) -> float:
        return min([self.dop.min_delay] + self.rhs.positive_delays())

    def check_zero_fixed_point(self) -> float:
        """|f(0)| (or |f(0, 0)|); construction of the terms keeps this at 0."""
        zero = HistorySegment.zero(self.n, self.delta)
        u = np.zeros(self.m) if self.m > 0 else None
        return float(np.linalg.norm(self.rhs.eval(zero, u)))
