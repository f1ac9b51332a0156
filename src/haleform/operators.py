"""Difference operators, right-hand-side maps, and assembled neutral systems.

The difference operator is D phi = phi(0) - sum_j A_j phi(-Delta_j). The
right-hand side f is a sum of linear pointwise-delay terms, distributed
(kernel-integral) terms, named pointwise nonlinearities and input terms.
f(0) = 0 (and f(0, 0) = 0 in the input case) holds by construction: linear
and distributed terms vanish at zero, and every primitive nonlinearity is
evaluated at zero when a term binds it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate

import numpy as np

from .errors import DimensionError, HorizonError, PreconditionError
from .histories import _freeze, _gauss, _own, _read

_TOL = 1e-9


def _apply(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a x as the column fold a[:, 0] x_0 + a[:, 1] x_1 + ..., left to right: for one vector x
    (m,), each row of a (..., m) stack, or each matrix of an (..., n, m) stack with its row of x.
    Every entry is the sequential sum that row takes on Python floats, without a fused
    multiply-add, so it does not depend on the rows around it or on the BLAS kernel, and signed
    zeros are kept: -1 times a zero row is -0 for n = 1, where there is no sum."""
    p = x[..., None, :] * a  # p[..., i, k] = a_ik x_k
    out = p[..., 0]
    for k in range(1, a.shape[-1]):
        out = out + p[..., k]
    return out


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
        object.__setattr__(self, "delays", _freeze(delays[order]))
        object.__setattr__(self, "matrices", _freeze(matrices[order]))

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
    """Apply the difference operator to a history, using its interpolation: a batch of one."""
    return _dop_rows(dop, [phi])[0][0]


def _dop_of(dop: DifferenceOperator, pts: np.ndarray) -> np.ndarray:
    """D phi of each history of a stack (R, p + 1, n) of its values at 0 and each
    -Delta_j, each row rounding as the history alone does."""
    out = pts[..., 0, :].copy()
    for j in range(dop.p):
        out -= _apply(dop.matrices[j], pts[..., j + 1, :])
    return out


def _dop_rows(dop: DifferenceOperator, phis, times=(), counts=0) -> tuple[np.ndarray, np.ndarray]:
    """D phi of every history of phis, (R, n), and history r's values at its
    counts[r] times of `times`, in order, from one read of them all, once every
    history is checked to have the horizon and the dimension D needs."""
    for phi in phis:
        if phi.delta < dop.max_delay - _TOL * max(1.0, dop.max_delay):
            raise HorizonError(f"history horizon {phi.delta} shorter than max delay {dop.max_delay}")
        if phi.n != dop.n:
            raise DimensionError(f"history dimension {phi.n} != operator dimension {dop.n}")
    if not phis:
        return np.zeros((0, dop.n)), np.zeros((0, dop.n))
    at, rows = np.concatenate(([0.0], -dop.delays)), np.arange(len(phis))
    # the row and time arrays go to the read unnamed: held by no name here, the read can free them as it goes
    if len(times):  # each history at D's times, then each at its own
        reads = _read(phis, np.concatenate([rows.repeat(at.size), rows.repeat(counts)]),
                      np.concatenate([*[at] * rows.size, times]), 0)
    else:
        reads = _read(phis, rows.repeat(at.size), np.concatenate([at] * rows.size), 0)
    return _dop_of(dop, reads[: rows.size * at.size].reshape(rows.size, at.size, dop.n)), reads[rows.size * at.size :]


# -- primitive pointwise nonlinearities ---------------------------------------

# each takes (its parsed params, x) for a float or a float array x, and is one elementwise expression that
# rounds a float as it rounds the same entry of an array; a module function, so that a system binding it pickles

def _saturation(limit, x):
    return np.minimum(np.maximum(x, -limit), limit)


def _sine(_, x):
    return np.sin(x)


def _cube(_, x):
    return x * x * x  # not x**3: numpy's power and Python's differ in the last bit, and numpy's by SIMD dispatch


def _table(table, x):
    return np.interp(x, *table)


_PRIMITIVES = {"saturation": _saturation, "sine": _sine, "cubic": _cube, "table": _table}


def primitive_nonlinearity(name: str, params: dict):
    """g(x), the primitive bound to its params, checked to vanish at 0: on a
    float it gives the bits that an array gives the same entry, so the one-history
    kernel calls it on float locals and the batch kernel on arrays. The params are
    parsed here, once: a table's points are copied, so a later edit of `params`
    does not reach g."""
    if name not in _PRIMITIVES:
        raise PreconditionError(
            f"unknown primitive nonlinearity {name!r}; known: {sorted(_PRIMITIVES)}"
        )
    parsed = params.get("limit", 1.0) if name == "saturation" else None
    if name == "table":
        parsed = (_freeze(params["x"]), _freeze(params["y"]))
        if not np.all(np.diff(parsed[0]) > 0):
            raise PreconditionError("table nonlinearity needs increasing x")
    g = partial(_PRIMITIVES[name], parsed)
    if np.max(np.abs(g(np.zeros(1)))) > _TOL:
        raise PreconditionError(f"nonlinearity {name!r} must vanish at 0")
    return g


def _pointwise(term) -> None:
    """Check and keep a pointwise term's delay and square matrix."""
    if term.delay < 0:
        raise PreconditionError("delay must be >= 0")
    m = np.asarray(term.matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{term.type} term matrix must be square")
    object.__setattr__(term, "matrix", _freeze(m))
    object.__setattr__(term, "delay", float(term.delay))


@dataclass(frozen=True)
class LinearTerm:
    """B phi(-tau); tau = 0 reads the endpoint value. at(x) = B x, for a state or a stack."""

    type = "linear"
    delay: float
    matrix: np.ndarray

    def __post_init__(self):
        _pointwise(self)
        # one Python call per value in a stage, none for a 1 x 1 matrix
        object.__setattr__(self, "at", partial(np.multiply, self.matrix[0, 0]) if self.matrix.size == 1
                           else partial(_apply, self.matrix))

    @property
    def n(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class NonlinearTerm:
    """C g(phi(-tau)) with g a named componentwise primitive."""

    type = "nonlinear"
    delay: float
    fn: str
    matrix: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _pointwise(self)
        object.__setattr__(self, "params", None if self.params is None else _own(self.params))
        object.__setattr__(self, "_g", primitive_nonlinearity(self.fn, self.params))

    @property
    def n(self):
        return self.matrix.shape[0]

    def at(self, x):  # C g(x), for a state or a stack of them
        return _apply(self.matrix, self._g(x))


def _grids(phis) -> np.ndarray:
    """The grids of phis as NaN-padded rows (R, C), the cut points that `DistributedTerm._rule` takes."""
    grids = np.full((len(phis), max((phi.num_nodes for phi in phis), default=0)), np.nan)
    for row, phi in zip(grids, phis):
        row[: phi.num_nodes] = phi.grid
    return grids


@dataclass(frozen=True)
class DistributedTerm:
    """Integral term int K(s) phi(s) ds over the kernel's grid span in [-Delta, 0].

    The kernel is sampled on its grid and interpolated linearly between nodes.
    Every integral against a history uses one rule, `_rule`: two-point
    Gauss-Legendre (cubic-exact) on the panels that the kernel grid and the
    history's cut points make, so on a linear history, where K phi is
    piecewise quadratic, it is exact. The integrator places its stages' Gauss
    nodes ahead through it.
    """

    type = "distributed"
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
        object.__setattr__(self, "grid", _freeze(grid))
        object.__setattr__(self, "kernel", _freeze(kernel))

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

    def _rule(self, panels: np.ndarray) -> tuple:
        """Nodes, weights, kernel matrices and per-row counts of the integral over
        the kernel's span against each row of cut points (R, C), NaN-padded: the
        Gauss rule (`histories._gauss`) on the panels that the kernel grid and the
        row's cuts within the span make."""
        inside = (panels >= self.grid[0]) & (panels <= self.grid[-1])
        edges = np.concatenate([self.grid[None].repeat(len(panels), 0), np.where(inside, panels, np.nan)], 1)
        edges.sort(axis=1)
        edges[:, 1:][edges[:, 1:] == edges[:, :-1]] = np.nan  # one of each edge, NaN last
        edges.sort(axis=1)
        nodes, weights, counts = _gauss(edges)
        return nodes, weights, self._kernel_at(nodes), counts

    def _integrals(self, rule, vals) -> np.ndarray:
        """The integral against every history, (R, n), from `_rule` over their grids and
        their values at its nodes, each row's as on its own."""
        _, weights, kmats, counts = rule
        ends = np.cumsum(counts).tolist()
        return np.array([np.einsum("k,kij,kj->i", weights[a:b], kmats[a:b], vals[a:b])
                         for a, b in zip([0, *ends], ends)])


@dataclass(frozen=True)
class InputTerm:
    """G g(u) with g an optional componentwise primitive (identity when absent,
    and then params is None)."""

    type = "input"
    matrix: np.ndarray
    fn: str | None = None
    params: dict | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise DimensionError("input term matrix must be n x m")
        object.__setattr__(self, "params", _own(self.params or {}) if self.fn else None)
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "_g", primitive_nonlinearity(self.fn, self.params) if self.fn else None)

    @property
    def n(self):
        return self.matrix.shape[0]

    @property
    def m(self):
        return self.matrix.shape[1]

    def at(self, u):  # G g(u), for an input value or a stack of them
        return _apply(self.matrix, u if self._g is None else self._g(u))


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

    def eval(self, phis, us=None, at=None) -> np.ndarray:
        """f on every history of phis, (R, n), history r at input us[r] (us (R, m), or None):
        0 + v_0 + v_1 + ..., the terms' values in order. One read takes every history at the
        pointwise terms' delays, unless `at` maps each delay to those (R, n) values already
        read, and at the nodes of each distributed term's quadrature over their grids."""
        if us is not None:
            if self.m == 0:
                raise DimensionError("input passed to an input-free right-hand side")
            us = np.asarray(us, dtype=float)
            if us.shape != (len(phis), self.m):
                raise DimensionError(f"inputs have shape {us.shape}, expected ({len(phis)}, {self.m})")
        rows = len(phis)
        if not rows:
            return np.zeros((0, self.n))
        if (short := min(phi.delta for phi in phis)) < self.max_delay - _TOL:
            raise HorizonError(f"history horizon {short} shorter than rhs max delay {self.max_delay}")
        dist = [t for t in self.terms if isinstance(t, DistributedTerm)]
        if at is None or dist:  # one read: every history at each delay, then at each distributed term's nodes
            delays = [] if at is not None else [
                *{t.delay: None for t in self.terms if isinstance(t, (LinearTerm, NonlinearTerm))}]
            which, times, rules = np.arange(rows * len(delays)) % rows, -np.array(delays).repeat(rows), []
            if dist:
                rules = [t._rule(_grids(phis)) for t in dist]
                which = np.concatenate([which, *(np.arange(rows).repeat(rule[3]) for rule in rules)])
                times = np.concatenate([times, *(rule[0] for rule in rules)])
            reads = _read(phis, which, times, 0)
            ends = [*accumulate([rule[0].size for rule in rules], initial=rows * len(delays))]
            at = at if at is not None else dict(zip(delays, reads[: ends[0]].reshape(len(delays), rows, self.n)))
            integrals = iter([t._integrals(rule, reads[a:b]) for t, rule, a, b in zip(dist, rules, ends, ends[1:])])
        f = np.zeros((rows, self.n))
        for t in self.terms:
            if isinstance(t, DistributedTerm):
                f = f + next(integrals)
            elif isinstance(t, InputTerm):
                if us is None:
                    raise PreconditionError("input term evaluated without an input value")
                f = f + t.at(us)
            else:
                f = f + t.at(at[t.delay])
        return f


def rhs_eval(rhs: RhsMap, phi, u=None) -> np.ndarray:
    """Evaluate the right-hand side on a history (and input value, if any): a batch of one."""
    return rhs.eval([phi], None if u is None else np.atleast_1d(u)[None])[0]


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

    def __getstate__(self):  # the step kernels that `integrate._kernel` keeps here are compiled again, not pickled
        return {key: value for key, value in vars(self).items() if key not in ("_kernel", "_batch_kernel")}

    @property
    def n(self) -> int:
        return self.dop.n

    @property
    def m(self) -> int:
        return self.rhs.m

    def min_positive_delay(self) -> float:
        return min([self.dop.min_delay] + self.rhs.positive_delays())
