"""Histories on [-delta, 0]: storage, interpolation, norms and random sampling.

A history is a continuous function phi: [-delta, 0] -> R^n represented by its
values on a strictly increasing grid with either piecewise-linear or
cubic-Hermite interpolation between nodes. Evaluation at grid nodes
reproduces the stored values exactly.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PreconditionError

LINEAR = "linear"
CUBIC = "cubic-hermite"

_DOMAIN_TOL = 1e-9
_DEGREE_TOL = 1e-13  # scaled coefficients below it are dropped from a panel's critical-point polynomial


def _hermite_basis(theta):
    """Weights of y0, s0 * length, y1 and s1 * length in `_hermite` at theta."""
    t2 = theta * theta
    t3 = t2 * theta
    return 2.0 * t3 - 3.0 * t2 + 1.0, t3 - 2.0 * t2 + theta, -2.0 * t3 + 3.0 * t2, t3 - t2


def _hermite_deriv_basis(theta):
    """The same weights for `_hermite_deriv`, before its division by the length."""
    t2 = theta * theta
    return (6.0 * t2 - 6.0 * theta, 3.0 * t2 - 4.0 * theta + 1.0,
            -6.0 * t2 + 6.0 * theta, 3.0 * t2 - 2.0 * theta)


def _hermite_sum(c, length, y0, y1, s0, s1):
    """c[0] y0 + c[1] s0 length + c[2] y1 + c[3] s1 length, in that order."""
    return c[0] * y0 + c[1] * (s0 * length) + c[2] * y1 + c[3] * (s1 * length)


def _hermite(theta, length, y0, y1, s0, s1):
    """Cubic Hermite value at theta in [0, 1] of a panel of the given length
    with end values y0, y1 and end slopes s0, s1 (scalars or broadcast arrays)."""
    return _hermite_sum(_hermite_basis(theta), length, y0, y1, s0, s1)


def _hermite_deriv(theta, length, y0, y1, s0, s1):
    """Time derivative of `_hermite` with the same arguments."""
    return _hermite_sum(_hermite_deriv_basis(theta), length, y0, y1, s0, s1) / length


def _gauss(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-point Gauss-Legendre nodes and weights of the panels between the
    edges of each row (R, C), increasing and NaN-padded: the one rule of every
    integral against a history, exact for cubics on each panel. Returns (nodes,
    weights, counts): row r's panels' left nodes, then their right ones, follow
    row r - 1's."""
    a, b = edges[:, :-1], edges[:, 1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    offset = half / np.sqrt(3.0)
    weights = np.concatenate([half, half], 1)
    valid = ~np.isnan(weights)  # NaN past the row's last edge
    return np.concatenate([mid - offset, mid + offset], 1)[valid], weights[valid], valid.sum(axis=1)


def fd_slopes(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Node slopes from three-point finite differences, exact for quadratics."""
    n_nodes = grid.shape[0]
    if n_nodes == 2:
        d = (values[1] - values[0]) / (grid[1] - grid[0])
        return np.stack([d, d])
    h = np.diff(grid)
    d = np.diff(values, axis=0) / h[:, None]
    slopes = np.empty_like(values)
    hl, hr = h[:-1, None], h[1:, None]
    slopes[1:-1] = (d[:-1] * hr + d[1:] * hl) / (hl + hr)
    slopes[0] = ((2.0 * h[0] + h[1]) * d[0] - h[0] * d[1]) / (h[0] + h[1])
    slopes[-1] = ((2.0 * h[-1] + h[-2]) * d[-1] - h[-1] * d[-2]) / (h[-1] + h[-2])
    return slopes


def _freeze(a) -> np.ndarray:
    """A read-only float copy of `a`: the one intake of every value type's arrays,
    so a caller's later edit never reaches the value, nor its edit the caller."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


def _own(params: dict) -> dict:
    """A value's copy of the caller's params, its arrays frozen: as `_freeze` does for
    arrays, so that no later edit of the caller's dict, lists or arrays reaches the value."""
    own = {key: copy.deepcopy(v) if isinstance(v, (np.ndarray, list)) else v for key, v in params.items()}
    for v in own.values():
        if isinstance(v, np.ndarray):
            v.setflags(write=False)
    return own


def _columns(a) -> np.ndarray:
    """a as float, a vector read as one column."""
    a = np.asarray(a, dtype=float)
    return a[:, None] if a.ndim == 1 else a


@dataclass(frozen=True)
class HistorySegment:
    """A function [-delta, 0] -> R^n on a grid with interpolation.

    Immutable: construction copies the arrays it is given and freezes the
    copies, so a later edit of the caller's arrays does not reach the segment.
    Safe to share between threads. kink_times marks known derivative
    discontinuities inside [-delta, 0]; the integrator seeds its breakpoint
    propagation with them so steps never straddle a kink.
    """

    delta: float
    grid: np.ndarray
    values: np.ndarray
    interp: str = CUBIC
    slopes: np.ndarray | None = field(default=None)
    kink_times: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        delta = float(self.delta)
        if not delta > 0.0:
            raise PreconditionError(f"horizon must be positive, got {delta}")
        grid = np.array(self.grid, dtype=float).ravel()  # a copy: its ends are set below
        values = _columns(self.values)
        if values.ndim != 2 or values.shape[0] != grid.shape[0]:
            raise DimensionError(
                f"values shape {values.shape} incompatible with grid of {grid.shape[0]} nodes"
            )
        if grid.shape[0] < 2:
            raise PreconditionError("grid needs at least the two endpoints")
        if not (grid[1:] > grid[:-1]).all():
            raise PreconditionError("grid must be strictly increasing")
        tol = _DOMAIN_TOL * max(1.0, delta)
        if abs(grid[0] + delta) > tol or abs(grid[-1]) > tol:
            raise PreconditionError(
                f"grid must span [-{delta}, 0], got [{grid[0]}, {grid[-1]}]"
            )
        grid[0] = -delta
        grid[-1] = 0.0
        if not np.isfinite(values).all():
            raise PreconditionError("history values must be finite")
        if self.interp not in (LINEAR, CUBIC):
            raise PreconditionError(f"unknown interpolation kind {self.interp!r}")
        slopes = None
        if self.interp == CUBIC:
            slopes = fd_slopes(grid, values) if self.slopes is None else _columns(self.slopes)
            if slopes.shape != values.shape:
                raise DimensionError("slopes shape must match values shape")
            slopes = _freeze(slopes)
        object.__setattr__(self, "slopes", slopes)
        kinks = np.empty(0)
        if self.kink_times is not None:
            kinks = np.asarray(self.kink_times, dtype=float).ravel()
            if not (kinks[1:] > kinks[:-1]).all():  # else np.unique returns them as they are
                kinks = np.unique(kinks)
            kinks = kinks[np.searchsorted(kinks, -delta) : np.searchsorted(kinks, 0.0, "right")]
        object.__setattr__(self, "kink_times", _freeze(kinks))
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "grid", _freeze(grid))
        object.__setattr__(self, "values", _freeze(values))

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def num_nodes(self) -> int:
        return self.grid.shape[0]

    def eval(self, s) -> np.ndarray:
        """Value at s in [-delta, 0]; scalar s gives (n,), array (m,) gives (m, n)."""
        return self._interpolate(s, None)

    def deriv(self, s, side: str = "+") -> np.ndarray:
        """Interpolant derivative at s. `side` picks the branch at interior nodes
        (relevant for linear interpolation, where the slope jumps at nodes)."""
        return self._interpolate(s, side)

    def _interpolate(self, s, side: str | None) -> np.ndarray:
        """The value (side None) or the derivative from `side` at s."""
        s = np.asarray(s, dtype=float)
        if s.ndim == 0:
            return self._interpolate(s[None], side)[0]
        tol = _DOMAIN_TOL * max(1.0, self.delta)
        if s.size and (s.min() < -self.delta - tol or s.max() > tol):
            raise PreconditionError(
                f"evaluation outside [-{self.delta}, 0]: range [{np.min(s)}, {np.max(s)}]"
            )
        s = np.minimum(np.maximum(s, -self.delta), 0.0)
        idx = np.minimum(np.maximum(np.searchsorted(self.grid, s, side="right") - 1, 0), self.num_nodes - 2)
        if side == "-":  # a node takes the interval on its left
            idx = np.where((s == self.grid[idx]) & (idx > 0), idx - 1, idx)
        length = self.grid[idx + 1] - self.grid[idx]
        theta = (s - self.grid[idx]) / length
        y0, y1 = self.values[idx], self.values[idx + 1]
        if self.interp == LINEAR:
            return y0 + theta[:, None] * (y1 - y0) if side is None else (y1 - y0) / length[:, None]
        kernel = _hermite if side is None else _hermite_deriv
        return kernel(theta[:, None], length[:, None], y0, y1, self.slopes[idx], self.slopes[idx + 1])

    def sup_norm(self) -> float:
        """Sup of |phi(s)| (Euclidean) over [-delta, 0], exact: `_sup_norms` of this history."""
        return float(_sup_norms([self])[0])

    @classmethod
    def constant(cls, value, delta: float, interp: str = CUBIC) -> "HistorySegment":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(delta, np.array([-delta, 0.0]), np.stack([v, v]), interp)

    @classmethod
    def zero(cls, n: int, delta: float, interp: str = CUBIC) -> "HistorySegment":
        return cls.constant(np.zeros(n), delta, interp)


def combine(a: float, phi: HistorySegment, b: float, psi: HistorySegment) -> HistorySegment:
    """a*phi + b*psi sampled on the union grid of the two operands."""
    grid = _union_grid(phi, psi)
    values = a * phi.eval(grid) + b * psi.eval(grid)
    interp = CUBIC if CUBIC in (phi.interp, psi.interp) else LINEAR
    return HistorySegment(phi.delta, grid, values, interp)


def sup_norm_diff(phi: HistorySegment, psi: HistorySegment) -> float:
    """Sup-norm of phi - psi, exact: on each panel of the union grid the
    difference is the cubic Hermite of its end values, its right slope at the
    left end and its left slope at the right end, a linear operand's too."""
    grid = _union_grid(phi, psi)
    diff = (phi._interpolate(grid, side) - psi._interpolate(grid, side) for side in (None, "+", "-"))
    return float(_hermite_sups(grid, *diff, np.zeros(grid.size, dtype=int))[0][0])


def _union_grid(phi: HistorySegment, psi: HistorySegment) -> np.ndarray:
    """The union of the grids of two histories of one space: one horizon and one n."""
    if abs(phi.delta - psi.delta) > _DOMAIN_TOL * max(1.0, phi.delta):
        raise PreconditionError("histories must share the same horizon")
    if phi.n != psi.n:
        raise DimensionError("histories must share the same dimension")
    return np.union1d(phi.grid, psi.grid)


def _sup_norms(histories) -> np.ndarray:
    """The exact sup of |phi| of each history, the i-th owning knots i of one `_hermite_sups`
    call. A linear history's slopes are taken as 0, so that no panel of it passes the hull
    test: its sup is its largest node, as |phi| is convex on its panels."""
    if not histories:
        return np.zeros(0)
    grid, values = (np.concatenate([getattr(h, name) for h in histories]) for name in ("grid", "values"))
    slopes = np.concatenate([np.zeros_like(h.values) if h.slopes is None else h.slopes for h in histories])
    owners = np.arange(len(histories)).repeat([h.num_nodes for h in histories])
    return _hermite_sups(grid, values, slopes, slopes, owners)[0]


def _hermite_sups(times, values, right, left, owners, rate: float = 0.0):
    """(sup, time) of |y(t)| e^(rate t), rate >= 0, for each owner 0..K-1 of the
    knots, on cubic Hermite panels: y is values[i] at times[i] and has slope
    right[i] on the right of knot i and left[i] on its left; a panel joins two
    consecutive knots of one owner, whose knots are contiguous and in time
    order. The candidates are the knots and the critical points inside the
    panels whose Bernstein hull (Farouki, CAGD 29, 2012) rises above their
    owner's best knot; the time is that of the first candidate at the sup,
    the knots coming first, then the critical points panel by panel.
    """
    norms = np.linalg.norm(values, axis=1)
    value = norms * np.exp(rate * times)
    j = (owners[:-1] == owners[1:]).nonzero()[0]  # panel j spans knots j and j + 1
    length = (times[j + 1] - times[j])[:, None]
    s0, s1 = right[j], left[j + 1]
    bound = np.maximum(norms[j], norms[j + 1])  # the Bernstein control points, one at a time
    bound = np.maximum(bound, np.linalg.norm(values[j] + length * s0 / 3.0, axis=1))
    bound = np.maximum(bound, np.linalg.norm(values[j + 1] - length * s1 / 3.0, axis=1))
    best = np.maximum.reduceat(value, np.concatenate([[True], owners[1:] != owners[:-1]]).nonzero()[0])
    keep = (bound * np.exp(rate * times[j + 1]) > best[owners[j]]).nonzero()[0]
    if keep.size:  # else every sup is at a knot
        j, length, s0, s1 = j[keep], length[keep], s0[keep], s1[keep]
        y0, y1 = values[j], values[j + 1]
        ls0, ls1 = length * s0, length * s1
        coefs = np.stack([y0, ls0, 3.0 * (y1 - y0) - 2.0 * ls0 - ls1, 2.0 * (y0 - y1) + ls0 + ls1], axis=1)
        theta = _critical_points(coefs, rate * length[:, 0]).real
        p, q = np.nonzero((theta > 0.0) & (theta < 1.0))  # root q of kept panel p
        theta, length = theta[p, q][:, None], length[p]
        tc = times[j[p]] + length[:, 0] * theta[:, 0]
        yc = _hermite(theta, length, y0[p], y1[p], s0[p], s1[p])
        value = np.concatenate([value, np.linalg.norm(yc, axis=1) * np.exp(rate * tc)])
        times, owners = np.concatenate([times, tc]), np.concatenate([owners, owners[j[p]]])
        np.maximum.at(best, owners[-tc.size :], value[-tc.size :])  # the critical points
    hits = (value == best[owners]).nonzero()[0]  # the candidates at their owner's sup, in order
    first = np.full(best.size, value.size)
    np.minimum.at(first, owners[hits], hits)
    return best, times[first]


def _critical_points(coefs: np.ndarray, rate_length: np.ndarray) -> np.ndarray:
    """Complex roots, (K, 6) or for n = 1 (K, 3), of a polynomial whose real
    roots hold the critical points of |z(theta)| e^(aL theta) on each of K
    panels z(theta) = sum_i coefs[k, i] theta^i, aL = rate_length[k]: z . q
    with q = z_theta + aL z, or q for n = 1. Scaled to a largest coefficient
    of 1, each is solved at its degree d past coefficients below `_DEGREE_TOL`,
    as the leading d x d block of a companion whose other diagonal is -1.
    """
    q = rate_length[:, None, None] * coefs
    q[:, :3] += np.arange(1.0, 4.0)[:, None] * coefs[:, 1:]
    power = 1.0 * (np.add.outer(np.arange(4), np.arange(4)) == np.arange(7)[:, None, None])
    poly = q[..., 0] if coefs.shape[2] == 1 else np.einsum("kin,kjn,mij->km", coefs, q, power)
    scale = np.abs(poly).max(axis=1, keepdims=True)
    poly = np.divide(poly, scale, out=np.zeros_like(poly), where=scale > 0.0)
    size = poly.shape[1] - 1
    degree = np.max((np.abs(poly) > _DEGREE_TOL) * np.arange(size + 1), axis=1)
    lead = np.take_along_axis(poly, degree[:, None], axis=1)
    i = np.arange(size)
    block = i < degree[:, None]  # the rows and columns of the companion block
    below = np.take_along_axis(poly, np.maximum(degree[:, None] - 1 - i, 0), axis=1)
    companion = np.eye(size, k=-1) * block[..., None] - np.eye(size) * ~block[..., None]
    # first row: -p_(d-1) / p_d, ..., -p_0 / p_d
    companion[:, 0] += np.divide(-below, lead, out=np.zeros_like(below), where=block)
    return np.linalg.eigvals(companion)


def sample_history(
    n: int, delta: float, bound: float, roughness: int, seed: int
) -> HistorySegment:
    """Draw a random history with sup-norm <= bound, deterministic per seed.

    roughness 0 always yields a constant history. For roughness >= 1 the draw
    mixes constants, random piecewise-cubic profiles and truncated Fourier
    series with decaying coefficients; the result is rescaled so that its
    sup-norm (measured on a 20x refined grid) lands in (0, bound].
    """
    if bound <= 0.0:
        raise PreconditionError("bound must be positive")
    if roughness < 0:
        raise PreconditionError("roughness must be >= 0")
    rng = np.random.default_rng(seed)
    amplitude = bound * rng.uniform(0.3, 1.0)
    kinds = ["constant", "fourier", "piecewise-cubic"]
    kind = "constant" if roughness == 0 else rng.choice(kinds, p=[0.15, 0.45, 0.4])  # roughness 0 draws no kind
    if kind == "constant":
        direction = rng.standard_normal(n)
        direction /= max(np.linalg.norm(direction), 1e-300)
        return HistorySegment.constant(amplitude * direction, delta)

    num = max(17, 8 * roughness + 1)
    grid = np.linspace(-delta, 0.0, num)
    if kind == "fourier":
        values = np.zeros((num, n))
        values += rng.standard_normal(n)[None, :]
        for k in range(1, roughness + 1):
            decay = 1.0 / (1.0 + k * k)
            phase = 2.0 * np.pi * k * (grid + delta) / delta
            values += decay * np.outer(np.cos(phase), rng.standard_normal(n))
            values += decay * np.outer(np.sin(phase), rng.standard_normal(n))
        seg = HistorySegment(delta, grid, values)
    else:
        knots = np.linspace(-delta, 0.0, roughness + 2)
        kv = rng.standard_normal((roughness + 2, n))
        ks = rng.standard_normal((roughness + 2, n)) / delta
        seg = HistorySegment(delta, knots, kv, CUBIC, ks)
        seg = HistorySegment(delta, grid, seg.eval(grid), CUBIC)

    fine = seg.grid[:-1] + np.arange(1, 20)[:, None] / 20 * np.diff(seg.grid)  # the 20x refined grid
    sup = float(np.max(np.linalg.norm(seg.eval(np.concatenate([seg.grid, fine.ravel()])), axis=1)))
    if sup < 1e-300:
        return HistorySegment.zero(n, delta)
    scale = amplitude / sup
    return HistorySegment(delta, grid, seg.values * scale, CUBIC, seg.slopes * scale)
