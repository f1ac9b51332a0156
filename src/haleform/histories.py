"""Histories on [-delta, 0]: storage, interpolation, norms and random sampling.

A history is a continuous function phi: [-delta, 0] -> R^n represented by its
values on a strictly increasing grid with either piecewise-linear or
cubic-Hermite interpolation between nodes. Evaluation at grid nodes
reproduces the stored values exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PreconditionError

LINEAR = "linear"
CUBIC = "cubic-hermite"

_DOMAIN_TOL = 1e-9


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


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HistorySegment:
    """A function [-delta, 0] -> R^n on a grid with interpolation.

    Immutable after construction; safe to share between threads. kink_times
    marks known derivative discontinuities inside [-delta, 0]; the integrator
    seeds its breakpoint propagation with them so steps never straddle a kink.
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
        grid = np.asarray(self.grid, dtype=float).ravel()
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] != grid.shape[0]:
            raise DimensionError(
                f"values shape {values.shape} incompatible with grid of {grid.shape[0]} nodes"
            )
        if grid.shape[0] < 2:
            raise PreconditionError("grid needs at least the two endpoints")
        if not np.all(np.diff(grid) > 0):
            raise PreconditionError("grid must be strictly increasing")
        tol = _DOMAIN_TOL * max(1.0, delta)
        if abs(grid[0] + delta) > tol or abs(grid[-1]) > tol:
            raise PreconditionError(
                f"grid must span [-{delta}, 0], got [{grid[0]}, {grid[-1]}]"
            )
        grid = grid.copy()
        grid[0] = -delta
        grid[-1] = 0.0
        if not np.all(np.isfinite(values)):
            raise PreconditionError("history values must be finite")
        if self.interp not in (LINEAR, CUBIC):
            raise PreconditionError(f"unknown interpolation kind {self.interp!r}")
        slopes = self.slopes
        if self.interp == CUBIC:
            if slopes is None:
                slopes = fd_slopes(grid, values)
            else:
                slopes = np.asarray(slopes, dtype=float)
                if slopes.ndim == 1:
                    slopes = slopes[:, None]
                if slopes.shape != values.shape:
                    raise DimensionError("slopes shape must match values shape")
            object.__setattr__(self, "slopes", _freeze(slopes))
        else:
            object.__setattr__(self, "slopes", None)
        kinks = self.kink_times
        if kinks is None:
            kinks = np.empty(0)
        else:
            kinks = np.unique(np.asarray(kinks, dtype=float).ravel())
            kinks = kinks[(kinks >= -delta) & (kinks <= 0.0)]
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

    def quad_panels(self) -> np.ndarray:
        """Panel boundaries for quadrature against this history."""
        return self.grid

    def refined_grid(self, refine: int = 10) -> np.ndarray:
        pieces = [self.grid]
        for k in range(1, refine):
            frac = k / refine
            pieces.append(self.grid[:-1] + frac * np.diff(self.grid))
        return np.sort(np.concatenate(pieces))

    def sup_norm(self, refine: int = 10) -> float:
        """Sup of |phi(s)| (Euclidean) estimated on a `refine`-times finer grid."""
        pts = self.eval(self.refined_grid(refine))
        return float(np.max(np.linalg.norm(pts, axis=1)))

    @classmethod
    def constant(cls, value, delta: float, interp: str = CUBIC) -> "HistorySegment":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(delta, np.array([-delta, 0.0]), np.stack([v, v]), interp)

    @classmethod
    def zero(cls, n: int, delta: float, interp: str = CUBIC) -> "HistorySegment":
        return cls.constant(np.zeros(n), delta, interp)


def combine(a: float, phi: HistorySegment, b: float, psi: HistorySegment) -> HistorySegment:
    """a*phi + b*psi sampled on the union grid of the two operands."""
    if abs(phi.delta - psi.delta) > _DOMAIN_TOL * max(1.0, phi.delta):
        raise PreconditionError("histories must share the same horizon")
    if phi.n != psi.n:
        raise DimensionError("histories must share the same dimension")
    grid = np.union1d(phi.grid, psi.grid)
    values = a * phi.eval(grid) + b * psi.eval(grid)
    interp = CUBIC if CUBIC in (phi.interp, psi.interp) else LINEAR
    return HistorySegment(phi.delta, grid, values, interp)


def sup_norm_diff(phi: HistorySegment, psi: HistorySegment, refine: int = 10) -> float:
    """Sup-norm of phi - psi on the refined union grid."""
    grid = np.union1d(phi.refined_grid(refine), psi.refined_grid(refine))
    diff = phi.eval(grid) - psi.eval(grid)
    return float(np.max(np.linalg.norm(diff, axis=1)))


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
    if roughness == 0:
        direction = rng.standard_normal(n)
        direction /= max(np.linalg.norm(direction), 1e-300)
        return HistorySegment.constant(amplitude * direction, delta)

    kind = rng.choice(["constant", "fourier", "piecewise-cubic"], p=[0.15, 0.45, 0.4])
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

    sup = seg.sup_norm(refine=20)
    if sup < 1e-300:
        return HistorySegment.zero(n, delta)
    scale = amplitude / sup
    return HistorySegment(delta, grid, seg.values * scale, CUBIC, seg.slopes * scale)
