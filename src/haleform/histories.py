"""Histories on [-delta, 0]: storage, interpolation, norms and random sampling.

A history is a continuous function phi: [-delta, 0] -> R^n represented by its
values on a strictly increasing grid with either piecewise-linear or
cubic-Hermite interpolation between nodes. Evaluation at grid nodes
reproduces the stored values exactly.
"""
from __future__ import annotations

import bisect
import copy
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, PreconditionError

LINEAR = "linear"
CUBIC = "cubic-hermite"

_DOMAIN_TOL = 1e-9
_DEGREE_TOL = 1e-13  # scaled coefficients below it are dropped from a panel's critical-point polynomial


def _hermite_basis(theta):
    """Weights of y0, s0 * length, y1 and s1 * length in the cubic Hermite value
    at theta in [0, 1] of a panel with end values y0, y1 and end slopes s0, s1."""
    t2 = theta * theta
    t3 = t2 * theta
    a, b = 2.0 * t3, 3.0 * t2
    return a - b + 1.0, t3 - 2.0 * t2 + theta, b - a, t3 - t2


def _hermite_deriv_basis(theta):
    """The same weights for its time derivative, before the division by the length."""
    t2 = theta * theta
    a, b = 6.0 * t2, 6.0 * theta
    c = 3.0 * t2
    return a - b, c - 4.0 * theta + 1.0, b - a, c - 2.0 * theta


def _hermite_sum(c, length, y0, y1, s0, s1):
    """c[0] y0 + c[1] s0 length + c[2] y1 + c[3] s1 length, in that order."""
    return c[0] * y0 + c[1] * (s0 * length) + c[2] * y1 + c[3] * (s1 * length)


class _Knots:
    """Increasing grids of two knots or more as one array ordered by (row,
    time), keyed exactly as row + i * time: numpy orders complex numbers
    lexicographically, so one searchsorted places the times of every row (one
    row is keyed by its times alone)."""

    def __init__(self, times, sizes):
        self.times, self.sizes = times, sizes
        if sizes.size == 1:
            self.starts, self.last, self.keys = np.zeros(1, dtype=int), sizes - 2, times
        else:
            ends = sizes.cumsum()
            self.starts, self.last = ends - sizes, ends - 2  # each row's first knot and last interval
            self.keys = np.arange(sizes.size).repeat(sizes) + 1j * times

    def locate(self, rows, ts, left=False):
        """(f, theta, length, lo, hi) of time ts[k] on row rows[k], f
        being the flat index of the left knot of its interval (the row's last
        interval for times past it; no time is before its row's first) and lo,
        hi its ends; where `left` is set, a knot time takes the interval on its
        left."""
        f = np.searchsorted(self.keys, ts if self.keys is self.times else rows + 1j * ts, side="right") - 1
        if left is not False:
            f -= left & (self.times[f] == ts) & (f > self.starts[rows])
        f = np.minimum(f, self.last[rows])
        lo, hi = self.times[f], self.times[f + 1]
        return f, (ts - lo) / (hi - lo), hi - lo, lo, hi


def _weights(theta, length, deriv, linear) -> tuple:
    """The weights of y0, s0 * length, y1 and s1 * length in the cubic Hermite
    value at theta (in its derivative where `deriv` is set), the length, and
    the divisor of their sum: the length for a derivative, else 1 (None when
    no read is a derivative). A linear read (`linear` is True for every read,
    False for none, or a mask), whose s0 is the panel's difference y1 - y0,
    weighs (1, theta, 0, 0) for its value and (0, 1, 0, 0) for its derivative,
    with a length of 1."""
    mixed = np.ndim(deriv) > 0
    divisor = np.where(deriv, length, 1.0) if mixed else length if deriv else None
    if linear is True:
        return np.where(deriv, 0.0, 1.0), np.where(deriv, 1.0, theta), 0.0, 0.0, 1.0, divisor
    basis = (np.where(deriv, _hermite_deriv_basis(theta), _hermite_basis(theta)) if mixed
             else (_hermite_deriv_basis if deriv else _hermite_basis)(theta))
    if linear is not False:  # some reads linear: each takes its weights
        zero = 0.0 * theta
        lin = (np.where(deriv, zero, 1.0 + zero), np.where(deriv, 1.0 + zero, theta), zero, zero, 1.0 + zero)
        *basis, length = np.where(linear, lin, [*basis, length])
    return (*basis, length, divisor)


def _gather(flat, rows, coefs, node=None) -> np.ndarray:
    """The reads placed at `rows` (of y0, s0, y1, s1 and, where `node` is set,
    of the node each copies) with `coefs` (`_weights`), from the flat buffer."""
    g = flat.take(rows, axis=0)
    out = _hermite_sum(coefs, coefs[4], g[0], g[2], g[1], g[3])
    if coefs[5] is not None:
        out /= coefs[5]
    if node is not None:
        np.copyto(out, g[4], where=node)
    return out


def _read(histories, which, ts, kind) -> np.ndarray:
    """x (kind 0) or x' from the right or the left (1, 2) of histories[which[k]]
    at time ts[k], one (n,) row each (`which` or `kind` may be one for all):
    the one read of a history. Times are clamped to [-delta, 0] past a tolerance
    and refused beyond it; a node read from the left takes the panel on its left.
    One history reads its own layout (see `_lay_out`), several their concatenation.
    """
    if len(histories) == 1:  # every read is of row 0
        knots, nodes, which = histories[0]._knots, histories[0]._nodes, 0
    else:
        knots = _Knots(np.concatenate([h.grid for h in histories]), np.array([h.num_nodes for h in histories]))
        nodes = np.concatenate([*(h.values for h in histories), *(h._nodes[h.num_nodes :] for h in histories)])
    lo = knots.times[knots.starts[which]]  # each read's -delta
    tol = _DOMAIN_TOL * max(1.0, *(h.delta for h in histories))
    if ts.size and ((ts - lo).min() < -tol or ts.max() > tol):
        raise PreconditionError(f"evaluation outside [-delta, 0]: range [{np.min(ts)}, {np.max(ts)}]")
    ts = np.minimum(np.maximum(ts, lo), 0.0)
    f, theta, length, _, _ = knots.locate(which, ts, kind == 2)
    flags = [h.slopes is None for h in histories]
    linear = all(flags) or any(flags) and np.array(flags)[which][:, None]
    coefs = _weights(theta[:, None], length[:, None], kind > 0 if np.ndim(kind) == 0 else (kind > 0)[:, None], linear)
    half = knots.times.size  # the slopes follow the values
    return _gather(nodes, f + np.array((0, half, 1, half + 1))[:, None], coefs)


def _lay_out(seg, delta, grid, values, slopes, kinks):
    """A history `seg` with these fields (slopes None for a linear one), and
    the one-row layout that `_read` takes: its values then its slopes as one
    frozen array, which `values` and `slopes` view (the knots of its grid are
    built on its first read alone). A linear history's slopes there are its
    differences y1 - y0 to the next node, 0 at its last. No field is checked:
    construction checks them first."""
    size = grid.size
    nodes = np.concatenate([values, slopes if slopes is not None else
                            np.concatenate([values[1:] - values[:-1], np.zeros((1, values.shape[1]))])], dtype=float)
    nodes.setflags(write=False)  # a fresh array, frozen as `_freeze` does
    vars(seg).update(delta=delta, grid=_freeze(grid), values=nodes[:size], interp=LINEAR if slopes is None else CUBIC,
                     slopes=None if slopes is None else nodes[size:], kink_times=_freeze(kinks), _nodes=nodes)
    return seg


def _cubic(delta: float, grid, values, slopes) -> HistorySegment:
    """A cubic history without kinks whose nodes are built valid, laid out without construction's checks."""
    return _lay_out(object.__new__(HistorySegment), delta, grid, values, slopes, np.empty(0))


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
    """Node slopes from three-point finite differences, exact for quadratics:
    of values (nodes, n), or of each history of a stack (..., nodes, n) on the grid."""
    n_nodes = grid.shape[0]
    if n_nodes == 2:
        d = (values[..., 1, :] - values[..., 0, :]) / (grid[1] - grid[0])
        return np.stack([d, d], axis=-2)
    h = np.diff(grid)
    d = np.diff(values, axis=-2) / h[:, None]
    slopes = np.empty_like(values)
    hl, hr = h[:-1, None], h[1:, None]
    slopes[..., 1:-1, :] = (d[..., :-1, :] * hr + d[..., 1:, :] * hl) / (hl + hr)
    slopes[..., 0, :] = ((2.0 * h[0] + h[1]) * d[..., 0, :] - h[0] * d[..., 1, :]) / (h[0] + h[1])
    slopes[..., -1, :] = ((2.0 * h[-1] + h[-2]) * d[..., -1, :] - h[-1] * d[..., -2, :]) / (h[-1] + h[-2])
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
        kinks = np.empty(0)
        if self.kink_times is not None:
            kinks = np.asarray(self.kink_times, dtype=float).ravel()
            if not (kinks[1:] > kinks[:-1]).all():  # else np.unique returns them as they are
                kinks = np.unique(kinks)
            kinks = kinks[np.searchsorted(kinks, -delta) : np.searchsorted(kinks, 0.0, "right")]
        _lay_out(self, delta, grid, values, slopes, kinks)

    @cached_property
    def _knots(self) -> _Knots:
        """The knots of the grid, which a read of this history alone takes (see `_read`)."""
        return _Knots(self.grid, np.array([self.grid.size]))

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def num_nodes(self) -> int:
        return self.grid.shape[0]

    def eval(self, s) -> np.ndarray:
        """Value at s in [-delta, 0]; scalar s gives (n,), array (m,) gives (m, n)."""
        return self._at(s, 0)

    def deriv(self, s, side: str = "+") -> np.ndarray:
        """Interpolant derivative at s. `side` picks the branch at interior nodes
        (relevant for linear interpolation, where the slope jumps at nodes)."""
        return self._at(s, 2 if side == "-" else 1)

    def _at(self, s, kind: int) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return _read([self], 0, s[None], kind)[0] if s.ndim == 0 else _read([self], 0, s, kind)

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
    return float(_sup_norm_diffs([phi], [psi])[0])


def _sup_norm_diffs(phis, psis) -> np.ndarray:
    """`sup_norm_diff` of phis[k] and psis[k] for each k, from one read of every
    operand and one `_hermite_sups` call, pair k owning its union grid's knots."""
    grids = [_union_grid(phi, psi) for phi, psi in zip(phis, psis)]
    if not grids:
        return np.zeros(0)
    sizes = [grid.size for grid in grids]
    grid, pair = np.concatenate(grids), np.arange(len(grids)).repeat(sizes)
    # values and slopes from the right and the left of each operand at its pair's grid, in one read
    which = np.concatenate([pair + o * len(grids) for o in (0, 1) for _ in range(3)])
    kinds = np.tile(np.arange(3).repeat(grid.size), 2)
    reads = _read([*phis, *psis], which, np.tile(grid, 6), kinds).reshape(2, 3, grid.size, -1)
    diff = reads[0] - reads[1]
    return _hermite_sups(grid, *diff, pair)[0]


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
        yc = _hermite_sum(_hermite_basis(theta), length, y0[p], y1[p], s0[p], s1[p])
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


def _check_seed(seed) -> None:
    """Refuse a negative seed, which `numpy.random.default_rng` cannot take."""
    if seed < 0:
        raise PreconditionError(f"seed must be non-negative, got {seed}")


def sample_history(
    n: int, delta: float, bound: float, roughness: int, seed: int
) -> HistorySegment:
    """Draw a random history with sup-norm <= bound, deterministic per seed.

    roughness 0 always yields a constant history. For roughness >= 1 the draw
    mixes constants, random piecewise-cubic profiles and truncated Fourier
    series with decaying coefficients; the result is rescaled so that its
    sup-norm (measured on a 20x refined grid) lands in (0, bound].
    This is `sample_histories` of one draw.
    """
    return sample_histories(n, delta, [(bound, roughness, seed)])[0]


_KINDS, _KIND_P = ["constant", "fourier", "piecewise-cubic"], np.array([0.15, 0.45, 0.4])
# rng.choice(_KINDS, p=_KIND_P) bisects this cdf with the one uniform it draws
_KIND_CDF = (_KIND_P.cumsum() / _KIND_P.cumsum()[-1]).tolist()


def sample_histories(n: int, delta: float, draws) -> list[HistorySegment]:
    """The histories of draws (bound, roughness, seed), in order, each the one
    `sample_history` draws alone; roughness None pins a constant history at
    the bound, drawing its direction only (a shell's first sample).

    Each draw reads its own generator, default_rng(seed), so its bits do not
    depend on the others. The draws of one kind and roughness share a grid:
    their values are computed as one stack, and the reads of their
    piecewise-cubic profiles and of the 20x refined grid, for the sups, take
    one set of Hermite weights (`_on_grid`); only the drawn histories are
    laid out.
    """
    delta, draws = float(delta), list(draws)
    for bound, roughness, seed in draws:
        if roughness is not None and bound <= 0.0:
            raise PreconditionError("bound must be positive")
        if roughness is not None and roughness < 0:
            raise PreconditionError("roughness must be >= 0")
        _check_seed(seed)
    out = [None] * len(draws)
    constants, groups = [], {}  # (index, value); (kind, roughness) -> [(index, amplitude, drawn values)]
    for i, (bound, roughness, seed) in enumerate(draws):
        rng = np.random.default_rng(seed)
        amplitude = bound if roughness is None else bound * rng.uniform(0.3, 1.0)
        # roughness 0 draws no kind; the others draw the kind rng.choice(_KINDS, p=_KIND_P) would
        kind = "constant" if not roughness else _KINDS[bisect.bisect_right(_KIND_CDF, rng.random())]
        if kind == "constant":
            direction = rng.standard_normal(n)
            direction /= max(np.linalg.norm(direction), 1e-300)
            constants.append((i, amplitude * direction))
            continue
        if kind == "fourier":  # the offset, then each mode's cosine and sine coefficients
            drawn = rng.standard_normal((2 * roughness + 1, n))
        else:  # the knot values, then the knot slopes
            drawn = rng.standard_normal((roughness + 2, n)), rng.standard_normal((roughness + 2, n)) / delta
        groups.setdefault((kind, roughness), []).append((i, amplitude, drawn))
    if constants:
        grid = np.array([-delta, 0.0])
        values = np.stack([[v, v] for _, v in constants])
        for (i, _), v, s in zip(constants, values, fd_slopes(grid, values)):
            out[i] = _cubic(delta, grid, v, s)

    # each group's profiles before rescaling, one stack of values on one grid, and
    # their sups on the grid refined 20x; a group shares its grid, so its reads share
    # one set of weights
    for (kind, roughness), group in groups.items():
        index, amplitude, drawn = zip(*group)
        num = max(17, 8 * roughness + 1)
        grid = np.linspace(-delta, 0.0, num)
        if kind == "fourier":
            drawn = np.stack(drawn)
            values = np.zeros((len(group), num, n))
            values += drawn[:, None, 0]
            for k in range(1, roughness + 1):
                decay = 1.0 / (1.0 + k * k)
                phase = 2.0 * np.pi * k * (grid + delta) / delta
                values += decay * (np.cos(phase)[:, None] * drawn[:, None, 2 * k - 1])
                values += decay * (np.sin(phase)[:, None] * drawn[:, None, 2 * k])
        else:  # the cubic Hermite of the knots, read on the grid
            values = _on_grid(np.linspace(-delta, 0.0, roughness + 2), *map(np.stack, zip(*drawn)), grid)
        slopes = fd_slopes(grid, values)
        fine = np.concatenate([grid, (grid[:-1] + np.arange(1, 20)[:, None] / 20 * np.diff(grid)).ravel()])
        sups = np.linalg.norm(_on_grid(grid, values, slopes, fine), axis=-1).max(axis=1).tolist()
        for i, v, s, amp, sup in zip(index, values, slopes, amplitude, sups):
            if sup < 1e-300:
                out[i] = HistorySegment.zero(n, delta)
            else:
                scale = amp / sup
                out[i] = _cubic(delta, grid, v * scale, s * scale)
    return out


def _on_grid(grid: np.ndarray, values: np.ndarray, slopes: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The values at times ts of a stack of cubic histories (..., nodes, n) on one grid,
    each as `_read` reads it: one locate and one set of weights for the stack."""
    f, theta, length, _, _ = _Knots(grid, np.array([grid.size])).locate(0, ts)
    coefs = _weights(theta[:, None], length[:, None], False, False)
    return _hermite_sum(coefs, coefs[4], values[..., f, :], values[..., f + 1, :], slopes[..., f, :],
                        slopes[..., f + 1, :])
