"""Lyapunov-Krasovskii functionals, semi-norms, and Driver-form derivatives.

The upper right-hand derivative of a functional V along the system flow is
estimated without solving the equation: the history phi is extended forward
by h through the explicit construction

    phi_h(s) = phi(s + h)                                   s in [-Delta, -h]
    phi_h(s) = D phi + f(phi[, u]) (s + h)
               - D phi*_{s+h} + phi(0)                      s in (-h, 0]

with phi*_theta(s) = phi(s + theta) on [-Delta, -theta] and phi(0) after,
which for h below the smallest operator delay collapses to

    phi_h(s) = D phi + f(phi[, u]) (s + h) + sum_j A_j phi(s + h - Delta_j).

Difference quotients (V(phi_h) - V(phi)) / h over a geometric h-ladder stand
in for the limsup; the reported value is the max over the ladder tail, with
the tail spread as an error band. A point functional, one that reads a history
at a few lags only (|D phi|, (D phi)^T P (D phi), |phi(0)| and weighted sums of
them), takes phi_h at those lags straight from phi, the same bits as the rung
phi_h gives there, and no phi_h is built; every other functional reads the rungs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError
from .histories import CUBIC, HistorySegment, _freeze, _gauss, _lay_out, _read
from .integrate import _clear_times, segment
from .operators import DifferenceOperator, DistributedTerm, NfdeSystem, _apply, _dop_of, _dop_rows, _grids

_TOL = 1e-12
_EXTRA_NODES = 5  # uniform nodes inside each extension sliver (-h, 0]


def _psd_check(mat: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square")
    if not np.all(np.isfinite(m)):
        raise PreconditionError(f"{name} must be finite")
    if np.max(np.abs(m - m.T)) > 1e-10 * max(1.0, np.max(np.abs(m))):
        raise PreconditionError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(m)) < -1e-10 * max(1.0, np.max(np.abs(m))):
        raise PreconditionError(f"{name} must be positive semidefinite")
    return _freeze(m)


def _positive(value, name: str) -> float:
    """value as a float, refused unless positive and finite; NaN fails the test."""
    if not 0.0 < float(value) < np.inf:
        raise PreconditionError(f"{name} must be positive and finite, got {value}")
    return float(value)


def _parts_and_weights(parts, weights) -> tuple[list, list[float]]:
    """A weighted sum's parts and their nonnegative finite weights, one per part."""
    weights = [float(w) for w in weights]
    if len(parts) != len(weights) or not parts:
        raise PreconditionError("need matching nonempty parts and weights")
    if not all(0.0 <= w < np.inf for w in weights):
        raise PreconditionError(f"weights must be nonnegative and finite, got {weights}")
    return list(parts), weights


class Functional:
    """Evaluatable V: C -> R+ with V(0) = 0. Subclasses implement __call__ or `many`, each defined through
    the other here: a class with neither is refused, unless it is `abstract=True` (as `SemiNorm`)."""

    kind = "abstract"

    def __init_subclass__(cls, abstract: bool = False):
        if not abstract and cls.__call__ is Functional.__call__ and cls.many is Functional.many:
            raise TypeError(f"{cls.__name__} implements neither __call__ nor many")

    def __call__(self, phi: HistorySegment) -> float:
        return self.many([phi])[0]

    def many(self, phis) -> list[float]:
        """V at every history of phis, in order; subclasses may share work across them."""
        return [self(phi) for phi in phis]

    def _lags(self, n: int):
        """The lags at which V reads a history of n components where V is a function of its values
        there alone (a point functional), whose `_at(x)` is V at each history of a stack x (R,
        lags, n) of those values, as `many` gives it; None, where V reads it anywhere else."""
        return None


class _OfDop(Functional, abstract=True):
    """V(phi) = W(D phi), W being `_w`: a point functional at 0 and each -Delta_j of its operator."""

    def _lags(self, n):
        return np.concatenate(([0.0], -self.dop.delays)) if n == self.dop.n else None

    def _at(self, x) -> list[float]:
        return [self._w(d) for d in _dop_of(self.dop, x)]

    def many(self, phis) -> list[float]:
        """V at every history of phis, in order, from one read of them all."""
        return [self._w(d) for d in _dop_rows(self.dop, list(phis))[0]]


class QuadraticDopFunctional(_OfDop):
    """V(phi) = (D phi)^T P (D phi) with P symmetric positive semidefinite."""

    kind = "point-quadratic"

    def __init__(self, dop: DifferenceOperator, P):
        self.dop = dop
        self.P = _psd_check(P, "P")
        if self.P.shape[0] != dop.n:
            raise DimensionError("P dimension disagrees with operator")

    def _w(self, d) -> float:
        return float(d @ self.P @ d)


class IntegralQuadraticFunctional(Functional):
    """V(phi) = (D phi)^T P (D phi) + int phi(s)^T Q(s) phi(s) ds.

    The kernel Q is sampled on its own grid (typically the history grid) and
    integrated with the same quadrature as distributed right-hand-side terms.
    """

    kind = "integral-quadratic"

    def __init__(self, dop: DifferenceOperator, P, kernel_grid, kernel):
        self.dop = dop
        self.P = _psd_check(P, "P")
        kernel = np.asarray(kernel, dtype=float)
        for k in range(kernel.shape[0]):
            _psd_check(kernel[k], f"Q[{k}]")
        self._term = DistributedTerm(kernel_grid, kernel)
        self.kernel_grid, self.kernel = self._term.grid, self._term.kernel
        if self.P.shape[0] != dop.n or self._term.n != dop.n:
            raise DimensionError("functional dimensions disagree with operator")

    def many(self, phis) -> list[float]:
        """V at every history of phis, in order: one `_rule` call places the
        quadratures of all their grids, each row's as on its own, and one read
        takes every history at D's times and at its quadrature nodes."""
        phis = list(phis)
        nodes, weights, kmats, counts = self._term._rule(_grids(phis))
        ds, vals = _dop_rows(self.dop, phis, nodes, counts)
        cuts = np.cumsum(counts)[:-1]
        return [float(d @ self.P @ d) + float(np.einsum("k,kj,kij,ki->", w, v, k, v))
                for d, w, v, k in zip(ds, *(np.split(r, cuts) for r in (weights, vals, kmats)))]


class SupNormFunctional(Functional):
    """V(phi) = c ||phi||, with the exact sup norm of `HistorySegment.sup_norm`."""

    kind = "sup-norm"

    def __init__(self, c: float):
        self.c = _positive(c, "coefficient")

    def __call__(self, phi):
        return self.c * phi.sup_norm()


class DopNormFunctional(_OfDop):
    """V(phi) = c |D phi|."""

    kind = "dop-norm"

    def __init__(self, dop: DifferenceOperator, c: float = 1.0):
        self.dop = dop
        self.c = _positive(c, "coefficient")

    def _w(self, d) -> float:
        return self.c * float(np.linalg.norm(d))


class WeightedCompositeFunctional(Functional):
    """Nonnegative combination of other functionals."""

    kind = "weighted-composite"

    def __init__(self, parts, weights):
        self.parts, self.weights = _parts_and_weights(parts, weights)

    def many(self, phis) -> list[float]:
        """V at every history of phis, in order, from one `many` call per part."""
        phis = list(phis)
        return self._sum([part.many(phis) for part in self.parts])

    def _lags(self, n):  # every part's lags, increasing
        lags = [part._lags(n) for part in self.parts]
        return None if any(lag is None for lag in lags) else np.unique(np.concatenate(lags))

    def _at(self, x) -> list[float]:
        lags = self._lags(x.shape[-1])
        return self._sum([part._at(x[:, np.searchsorted(lags, part._lags(x.shape[-1]))]) for part in self.parts])

    def _sum(self, columns) -> list[float]:
        """The weighted sum of the parts' columns, row by row, in the parts' order."""
        return [float(sum(w * v for w, v in zip(self.weights, row))) for row in zip(*columns)]


# -- semi-norms ----------------------------------------------------------------

class SemiNorm(Functional, abstract=True):
    """A semi-norm ||phi||_a: a functional with a domination constant."""

    def domination_constant(self) -> float:
        """A constant a4 with ||phi||_a <= a4 ||phi|| for every history."""
        raise NotImplementedError


class DopSemiNorm(DopNormFunctional, SemiNorm):
    """||phi||_a = |D phi|, the dop-norm functional with c = 1; dominated by
    (1 + sum ||A_j||) ||phi||."""

    kind = "dop-seminorm"

    def __init__(self, dop: DifferenceOperator):  # no c: a file holds no key for it
        super().__init__(dop)

    def domination_constant(self):
        return 1.0 + self.dop.coefficient_norm_sum()


class EndpointSemiNorm(SemiNorm):
    """||phi||_a = |phi(0)|."""

    kind = "endpoint"

    def many(self, phis) -> list[float]:
        """|phi(0)| of every history of phis, in order, from one read of them all."""
        phis = list(phis)
        return self._at(_read(phis, np.arange(len(phis)), np.zeros(len(phis)), 0)[:, None]) if phis else []

    def _lags(self, n):
        return np.zeros(1)

    def _at(self, x) -> list[float]:
        return [float(np.linalg.norm(v)) for v in x[:, 0]]

    def domination_constant(self):
        return 1.0


class L2SemiNorm(SemiNorm):
    """||phi||_a = (int_{-delta}^0 |phi|^2 ds)^(1/2), over phi's whole horizon
    if shorter, by the Gauss rule on phi's panels (exact on linear histories);
    dominated by sqrt(delta) ||phi||."""

    kind = "l2"

    def __init__(self, delta: float):
        self.delta = _positive(delta, "delta")

    def many(self, phis) -> list[float]:
        """The semi-norm of every history of phis, in order: one `_gauss` call places the
        nodes of all their panels, each row's as on its own, and one read takes them."""
        if not (phis := list(phis)):
            return []
        lo, grids = -np.minimum(self.delta, [phi.delta for phi in phis])[:, None], _grids(phis)
        nodes, weights, counts = _gauss(np.sort(np.concatenate([lo, np.where(grids > lo, grids, np.nan)], 1)))
        vals, cuts = _read(phis, np.arange(len(phis)).repeat(counts), nodes, 0), np.cumsum(counts)[:-1]
        return [float(np.sqrt(np.einsum("k,ki,ki->", w, v, v)))
                for w, v in zip(np.split(weights, cuts), np.split(vals, cuts))]

    def domination_constant(self):
        return float(np.sqrt(self.delta))


class WeightedSemiNorm(WeightedCompositeFunctional, SemiNorm):
    """A nonnegative combination of semi-norms; dominated by the same combination of theirs."""

    kind = "weighted"

    def domination_constant(self):
        return float(
            sum(w * s.domination_constant() for w, s in zip(self.weights, self.parts))
        )


# -- the history extension and derivative ladder --------------------------------

def phi_h_extend(system: NfdeSystem, phi: HistorySegment, h: float, u=None) -> HistorySegment:
    """Forward extension phi_h of a history by 0 < h < min_j Delta_j.

    The new grid keeps shifted copies of phi's nodes, the junction -h, exact
    nodes at every -Delta_j and rhs delay, and a few uniform nodes inside the
    extension sliver (-h, 0]. Values and slopes come from the defining
    formulas, so for cubic histories the extension reproduces the shifted
    history and the sliver expression exactly between nodes as well; the
    derivative kink at the junction is confined to a microscopic interval
    right after -h.
    """
    return _extensions(system, [phi], [h], u)[0]


def _extensions(system: NfdeSystem, phis, hs, u):
    """`phi_h_extend` of every history of phis at every step of hs, history by
    history, in one pass: each rung's candidate nodes are a row of one array
    (NaN where a rung drops one, or past its history's grid), sorted and thinned
    row by row, and the histories are read once for the values and once for the
    slopes at the points of every rung. D phi and f(phi, u) are computed once
    for all, by one `_dop_rows` and one `RhsMap.eval` call."""
    dop = system.dop
    dmin = dop.min_delay
    hs = np.asarray(hs, dtype=float)
    for h in hs:
        if not 0.0 < h < dmin:
            raise PreconditionError(f"h must lie in (0, {dmin}), got {h}")
    for phi in phis:
        if abs(phi.delta - system.delta) > _TOL * max(1.0, phi.delta):
            raise PreconditionError("history horizon disagrees with system horizon")
    if not phis:
        return []
    dphi = _dop_rows(dop, phis)[0]
    fval = system.rhs.eval(phis, None if u is None else np.atleast_1d(u)[None].repeat(len(phis), 0))
    owner = np.arange(len(phis)).repeat(hs.size)  # one row per rung, history by history
    h, delta = np.tile(hs, len(phis))[:, None], np.array([phi.delta for phi in phis])[owner, None]
    grids = _grids(phis)
    shifted = grids[owner] - h
    back = (grids[:, None, :] + dop.delays[:, None]).reshape(len(phis), -1)
    inside = (back > 0.0) & (back < hs.max())  # the nodes some rung puts in (-h, 0), NaN-padded
    back = np.where(inside, back, np.nan)[:, inside.any(axis=0)][owner] - h
    rhs_delays = np.array(system.rhs.positive_delays(), dtype=float)
    rows = np.sort(np.concatenate([
        -delta,
        -h,
        np.where((shifted > -delta) & (shifted < -h), shifted, np.nan),
        np.broadcast_to(-dop.delays, (owner.size, dop.delays.size)),
        np.where(rhs_delays >= h, -rhs_delays, np.nan),
        np.where((back > -h) & (back < 0.0), back, np.nan),
        -h + 1e-3 * h,
        -h + np.arange(1, _EXTRA_NODES + 1) * h / (_EXTRA_NODES + 1),
        np.zeros_like(h),
    ], axis=1), axis=1)
    # on sorted rows with repeats this rule keeps what it keeps after np.unique; NaN fails it
    keep = np.ones(rows.shape, dtype=bool)  # each row's first node, -Delta
    keep[:, 1:] = rows[:, 1:] - rows[:, :-1] > 1e-14 * np.maximum(1.0, delta)
    counts = keep.sum(axis=1)
    ends = np.cumsum(counts)
    starts = ends - counts
    grid = rows[keep]
    grid[starts], grid[ends - 1] = -delta[:, 0], 0.0

    hh, at = h[:, 0].repeat(counts), owner.repeat(counts)
    left = grid <= -hh
    s_right, right = grid[~left] + hh[~left], at[~left]
    points = np.concatenate([grid[left] + hh[left]] + [s_right - d for d in dop.delays])
    which = np.concatenate([at[left]] + [right] * dop.delays.size)
    cuts = np.count_nonzero(left) + s_right.size * np.arange(dop.delays.size + 1)
    del rows, shifted, back, hh, at  # freed before the reads, which hold some 200 bytes a point at their peak

    def rungs(kind, acc):
        """At every rung's nodes: its history read at the shifted nodes, then the sliver's sum."""
        reads = _read(phis, which, points, kind)
        out = np.empty((grid.size, dop.n))
        out[left] = reads[: cuts[0]]
        for j, a in enumerate(dop.matrices):
            acc += _apply(a, reads[cuts[j] : cuts[j + 1]])
        out[~left] = acc
        return out

    values = rungs(0, dphi[right] + s_right[:, None] * fval[right])
    if not np.isfinite(values).all():
        raise PreconditionError("history values must be finite")
    # the junction -h maps to s = 0, where both sides of phi' agree; a linear history's rungs drop theirs
    cubic = [phi.interp == CUBIC for phi in phis]
    slopes = rungs(1, fval[right]) if any(cubic) else None
    # each history's kinks, after -inf pads, nondecreasing; each rung's distinct ones in [-Delta, 0]
    kinks = np.full((len(phis), max(phi.kink_times.size for phi in phis)), -np.inf)
    for row, phi in zip(kinks, phis):
        row[row.size - phi.kink_times.size :] = phi.kink_times
    kinks = np.concatenate([kinks[owner] - h, -h], axis=1)
    keep = kinks >= -delta
    keep[:, 1:] &= kinks[:, 1:] > kinks[:, :-1]
    # the rungs are built sorted, thinned and checked finite: they skip construction's checks
    return [_lay_out(object.__new__(HistorySegment), phis[r].delta, grid[i:j], values[i:j],
                     slopes[i:j] if cubic[r] else None, kinks[k][keep[k]])
            for k, (r, i, j) in enumerate(zip(owner.tolist(), starts.tolist(), ends.tolist()))]


def _point_ladder(system: NfdeSystem, V: Functional, phis, hs: np.ndarray, u):
    """V at each history of phis, then at each of its rungs at the ladder's steps hs, as
    `V.many` gives it on them, by `V._at` on their values at V's lags, read off phi by one
    `_dop_rows` read (which takes f's reads too) without the rungs: a rung keeps each lag < 0
    as a node holding phi(h + lag), and holds D phi + h f(phi, u) + sum_j A_j phi(h - Delta_j)
    at 0, summed as `_extensions` sums it. None, for the rung path, where V is no point
    functional, `_extensions` would refuse the ladder, a history is linear (a linear rung's
    read at 0 takes its node before 0 too), f reads past a history's horizon (`RhsMap.eval`
    refuses that first), or a rung may not keep a lag as that node: a lag not among -Delta,
    D's delays and the rhs delays >= h, or one that the thinning by 1e-14 max(1, Delta) may
    drop, for a candidate node below it or, at a step under a row's width of such gaps, for
    leaving it the rung's last node."""
    if (lags := V._lags(system.n)) is None or not phis:
        return None
    dop, rows, delays = system.dop, len(phis), system.rhs.positive_delays()
    grids, delta = _grids(phis), np.array([phi.delta for phi in phis])[:, None, None]
    eps = 1e-14 * np.maximum(1.0, delta)
    if not 0.0 < hs[-1] <= hs[0] < dop.min_delay or any(abs(phi.delta - system.delta) > _TOL * max(1.0, phi.delta)
            or phi.slopes is None or phi.delta < max(delays, default=0.0) for phi in phis) \
            or hs[-1] <= eps.max() * (grids.shape[1] * (dop.p + 1) + dop.p + len(delays) + 9):
        return None
    neg, nodes, cands = lags[lags < 0], (-dop.delays).tolist(), [-r for r in delays]  # -r > -h precedes no lag
    keeps = nodes + [c for c in cands if -c >= hs[0]]
    below = [max([c for c in nodes + cands if c < lag], default=-np.inf) if lag in keeps else np.inf for lag in neg]
    grids = grids[:, None, :, None] - hs[:, None, None]  # (R, L, nodes, 1): the shifted candidates
    below = np.maximum(np.where(grids < neg, grids, -np.inf).max(axis=2), np.maximum(below, -delta))
    if not ((neg == -delta) | (neg - below > eps)).all():  # each lag a kept node, or the first
        return None
    at = nodes + [lag for lag in neg.tolist() if lag not in nodes]
    times = np.concatenate([lags, [-0.0, *cands], (hs[:, None] + at).ravel()])  # phi at the lags, f's, and h + at
    dphi, reads = _dop_rows(dop, phis, np.tile(times, rows), times.size)
    reads = reads.reshape(rows, times.size, dop.n)
    us = None if u is None else np.atleast_1d(u)[None].repeat(rows, 0)
    f = system.rhs.eval(phis, us, dict(zip([0.0, *delays], reads.swapaxes(0, 1)[lags.size :])))
    shifted = reads[:, lags.size + len(cands) + 1 :].reshape(rows, hs.size, len(at), dop.n)
    zero = dphi[:, None] + hs[:, None] * f[:, None]
    for j, a in enumerate(dop.matrices):
        zero += _apply(a, shifted[:, :, j])
    if not (np.isfinite(zero).all() and np.isfinite(shifted).all()):
        raise PreconditionError("history values must be finite")
    rungs = np.concatenate([zero[:, :, None], shifted], axis=2)[:, :, [[0.0, *at].index(lag) for lag in lags.tolist()]]
    return V._at(np.concatenate([reads[:, None, : lags.size], rungs], axis=1).reshape(-1, lags.size, dop.n))


@dataclass(frozen=True)
class LadderSpec:
    """Geometric h-ladder h0 * 2^-k, k = 0..levels; h0 defaults to min delay / 8."""

    h0: float | None = None
    levels: int = 12
    tail: int = 3

    def steps(self, min_delay: float) -> np.ndarray:
        h0 = self.h0 if self.h0 is not None else min_delay / 8.0
        if not 0.0 < h0 < min_delay:
            raise PreconditionError(f"ladder start {h0} not in (0, {min_delay})")
        if self.tail < 2:  # one quotient has no spread, and its coverage h / (h - h) is inf
            raise PreconditionError(f"ladder tail {self.tail} must be at least 2")
        if self.levels < self.tail:
            raise PreconditionError("ladder needs at least `tail` levels")
        return h0 * 0.5 ** np.arange(self.levels + 1)


@dataclass(frozen=True)
class DerivativeEstimate:
    """Tail-max difference quotient standing in for the limsup derivative.

    error_band is a half-width derived from the tail spread, scaled by
    h_first / (h_first - h_last) over the tail so that quotients varying
    linearly in h are covered down to their h -> 0 limit. v0 is V(phi), the
    base value of every quotient.
    """

    value: float
    h_ladder: np.ndarray
    quotients: np.ndarray
    error_band: float
    v0: float
    nonsmooth: bool = False


def driver_derivative(
    system: NfdeSystem,
    V: Functional,
    phi: HistorySegment,
    u=None,
    ladder: LadderSpec = LadderSpec(),
) -> DerivativeEstimate:
    """Estimate the upper right-hand derivative of V at phi along the flow.

    The value is the max of the last `tail` quotients and the error band is
    their spread; `nonsmooth` flags tails wider than 10x the median spread
    over the whole ladder (oscillating quotients, e.g. sup-norm kinds).
    """
    return driver_derivatives(system, V, [phi], u, ladder)[0]


def driver_derivatives(
    system: NfdeSystem,
    V: Functional,
    phis,
    u=None,
    ladder: LadderSpec = LadderSpec(),
) -> list[DerivativeEstimate]:
    """`driver_derivative` at every history of phis, in order, under one input value u.

    V is evaluated once, through `V.many`, on every base history and every
    ladder extension, ordered history by history (phi, then its rungs), so
    a functional that batches its evaluations shares them across all the
    histories and a failing evaluation surfaces as it would one at a time.
    A point functional gives the same values from its lags alone, without
    the rungs (`_point_ladder`).
    """
    hs, phis = ladder.steps(system.dop.min_delay), list(phis)
    if (values := _point_ladder(system, V, phis, hs, u)) is None:
        rungs, size = _extensions(system, phis, hs, u), hs.size
        values = V.many([query for k, phi in enumerate(phis) for query in (phi, *rungs[k * size : (k + 1) * size])])
    rung_values = np.array(values, dtype=float).reshape(len(phis), hs.size + 1)[:, 1:]
    return _estimates(hs, values[:: hs.size + 1], rung_values, ladder)


def _estimates(hs: np.ndarray, v0s, rung_values: np.ndarray, ladder: LadderSpec) -> list[DerivativeEstimate]:
    """The tail-max estimate of each history from V(phi), v0s[k], and V at each
    rung's extension, the row rung_values[k]: every row's as on its own."""
    quotients = (rung_values - np.array(v0s, dtype=float)[:, None]) / hs
    tail = quotients[:, -ladder.tail :]
    tail_h = hs[-ladder.tail :]
    coverage = float(tail_h[0] / (tail_h[0] - tail_h[-1]))
    windows = np.lib.stride_tricks.sliding_window_view(quotients, ladder.tail, axis=1)
    meds = np.median(windows.max(axis=2) - windows.min(axis=2), axis=1).tolist()
    bands = (coverage * (tail.max(axis=1) - tail.min(axis=1))).tolist()
    return [DerivativeEstimate(value, hs, q, band, v0, bool(band > 10.0 * med) if med > 0 else False)
            for value, q, band, v0, med in zip(tail.max(axis=1).tolist(), quotients, bands, v0s, meds)]


@dataclass(frozen=True)
class ConsistencyResult:
    max_deviation: float
    max_relative: float
    times: np.ndarray
    deviations: np.ndarray


def trajectory_grid(traj, count: int) -> np.ndarray:
    """Times on the trajectory mesh at least two mesh steps from breakpoints."""
    grid = _clear_times(traj, traj.times, count)
    if grid.size == 0 and count > 0:
        raise PreconditionError("no mesh times clear of breakpoints")
    return grid


def trajectory_consistency(
    system: NfdeSystem,
    V: Functional,
    traj,
    t_grid: np.ndarray,
    h_fd: float,
    ladder: LadderSpec = LadderSpec(),
) -> ConsistencyResult:
    """Deviation between forward differences of V along the trajectory and the
    extension-based derivative estimate at the same segments."""
    t_grid = np.asarray(t_grid, dtype=float)
    t_grid = t_grid[t_grid + h_fd <= traj.t_end]
    if t_grid.size == 0:
        raise PreconditionError("no grid time leaves room for the forward difference")
    devs = np.empty(len(t_grid))
    scale = 0.0
    for i, t in enumerate(t_grid):
        seg_t = segment(traj, float(t))
        u_t = traj.input.eval(float(t)) if traj.input is not None else None
        est = driver_derivative(system, V, seg_t, u_t, ladder)
        fd = (V(segment(traj, float(t) + h_fd)) - est.v0) / h_fd
        devs[i] = abs(fd - est.value)
        scale = max(scale, abs(est.value))
    rel = float(np.max(devs) / max(scale, 1e-300))
    return ConsistencyResult(float(np.max(devs)), rel, np.asarray(t_grid), devs)
