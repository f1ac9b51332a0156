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
the tail spread as an error band.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError
from .histories import CUBIC, HistorySegment
from .integrate import _breakpoint_gap, segment
from .operators import DifferenceOperator, DistributedTerm, NfdeSystem, dop_apply, rhs_eval

_TOL = 1e-12


def _psd_check(mat: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square")
    if np.max(np.abs(m - m.T)) > 1e-10 * max(1.0, np.max(np.abs(m))):
        raise PreconditionError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(m)) < -1e-10 * max(1.0, np.max(np.abs(m))):
        raise PreconditionError(f"{name} must be positive semidefinite")
    return m


class Functional:
    """Evaluatable V: C -> R+ with V(0) = 0. Subclasses implement __call__."""

    kind = "abstract"

    def __call__(self, phi: HistorySegment) -> float:
        raise NotImplementedError

    def many(self, phis) -> list[float]:
        """V at every history of phis, in order; subclasses may share work across them."""
        return [self(phi) for phi in phis]


class QuadraticDopFunctional(Functional):
    """V(phi) = (D phi)^T P (D phi) with P symmetric positive semidefinite."""

    kind = "point-quadratic"

    def __init__(self, dop: DifferenceOperator, P):
        self.dop = dop
        self.P = _psd_check(P, "P")
        if self.P.shape[0] != dop.n:
            raise DimensionError("P dimension disagrees with operator")

    def __call__(self, phi):
        d = dop_apply(self.dop, phi)
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
        if self.P.shape[0] != dop.n or self._term.n != dop.n:
            raise DimensionError("functional dimensions disagree with operator")

    def __call__(self, phi):
        d = dop_apply(self.dop, phi)
        nodes, weights, kmats = self._term._quadrature(phi)
        vals = phi.eval(nodes)
        integral = float(np.einsum("k,kj,kij,ki->", weights, vals, kmats, vals))
        return float(d @ self.P @ d) + integral


class SupNormFunctional(Functional):
    """V(phi) = c ||phi|| with the sup norm estimated on a refined grid."""

    kind = "sup-norm"

    def __init__(self, c: float, refine: int = 10):
        if c <= 0:
            raise PreconditionError("coefficient must be positive")
        self.c = float(c)
        self.refine = refine

    def __call__(self, phi):
        return self.c * phi.sup_norm(self.refine)


class DopNormFunctional(Functional):
    """V(phi) = c |D phi|."""

    kind = "dop-norm"

    def __init__(self, dop: DifferenceOperator, c: float = 1.0):
        if c <= 0:
            raise PreconditionError("coefficient must be positive")
        self.dop = dop
        self.c = float(c)

    def __call__(self, phi):
        return self.c * float(np.linalg.norm(dop_apply(self.dop, phi)))


class WeightedCompositeFunctional(Functional):
    """Nonnegative combination of other functionals."""

    kind = "weighted-composite"

    def __init__(self, parts, weights):
        weights = [float(w) for w in weights]
        if len(parts) != len(weights) or not parts:
            raise PreconditionError("need matching nonempty parts and weights")
        if any(w < 0 for w in weights):
            raise PreconditionError("weights must be nonnegative")
        self.parts = list(parts)
        self.weights = weights

    def __call__(self, phi):
        return float(sum(w * v(phi) for w, v in zip(self.weights, self.parts)))


# -- semi-norms ----------------------------------------------------------------

class SemiNorm:
    kind = "abstract"

    def __call__(self, phi: HistorySegment) -> float:
        raise NotImplementedError

    def domination_constant(self) -> float:
        """A constant a4 with ||phi||_a <= a4 ||phi|| for every history."""
        raise NotImplementedError


class DopSemiNorm(SemiNorm):
    """||phi||_a = |D phi|; dominated by (1 + sum ||A_j||) ||phi||."""

    kind = "dop-seminorm"

    def __init__(self, dop: DifferenceOperator):
        self.dop = dop

    def __call__(self, phi):
        return float(np.linalg.norm(dop_apply(self.dop, phi)))

    def domination_constant(self):
        return 1.0 + self.dop.coefficient_norm_sum()


class EndpointSemiNorm(SemiNorm):
    """||phi||_a = |phi(0)|."""

    kind = "endpoint"

    def __call__(self, phi):
        return float(np.linalg.norm(phi.eval(0.0)))

    def domination_constant(self):
        return 1.0


class L2SemiNorm(SemiNorm):
    """||phi||_a = (int |phi|^2 ds)^(1/2); dominated by sqrt(Delta) ||phi||."""

    kind = "l2"

    def __init__(self, delta: float):
        self.delta = float(delta)

    def __call__(self, phi):
        grid = phi.refined_grid(4)
        vals = np.linalg.norm(phi.eval(grid), axis=1) ** 2
        return float(np.sqrt(np.trapezoid(vals, grid)))

    def domination_constant(self):
        return float(np.sqrt(self.delta))


class WeightedSemiNorm(SemiNorm):
    kind = "weighted"

    def __init__(self, parts, weights):
        if len(parts) != len(weights) or not parts:
            raise PreconditionError("need matching nonempty parts and weights")
        if any(w < 0 for w in weights):
            raise PreconditionError("weights must be nonnegative")
        self.parts = list(parts)
        self.weights = [float(w) for w in weights]

    def __call__(self, phi):
        return float(sum(w * s(phi) for w, s in zip(self.weights, self.parts)))

    def domination_constant(self):
        return float(
            sum(w * s.domination_constant() for w, s in zip(self.weights, self.parts))
        )


# -- the history extension and derivative ladder --------------------------------

def phi_h_extend(
    system: NfdeSystem, phi: HistorySegment, h: float, u=None, extra_nodes: int = 5
) -> HistorySegment:
    """Forward extension phi_h of a history by 0 < h < min_j Delta_j.

    The new grid keeps shifted copies of phi's nodes, the junction -h, exact
    nodes at every -Delta_j and rhs delay, and a few uniform nodes inside the
    extension sliver (-h, 0]. Values and slopes come from the defining
    formulas, so for cubic histories the extension reproduces the shifted
    history and the sliver expression exactly between nodes as well; the
    derivative kink at the junction is confined to a microscopic interval
    right after -h.
    """
    delta = phi.delta
    dmin = system.dop.min_delay
    if not 0.0 < h < dmin:
        raise PreconditionError(f"h must lie in (0, {dmin}), got {h}")
    if abs(delta - system.delta) > _TOL * max(1.0, delta):
        raise PreconditionError("history horizon disagrees with system horizon")
    dphi = dop_apply(system.dop, phi)
    fval = rhs_eval(system.rhs, phi, u)

    dop = system.dop
    shifted = phi.grid - h
    back = (phi.grid[None, :] + dop.delays[:, None] - h).ravel()
    grid = np.unique(np.concatenate([
        [-delta, -h],
        shifted[(shifted > -delta) & (shifted < -h)],
        -dop.delays,
        [-float(d) for d in system.rhs.positive_delays() if d >= h],
        back[(back > -h) & (back < 0.0)],
        [-h + 1e-3 * h],
        -h + np.arange(1, extra_nodes + 1) * h / (extra_nodes + 1),
        [0.0],
    ]))
    keep = np.r_[True, np.diff(grid) > 1e-14 * max(1.0, delta)]
    grid = grid[keep]
    grid[0], grid[-1] = -delta, 0.0

    left = grid <= -h
    s_left = grid[left] + h
    s_right = grid[~left] + h
    backs = [s_right - d for d in dop.delays]
    values = np.empty((grid.size, phi.n))
    values[left] = phi.eval(s_left)
    acc = dphi[None, :] + np.outer(s_right, fval)
    for b, a in zip(backs, dop.matrices):
        acc += phi.eval(b) @ a.T
    values[~left] = acc
    kinks = np.concatenate([[-h], np.asarray(phi.kink_times) - h])
    if phi.interp != CUBIC:
        return HistorySegment(delta, grid, values, phi.interp, kink_times=kinks)
    slopes = np.empty_like(values)
    # the junction -h maps to s = 0, where both sides of phi' agree
    slopes[left] = phi.deriv(s_left, "+")
    acc = np.broadcast_to(fval, (s_right.size, phi.n)).copy()
    for b, a in zip(backs, dop.matrices):
        acc += phi.deriv(b) @ a.T
    slopes[~left] = acc
    return HistorySegment(delta, grid, values, CUBIC, slopes, kink_times=kinks)


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
    """
    hs = ladder.steps(system.dop.min_delay)
    queries = []
    for phi in phis:
        queries.append(phi)
        queries.extend(phi_h_extend(system, phi, float(h), u) for h in hs)
    values = V.many(queries)
    per = hs.size + 1
    return [
        _estimate(hs, values[k], values[k + 1 : k + per], ladder)
        for k in range(0, len(values), per)
    ]


def _estimate(hs: np.ndarray, v0: float, rung_values, ladder: LadderSpec) -> DerivativeEstimate:
    """The tail-max estimate from V(phi) and V at each rung's extension."""
    quotients = np.empty(hs.size)
    for k, (h, v) in enumerate(zip(hs, rung_values)):
        quotients[k] = (v - v0) / h
    tail = quotients[-ladder.tail :]
    tail_h = hs[-ladder.tail :]
    value = float(np.max(tail))
    coverage = float(tail_h[0] / (tail_h[0] - tail_h[-1]))
    band = coverage * float(np.max(tail) - np.min(tail))
    spreads = [
        float(np.max(quotients[i : i + ladder.tail]) - np.min(quotients[i : i + ladder.tail]))
        for i in range(quotients.size - ladder.tail + 1)
    ]
    med = float(np.median(spreads))
    nonsmooth = bool(band > 10.0 * med) if med > 0 else False
    return DerivativeEstimate(value, hs, quotients, band, v0, nonsmooth)


@dataclass(frozen=True)
class ConsistencyResult:
    max_deviation: float
    max_relative: float
    times: np.ndarray
    deviations: np.ndarray


def trajectory_grid(traj, count: int, margin_steps: int = 2) -> np.ndarray:
    """Times on the trajectory mesh at least `margin_steps` steps from breakpoints."""
    times = traj.times
    h_local = float(np.min(np.diff(times)))
    guard = margin_steps * h_local
    cand = times[_breakpoint_gap(traj, times) >= guard]
    if cand.size == 0:
        raise PreconditionError("no mesh times clear of breakpoints")
    sel = np.unique(np.linspace(0, cand.size - 1, min(count, cand.size)).astype(int))
    return cand[sel]


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
