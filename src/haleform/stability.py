"""Strong stability of the difference operator.

The margin gamma0 is the supremum over the delay torus [0, 2pi)^p of the
spectral radius of sum_j A_j exp(i theta_j). The associated delay-difference
equation is strongly stable (robustly to delay perturbations) iff gamma0 < 1.
Two cases are exact: for a scalar operator gamma0 = sum_j |a_j|, reached with
theta_j = pi where a_j < 0 and 0 elsewhere, and for a single delay gamma0 is
the spectral radius of A_1, tested by eigenvalues.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, UnsupportedDimensionError
from .operators import DifferenceOperator

STABLE = "stable"
UNSTABLE = "unstable"
INCONCLUSIVE = "inconclusive"

MAX_SWEEP_DELAYS = 4
_CHUNK = 65536


@dataclass(frozen=True)
class StabilityMargin:
    gamma0: float
    argmax_theta: np.ndarray
    grid_resolution: int
    refined: bool

    def __post_init__(self):
        theta = np.asarray(self.argmax_theta, dtype=float).copy()
        theta.setflags(write=False)
        object.__setattr__(self, "argmax_theta", theta)
        object.__setattr__(self, "gamma0", float(self.gamma0))


def _rho_stack(matrices: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Spectral radii of sum_j matrices[j] * phases[k, j], one per row k."""
    n = matrices.shape[1]
    stacked = np.einsum("kj,jab->kab", phases, matrices.astype(complex))
    if n == 1:
        return np.abs(stacked[:, 0, 0])
    return np.max(np.abs(np.linalg.eigvals(stacked)), axis=1)


def _rho_at(dop: DifferenceOperator, theta: np.ndarray) -> float:
    phases = np.exp(1j * np.asarray(theta, dtype=float))[None, :]
    return float(_rho_stack(dop.matrices, phases)[0])


def gamma0(
    dop: DifferenceOperator, resolution: int = 64, refine_iters: int = 40
) -> StabilityMargin:
    """Torus sweep of the spectral radius, followed by coordinate refinement.

    The grid maximum is monotone nondecreasing when the resolution doubles
    (the coarse grid is a subset of the fine one); refinement only ever
    increases the reported value. Exhaustive sweeps are limited to p <= 4.
    Scalar operators, at any p, and single delays need no sweep: their
    margins are exact.
    """
    if resolution < 8:
        raise PreconditionError("resolution must be at least 8 points per dimension")
    if dop.n == 1:
        a = dop.matrices[:, 0, 0]
        return StabilityMargin(np.sum(np.abs(a)), np.where(a < 0.0, np.pi, 0.0), resolution, False)
    if dop.p == 1:
        rho = np.max(np.abs(np.linalg.eigvals(dop.matrices[0])))
        return StabilityMargin(rho, np.zeros(1), resolution, False)
    p = dop.p
    if p > MAX_SWEEP_DELAYS:
        raise UnsupportedDimensionError(
            f"exhaustive torus sweep supports at most {MAX_SWEEP_DELAYS} delays, got {p}"
        )
    axis = 2.0 * np.pi * np.arange(resolution) / resolution
    best = -np.inf
    best_theta = np.zeros(p)
    total = resolution**p
    for start in range(0, total, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, total))
        idx = np.empty((flat.size, p), dtype=np.int64)
        rem = flat
        for j in range(p - 1, -1, -1):
            idx[:, j] = rem % resolution
            rem = rem // resolution
        thetas = axis[idx]
        rho = _rho_stack(dop.matrices, np.exp(1j * thetas))
        k = int(np.argmax(rho))
        if rho[k] > best:
            best = float(rho[k])
            best_theta = thetas[k].copy()
    step = 2.0 * np.pi / resolution
    for _ in range(refine_iters):
        improved = False
        for j in range(p):
            for sign in (1.0, -1.0):
                cand = best_theta.copy()
                cand[j] = (cand[j] + sign * step) % (2.0 * np.pi)
                val = _rho_at(dop, cand)
                if val > best:
                    best, best_theta, improved = val, cand, True
        if not improved:
            step *= 0.5
    return StabilityMargin(best, best_theta, resolution, refine_iters > 0)


def is_strongly_stable(
    dop: DifferenceOperator,
    resolution: int = 64,
    margin_tol: float = 1e-6,
    refine_iters: int = 40,
) -> tuple[str, StabilityMargin]:
    """Strong-stability verdict plus the margin behind it.

    The verdict compares gamma0 (exact for scalar operators and single
    delays, from the torus sweep otherwise) with 1 up to margin_tol.
    Verdicts within margin_tol of the boundary are reported as inconclusive,
    never coerced.
    """
    margin = gamma0(dop, resolution=resolution, refine_iters=refine_iters)
    if margin.gamma0 < 1.0 - margin_tol:
        return STABLE, margin
    if margin.gamma0 > 1.0 + margin_tol:
        return UNSTABLE, margin
    return INCONCLUSIVE, margin
