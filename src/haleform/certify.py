"""Certificate verification, constant fitting, and empirical stability probes.

The certificate conditions of the three variants (gas, ges, ges-seminorm) are
stated once, as data, in the table `_CONDITIONS`. Verification, constant
fitting (each constant from its entry's sample cloud), counterexample
re-verification and the validation of `CertificateConstants` all read that
table, on sampled histories drawn from nested sup-norm shells. Derivative
conditions are judged against the ladder error band: a sample only counts as
a violation when the whole band sits on the wrong side, bands straddling the
threshold are counted as inconclusive. Verdicts are therefore certificates of
non-falsification, not proofs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .comparison import ComparisonFunction, K, K_INF, TAIL_EXTRAPOLATE, monotone_envelope
from .errors import EvaluationBlowupError, FitImpossibleError, PreconditionError
from .functionals import (
    DerivativeEstimate,
    DopSemiNorm,
    Functional,
    LadderSpec,
    SemiNorm,
    _positive,
    driver_derivatives,
)
from .histories import (
    HistorySegment,
    _check_seed,
    _hermite_sups,
    _read,
    _sup_norm_diffs,
    _sup_norms,
    sample_histories,
)
# integrate stays bound here as well: bench/tracing.py traces it as certify.integrate
from .integrate import StepPolicy, Trajectory, _store_knots, integrate, integrate_batch  # noqa: F401
from .operators import NfdeSystem
from .signals import ZERO, InputSignal

DEFAULT_SHELLS = (0.1, 1.0, 10.0)
_SLACK = 1e-9
_MAX_COUNTEREXAMPLES = 10  # kept per condition of a verification report, and per failed fit
_DOP_NORM_FLOOR = 1e-8  # samples with a scale below it carry no ratio into a fit
_SLOPE_CAP = 1e6  # the largest linear ISS gain before a power law is fitted
_HORIZON_CAP = 4.0  # the converse horizon extends to at most this multiple of the given one


# -- certificate data ------------------------------------------------------------

@dataclass(frozen=True)
class CertificateConstants:
    """Witness constants for one certificate variant.

    variant "gas" uses alpha1/alpha2 (class K-infinity) and alpha3 (class K);
    "ges" uses positive reals a1, a2, a3; "ges-seminorm" adds a4 and a
    semi-norm reference.
    """

    variant: str
    a1: float | None = None
    a2: float | None = None
    a3: float | None = None
    a4: float | None = None
    alpha1: ComparisonFunction | None = None
    alpha2: ComparisonFunction | None = None
    alpha3: ComparisonFunction | None = None
    seminorm: SemiNorm | None = None

    def __post_init__(self):
        if self.variant not in _CONDITIONS:
            raise PreconditionError(f"unknown certificate variant {self.variant!r}")
        for name in ("a1", "a2", "a3", "a4"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))
        for _, name, _, _, side in _CONDITIONS[self.variant]:
            c = getattr(self, name)
            if self.variant == "gas":
                kinds = (K, K_INF) if side == "decay" else (K_INF,)
                if c is None or c.kind not in kinds:
                    kinds = " or ".join(kinds)
                    raise PreconditionError(f"gas variant needs {name} of class {kinds}")
            elif c is None or not c > 0:
                raise PreconditionError(f"{self.variant} variant needs a positive {name}")
        if self.variant == "ges-seminorm" and self.seminorm is None:
            raise PreconditionError("ges-seminorm needs a semi-norm")


class _Columns:
    """The evaluations of one sample list, a column each: |D phi|, the sup
    norm, the semi-norm, D+V and V. Each column is one batched call over the
    whole list, made on first use and then kept.

    With a ladder, V is the ladder's v0, so V runs once per sample; without
    one, V is one `V.many` call and the h-ladder never runs.
    """

    def __init__(self, system, V, phis, ladder: LadderSpec | None, seminorm: SemiNorm | None):
        self.system, self.V, self.phis = system, V, list(phis)
        self.ladder, self.seminorm = ladder, seminorm

    @cached_property
    def dnorm(self) -> list[float]:
        return DopSemiNorm(self.system.dop).many(self.phis)

    @cached_property
    def sup(self) -> list[float]:
        return _sup_norms(self.phis).tolist()

    @cached_property
    def anorm(self) -> list[float]:
        return self.seminorm.many(self.phis)

    @cached_property
    def est(self) -> list[DerivativeEstimate]:
        return driver_derivatives(self.system, self.V, self.phis, None, self.ladder)

    @cached_property
    def v(self) -> list[float]:
        return [est.v0 for est in self.est] if self.ladder is not None else self.V.many(self.phis)

    def margins(self, k: int) -> dict:
        out = {"|Dphi|": self.dnorm[k], "sup": self.sup[k]}
        if self.seminorm is not None:
            out["seminorm"] = self.anorm[k]
        out.update({"V": self.v[k], "D+V": self.est[k].value, "band": self.est[k].error_band})
        return out


# Every certificate condition per variant, in report order, as data:
# (name, constant, scale, value, side), where scale and value name _Columns
# columns. With c(s) the constant's comparison function on gas and the
# linear map constant * s otherwise, side "lower" states c(scale) <= value,
# "upper" value <= c(scale), and "decay" D+V <= -c(scale), where value names
# the D+V estimate, judged against its ladder error band.
_CONDITIONS = {
    "gas": (
        ("lower-bound", "alpha1", "dnorm", "v", "lower"),
        ("upper-bound", "alpha2", "sup", "v", "upper"),
        ("derivative", "alpha3", "dnorm", "est", "decay"),
    ),
    "ges": (
        ("lower-bound", "a1", "dnorm", "v", "lower"),
        ("upper-bound", "a2", "sup", "v", "upper"),
        ("derivative", "a3", "v", "est", "decay"),
    ),
    "ges-seminorm": (
        ("lower-bound", "a1", "dnorm", "v", "lower"),
        ("upper-bound", "a2", "anorm", "v", "upper"),
        ("derivative", "a3", "anorm", "est", "decay"),
        ("domination", "a4", "sup", "anorm", "upper"),
    ),
}


def _sides(condition, cols: _Columns, k: int, constants: CertificateConstants) -> tuple[float, float, float]:
    """(lhs, rhs, band) of one table entry on sample k. The value column is read
    first, so a verification runs its ladder before any other column."""
    _, name, scale, value, side = condition
    v, c, s = getattr(cols, value)[k], getattr(constants, name), getattr(cols, scale)[k]
    bound = float(c(s)) if constants.variant == "gas" else c * s
    if side == "lower":
        return bound, v, 0.0
    if side == "upper":
        return v, bound, 0.0
    return v.value, -bound, v.error_band


def _exceeds(lhs: float, rhs: float, band: float = 0.0) -> bool:
    """lhs - band > rhs beyond a relative slack of _SLACK."""
    return lhs - band > rhs + _SLACK * max(1.0, abs(lhs), abs(rhs))


@dataclass
class ConditionStats:
    name: str
    checked: int = 0
    violations: int = 0
    inconclusive: int = 0
    worst_margin: float = -np.inf  # max of lhs - rhs; positive means violated


@dataclass
class Counterexample:
    condition: str
    history: HistorySegment
    details: dict = field(default_factory=dict)


@dataclass
class CertificateReport:
    samples_checked: int = 0
    conditions: list[ConditionStats] = field(default_factory=list)
    counterexamples: list[Counterexample] = field(default_factory=list)
    fitted: CertificateConstants | None = None
    lipschitz_estimate: float | None = None
    failure: str | None = None
    margins: list[dict] = field(default_factory=list)

    @property
    def violations(self) -> int:
        return sum(c.violations for c in self.conditions)

    @property
    def inconclusive(self) -> int:
        return sum(c.inconclusive for c in self.conditions)

    @property
    def passed(self) -> bool:
        return self.failure is None and self.violations == 0

    def stats(self, name: str) -> ConditionStats:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def _check_rows(constants: CertificateConstants, cols: _Columns) -> CertificateReport:
    """Every condition of the constants' variant on every sample, in order,
    keeping up to _MAX_COUNTEREXAMPLES violations of each condition."""
    if not cols.phis:
        raise PreconditionError("verification needs at least one sample")
    report = CertificateReport(samples_checked=len(cols.phis))
    conditions = _CONDITIONS[constants.variant]
    report.conditions = [ConditionStats(condition[0]) for condition in conditions]
    for k, phi in enumerate(cols.phis):
        for stats, condition in zip(report.conditions, conditions):
            lhs, rhs, band = _sides(condition, cols, k, constants)
            stats.checked += 1
            stats.worst_margin = max(stats.worst_margin, lhs - rhs - band)
            if _exceeds(lhs, rhs, band):
                stats.violations += 1
                if stats.violations <= _MAX_COUNTEREXAMPLES:
                    details = {"lhs": lhs, "rhs": rhs, "band": band}
                    report.counterexamples.append(Counterexample(stats.name, phi, details))
            elif _exceeds(lhs, rhs, -band):
                stats.inconclusive += 1
        report.margins.append(cols.margins(k))
    return report


def sample_shells(
    n: int,
    delta: float,
    per_shell: int,
    seed: int,
    shells=DEFAULT_SHELLS,
    max_roughness: int = 4,
) -> list[HistorySegment]:
    """Histories over nested sup-norm shells, deterministic per seed.

    Seeds partition as seed + i so batches can be split across workers. Each
    shell starts with a constant history pinned at the shell radius (the worst
    case for several estimates).
    """
    return sample_histories(n, delta, _shell_draws(per_shell, seed, shells, max_roughness))


def _shell_draws(per_shell: int, seed: int, shells, max_roughness: int = 4) -> list[tuple]:
    """`sample_shells`' draws for `histories.sample_histories`, shell by shell: its
    constant pinned at the radius, then per_shell - 1 samples of roughness 0, 1, ...,
    max_roughness, 0, ...; draw i is seeded seed + i."""
    if per_shell < 1:
        raise PreconditionError(f"per_shell must be at least 1, got {per_shell}")
    if not shells:
        raise PreconditionError("no shells to sample, so nothing would be checked")
    return [(shell, None if k == 0 else (k - 1) % (max_roughness + 1), seed + s * per_shell + k)
            for s, shell in enumerate(shells) for k in range(per_shell)]


# -- condition verification -------------------------------------------------------

def verify_gas_conditions(
    system: NfdeSystem,
    V: Functional,
    constants: CertificateConstants,
    samples: list[HistorySegment],
    ladder: LadderSpec = LadderSpec(),
) -> CertificateReport:
    """Check the asymptotic-stability certificate conditions on a sample set."""
    if constants.variant != "gas":
        raise PreconditionError("verify_gas_conditions needs gas-variant constants")
    return _check_rows(constants, _Columns(system, V, samples, ladder, None))


def verify_ges_conditions(
    system: NfdeSystem,
    V: Functional,
    constants: CertificateConstants,
    samples: list[HistorySegment],
    ladder: LadderSpec = LadderSpec(),
) -> CertificateReport:
    """Check the exponential-stability certificate conditions on a sample set.

    Also estimates a global Lipschitz constant for V from difference quotients
    across all shells and reports it alongside the verdicts.
    """
    if constants.variant != "ges":
        raise PreconditionError("verify_ges_conditions needs ges-variant constants")
    cols = _Columns(system, V, samples, ladder, None)
    report = _check_rows(constants, cols)
    lip, phis = 0.0, cols.phis
    for a, b, gap in zip(cols.v, cols.v[1:], _sup_norm_diffs(phis[:-1], phis[1:]).tolist()):
        if gap > 1e-9:
            lip = max(lip, abs(a - b) / gap)
    report.lipschitz_estimate = lip
    return report


def verify_ges_seminorm(
    system: NfdeSystem,
    V: Functional,
    seminorm: SemiNorm,
    constants: CertificateConstants,
    samples: list[HistorySegment],
    ladder: LadderSpec = LadderSpec(),
) -> CertificateReport:
    """Check the semi-norm certificate variant (four conditions per sample).

    `seminorm` must be `constants.seminorm`, the one counterexamples are
    re-verified with.
    """
    if constants.variant != "ges-seminorm":
        raise PreconditionError("verify_ges_seminorm needs ges-seminorm constants")
    if seminorm is not constants.seminorm:
        raise PreconditionError("verify_ges_seminorm needs seminorm to be constants.seminorm")
    return _check_rows(constants, _Columns(system, V, samples, ladder, seminorm))


def reverify_counterexample(
    system: NfdeSystem,
    V: Functional,
    constants: CertificateConstants,
    ce: Counterexample,
    ladder: LadderSpec = LadderSpec(),
) -> bool:
    """Re-evaluate the violated condition on the stored history, with the
    constants' semi-norm; only a derivative condition runs the h-ladder."""
    for condition in _CONDITIONS[constants.variant]:
        if condition[0] == ce.condition:
            banded = condition[4] == "decay"
            cols = _Columns(system, V, [ce.history], ladder if banded else None, constants.seminorm)
            return _exceeds(*_sides(condition, cols, 0, constants))
    raise PreconditionError(
        f"the {constants.variant} certificate has no condition {ce.condition!r}"
    )


# -- constant fitting --------------------------------------------------------------

@dataclass
class FitResult:
    constants: CertificateConstants | None
    report: CertificateReport

    @property
    def ok(self) -> bool:
        return self.constants is not None


def fit_constants(
    system: NfdeSystem,
    V: Functional,
    variant: str,
    samples: list[HistorySegment],
    ladder: LadderSpec = LadderSpec(),
    seminorm: SemiNorm | None = None,
    headroom: float = 0.01,
) -> FitResult:
    """Fit witness constants from sample envelopes, then re-verify on them.

    Each constant is fitted from its condition's (scale, value) cloud over the
    samples whose scale is above the floor; on decay the value is
    -(D+V + band) and only samples where it is positive count, so a band
    straddling 0 leaves its sample out. Envelopes are relaxed by `headroom`
    in the safe direction so the fitted certificate is robust out of sample;
    headroom 0 recovers the exact envelopes. Returns constants None with a
    failure report when a derivative has the wrong definite sign or a fitted
    constant is not admissible, and raises when a constant's cloud is empty.
    """
    if variant not in _CONDITIONS:
        raise PreconditionError(f"unknown certificate variant {variant!r}")
    if variant == "ges-seminorm" and seminorm is None:
        raise PreconditionError("ges-seminorm fitting needs a semi-norm")
    cols = _Columns(system, V, samples, ladder, seminorm)
    checked = len(cols.phis)
    # a wrong sign counts where the decay condition's scale is above the floor
    decay, _, scale, value, _ = next(c for c in _CONDITIONS[variant] if c[4] == "decay")
    wrong = [(k, est) for k, est in enumerate(getattr(cols, value)) if est.value - est.error_band > 0.0]
    if any(getattr(cols, scale)[k] > _DOP_NORM_FLOOR for k, _ in wrong):
        report = CertificateReport(samples_checked=checked, failure="derivative has the wrong sign on a sample")
        for k, est in wrong[:_MAX_COUNTEREXAMPLES]:
            details = {"lhs": est.value, "rhs": 0.0, "band": est.error_band, "V": est.v0}
            report.counterexamples.append(Counterexample(decay, cols.phis[k], details))
        report.conditions.append(ConditionStats(decay, checked=checked, violations=len(wrong)))
        return FitResult(None, report)

    fitted = {}
    try:
        for _, constant, scale, value, side in _CONDITIONS[variant]:
            x, y = np.array(getattr(cols, scale)), getattr(cols, value)
            y = np.array([-(est.value + est.error_band) for est in y] if side == "decay" else y)
            keep = (x > _DOP_NORM_FLOOR) & ((y > 0.0) | (side != "decay"))
            if not np.any(keep):
                raise FitImpossibleError(f"no admissible sample for {constant} after filtering")
            fitted[constant] = _fit_constant(variant, side, x[keep], y[keep], headroom)
        constants = CertificateConstants(
            variant, seminorm=seminorm if variant == "ges-seminorm" else None, **fitted
        )
    except PreconditionError as exc:
        return FitResult(None, CertificateReport(samples_checked=checked, failure=str(exc)))
    report = _check_rows(constants, cols)
    report.fitted = constants
    return FitResult(constants, report)


def _fit_constant(variant: str, side: str, x: np.ndarray, y: np.ndarray, headroom: float):
    """One constant around the cloud (x, y): on gas the monotone envelope
    (class K-infinity for a bound, K for decay), otherwise the min (lower,
    decay) or max (upper) ratio y / x; raises PreconditionError when it is
    not admissible."""
    if variant == "gas":
        if side == "decay":
            return monotone_envelope(x, y, "lower", headroom, kind=K)
        return monotone_envelope(x, y, side, headroom, kind=K_INF, tail=TAIL_EXTRAPOLATE)
    if side == "upper":
        c = (1.0 + headroom) * float(np.max(y / x))
    else:
        c = (1.0 - headroom) * float(np.min(y / x))
    if c <= 0.0:
        raise PreconditionError("nonpositive fitted constant")
    return c


# -- empirical stability estimation -------------------------------------------------

@dataclass
class GesEstimate:
    M: float
    lam: float
    fit_residual: float
    trajectories_used: int
    is_ges: bool
    counterexample: HistorySegment | None = None
    note: str = ""

    def bound(self, sup_xi0: float, t) -> np.ndarray:
        return self.M * sup_xi0 * np.exp(-self.lam * np.asarray(t))


def _envelope_slope(traj: Trajectory, t_lo: float, t_hi: float):
    """Least-squares slope of log |x| maxima over 8 windows of [t_lo, t_hi]."""
    windows = 8
    mask = (traj.times >= t_lo) & (traj.times <= t_hi)
    ts = traj.times[mask]
    mags = np.linalg.norm(traj.x[mask], axis=1)
    if ts.size < windows:
        return None
    edges = np.linspace(t_lo, t_hi, windows + 1)
    pts_t, pts_v = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (ts >= a) & (ts <= b)
        if not np.any(sel):
            continue
        k = int(np.argmax(mags[sel]))
        pts_t.append(ts[sel][k])
        pts_v.append(mags[sel][k])
    pts_t = np.asarray(pts_t)
    pts_v = np.asarray(pts_v)
    floor = 1e-14 * max(1.0, float(np.max(mags))) + 1e-300
    good = pts_v > floor
    if np.sum(good) < 3:
        return None
    coeffs = np.polyfit(pts_t[good], np.log(pts_v[good]), 1)
    resid = float(
        np.max(np.abs(np.polyval(coeffs, pts_t[good]) - np.log(pts_v[good])))
    )
    return float(coeffs[0]), resid


def estimate_ges(
    system: NfdeSystem,
    seeds: int | list[HistorySegment] = 20,
    horizon: float = 10.0,
    step: StepPolicy | float | None = None,
    seed: int = 0,
    shells=(0.1, 1.0),
) -> GesEstimate:
    """Estimate exponential decay (M, lambda) from simulated trajectories.

    lambda is the median of per-trajectory log-envelope slopes over the second
    half of the horizon; M is the exact envelope max of |x(t)| e^(lambda t) /
    ||xi0|| over all runs (so the fitted bound holds on them by construction)
    clamped to at least 1. Blowup or a nonpositive decay rate yields a
    not-GES verdict with the escaping history attached.
    """
    _check_seed(seed)
    if isinstance(seeds, int):
        # sample_shells refuses an empty shell list before anything divides by its length
        per_shell = max(1, int(np.ceil(seeds / len(shells)))) if shells else 1
        samples = sample_shells(system.n, system.delta, per_shell, seed, shells)[: max(seeds, 0)]
    else:
        samples = list(seeds)
    if not samples:
        raise PreconditionError(f"seeds gives no history ({seeds!r}), so nothing would be fitted")
    return _ges_fit(samples, _sup_norms(samples), integrate_batch(system, samples, horizon, step), horizon)


def _ges_fit(samples: list[HistorySegment], sups, trajs: list[Trajectory], horizon: float) -> GesEstimate:
    """`estimate_ges`'s verdict on the zero-input runs trajs from samples, whose sup norms are sups."""
    for k, (xi0, traj) in enumerate(zip(samples, trajs)):
        if traj.blowup:
            return GesEstimate(
                np.inf, -np.inf, np.inf, k + 1, False, xi0, note=f"blowup at t = {traj.t_end}"
            )
    slopes, resids = [], []
    for traj in trajs:
        fit = _envelope_slope(traj, horizon / 2.0, horizon)
        if fit is not None:
            slopes.append(fit[0])
            resids.append(fit[1])
    if not slopes:
        return GesEstimate(np.inf, 0.0, np.inf, len(trajs), False, None,
                           note="no trajectory admitted an envelope fit")
    lam = -float(np.median(slopes))
    if lam <= 0.0:
        worst = max(
            range(len(trajs)),
            key=lambda i: np.max(np.linalg.norm(trajs[i].x, axis=1)) / max(sups[i], 1e-300),
        )
        return GesEstimate(
            np.inf, lam, float(np.max(resids)), len(trajs), False, samples[worst],
            note="fitted decay rate is not positive",
        )
    sup = _hermite_sups(*_store_knots(trajs, "x"), lam)[0]
    kept = sups >= 1e-300  # a zero history gives no ratio
    big_m = max(1.0, float(np.max(sup[kept] / sups[kept], initial=1.0)))
    return GesEstimate(big_m, lam, float(np.max(resids)), len(trajs), True)


@dataclass
class AttractionResult:
    settle_time: float | None
    delta_hat: float | None
    status: str  # "settled" | "inconclusive"
    worst: HistorySegment | None = None


def check_uniform_attraction(
    system: NfdeSystem,
    bound: float,
    eps: float,
    samples: int = 20,
    horizon: float = 20.0,
    step: StepPolicy | float | None = None,
    seed: int = 0,
) -> AttractionResult:
    """Smallest grid time after which every sampled trajectory stays below eps.

    Also probes the largest tested initial-shell radius delta with all
    trajectories staying below eps for all time (the stability half of the
    definition). Samples that never settle by the horizon give an
    inconclusive result with the worst history attached.
    """
    if bound <= 0 or eps <= 0:
        raise PreconditionError("bound and eps must be positive")
    # the samples, then a shell of radius eps 2^k for each k = -6..0, all drawn and integrated at once
    radii, per = [eps * 2.0**k for k in range(-6, 1)], max(4, samples // 4)
    draws = _shell_draws(samples, seed, [bound]) + [
        draw for cand in radii for draw in _shell_draws(per, seed + 777, [cand])]
    histories = sample_histories(system.n, system.delta, draws)
    trajs = integrate_batch(system, histories, horizon, step=step)
    settle = 0.0
    for xi0, traj in zip(histories[:samples], trajs):
        if traj.blowup:
            return AttractionResult(None, None, "inconclusive", xi0)
        mags = np.linalg.norm(traj.x, axis=1)
        above = np.nonzero(mags >= eps)[0]
        if above.size == 0:
            continue
        if above[-1] == traj.times.size - 1:
            return AttractionResult(None, None, "inconclusive", xi0)
        settle = max(settle, float(traj.times[above[-1] + 1]))
    delta_hat = None
    # a shell starts with a constant history at its radius, so radii above eps fail at t = 0
    for i, cand in enumerate(radii):
        shell = trajs[samples + i * per : samples + (i + 1) * per]
        if not any(traj.blowup or np.any(np.linalg.norm(traj.x, axis=1) >= eps) for traj in shell):
            delta_hat = cand
    return AttractionResult(settle, delta_hat, "settled")


# -- converse construction -----------------------------------------------------------

class ConverseFunctional(Functional):
    """Trajectory-based witness V(phi) = sup over [0, T] of |D x_t(phi)| e^(a t).

    Each evaluation integrates the system from phi and takes the sup exactly:
    between knots z is the cubic Hermite of its panel, so the sup lies at a
    knot (t = 0 makes V(phi) >= |D phi| exact) or at a critical point inside
    a panel, found by `histories._hermite_sups`. When the maximizer lands
    near the truncation edge (where the truncated sup would not decay along
    the flow), the horizon is extended until the maximizer is interior, up to
    four times the given one. Requires 0 < a
    below the decay rate and a horizon long enough that the truncated tail
    cannot carry the sup for typical histories. `step` is a mesh step or a
    StepPolicy; `self.step` keeps the policy's step, None for its default.
    Its default is a policy, not None, so a written file always carries it.
    """

    kind = "converse"

    def __init__(
        self,
        system: NfdeSystem,
        rate: float,
        horizon: float,
        step: StepPolicy | float | None = StepPolicy(),
    ):
        self.system = system
        self.rate = _positive(rate, "rate")
        self.horizon = _positive(horizon, "horizon")
        self.policy = step if isinstance(step, StepPolicy) else StepPolicy(step)
        self.step = self.policy.step

    def _sups(self, trajs) -> list[tuple[float, float]]:
        """(sup, its time) of |z(t)| e^(a t) on each trajectory of trajs, all of
        one batch, from one `_hermite_sups` call. The time is that of the first
        candidate at the sup, the knots in time order coming before the critical
        points, so z = 0 gives (0, 0)."""
        if not trajs:
            return []
        return list(zip(*(a.tolist() for a in _hermite_sups(*_store_knots(trajs, "z"), self.rate))))

    __call__ = Functional.__call__  # bound on the class as well: bench/tracing.py traces it by this name

    def many(self, phis) -> list[float]:
        """V at every history of phis, in order.

        The histories integrate in one batch, and so do the reruns at the
        extended horizon of those whose maximizer lies at the truncation
        edge. A blowup raises for the first such history in order.
        """
        phis = list(phis)
        values = [0.0] * len(phis)
        blowups = {}
        pending = list(range(len(phis)))
        horizon, cap = self.horizon, _HORIZON_CAP * self.horizon
        buffer = 0.5 * self.system.delta
        while pending:
            trajs = integrate_batch(self.system, [phis[k] for k in pending], horizon, step=self.policy)
            blowups.update((k, traj.t_end) for k, traj in zip(pending, trajs) if traj.blowup)
            live = [(k, traj) for k, traj in zip(pending, trajs) if not traj.blowup]
            rerun = []
            for (k, _), (best, t_best) in zip(live, self._sups([traj for _, traj in live])):
                if t_best <= horizon - buffer or horizon >= cap:
                    values[k] = best
                else:
                    rerun.append(k)
            pending = rerun
            horizon = min(cap, horizon + max(2.0 * buffer, 0.25 * self.horizon))
        if blowups:
            raise EvaluationBlowupError(
                f"trajectory from the queried history blew up at t = {blowups[min(blowups)]}"
            )
        return values


def converse_horizon(ges: GesEstimate, rate: float) -> float:
    """Horizon rule T >= (ln M + 2) / (lambda - rate) for the sup truncation."""
    if not ges.is_ges:
        raise PreconditionError("converse construction needs a GES estimate")
    if not 0.0 < rate < ges.lam:
        raise PreconditionError(f"rate must lie in (0, {ges.lam})")
    return (np.log(ges.M) + 2.0) / (ges.lam - rate)


def construct_converse_ges(
    system: NfdeSystem,
    rate: float,
    horizon: float | None = None,
    ges: GesEstimate | None = None,
    step: StepPolicy | float | None = None,
) -> ConverseFunctional:
    """Build the trajectory-based witness functional for an exponentially
    stable system; the horizon defaults to the truncation margin rule."""
    if ges is not None:
        needed = converse_horizon(ges, rate)
        horizon = needed if horizon is None else max(horizon, needed)
    if horizon is None:
        raise PreconditionError("need a horizon or a GES estimate to derive one")
    return ConverseFunctional(system, rate, horizon, step=step)


# -- Lipschitz estimation and the ISS probe --------------------------------------------

@dataclass
class LipschitzEstimate:
    L0: float
    input_gain: ComparisonFunction | None
    linear_slope: float
    pairs_used: int


def estimate_lipschitz(
    rhs,
    bound: float,
    input_bound: float = 1.0,
    samples: int = 60,
    seed: int = 0,
    delta: float | None = None,
) -> LipschitzEstimate:
    """Sampled Lipschitz constants of the right-hand side (lower bounds).

    L0 is the max quotient |f(phi1, 0) - f(phi2, 0)| / ||phi1 - phi2|| over
    random pairs plus localized bump perturbations (which probe the sharp
    directions); the input gain is the upper monotone envelope of
    |f(phi, u) - f(phi, 0)| against |u|, with its smallest linear majorant's
    slope reported separately.
    """
    if samples < 1:
        raise PreconditionError(f"samples must be at least 1, got {samples}")
    _check_seed(seed)
    if delta is None:
        delta = max(rhs.max_delay, 1.0)
    rng = np.random.default_rng(seed)
    n, m = rhs.n, rhs.m
    inputs = m > 0 and input_bound != 0.0
    # every history in one draw: each pair's first, the random pairs' second (k even), then the
    # input samples; the bump pairs' parameters (k odd) come first from the generator, in k order
    ks = range(samples)
    draws = [(bound, k % 5, seed * 1009 + 2 * k) for k in ks]
    draws += [(bound, (k + 2) % 5, seed * 1009 + 2 * k + 1) for k in ks[::2]]
    draws += [(bound, k % 5, seed * 2027 + k) for k in ks] if inputs else []
    drawn = sample_histories(n, delta, draws)
    firsts, seconds = drawn[:samples], [None] * samples
    seconds[::2] = drawn[samples : samples + len(ks[::2])]
    bumps = []  # the bump pairs: concentrate the difference around one grid node
    for k in ks[1::2]:
        center = 0.0 if k % 4 == 1 else float(rng.uniform(-delta, 0.0))
        width = delta * rng.uniform(0.05, 0.2)
        direction = rng.standard_normal(n)
        direction /= max(np.linalg.norm(direction), 1e-300)
        grid = np.union1d(firsts[k].grid, np.clip(center + width * np.linspace(-3, 3, 13), -delta, 0.0))
        bumps.append((grid, 0.2 * bound * np.exp(-(((grid - center) / width) ** 2)), direction))
    if bumps:  # their first histories read at their grids at once
        sizes = [grid.size for grid, _, _ in bumps]
        reads = _read(firsts[1::2], np.arange(len(bumps)).repeat(sizes), np.concatenate([b[0] for b in bumps]), 0)
        seconds[1::2] = [HistorySegment(delta, grid, values + np.outer(bump, direction))
                         for (grid, bump, direction), values in zip(bumps, np.split(reads, np.cumsum(sizes)[:-1]))]
    phis, us, scaled = [*firsts, *seconds], [np.zeros(m)] * (2 * samples), []
    if inputs:  # each input sample under its input, then under none
        for k in ks:
            u = rng.standard_normal(m)
            u *= input_bound * rng.uniform(0.05, 1.0) / max(np.linalg.norm(u), 1e-300)
            scaled.append(u)
        phis += drawn[-samples:] * 2
        us += scaled + [np.zeros(m)] * samples
    f = rhs.eval(phis, np.array(us) if m > 0 else None)  # every f at once
    gaps = _sup_norm_diffs(firsts, seconds)
    l0 = 0.0
    pairs = 0
    for k, gap in enumerate(gaps.tolist()):
        if gap < 1e-9:
            continue
        l0 = max(l0, float(np.linalg.norm(f[k] - f[samples + k])) / gap)
        pairs += 1
    if not inputs:  # no input to sample
        return LipschitzEstimate(l0, None, 0.0, pairs)
    us_mag, gains = [0.0], [0.0]
    slope = 0.0
    for k, u in enumerate(scaled):
        diff = f[2 * samples + k] - f[3 * samples + k]
        mag_u = float(np.linalg.norm(u))
        mag_d = float(np.linalg.norm(diff))
        us_mag.append(mag_u)
        gains.append(mag_d)
        if mag_u > 1e-12:
            slope = max(slope, mag_d / mag_u)
    gain = monotone_envelope(np.asarray(us_mag), np.asarray(gains), "upper")
    return LipschitzEstimate(l0, gain, slope, pairs)


@dataclass
class IssEstimate:
    beta: ComparisonFunction  # KL bound M s e^(-lam t)
    gamma: ComparisonFunction | None
    gamma_slope: float | None
    gamma_form: str
    violations: int
    probes: int
    L0: float
    input_gain: ComparisonFunction | None
    is_iss: bool
    counterexample: tuple[HistorySegment, InputSignal] | None = None
    ges: GesEstimate | None = None


def iss_probe(
    system: NfdeSystem,
    initial_histories: list[HistorySegment],
    input_signals: list[InputSignal],
    horizon: float = 10.0,
    step: StepPolicy | float | None = None,
    lipschitz_samples: int = 60,
    seed: int = 0,
) -> IssEstimate:
    """Fit a disturbance-to-state bound |x(t)| <= beta(||xi0||, t) + gamma(||u||).

    The exponential part is estimated from zero-input runs on the same initial
    histories (so zero-input probes satisfy the bound by construction); gamma
    is the smallest linear class-K majorant over the probe grid, falling back
    to a power law c s^q, q in [0.5, 3], when the linear gain exceeds the cap.
    An unbounded response to a bounded input yields not-ISS evidence with the
    offending probe attached.
    """
    if system.m == 0:
        raise PreconditionError("iss_probe needs a system with an input")
    for name, given in (("initial_histories", initial_histories), ("input_signals", input_signals)):
        if not given:
            raise PreconditionError(f"{name} is empty, so nothing would be probed")

    _check_seed(seed)
    # every probe in one batch, history-major: a zero signal among the probes serves as the
    # zero-input run, else a zero signal joins them for it; equal zero signals run once
    zero = next((sig for sig in input_signals if sig.kind == ZERO), InputSignal.zero(system.m))
    batch, column = [zero], []  # the batch's signals; each probe signal's place among them
    for sig in input_signals:
        column.append(0 if sig == zero else len(batch))
        if sig != zero:
            batch.append(sig)
    trajs = integrate_batch(system, [xi0 for xi0 in initial_histories for _ in batch], horizon, step=step,
                            u=batch * len(initial_histories))
    by_history = [trajs[i : i + len(batch)] for i in range(0, len(trajs), len(batch))]
    sups = _sup_norms(initial_histories)  # each history's sup, once
    ges = _ges_fit(initial_histories, sups, [runs[0] for runs in by_history], horizon)
    if not ges.is_ges:
        raise PreconditionError("system is not exponentially stable at zero input")
    beta = ComparisonFunction.exponential_bound(ges.M, ges.lam)
    lip = estimate_lipschitz(
        system.rhs,
        float(sups.max()),
        max(s.sup_norm(horizon) for s in input_signals),
        samples=lipschitz_samples,
        seed=seed,
    )
    records = []
    probes = 0
    usups = {}  # each signal's cumulative sup, once per mesh
    for xi0, sup0, runs in zip(initial_histories, sups.tolist(), by_history):
        for j, (sig, c) in enumerate(zip(input_signals, column)):
            traj = runs[c]
            probes += 1
            if traj.blowup:
                return IssEstimate(
                    beta, None, None, "none", 1, probes, lip.L0, lip.input_gain,
                    False, (xi0, sig), ges,
                )
            mags = np.linalg.norm(traj.x, axis=1)
            beta_vals = ges.M * sup0 * np.exp(-ges.lam * traj.times)
            key = (j, traj.times.tobytes())
            if key not in usups:
                usups[key] = sig.cumulative_sup(traj.times)
            records.append((mags, beta_vals, usups[key], xi0, sig))

    def fit(exponent: float):
        g = 0.0
        for mags, beta_vals, usup, _, _ in records:
            num = mags - beta_vals
            mask = (num > 0.0) & (usup > 1e-12)
            if np.any(mask):
                g = max(g, float(np.max(num[mask] / usup[mask] ** exponent)))
        return g

    slope = fit(1.0)
    gamma = None
    gamma_form = "linear"
    gamma_slope = slope
    if slope <= _SLOPE_CAP:
        gamma = ComparisonFunction.linear(max(slope, 1e-12))
    else:
        best = None
        for q in np.arange(0.5, 3.01, 0.25):
            c = fit(float(q))
            if c <= _SLOPE_CAP and (best is None or c < best[1]):
                best = (float(q), c)
        if best is None:
            worst = max(records, key=lambda r: float(np.max(r[0] - r[1])))
            return IssEstimate(
                beta, None, None, "none", probes, probes, lip.L0, lip.input_gain,
                False, (worst[3], worst[4]), ges,
            )
        gamma_form = "power"
        gamma = ComparisonFunction.power(max(best[1], 1e-12), best[0], kind=K_INF)
        gamma_slope = None

    violations = 0
    worst_pair = None
    for mags, beta_vals, usup, xi0, sig in records:
        bound_vals = beta_vals + np.asarray(gamma(usup))
        slack = _SLACK * np.maximum(1.0, bound_vals)
        bad = mags > bound_vals + slack
        if np.any(bad):
            violations += int(np.sum(bad))
            worst_pair = (xi0, sig)
    return IssEstimate(
        beta, gamma, gamma_slope, gamma_form, violations, probes,
        lip.L0, lip.input_gain, violations == 0, worst_pair, ges,
    )
