"""Certificate verification, constant fitting, and empirical stability probes.

The certificate conditions of the three variants (gas, ges, ges-seminorm) are
stated once, in the table `_CONDITIONS`; verification, constant fitting and
counterexample re-verification all evaluate that table on sampled histories
drawn from nested sup-norm shells. Derivative conditions are judged against
the ladder error band: a sample only counts as a violation when the whole
band sits on the wrong side, bands straddling the threshold are counted as
inconclusive. Verdicts are therefore certificates of non-falsification, not
proofs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .comparison import ComparisonFunction, K, K_INF, TAIL_EXTRAPOLATE, monotone_envelope
from .errors import EvaluationBlowupError, FitImpossibleError, PreconditionError
from .functionals import (
    DerivativeEstimate,
    Functional,
    LadderSpec,
    SemiNorm,
    driver_derivative,
    driver_derivatives,
)
from .histories import HistorySegment, sample_history, sup_norm_diff
# integrate stays bound here as well: bench/tracing.py traces it as certify.integrate
from .integrate import StepPolicy, Trajectory, _z_lookup, integrate, integrate_batch  # noqa: F401
from .operators import NfdeSystem, dop_apply, rhs_eval
from .signals import InputSignal

DEFAULT_SHELLS = (0.1, 1.0, 10.0)
_SLACK = 1e-9


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
        if self.variant == "gas":
            for name in ("alpha1", "alpha2", "alpha3"):
                if getattr(self, name) is None:
                    raise PreconditionError(f"gas variant needs {name}")
            if self.alpha1.kind != K_INF or self.alpha2.kind != K_INF:
                raise PreconditionError("alpha1 and alpha2 must be class K-infinity")
            if self.alpha3.kind not in (K, K_INF):
                raise PreconditionError("alpha3 must be class K")
        elif self.variant == "ges":
            if any(v is None or v <= 0 for v in (self.a1, self.a2, self.a3)):
                raise PreconditionError("ges variant needs positive a1, a2, a3")
        elif self.variant == "ges-seminorm":
            if any(v is None or v <= 0 for v in (self.a1, self.a2, self.a3, self.a4)):
                raise PreconditionError("ges-seminorm needs positive a1..a4")
            if self.seminorm is None:
                raise PreconditionError("ges-seminorm needs a semi-norm")
        else:
            raise PreconditionError(f"unknown certificate variant {self.variant!r}")


class _Row:
    """One sample's evaluations, each made on first use and then kept:
    |D phi|, the sup norm, the semi-norm, D+V and V.

    With a ladder, V is the ladder's v0, so V(phi) runs once per sample; a
    row without one evaluates V(phi) alone and never runs the h-ladder.
    `_rows` fills D+V for a whole sample list with one batched call.
    """

    def __init__(self, system, V, phi, ladder: LadderSpec | None, seminorm: SemiNorm | None):
        self.system = system
        self.V = V
        self.phi = phi
        self.ladder = ladder
        self.seminorm = seminorm

    @cached_property
    def dnorm(self) -> float:
        return float(np.linalg.norm(dop_apply(self.system.dop, self.phi)))

    @cached_property
    def sup(self) -> float:
        return self.phi.sup_norm()

    @cached_property
    def anorm(self) -> float:
        return float(self.seminorm(self.phi))

    @cached_property
    def est(self) -> DerivativeEstimate:
        return driver_derivative(self.system, self.V, self.phi, None, self.ladder)

    @cached_property
    def v(self) -> float:
        return self.est.v0 if self.ladder is not None else self.V(self.phi)

    def margins(self) -> dict:
        out = {"|Dphi|": self.dnorm, "sup": self.sup}
        if self.seminorm is not None:
            out["seminorm"] = self.anorm
        out.update({"V": self.v, "D+V": self.est.value, "band": self.est.error_band})
        return out


# Every certificate condition, lhs(row, c) <= rhs(row, c), per variant and in
# report order: (name, lhs, rhs, banded). A banded condition is judged against
# the ladder's error band on D+V.
_CONDITIONS = {
    "gas": (
        ("lower-bound", lambda r, c: float(c.alpha1(r.dnorm)), lambda r, c: r.v, False),
        ("upper-bound", lambda r, c: r.v, lambda r, c: float(c.alpha2(r.sup)), False),
        ("derivative", lambda r, c: r.est.value, lambda r, c: -float(c.alpha3(r.dnorm)), True),
    ),
    "ges": (
        ("lower-bound", lambda r, c: c.a1 * r.dnorm, lambda r, c: r.v, False),
        ("upper-bound", lambda r, c: r.v, lambda r, c: c.a2 * r.sup, False),
        ("derivative", lambda r, c: r.est.value, lambda r, c: -c.a3 * r.v, True),
    ),
    "ges-seminorm": (
        ("lower-bound", lambda r, c: c.a1 * r.dnorm, lambda r, c: r.v, False),
        ("upper-bound", lambda r, c: r.v, lambda r, c: c.a2 * r.anorm, False),
        ("derivative", lambda r, c: r.est.value, lambda r, c: -c.a3 * r.anorm, True),
        ("domination", lambda r, c: r.anorm, lambda r, c: c.a4 * r.sup, False),
    ),
}


def _rows(system, V, samples, ladder: LadderSpec, seminorm: SemiNorm | None) -> list[_Row]:
    """One row per sample, every row's D+V estimate from one batched ladder evaluation."""
    rows = [_Row(system, V, phi, ladder, seminorm) for phi in samples]
    for row, est in zip(rows, driver_derivatives(system, V, [r.phi for r in rows], None, ladder)):
        row.est = est
    return rows


def _sides(condition, row: _Row, constants: CertificateConstants) -> tuple[float, float, float]:
    """(lhs, rhs, band) of one table entry on one row."""
    _, lhs, rhs, banded = condition
    return lhs(row, constants), rhs(row, constants), row.est.error_band if banded else 0.0


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


class _Check:
    """One inequality lhs <= rhs with an optional +/- band on the lhs."""

    def __init__(self, report: CertificateReport, name: str, max_counterexamples: int = 10):
        self.stats = ConditionStats(name)
        report.conditions.append(self.stats)
        self.report = report
        self.cap = max_counterexamples

    def record(self, phi: HistorySegment, lhs: float, rhs: float, band: float = 0.0):
        self.stats.checked += 1
        self.stats.worst_margin = max(self.stats.worst_margin, lhs - rhs - band)
        if _exceeds(lhs, rhs, band):
            self.stats.violations += 1
            if len(self.report.counterexamples) < self.cap:
                self.report.counterexamples.append(
                    Counterexample(self.stats.name, phi, {"lhs": lhs, "rhs": rhs, "band": band})
                )
            return "violation"
        if _exceeds(lhs, rhs, -band):
            self.stats.inconclusive += 1
            return "inconclusive"
        return "pass"


def _check_rows(constants: CertificateConstants, rows: list[_Row]) -> CertificateReport:
    """Every condition of the constants' variant on every row, in sample order."""
    if not rows:
        raise PreconditionError("verification needs at least one sample")
    report = CertificateReport(samples_checked=len(rows))
    conditions = _CONDITIONS[constants.variant]
    checks = [_Check(report, condition[0]) for condition in conditions]
    for row in rows:
        for check, condition in zip(checks, conditions):
            check.record(row.phi, *_sides(condition, row, constants))
        report.margins.append(row.margins())
    return report


def sample_shells(
    n: int,
    delta: float,
    per_shell: int,
    seed: int,
    shells=DEFAULT_SHELLS,
    max_roughness: int = 4,
    include_boundary: bool = True,
) -> list[HistorySegment]:
    """Histories over nested sup-norm shells, deterministic per seed.

    Seeds partition as seed + i so batches can be split across workers. When
    `include_boundary` is set, each shell starts with constant histories
    pinned at the shell radius (the worst case for several estimates).
    """
    out = []
    counter = 0
    for shell in shells:
        if include_boundary:
            rng = np.random.default_rng(seed + counter)
            direction = rng.standard_normal(n)
            direction /= max(np.linalg.norm(direction), 1e-300)
            out.append(HistorySegment.constant(shell * direction, delta))
            counter += 1
        for k in range(per_shell - (1 if include_boundary else 0)):
            roughness = k % (max_roughness + 1)
            out.append(sample_history(n, delta, shell, roughness, seed + counter))
            counter += 1
    return out


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
    return _check_rows(constants, _rows(system, V, samples, ladder, None))


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
    rows = _rows(system, V, samples, ladder, None)
    report = _check_rows(constants, rows)
    lip = 0.0
    for a, b in zip(rows, rows[1:]):
        gap = sup_norm_diff(a.phi, b.phi)
        if gap > 1e-9:
            lip = max(lip, abs(a.v - b.v) / gap)
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
    return _check_rows(constants, _rows(system, V, samples, ladder, seminorm))


def reverify_counterexample(
    system: NfdeSystem,
    V: Functional,
    constants: CertificateConstants,
    ce: Counterexample,
    ladder: LadderSpec = LadderSpec(),
    seminorm: SemiNorm | None = None,
) -> bool:
    """Re-evaluate the violated condition on the stored history; only a
    derivative condition runs the h-ladder."""
    for condition in _CONDITIONS[constants.variant]:
        if condition[0] == ce.condition:
            banded = condition[3]
            row = _Row(
                system, V, ce.history, ladder if banded else None, seminorm or constants.seminorm
            )
            return _exceeds(*_sides(condition, row, constants))
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
    dop_norm_floor: float = 1e-8,
) -> FitResult:
    """Fit witness constants from sample envelopes, then re-verify on them.

    The raw envelopes (min of V / |D phi|, max of V / ||phi||, min of
    -D+V / V over band-definite samples) are relaxed by `headroom` in the
    safe direction so the fitted certificate is robust out of sample;
    headroom 0 recovers the exact envelopes. Returns constants None with a
    failure report when a derivative has the wrong definite sign or a fitted
    constant is not positive, and raises when no admissible sample remains
    after filtering.
    """
    if variant not in _CONDITIONS:
        raise PreconditionError(f"unknown certificate variant {variant!r}")
    if variant == "ges-seminorm" and seminorm is None:
        raise PreconditionError("ges-seminorm fitting needs a semi-norm")
    rows = _rows(system, V, samples, ladder, seminorm)
    # D+V is judged against V, or against the semi-norm on ges-seminorm: a wrong
    # sign counts where that scale is above the floor, and a3 is a rate against it
    scale = (lambda r: r.anorm) if variant == "ges-seminorm" else (lambda r: r.v)

    wrong = [r for r in rows if r.est.value - r.est.error_band > 0.0]
    if any(scale(r) > dop_norm_floor for r in wrong):
        report = CertificateReport(
            samples_checked=len(rows), failure="derivative has the wrong sign on a sample"
        )
        for r in wrong[:10]:
            report.counterexamples.append(
                Counterexample(
                    "derivative",
                    r.phi,
                    {"lhs": r.est.value, "rhs": 0.0, "band": r.est.error_band, "V": r.v},
                )
            )
        report.conditions.append(
            ConditionStats("derivative", checked=len(rows), violations=len(wrong))
        )
        return FitResult(None, report)

    lo = 1.0 - headroom
    hi = 1.0 + headroom
    if variant == "gas":
        # monotone piecewise-linear envelopes of the sampled clouds
        d_arr = np.array([r.dnorm for r in rows])
        s_arr = np.array([r.sup for r in rows])
        v_arr = np.array([r.v for r in rows])
        neg = np.array([-(r.est.value + r.est.error_band) for r in rows])
        keep = d_arr > dop_norm_floor
        if not np.any(keep):
            raise FitImpossibleError("no sample with |D phi| above the floor")
        if np.any(neg[keep] < 0.0):
            # indefinite derivative samples already handled above via the band;
            # clamp at zero so the envelope stays admissible
            neg = np.maximum(neg, 0.0)
        try:
            constants = CertificateConstants(
                "gas",
                alpha1=monotone_envelope(
                    d_arr[keep], v_arr[keep], "lower", headroom, kind=K_INF, tail=TAIL_EXTRAPOLATE
                ),
                alpha2=monotone_envelope(
                    s_arr, v_arr, "upper", headroom, kind=K_INF, tail=TAIL_EXTRAPOLATE
                ),
                alpha3=monotone_envelope(d_arr[keep], neg[keep], "lower", headroom, kind=K),
            )
        except PreconditionError as exc:
            return FitResult(None, CertificateReport(samples_checked=len(rows), failure=str(exc)))
    else:
        # the ges variants bound V above by the sup norm or the semi-norm
        upper = (lambda r: r.anorm) if variant == "ges-seminorm" else (lambda r: r.sup)
        r1 = [r.v / r.dnorm for r in rows if r.dnorm > dop_norm_floor]
        if not r1:
            raise FitImpossibleError("no sample with |D phi| above the floor")
        r2 = [r.v / upper(r) for r in rows if upper(r) > dop_norm_floor]
        r3 = [
            -(r.est.value + r.est.error_band) / scale(r)
            for r in rows
            if scale(r) > dop_norm_floor and r.est.value + r.est.error_band < 0.0
        ]
        if not r2 or not r3:
            raise FitImpossibleError("no admissible sample for a2 or a3 after filtering")
        a4 = None
        if variant == "ges-seminorm":
            r4 = [r.anorm / r.sup for r in rows if r.sup > dop_norm_floor]
            a4 = hi * max(r4) if r4 else seminorm.domination_constant()
        try:
            constants = CertificateConstants(
                variant, a1=lo * min(r1), a2=hi * max(r2), a3=lo * min(r3), a4=a4,
                seminorm=seminorm if variant == "ges-seminorm" else None,
            )
        except PreconditionError:
            failure = "nonpositive fitted constant"
            return FitResult(None, CertificateReport(samples_checked=len(rows), failure=failure))
    report = _check_rows(constants, rows)
    report.fitted = constants
    return FitResult(constants, report)


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


def _envelope_slope(traj: Trajectory, t_lo: float, t_hi: float, windows: int = 8):
    """Least-squares slope of log |x| window maxima over [t_lo, t_hi]."""
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
    if isinstance(seeds, int):
        if seeds < 1:
            raise PreconditionError("need at least one trajectory")
        per_shell = max(1, int(np.ceil(seeds / len(shells))))
        samples = sample_shells(system.n, system.delta, per_shell, seed, shells)[:seeds]
    else:
        samples = list(seeds)
    trajs: list[Trajectory] = integrate_batch(system, samples, horizon, step=step)
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
            key=lambda i: np.max(np.linalg.norm(trajs[i].x, axis=1))
            / max(samples[i].sup_norm(), 1e-300),
        )
        return GesEstimate(
            np.inf, lam, float(np.max(resids)), len(trajs), False, samples[worst],
            note="fitted decay rate is not positive",
        )
    big_m = 1.0
    for xi0, traj in zip(samples, trajs):
        sup0 = xi0.sup_norm()
        if sup0 < 1e-300:
            continue
        ratio = np.linalg.norm(traj.x, axis=1) * np.exp(lam * traj.times) / sup0
        big_m = max(big_m, float(np.max(ratio)))
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
    shells = [bound]
    histories = sample_shells(system.n, system.delta, samples, seed, shells)
    settle = 0.0
    for xi0, traj in zip(histories, integrate_batch(system, histories, horizon, step=step)):
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
    for cand in [eps * 2.0**k for k in range(-6, 4)]:
        shell = sample_shells(system.n, system.delta, max(4, samples // 4), seed + 777, [cand])
        if not any(
            traj.blowup or np.any(np.linalg.norm(traj.x, axis=1) >= eps)
            for traj in integrate_batch(system, shell, horizon, step=step)
        ):
            delta_hat = cand
    return AttractionResult(settle, delta_hat, "settled")


# -- converse construction -----------------------------------------------------------

class ConverseFunctional(Functional):
    """Trajectory-based witness V(phi) = sup over [0, T] of |D x_t(phi)| e^(a t).

    Each evaluation integrates the system from phi and maximizes |z(t)| e^(a t)
    over a refined dense-output grid, then polishes every near-tied local
    maximum by golden-section search; the t = 0 candidate makes
    V(phi) >= |D phi| exact. When the maximizer lands near the truncation edge
    (where the truncated sup would not decay along the flow), the horizon is
    extended until the maximizer is interior, up to a hard cap. Requires
    0 < a below the decay rate and a horizon long enough that the truncated
    tail cannot carry the sup for typical histories.
    """

    kind = "converse"

    def __init__(
        self,
        system: NfdeSystem,
        rate: float,
        horizon: float,
        step: StepPolicy | float | None = None,
        refine: int = 8,
        horizon_cap: float | None = None,
    ):
        if rate <= 0.0:
            raise PreconditionError("rate must be positive")
        if horizon <= 0.0:
            raise PreconditionError("horizon must be positive")
        self.system = system
        self.rate = float(rate)
        self.horizon = float(horizon)
        self.step = step
        self.refine = int(refine)
        self.horizon_cap = float(horizon_cap) if horizon_cap is not None else 4.0 * float(horizon)

    def _sups(self, trajs) -> list[tuple[float, float]]:
        """(sup, its time) of |z(t)| e^(a t) on each trajectory of trajs; the
        near-tied maxima of all of them are polished by one golden-section search."""
        out, which, lo, hi = [], [np.empty(0, dtype=int)], [np.empty(0)], [np.empty(0)]
        for r, traj in enumerate(trajs):
            times = traj.times
            fine = [times[:-1] + (k / self.refine) * np.diff(times) for k in range(1, self.refine)]
            grid = np.sort(np.concatenate([times, *fine]))
            weighted = np.linalg.norm(traj.z_dense(grid), axis=1) * np.exp(self.rate * grid)
            best = float(np.max(weighted))
            out.append((best, float(grid[int(np.argmax(weighted))])))  # (0, 0) when z vanishes
            if best == 0.0:
                continue
            # polish every near-tied local maximum, so the reported sup cannot jump
            # between rival bumps under small perturbations of the queried history
            interior = np.zeros(grid.size, dtype=bool)
            interior[1:-1] = (weighted[1:-1] >= weighted[:-2]) & (weighted[1:-1] >= weighted[2:])
            interior[0] = weighted[0] >= weighted[1]
            interior[-1] = weighted[-1] >= weighted[-2]
            cand = np.nonzero(interior & (weighted >= best - 1e-3 * best))[0]
            if cand.size > 16:
                cand = cand[np.argsort(weighted[cand])[-16:]]
            a, b = grid[np.maximum(cand - 1, 0)], grid[np.minimum(cand + 1, grid.size - 1)]
            which.append(np.full(np.count_nonzero(b > a), r))
            lo.append(a[b > a])
            hi.append(b[b > a])
        which, lo, hi = (np.concatenate(parts) for parts in (which, lo, hi))
        if which.size:
            z_at = _z_lookup(trajs)
            vals = _golden_max(
                lambda t: np.linalg.norm(z_at(which, t), axis=1) * np.exp(self.rate * t), lo, hi
            )
            for r in np.unique(which).tolist():
                # the first of the best candidates, if it beats the grid
                k = np.flatnonzero(which == r)[int(np.argmax(vals[which == r]))]
                if vals[k] > out[r][0]:
                    out[r] = (float(vals[k]), 0.5 * (lo[k] + hi[k]))
        return out

    def __call__(self, phi: HistorySegment) -> float:
        return self.many([phi])[0]

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
        horizon = self.horizon
        buffer = 0.5 * self.system.delta
        while pending:
            trajs = integrate_batch(self.system, [phis[k] for k in pending], horizon, step=self.step)
            blowups.update((k, traj.t_end) for k, traj in zip(pending, trajs) if traj.blowup)
            live = [(k, traj) for k, traj in zip(pending, trajs) if not traj.blowup]
            rerun = []
            for (k, _), (best, t_best) in zip(live, self._sups([traj for _, traj in live])):
                if t_best <= horizon - buffer or horizon >= self.horizon_cap:
                    values[k] = best
                else:
                    rerun.append(k)
            pending = rerun
            horizon = min(self.horizon_cap, horizon + max(2.0 * buffer, 0.25 * self.horizon))
        if blowups:
            raise EvaluationBlowupError(
                f"trajectory from the queried history blew up at t = {blowups[min(blowups)]}"
            )
        return values


def _golden_max(g, lo: np.ndarray, hi: np.ndarray, iters: int = 40) -> np.ndarray:
    """Golden-section maxima of g on every interval [lo[k], hi[k]] at once;
    g maps an array of times to their values."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(iters):
        left = gc >= gd  # keep [a, d], else [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        step = invphi * (b - a)
        probe = np.where(left, b - step, a + step)
        gp = g(probe)
        c, gc, d, gd = (
            np.where(left, probe, d), np.where(left, gp, gd),
            np.where(left, c, probe), np.where(left, gc, gp),
        )
    return np.maximum(gc, gd)


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
        if not 0.0 < rate < ges.lam:
            raise PreconditionError(f"rate must lie in (0, {ges.lam})")
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
    if delta is None:
        delta = max(rhs.max_delay, 1.0)
    rng = np.random.default_rng(seed)
    n, m = rhs.n, rhs.m
    u0 = np.zeros(m) if m > 0 else None
    l0 = 0.0
    pairs = 0
    for k in range(samples):
        phi1 = sample_history(n, delta, bound, k % 5, seed * 1009 + 2 * k)
        if k % 2 == 0:
            phi2 = sample_history(n, delta, bound, (k + 2) % 5, seed * 1009 + 2 * k + 1)
        else:
            # bump pair: concentrate the difference around one grid node
            center = 0.0 if k % 4 == 1 else float(rng.uniform(-delta, 0.0))
            width = delta * rng.uniform(0.05, 0.2)
            size = 0.2 * bound
            direction = rng.standard_normal(n)
            direction /= max(np.linalg.norm(direction), 1e-300)
            grid = np.union1d(phi1.grid, np.clip(center + width * np.linspace(-3, 3, 13), -delta, 0.0))
            bump = size * np.exp(-(((grid - center) / width) ** 2))
            values = phi1.eval(grid) + np.outer(bump, direction)
            phi2 = HistorySegment(delta, grid, values)
        gap = sup_norm_diff(phi1, phi2)
        if gap < 1e-9:
            continue
        diff = rhs_eval(rhs, phi1, u0) - rhs_eval(rhs, phi2, u0)
        l0 = max(l0, float(np.linalg.norm(diff)) / gap)
        pairs += 1
    if m == 0:
        return LipschitzEstimate(l0, None, 0.0, pairs)
    us, gaps = [0.0], [0.0]
    slope = 0.0
    for k in range(samples):
        phi = sample_history(n, delta, bound, k % 5, seed * 2027 + k)
        u = rng.standard_normal(m)
        u *= input_bound * rng.uniform(0.05, 1.0) / max(np.linalg.norm(u), 1e-300)
        diff = rhs_eval(rhs, phi, u) - rhs_eval(rhs, phi, u0)
        mag_u = float(np.linalg.norm(u))
        mag_d = float(np.linalg.norm(diff))
        us.append(mag_u)
        gaps.append(mag_d)
        if mag_u > 1e-12:
            slope = max(slope, mag_d / mag_u)
    gain = monotone_envelope(np.asarray(us), np.asarray(gaps), "upper")
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
    slope_cap: float = 1e6,
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
    ges = estimate_ges(system, initial_histories, horizon, step=step)
    if not ges.is_ges:
        raise PreconditionError("system is not exponentially stable at zero input")
    lip = estimate_lipschitz(
        system.rhs,
        max(h.sup_norm() for h in initial_histories),
        max((s.sup_norm(horizon) for s in input_signals), default=1.0),
        samples=lipschitz_samples,
        seed=seed,
    )
    # one batch per signal; the probes are then read in history-major order
    by_signal = [
        integrate_batch(system, initial_histories, horizon, step=step, u=sig)
        for sig in input_signals
    ]
    records = []
    probes = 0
    for k, xi0 in enumerate(initial_histories):
        sup0 = xi0.sup_norm()
        for sig, trajs in zip(input_signals, by_signal):
            traj = trajs[k]
            probes += 1
            if traj.blowup:
                beta = ComparisonFunction.exponential_bound(ges.M, ges.lam)
                return IssEstimate(
                    beta, None, None, "none", 1, probes, lip.L0, lip.input_gain,
                    False, (xi0, sig), ges,
                )
            mags = np.linalg.norm(traj.x, axis=1)
            beta_vals = ges.M * sup0 * np.exp(-ges.lam * traj.times)
            usup = sig.cumulative_sup(traj.times)
            records.append((mags, beta_vals, usup, xi0, sig))

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
    if slope <= slope_cap:
        gamma = ComparisonFunction.linear(max(slope, 1e-12))
    else:
        best = None
        for q in np.arange(0.5, 3.01, 0.25):
            c = fit(float(q))
            if c <= slope_cap and (best is None or c < best[1]):
                best = (float(q), c)
        if best is None:
            beta = ComparisonFunction.exponential_bound(ges.M, ges.lam)
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
    beta = ComparisonFunction.exponential_bound(ges.M, ges.lam)
    return IssEstimate(
        beta, gamma, gamma_slope, gamma_form, violations, probes,
        lip.L0, lip.input_gain, violations == 0, worst_pair, ges,
    )
