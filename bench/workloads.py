"""The seeded workloads, their output checks and the phase runner.

A workload is a sequence of rounds, and every round of a run repeats the same
operations on the same inputs: all of them (histories, operators, signals,
scenario dicts) are drawn from ``numpy.random.default_rng([s, 0])`` for seed
s, so the same seed gives the same inputs. A round is one complete pass from
the first library call to the round's last verdict. Each round issues
top-level operations through `Recorder.op`; an operation fails when it raises
or when its output check returns a problem, and failures are counted, never
hidden.
"""
from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

# library functions are called through the package namespace, where the
# tracer's wrappers are installed
import haleform as hf
import haleform.cli
import haleform.serialization
from haleform import (
    CertificateConstants,
    DifferenceOperator,
    DistributedTerm,
    DopSemiNorm,
    HistorySegment,
    InputSignal,
    InputTerm,
    IntegralQuadraticFunctional,
    LadderSpec,
    LinearTerm,
    NfdeSystem,
    NonlinearTerm,
    QuadraticDopFunctional,
    RhsMap,
)

SEED_SPACE = 2**31 - 1


# -- systems -----------------------------------------------------------------------

def neutral_system() -> NfdeSystem:
    """d/dt (x(t) - 0.5 x(t-1)) = -x(t); x = c e^-t on [0, 1] from the constant c."""
    return NfdeSystem(
        DifferenceOperator([1.0], [[[0.5]]]), RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.0]]),))
    )


def planar_system() -> NfdeSystem:
    """Planar system whose rhs delay 0.5 differs from the operator delay 0.7."""
    return NfdeSystem(
        DifferenceOperator([0.7], [[[0.3, 0.1], [0.0, 0.2]]]),
        RhsMap(
            n=2,
            terms=(
                LinearTerm(0.0, [[-1.0, 0.2], [0.0, -0.8]]),
                LinearTerm(0.5, [[0.1, 0.0], [-0.05, 0.1]]),
            ),
        ),
        delta=0.7,
    )


def cubic_system() -> NfdeSystem:
    return NfdeSystem(
        DifferenceOperator([1.0], [[[0.4]]]),
        RhsMap(n=1, terms=(NonlinearTerm(0.0, "cubic", [[-1.0]]), LinearTerm(1.0, [[-0.3]]))),
    )


def two_delay_system() -> NfdeSystem:
    return NfdeSystem(
        DifferenceOperator([0.5, 1.0], [[[0.3]], [[0.2]]]),
        RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.2]]), LinearTerm(0.25, [[0.2]]))),
    )


def distributed_system() -> NfdeSystem:
    grid = np.linspace(-1.0, 0.0, 5)
    kernel = (0.1 + 0.2 * (grid + 1.0))[:, None, None]
    return NfdeSystem(
        DifferenceOperator([1.0], [[[0.3]]]),
        RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.5]]), DistributedTerm(grid, kernel))),
    )


def scalar_ode_system() -> NfdeSystem:
    """All A_j = 0 and f = -x(t): the ODE x' = -x, for exact certificates."""
    return NfdeSystem(
        DifferenceOperator([1.0], [[[0.0]]]), RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.0]]),))
    )


def input_system() -> NfdeSystem:
    """x' = -x + u."""
    return NfdeSystem(
        DifferenceOperator([1.0], [[[0.0]]]),
        RhsMap(n=1, m=1, terms=(LinearTerm(0.0, [[-1.0]]), InputTerm([[1.0]]))),
    )


# -- operation bookkeeping -----------------------------------------------------------

class Recorder:
    """Operation counts and times of one phase of a run.

    Since every round repeats the same operations on the same inputs, the
    k-th operation of each round is one *slot*, and `slots` gives each
    slot's slowest time over the rounds. On the shared machine the benchmark
    was tuned on, the same code ran at a slow, contended speed with faster
    phases of varying depth and length between; nearly every run has a slow
    repeat of each operation, and a fast one less often, so the slowest of
    the repeats is the steadiest time (see README.md, *Machine speed*).

    Only operations are timed: neither input generation nor output checks
    count. While a check runs, the span log (if any) is paused, so checks add
    no spans either.
    """

    def __init__(self, log=None):
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.refusals = 0
        # per round, per operation: [seconds, is a query, direct integrate steps]
        self.rounds: list[list[list]] = []

    def start_round(self) -> None:
        self.rounds.append([])

    def op(self, kind: str, fn, check=None, query: bool = False):
        """Run one top-level operation; return its result, or None if it failed.

        `check(result)` returns None when the output is right and a short
        description of the problem otherwise.
        """
        self.attempted += 1
        entry = [0.0, query, 0]
        self.rounds[-1].append(entry)
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # counted as a failed operation; the run goes on
            entry[0] = time.perf_counter() - t0
            self._fail(kind, traceback.format_exc(limit=4).strip())
            return None
        entry[0] = time.perf_counter() - t0
        problem = self._check(check, result) if check is not None else None
        if problem:
            self._fail(kind, problem)
            return None
        return result

    def _check(self, check, result):
        if self.log is not None:
            self.log.paused = True
        try:
            return check(result)
        except Exception:
            return "output check raised: " + traceback.format_exc(limit=4).strip()
        finally:
            if self.log is not None:
                self.log.paused = False

    def verdict(self, kind: str, problem) -> None:
        """Count one check that spans several operations (untimed)."""
        self.attempted += 1
        if problem:
            self._fail(kind, problem)

    def integrate(self, system, xi0, horizon, step, u=None):
        """A direct `integrate` call, the whole of its operation; its steps
        count for sim_steps_per_s."""
        traj = hf.integrate(system, xi0, horizon, step=step, u=u)
        self.rounds[-1][-1][2] += int(traj.times.size - 1)
        return traj

    def slots(self) -> list[tuple[float, bool, int]]:
        """(slowest seconds over the rounds, is a query, steps) of every slot."""
        out = []
        for k in range(max(map(len, self.rounds), default=0)):
            entries = [r[k] for r in self.rounds if len(r) > k]
            out.append((max(e[0] for e in entries), entries[0][1], entries[0][2]))
        return out

    def slowest_round_s(self) -> float:
        """A round's time with every operation at its slowest."""
        return sum(s for s, _, _ in self.slots())

    def query_s(self) -> list[float]:
        """Every query latency of the phase, in run order."""
        return [e[0] for r in self.rounds for e in r if e[1]]

    def _fail(self, kind: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{kind}: {problem}")


def run_rounds(workload, ctx, rec: Recorder, seed: int, rounds: int) -> None:
    """Run `rounds` rounds, each on the seed's same inputs."""
    for r in range(rounds):
        if rec.log is not None:
            rec.log.current_round = r
        rec.start_round()
        workload.round(ctx, rec, np.random.default_rng([seed, 0]))


def _seed(rng) -> int:
    return int(rng.integers(SEED_SPACE))


def _history(rng, system, bound=1.0) -> HistorySegment:
    return hf.sample_history(system.n, system.delta, bound, int(rng.integers(1, 5)), _seed(rng))


def _amplitude(rng) -> float:
    """A constant-history value of either sign, 0.5 <= |c| <= 2."""
    return float(rng.uniform(0.5, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


class Part:
    """One piece of a workload: `setup()` builds a context, `warmup` runs on
    it with a random generator, `round` is a generator function that runs one
    round's operations and yields between steps, and `close` releases what
    `setup` made."""

    def close(self, ctx):
        pass


# -- certify: converse part ---------------------------------------------------------------

class ConverseCertify(Part):
    """Criterion-5 pipeline on the neutral scalar system, then dplus queries."""

    ladder = LadderSpec(levels=5)
    step = 0.125
    # a horizon floor above the truncation rule (7-9.5 here) keeps the cost of
    # one V alike across rounds, whose GES estimates differ
    horizon = 10.0
    fit_per_shell = 5
    verify_per_shell = 3
    headroom = 0.1
    queries = 12
    # Output-check tolerances. Along the flow V(x_h) <= e^(-a h) V(phi), so
    # D+V <= -a V; the estimate misses this by integrator error in V over h.
    # Over about 2,000 fit, verify and query rows the excess
    # (D+V - band + a V) / V had median -0.7, 99th percentile 0.07 and
    # maximum 0.49. A fresh sample's V / sup exceeded the fitted a2 by at
    # most 2.07x. Over 720 queries V exceeded the 1/256-grid max of its own
    # trajectory by 0 to 1.3e-4 of V.
    row_excess = 1.0
    upper_excess = 3.0
    grid_shortfall = 1e-3

    def setup(self):
        return {"system": neutral_system()}

    def warmup(self, ctx, rng):
        system = ctx["system"]
        ges = hf.estimate_ges(system, 4, 14.0, step=self.step, seed=_seed(rng))
        V = hf.construct_converse_ges(system, ges.lam / 2.0, ges=ges, step=self.step)
        phi = _history(rng, system)
        hf.driver_derivative(system, V, phi, ladder=LadderSpec(levels=3))

    def round(self, ctx, rec: Recorder, rng):
        system = ctx["system"]
        ges_seed, fit_seed, verify_seed = _seed(rng), _seed(rng), _seed(rng)
        excess: list[float] = []  # flow-bound excess of every D+V row this round
        ges = rec.op(
            "estimate_ges",
            lambda: hf.estimate_ges(system, 20, 14.0, step=self.step, seed=ges_seed),
            check=lambda g: None if g.is_ges and g.lam > 0 else f"not GES: {g.note}",
        )
        if ges is None:
            return
        V = rec.op(
            "construct_converse",
            lambda: hf.construct_converse_ges(
                system, ges.lam / 2.0, horizon=self.horizon, ges=ges, step=self.step
            ),
        )
        if V is None:
            return
        # the queries go in four groups between the pipeline's long steps, so
        # that their latencies sample the whole round, not one stretch of it
        histories = [_history(rng, system, (0.1, 1.0, 10.0)[k % 3]) for k in range(self.queries)]
        groups = iter(np.array_split(np.arange(self.queries), 4))
        self._ask(rec, system, V, [histories[k] for k in next(groups)], excess)
        yield
        fit = rec.op(
            "fit_ges",
            lambda: hf.fit_constants(
                system, V, "ges",
                hf.sample_shells(1, system.delta, self.fit_per_shell, fit_seed),
                self.ladder, headroom=self.headroom,
            ),
            check=lambda f: self._check_fit(rec, V, f, excess),
        )
        yield
        self._ask(rec, system, V, [histories[k] for k in next(groups)], excess)
        yield
        if fit is not None:
            rec.op(
                "verify_ges",
                lambda: hf.verify_ges_conditions(
                    system, V, fit.constants,
                    hf.sample_shells(1, system.delta, self.verify_per_shell, verify_seed),
                    self.ladder,
                ),
                check=lambda rep: self._check_fresh_verify(system, V, fit.constants, rep, excess),
            )
        yield
        self._ask(rec, system, V, [histories[k] for k in next(groups)], excess)
        yield
        self._ask(rec, system, V, [histories[k] for k in next(groups)], excess)
        median = float(np.median(excess)) if excess else np.nan
        rec.verdict(
            "flow_bound",
            None if median <= 0.0 else f"median flow-bound excess {median:.3g} > 0 over the round",
        )

    def _ask(self, rec, system, V, histories, excess):
        for phi in histories:
            rec.op(
                "dplus_converse",
                lambda: (V(phi), hf.driver_derivative(system, V, phi, ladder=self.ladder)),
                check=lambda out: self._check_query(system, V, phi, excess, *out),
                query=True,
            )

    def _check_query(self, system, V, phi, excess, v, est):
        if not _finite(v, est.value, est.error_band):
            return "non-finite V or D+V"
        dnorm = float(np.linalg.norm(hf.dop_apply(system.dop, phi)))
        if v < dnorm * (1.0 - 1e-12):
            return f"V = {v} below |D phi| = {dnorm}"
        return self._decay_problem(V, v, est.value, est.error_band, excess) or self._check_value(
            system, V, phi, v
        )

    def _decay_problem(self, V, v, value, band, excess):
        """Record the flow-bound excess of one D+V row; fail it past `row_excess`.

        The round's median excess must be at most 0 (checked after the queries).
        """
        x = (value - band + V.rate * v) / v
        excess.append(x)
        if not x <= self.row_excess:
            return f"D+V = {value} (band {band}) exceeds -a V = {-V.rate * v} by {x:.3g} V"
        return None

    def _check_decay(self, V, report, excess):
        for row in report.margins:
            problem = self._decay_problem(V, row["V"], row["D+V"], row["band"], excess)
            if problem:
                return problem
        return None

    def _check_value(self, system, V, phi, v):
        """V is the sup of |z(t)| e^(a t) on its trajectory: at least the max
        over a 1/256 grid of that trajectory, and above it by at most the
        grid's shortfall."""
        traj = hf.integrate(system, phi, V.horizon, step=self.step)
        grid = np.linspace(0.0, V.horizon, int(256 * V.horizon) + 1)
        ref = float(np.max(np.linalg.norm(traj.z_dense(grid), axis=1) * np.exp(V.rate * grid)))
        if not -1e-6 <= (v - ref) / v <= self.grid_shortfall:
            return f"V = {v}, max on a 1/256 grid of its trajectory {ref}"
        return None

    def _check_fit(self, rec, V, fit, excess):
        """The fit is ok with a1, a2, a3 > 0 and its rows within the flow
        bound, or it refuses the witness on one sample whose D+V has a
        definite wrong sign.

        Both outcomes can follow from the V evaluated. At step 0.125 the
        integrator's error can make D+V slightly positive on a rough history
        (seen once in about 1,300 fit samples; at step 1/32 the same history
        gives -0.91 a V): if the band excludes 0 the fit refuses, and if it
        straddles 0 the row stays out of the a3 envelope and the fit's own
        report may flag it. Every such row must still lie within the flow
        tolerance, and refusals are counted in the run's record.
        """
        if fit.ok:
            c = fit.constants
            if not (c.a1 > 0 and c.a2 > 0 and c.a3 > 0):
                return f"nonpositive constants {c.a1}, {c.a2}, {c.a3}"
            return self._check_decay(V, fit.report, excess)
        if len(fit.report.counterexamples) != 1:
            return f"fit failed on {len(fit.report.counterexamples)} samples: {fit.report.failure}"
        details = fit.report.counterexamples[0].details
        problem = _check_fit_consistent(fit) or self._decay_problem(
            V, details["V"], details["lhs"], details["band"], excess
        )
        if problem is None:
            rec.refusals += 1
        return problem

    def _check_fresh_verify(self, system, V, constants, report, excess):
        """Fresh shells: no lower-bound violation, every D+V row within the
        flow-bound tolerance, V / sup within `upper_excess` a2, the V of each
        upper-bound violation consistent with its trajectory, and every
        counterexample re-verifies.

        Upper-bound and derivative violations are possible: the fitted a2
        and a3 are envelopes of the fit samples.
        """
        if report.samples_checked == 0:
            return "no samples checked"
        if report.stats("lower-bound").violations:
            return "lower bound V >= a1 |D phi| violated"
        problem = self._check_decay(V, report, excess)
        if problem:
            return problem
        for row in report.margins:
            if row["V"] > self.upper_excess * constants.a2 * row["sup"]:
                return f"V / sup = {row['V'] / row['sup']:.4g} above {self.upper_excess} a2"
        for ce in report.counterexamples:
            if ce.condition == "upper-bound":
                problem = self._check_value(system, V, ce.history, ce.details["lhs"])
                if problem:
                    return problem
        return _check_reverify(system, V, constants, report, self.ladder)


# -- certify: ladder part -----------------------------------------------------------------

class LadderQuadratic(Part):
    """Closed-form functionals: V never integrates, phi_h and certify dominate."""

    query_ladder = LadderSpec(levels=14)
    fit_ladder = LadderSpec(levels=8)
    queries_per_system = 8
    consistency_points = 4
    fine_horizon = 1.5

    def setup(self):
        neutral, planar, cubic = neutral_system(), planar_system(), cubic_system()
        kgrid = np.linspace(-1.0, 0.0, 5)
        return {
            "systems": [
                (s, QuadraticDopFunctional(s.dop, np.eye(s.n))) for s in (neutral, planar, cubic)
            ],
            "neutral": neutral,
            "planar": planar,
            "integral": IntegralQuadraticFunctional(
                neutral.dop, [[1.0]], kgrid, (0.2 + 0.3 * (kgrid + 1.0))[:, None, None]
            ),
            "seminorm_constants": CertificateConstants(
                "ges-seminorm", a1=0.5, a2=2.0, a3=0.2,
                a4=1.0 + planar.dop.coefficient_norm_sum(), seminorm=DopSemiNorm(planar.dop),
            ),
        }

    def warmup(self, ctx, rng):
        for system, V in ctx["systems"]:
            hf.driver_derivative(system, V, _history(rng, system), ladder=LadderSpec(levels=4))
        hf.fit_constants(
            ctx["neutral"], ctx["integral"], "gas",
            hf.sample_shells(1, 1.0, 2, _seed(rng)), LadderSpec(levels=3),
        )

    def round(self, ctx, rec: Recorder, rng):
        for system, V in ctx["systems"]:
            for _ in range(self.queries_per_system):
                phi = _history(rng, system)
                rec.op(
                    "dplus_quadratic",
                    lambda: (V(phi), hf.driver_derivative(system, V, phi, ladder=self.query_ladder)),
                    check=lambda out: _check_chain_rule(system, V, phi, *out),
                )
            if system is not ctx["neutral"]:
                # fine-step simulations of the planar and cubic systems, besides
                # the neutral one below, so that sim_steps_per_s rests on more
                # than one operation
                phi = _history(rng, system)
                rec.op(
                    "simulate_fine",
                    lambda: rec.integrate(system, phi, self.fine_horizon, 1e-3),
                    check=_check_trajectory,
                )
            yield
        neutral, planar = ctx["neutral"], ctx["planar"]
        fit_seed, verify_seed = _seed(rng), _seed(rng)
        rec.op(
            "fit_gas",
            lambda: hf.fit_constants(
                neutral, ctx["integral"], "gas", hf.sample_shells(1, 1.0, 6, fit_seed), self.fit_ladder
            ),
            check=_check_fit_consistent,
        )
        yield
        V_planar = ctx["systems"][1][1]
        constants = ctx["seminorm_constants"]
        shells = lambda: hf.sample_shells(2, planar.delta, 12, verify_seed, shells=(1.0,))
        rec.op(
            "verify_seminorm",
            lambda: hf.verify_ges_seminorm(
                planar, V_planar, constants.seminorm, constants, shells(), self.fit_ladder
            ),
            check=lambda rep: _check_seminorm_verify(planar, V_planar, constants, shells(), rep),
        )
        yield
        c = _amplitude(rng)
        traj = rec.op(
            "simulate_fine",
            lambda: rec.integrate(neutral, HistorySegment.constant([c], 1.0), 3.0, 1e-3),
            check=lambda tr: "blowup" if tr.blowup else None,
        )
        if traj is None:
            return
        V = ctx["systems"][0][1]
        candidates = hf.trajectory_grid(traj, 50)
        times = np.sort(rng.choice(candidates[:-1], self.consistency_points, replace=False))
        rec.op(
            "trajectory_consistency",
            lambda: hf.trajectory_consistency(neutral, V, traj, times, 1e-4),
            check=lambda res: None if res.max_relative <= 1e-2
            else f"max_relative {res.max_relative:.3e} > 1e-2",
        )


def _check_chain_rule(system, V, phi, v, est):
    d = hf.dop_apply(system.dop, phi)
    expected = 2.0 * float(d @ V.P @ hf.rhs_eval(system.rhs, phi))
    if not _finite(v, est.value):
        return "non-finite V or D+V"
    dev = abs(est.value - expected) / max(1.0, abs(expected))
    return None if dev <= 1e-3 else f"D+V {est.value} vs chain rule {expected} (rel {dev:.2e})"


def _check_fit_consistent(fit):
    """A fit either passes on its own rows or carries wrong-sign evidence."""
    if fit.ok:
        return None if fit.report.passed else f"{fit.report.violations} violations on own rows"
    if fit.report.failure is None:
        return "fit returned no constants and no failure reason"
    for ce in fit.report.counterexamples:
        if not ce.details["lhs"] - ce.details["band"] > 0.0:
            return "fit failure evidence is not a definite wrong-sign derivative"
    return None


def _exceeds(lhs: float, rhs: float) -> bool:
    """lhs > rhs beyond the certificate checks' relative slack of 1e-9."""
    return lhs > rhs + 1e-9 * max(1.0, abs(lhs), abs(rhs))


def _check_seminorm_verify(system, V, constants, samples, report):
    """Closed-form oracle for a point-quadratic V with the D-seminorm: with
    d = D phi, V = d^T P d, ||phi||_a = |d| and D+V = 2 d^T P f(phi), so the
    violations of every condition are known in advance. Only derivative rows
    whose oracle margin lies within twice the band may go either way."""
    if report.samples_checked != len(samples) or len(report.margins) != len(samples):
        return f"{report.samples_checked} samples checked, {len(samples)} given"
    predicted = dict.fromkeys(("lower-bound", "upper-bound", "derivative", "domination"), 0)
    ambiguous = 0
    for phi, row in zip(samples, report.margins):
        d = hf.dop_apply(system.dop, phi)
        v = float(d @ V.P @ d)
        a = float(np.linalg.norm(d))
        dv = 2.0 * float(d @ V.P @ hf.rhs_eval(system.rhs, phi))
        if abs(row["V"] - v) > 1e-12 * max(1.0, v) or abs(row["seminorm"] - a) > 1e-12 * max(1.0, a):
            return f"V {row['V']} or seminorm {row['seminorm']} off closed form {v}, {a}"
        # at levels 8 the band covers the quotients' O(h) error: over 1,200
        # rows |D+V - chain rule| - band stayed below 1e-12 and the band
        # below 1.1e-3, relative to max(1, |chain rule|)
        scale = max(1.0, abs(dv))
        if abs(row["D+V"] - dv) > row["band"] + 1e-6 * scale or row["band"] > 1e-2 * scale:
            return f"D+V {row['D+V']} (band {row['band']}) vs chain rule {dv}"
        predicted["lower-bound"] += _exceeds(constants.a1 * a, v)
        predicted["upper-bound"] += _exceeds(v, constants.a2 * a)
        predicted["domination"] += _exceeds(a, constants.a4 * row["sup"])
        rhs = -constants.a3 * a
        if abs(dv - rhs) <= 2.0 * row["band"] + 1e-6 * scale:
            ambiguous += 1
        else:
            predicted["derivative"] += dv > rhs
    for name, count in predicted.items():
        got = report.stats(name).violations
        if not count <= got <= count + (ambiguous if name == "derivative" else 0):
            return f"{name}: {got} violations, closed form gives {count}"
    return None


def _check_reverify(system, V, constants, report, ladder):
    if report.samples_checked == 0:
        return "no samples checked"
    for ce in report.counterexamples:
        if not hf.reverify_counterexample(system, V, constants, ce, ladder):
            return f"counterexample for {ce.condition} does not re-verify"
    return None


# -- simulate_cli: simulate part ----------------------------------------------------------

class SimulateMix(Part):
    """integrate as a simulator on long single trajectories, plus signals."""

    repeats = 3

    def setup(self):
        return {
            "neutral": neutral_system(),
            "planar": planar_system(),
            "two_delay": two_delay_system(),
            "distributed": distributed_system(),
            "input": input_system(),
        }

    def warmup(self, ctx, rng):
        for key in ("neutral", "planar", "two_delay", "distributed"):
            system = ctx[key]
            hf.integrate(system, _history(rng, system), system.delta, step=system.min_positive_delay() / 8)
        hf.iss_probe(
            ctx["input"], [HistorySegment.constant([0.5], 1.0)],
            [InputSignal.constant([0.5])], horizon=2.0, step=0.125, lipschitz_samples=4,
        )

    def round(self, ctx, rec: Recorder, rng):
        for _ in range(self.repeats):
            self._neutral(ctx["neutral"], rec, rng)
            for key, horizon, step in (
                ("planar", 8.0, 0.01),
                ("two_delay", 6.0, 0.01),
                ("distributed", 2.0, 1.0 / 16.0),
            ):
                system = ctx[key]
                phi = _history(rng, system)
                rec.op(
                    f"simulate_{key}",
                    lambda: rec.integrate(system, phi, horizon, step),
                    check=_check_trajectory,
                    query=True,
                )
            yield
        system = ctx["input"]
        ics = hf.sample_shells(1, 1.0, 2, _seed(rng), shells=(0.1, 1.0))
        signals = [InputSignal.zero(1), _switching_signal(rng), _table_signal(rng)]
        iss_seed, attraction_seed = _seed(rng), _seed(rng)
        rec.op(
            "iss_probe",
            lambda: hf.iss_probe(
                system, ics, signals, horizon=10.0, step=0.025, lipschitz_samples=30, seed=iss_seed
            ),
            check=lambda est: None if est.is_iss and est.violations == 0
            else f"iss_probe: {est.violations} violations",
        )
        yield
        rec.op(
            "attraction",
            lambda: hf.check_uniform_attraction(
                system, 1.0, 0.05, samples=6, horizon=10.0, step=0.125, seed=attraction_seed
            ),
            check=lambda res: None if res.status == "settled" else f"status {res.status}",
        )

    def _neutral(self, system, rec, rng):
        c = _amplitude(rng)

        def check(traj):
            ts = np.linspace(0.0, 1.0, 21)
            err = float(np.max(np.abs(traj.x_at(ts)[:, 0] - c * np.exp(-ts))))
            if err > 1e-6 * abs(c):
                return f"neutral trajectory off c e^-t by {err:.2e}"
            return _check_trajectory(traj)

        rec.op(
            "simulate_neutral",
            lambda: rec.integrate(system, HistorySegment.constant([c], 1.0), 1.5, 1e-3),
            check=check,
            query=True,
        )


def _switching_signal(rng) -> InputSignal:
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 9.5, 5))])
    return InputSignal.piecewise_constant(times, rng.uniform(-1.0, 1.0, (times.size, 1)))


def _table_signal(rng) -> InputSignal:
    times = np.linspace(0.0, 10.0, 11)
    return InputSignal.from_table(times, rng.uniform(-1.0, 1.0, (times.size, 1)))


def _check_trajectory(traj):
    if traj.blowup:
        return f"unexpected blowup at t = {traj.t_end}"
    if not _finite(traj.x, traj.z):
        return "non-finite trajectory"
    scale = max(1.0, float(np.max(np.abs(traj.x))))
    # a boundedness check: the probe also sees interpolation error near kinks
    res = hf.residual_check(traj, 20)
    return None if res <= 0.1 * scale else f"residual {res:.2e} too large"


# -- simulate_cli: cli part ---------------------------------------------------------------

class ScenarioCli(Part):
    """In-process `run_scenario` on scenario dicts, each run twice."""


    def setup(self):
        here = Path(__file__).resolve().parent
        (here / "out").mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="scenario-", dir=here / "out"))
        return {
            "out": out,
            "neutral": neutral_system(),
            "planar": planar_system(),
            "ode": scalar_ode_system(),
        }

    def close(self, ctx):
        shutil.rmtree(ctx["out"], ignore_errors=True)

    def warmup(self, ctx, rng):
        scn = self._check_dop(rng, 2, 16)
        self._run(ctx, scn, ctx["out"] / "warmup")

    def _check_dop(self, rng, p, resolution):
        mats = rng.standard_normal((p, 3, 3))
        norms = sum(np.linalg.norm(m, 2) for m in mats)
        mats *= 0.8 / norms  # sum of spectral norms 0.8 bounds gamma0 below 1
        system = NfdeSystem(
            DifferenceOperator(list(np.linspace(0.5, 1.0, p)), mats),
            RhsMap(n=3, terms=(LinearTerm(0.0, -np.eye(3)),)),
        )
        return {
            "command": "check-dop",
            "system": hf.serialization.system_to_dict(system),
            "check-dop": {"resolution": resolution},
        }

    def scenarios(self, ctx, rng):
        """(scenario, expected exit code) pairs for one round."""
        neutral, planar, ode = ctx["neutral"], ctx["planar"], ctx["ode"]
        sim_history = _history(rng, planar)
        dplus_history = _history(rng, planar)
        seed = _seed(rng)
        dop_norm = {"kind": "dop-norm", "c": 1.0}
        samples = {"per_shell": 4, "shells": [0.1, 1.0, 10.0], "seed": seed}
        return [
            (self._check_dop(rng, 2, 64), 0),
            (self._check_dop(rng, 3, 32), 0),
            ({
                "command": "simulate",
                "system": hf.serialization.system_to_dict(planar),
                "simulate": {
                    "history": hf.serialization.history_to_dict(sim_history),
                    "horizon": 5.0, "step": 0.01, "residual_samples": 10,
                },
            }, 0),
            ({
                "command": "dplus",
                "system": hf.serialization.system_to_dict(planar),
                "dplus": {
                    "functional": {"kind": "point-quadratic", "P": np.eye(2).tolist()},
                    "history": hf.serialization.history_to_dict(dplus_history),
                    "ladder_levels": 10,
                },
            }, 0),
            ({
                "command": "fit-lk",
                "system": hf.serialization.system_to_dict(ode),
                "fit": {"functional": dop_norm, "variant": "ges", "samples": samples,
                        "ladder_levels": 6, "headroom": 0.05},
            }, 0),
            ({
                "command": "verify-lk",
                "system": hf.serialization.system_to_dict(ode),
                "verify": {"functional": dop_norm,
                           "constants": {"variant": "ges", "a1": 0.9, "a2": 1.1, "a3": 0.9},
                           "samples": samples, "ladder_levels": 6},
            }, 0),
            ({
                "command": "estimate-ges",
                "system": hf.serialization.system_to_dict(neutral),
                "seed": seed,
                "ges": {"trajectories": 8, "horizon": 10.0, "step": 0.125},
            }, 0),
        ]

    def _run(self, ctx, scenario, out_dir):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return hf.cli.run_scenario(scenario, ctx["out"], out_dir)

    def round(self, ctx, rec: Recorder, rng):
        for i, (scn, expected) in enumerate(self.scenarios(ctx, rng)):
            dirs = [ctx["out"] / f"s{i}" / side for side in ("a", "b")]
            first = rec.op(
                f"cli_{scn['command']}",
                lambda: self._run(ctx, scn, dirs[0]),
                check=lambda code: None if code == expected else f"exit {code}, expected {expected}",
                query=True,
            )
            if first is not None:
                rec.op(
                    f"cli_{scn['command']}",
                    lambda: self._run(ctx, scn, dirs[1]),
                    check=lambda code: self._check_repeat(code, expected, dirs),
                    query=True,
                )
            if first is not None and scn["command"] == "simulate":
                block = scn["simulate"]
                rec.op(
                    "simulate_direct",
                    lambda: rec.integrate(
                        ctx["planar"], hf.serialization.history_from_dict(block["history"]),
                        block["horizon"], block["step"],
                    ),
                    check=lambda traj: _check_cli_trajectory(traj, dirs[0]),
                )
            yield

    def _check_repeat(self, code, expected, dirs):
        if code != expected:
            return f"exit {code}, expected {expected}"
        a, b = ((d / "report.json").read_bytes() for d in dirs)
        return None if a == b else "report.json differs between two runs of one scenario"



def _check_cli_trajectory(traj, out_dir):
    """The CLI trajectory must equal a direct integrate of the same inputs."""
    rows = np.loadtxt(out_dir / "trajectory.csv", delimiter=",", skiprows=1)
    if rows.shape[0] != traj.times.size:
        return f"CLI wrote {rows.shape[0]} rows, direct run has {traj.times.size} nodes"
    dev = float(np.max(np.abs(rows[:, 1:3] - traj.x)))
    return None if dev <= 1e-12 * max(1.0, float(np.max(np.abs(traj.x)))) else f"CLI deviates by {dev:.2e}"


class Workload:
    """A benchmark workload: its parts run in order in every round."""

    def __init__(self, name: str, why: str, tail_pct: int, parts):
        self.name = name
        self.why = why
        self.tail_pct = tail_pct
        self.parts = parts

    def setup(self):
        return [part.setup() for part in self.parts]

    def warmup(self, ctx, rng):
        for part, part_ctx in zip(self.parts, ctx):
            part.warmup(part_ctx, rng)

    def round(self, ctx, rec: Recorder, rng):
        """Run the parts' steps in turn, so each part's operations (and the
        query latencies among them) spread over the whole round."""
        steps = [part.round(part_ctx, rec, rng) for part, part_ctx in zip(self.parts, ctx)]
        while steps:
            for step in list(steps):
                if next(step, StopIteration) is StopIteration:
                    steps.remove(step)

    def close(self, ctx):
        for part, part_ctx in zip(self.parts, ctx):
            part.close(part_ctx)


# Two workloads, so that each run can be long enough to average out the
# machine's speed swings (tens of seconds) within the time budget. Each
# optimisation planned for the library is exercised by one and bypassed by
# the other: batching and phi_h_extend by `certify`, the torus sweep,
# signals and the report path by `simulate_cli`.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify",
            "certificate work: the criterion-5 converse pipeline, where every V integrates, "
            "and closed-form functionals, where phi_h_extend and certify bookkeeping dominate",
            90,
            (ConverseCertify(), LadderQuadratic()),
        ),
        Workload(
            "simulate_cli",
            "long single trajectories on five systems, signal probes and run_scenario with "
            "report.json: per-step cost, signals, stability, serialization and cli",
            95,
            (SimulateMix(), ScenarioCli()),
        ),
    )
}
