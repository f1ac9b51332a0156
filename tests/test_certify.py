import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from haleform import certify
from haleform.integrate import integrate_batch
from haleform import (
    CertificateConstants,
    ComparisonFunction,
    ConverseFunctional,
    Counterexample,
    DifferenceOperator,
    DopNormFunctional,
    DopSemiNorm,
    EndpointSemiNorm,
    FitImpossibleError,
    Functional,
    HistorySegment,
    InputSignal,
    InputTerm,
    LadderSpec,
    LinearTerm,
    NfdeSystem,
    NonlinearTerm,
    PreconditionError,
    QuadraticDopFunctional,
    RhsMap,
    StepPolicy,
    check_uniform_attraction,
    construct_converse_ges,
    converse_horizon,
    driver_derivative,
    estimate_ges,
    estimate_lipschitz,
    fit_constants,
    iss_probe,
    reverify_counterexample,
    sample_history,
    sample_shells,
    sup_norm_diff,
    verify_gas_conditions,
    verify_ges_conditions,
    verify_ges_seminorm,
)

LADDER = LadderSpec(levels=10)
integrate_module = sys.modules["haleform.integrate"]


def gas_constants():
    return CertificateConstants(
        "gas",
        alpha1=ComparisonFunction.power(0.5, 2.0),
        alpha2=ComparisonFunction.power(2.0, 2.0),
        alpha3=ComparisonFunction.power(1.0, 2.0, kind="K"),
    )


class TestVerifyGas:
    def test_stable_scalar_case_passes(self, scalar_ode_system):
        V = QuadraticDopFunctional(scalar_ode_system.dop, [[1.0]])
        samples = sample_shells(1, 1.0, 25, seed=1)
        report = verify_gas_conditions(
            scalar_ode_system, V, gas_constants(), samples, LADDER
        )
        assert report.passed
        assert report.violations == 0

    def test_zero_functional_fails_lower_bound(self, scalar_ode_system):
        V = QuadraticDopFunctional(scalar_ode_system.dop, [[0.0]])
        samples = sample_shells(1, 1.0, 10, seed=2)
        report = verify_gas_conditions(
            scalar_ode_system, V, gas_constants(), samples, LADDER
        )
        assert report.stats("lower-bound").violations > 0
        assert not report.passed

    def test_unstable_rhs_fails_derivative(self, unstable_system):
        V = QuadraticDopFunctional(unstable_system.dop, [[1.0]])
        samples = sample_shells(1, 1.0, 10, seed=3)
        report = verify_gas_conditions(
            unstable_system, V, gas_constants(), samples, LADDER
        )
        assert report.stats("derivative").violations > 0


class TestVerifyGes:
    def test_norm_functional_unit_constants(self, scalar_ode_system):
        V = DopNormFunctional(scalar_ode_system.dop)
        constants = CertificateConstants("ges", a1=1.0, a2=1.0, a3=1.0)
        samples = sample_shells(1, 1.0, 25, seed=4)
        report = verify_ges_conditions(scalar_ode_system, V, constants, samples, LADDER)
        assert report.violations == 0
        assert report.lipschitz_estimate is not None
        assert report.lipschitz_estimate <= 1.0 + 1e-9

    @pytest.mark.parametrize("kind", ["dop-norm", "quadratic"])
    def test_lipschitz_estimate_is_the_pairwise_loop(self, scalar_ode_system, planar_system, kind):
        """The estimate is the max of |V(a) - V(b)| / ||a - b|| over adjacent samples with
        a gap above 1e-9, each gap a `sup_norm_diff`, bit for bit; a repeated sample gives none."""
        system = planar_system if kind == "quadratic" else scalar_ode_system
        V = (QuadraticDopFunctional(system.dop, [[2.0, 0.5], [0.5, 1.0]]) if kind == "quadratic"
             else DopNormFunctional(system.dop, 1.5))
        samples = sample_shells(system.n, system.delta, 4, seed=21)
        samples.insert(3, samples[2])
        constants = CertificateConstants("ges", a1=0.1, a2=10.0, a3=0.1)
        report = verify_ges_conditions(system, V, constants, samples, LadderSpec(levels=6))
        lip = 0.0
        for a, b in zip(samples, samples[1:]):
            gap = sup_norm_diff(a, b)
            if gap > 1e-9:
                lip = max(lip, abs(V(a) - V(b)) / gap)
        assert lip > 0.0 and report.lipschitz_estimate == lip

    def test_too_small_a2_fails_upper_bound(self, neutral_system, unit_history):
        V = DopNormFunctional(neutral_system.dop)
        constants = CertificateConstants("ges", a1=1.0, a2=0.1, a3=0.5)
        report = verify_ges_conditions(
            neutral_system, V, constants, [unit_history], LADDER
        )
        assert report.stats("upper-bound").violations == 1

    def test_zero_functional_fails_lower_bound(self, scalar_ode_system):
        V = QuadraticDopFunctional(scalar_ode_system.dop, [[0.0]])
        constants = CertificateConstants("ges", a1=1.0, a2=1.0, a3=1.0)
        samples = sample_shells(1, 1.0, 10, seed=5)
        report = verify_ges_conditions(scalar_ode_system, V, constants, samples, LADDER)
        assert report.stats("lower-bound").violations > 0

    def test_counterexamples_reverify(self, neutral_system, unit_history):
        V = DopNormFunctional(neutral_system.dop)
        constants = CertificateConstants("ges", a1=1.0, a2=0.1, a3=0.5)
        report = verify_ges_conditions(
            neutral_system, V, constants, [unit_history], LADDER
        )
        assert report.counterexamples
        for ce in report.counterexamples:
            assert reverify_counterexample(neutral_system, V, constants, ce, LADDER)

    def test_counterexamples_are_kept_per_condition(self, neutral_system):
        # 12 lower-bound violations come first in sample order, then 3 upper-bound and 1 decay
        V = QuadraticDopFunctional(neutral_system.dop, [[1.0]])
        constants = CertificateConstants("ges", a1=0.9, a2=1.6, a3=0.2)
        samples = sample_shells(1, 1.0, 6, seed=0)
        report = verify_ges_conditions(neutral_system, V, constants, samples, LADDER)
        for stats in report.conditions:
            kept = [ce for ce in report.counterexamples if ce.condition == stats.name]
            assert len(kept) == min(stats.violations, certify._MAX_COUNTEREXAMPLES), stats.name
        assert all(report.stats(name).violations for name in ("lower-bound", "upper-bound", "derivative"))


class TestVerifySeminorm:
    def test_dop_seminorm_stable_case(self, scalar_ode_system):
        V = DopNormFunctional(scalar_ode_system.dop)
        sn = DopSemiNorm(scalar_ode_system.dop)
        constants = CertificateConstants(
            "ges-seminorm", a1=1.0, a2=1.0, a3=1.0,
            a4=sn.domination_constant(), seminorm=sn,
        )
        samples = sample_shells(1, 1.0, 15, seed=6)
        report = verify_ges_seminorm(
            scalar_ode_system, V, sn, constants, samples, LADDER
        )
        assert report.violations == 0

    def test_endpoint_domination_equality_on_constants(self, scalar_ode_system):
        sn = EndpointSemiNorm()
        V = DopNormFunctional(scalar_ode_system.dop)
        constants = CertificateConstants(
            "ges-seminorm", a1=1.0, a2=1.0, a3=1.0, a4=1.0, seminorm=sn
        )
        consts = [HistorySegment.constant([c], 1.0) for c in (0.5, -1.0, 2.0)]
        report = verify_ges_seminorm(
            scalar_ode_system, V, sn, constants, consts, LADDER
        )
        dom = report.stats("domination")
        assert dom.violations == 0
        assert abs(dom.worst_margin) <= 1e-9

    def test_too_small_a4_fails_domination(self, scalar_ode_system, unit_history):
        sn = EndpointSemiNorm()
        V = DopNormFunctional(scalar_ode_system.dop)
        constants = CertificateConstants(
            "ges-seminorm", a1=1.0, a2=1.0, a3=1.0, a4=0.5, seminorm=sn
        )
        report = verify_ges_seminorm(
            scalar_ode_system, V, sn, constants, [unit_history], LADDER
        )
        assert report.stats("domination").violations == 1

    def test_seminorm_other_than_the_constants_is_rejected(self, scalar_ode_system, unit_history):
        # counterexamples re-verify with constants.seminorm, so verify must judge with it too
        V = DopNormFunctional(scalar_ode_system.dop)
        sn = DopSemiNorm(scalar_ode_system.dop)
        constants = CertificateConstants(
            "ges-seminorm", a1=1.0, a2=1.0, a3=1.0, a4=1.0, seminorm=sn
        )
        for other in (EndpointSemiNorm(), DopSemiNorm(scalar_ode_system.dop)):
            with pytest.raises(PreconditionError, match="constants.seminorm"):
                verify_ges_seminorm(scalar_ode_system, V, other, constants, [unit_history], LADDER)


def _reverify_case(request, variant, condition):
    """(system, V, constants) under which the shells below hold samples that
    violate `condition` and samples that pass it."""
    if variant == "gas":
        system = request.getfixturevalue("scalar_ode_system")
        # V = x(0)^2 and D+V = -2 x(0)^2: the linear alpha1 and alpha3 fail
        # for small |x(0)| and hold for large
        alpha1 = ComparisonFunction.power(0.5, 2.0)
        alpha3 = ComparisonFunction.power(1.0, 2.0, kind="K")
        if condition == "lower-bound":
            alpha1 = ComparisonFunction.linear(1.0)
        if condition == "derivative":
            alpha3 = ComparisonFunction.linear(1.0, kind="K")
        constants = CertificateConstants(
            "gas", alpha1=alpha1, alpha2=ComparisonFunction.power(2.0, 2.0), alpha3=alpha3
        )
        return system, QuadraticDopFunctional(system.dop, [[1.0]]), constants
    if variant == "ges":
        system = request.getfixturevalue("neutral_system")
        constants = CertificateConstants("ges", a1=1.0, a2=0.45, a3=0.5)
        return system, DopNormFunctional(system.dop), constants
    system = request.getfixturevalue("planar_system")
    sn = DopSemiNorm(system.dop)
    constants = CertificateConstants("ges-seminorm", a1=0.5, a2=1.0, a3=1.0, a4=0.7, seminorm=sn)
    return system, QuadraticDopFunctional(system.dop, np.eye(2)), constants


class _CountingFunctional(Functional):
    def __init__(self, V):
        self.V = V
        self.calls = 0

    def __call__(self, phi):
        self.calls += 1
        return self.V(phi)


def _verify(system, V, constants, samples):
    if constants.variant == "gas":
        return verify_gas_conditions(system, V, constants, samples, LADDER)
    if constants.variant == "ges":
        return verify_ges_conditions(system, V, constants, samples, LADDER)
    return verify_ges_seminorm(system, V, constants.seminorm, constants, samples, LADDER)


@pytest.mark.parametrize(
    "variant, condition",
    [
        ("gas", "lower-bound"),
        ("gas", "derivative"),
        ("ges", "upper-bound"),
        ("ges-seminorm", "upper-bound"),
        ("ges-seminorm", "derivative"),
        ("ges-seminorm", "domination"),
    ],
)
def test_reverify_every_variant_and_condition(request, variant, condition):
    system, V, constants = _reverify_case(request, variant, condition)
    samples = sample_shells(system.n, system.delta, 5, seed=12, shells=(0.1, 1.0, 10.0))
    counted = _CountingFunctional(V)
    driver_derivative(system, counted, samples[0], None, LADDER)
    # a bound re-check evaluates V once and runs no h-ladder; domination needs no V
    calls = {"lower-bound": 1, "upper-bound": 1, "domination": 0, "derivative": counted.calls}
    violated = passed = 0
    for phi in samples:
        report = _verify(system, V, constants, [phi])
        if report.stats(condition).violations:
            ce = next(c for c in report.counterexamples if c.condition == condition)
            expected, violated = True, violated + 1
        elif report.stats(condition).inconclusive == 0:
            ce = Counterexample(condition, phi)
            expected, passed = False, passed + 1
        else:
            continue
        counted.calls = 0
        assert reverify_counterexample(system, counted, constants, ce, LADDER) is expected
        assert counted.calls == calls[condition]
    assert violated and passed


@pytest.mark.parametrize(
    "variant, condition",
    [("ges", "domination"), ("gas", "domination"), ("ges-seminorm", "decay")],
)
def test_reverify_rejects_condition_outside_the_variant(request, variant, condition):
    system, V, constants = _reverify_case(request, variant, condition)
    phi = HistorySegment.constant(np.ones(system.n), system.delta)
    with pytest.raises(PreconditionError, match=condition):
        reverify_counterexample(system, V, constants, Counterexample(condition, phi), LADDER)


class TestFitConstants:
    def test_quadratic_decay_rate(self, scalar_ode_system):
        V = QuadraticDopFunctional(scalar_ode_system.dop, [[1.0]])
        samples = sample_shells(1, 1.0, 40, seed=7)
        fit = fit_constants(scalar_ode_system, V, "ges", samples, LADDER, headroom=0.0)
        assert fit.ok
        assert fit.constants.a3 == pytest.approx(2.0, abs=0.05)
        assert fit.report.violations == 0

    def test_norm_functional_a1_is_one(self, scalar_ode_system):
        V = DopNormFunctional(scalar_ode_system.dop)
        samples = sample_shells(1, 1.0, 30, seed=8)
        fit = fit_constants(scalar_ode_system, V, "ges", samples, LADDER, headroom=0.0)
        assert fit.ok
        assert fit.constants.a1 == pytest.approx(1.0, abs=1e-9)

    def test_unstable_case_reports_sign_failure(self, unstable_system):
        V = QuadraticDopFunctional(unstable_system.dop, [[1.0]])
        samples = sample_shells(1, 1.0, 20, seed=9)
        fit = fit_constants(unstable_system, V, "ges", samples, LADDER)
        assert not fit.ok
        assert fit.constants is None
        assert fit.report.failure is not None
        assert fit.report.counterexamples

    def test_empty_admissible_set_raises(self, scalar_ode_system):
        V = DopNormFunctional(scalar_ode_system.dop)
        zero_only = [HistorySegment.zero(1, 1.0)]
        with pytest.raises(FitImpossibleError):
            fit_constants(scalar_ode_system, V, "ges", zero_only, LADDER)

    def test_gas_envelopes_cover_fitting_cloud(self, scalar_ode_system):
        V = QuadraticDopFunctional(scalar_ode_system.dop, [[1.0]])
        samples = sample_shells(1, 1.0, 40, seed=10)
        fit = fit_constants(scalar_ode_system, V, "gas", samples, LADDER)
        assert fit.ok
        assert fit.report.violations == 0
        assert fit.constants.alpha1.kind == "Kinf"
        assert fit.constants.alpha3.kind == "K"

    def test_fitted_constants_validate_out_of_sample(self, scalar_ode_system):
        V = QuadraticDopFunctional(scalar_ode_system.dop, [[1.0]])
        fit = fit_constants(
            scalar_ode_system, V, "ges", sample_shells(1, 1.0, 40, seed=11), LADDER
        )
        fresh = sample_shells(1, 1.0, 40, seed=900)
        report = verify_ges_conditions(
            scalar_ode_system, V, fit.constants, fresh, LADDER
        )
        assert report.violations <= max(1, len(fresh) // 100)

    def test_seminorm_variant_fit(self, scalar_ode_system):
        V = DopNormFunctional(scalar_ode_system.dop)
        sn = DopSemiNorm(scalar_ode_system.dop)
        fit = fit_constants(
            scalar_ode_system, V, "ges-seminorm",
            sample_shells(1, 1.0, 30, seed=12), LADDER, seminorm=sn,
        )
        assert fit.ok
        assert fit.constants.a4 > 0
        assert fit.report.violations == 0


class TestEstimateGes:
    def test_scalar_ode_rate_and_gain(self, scalar_ode_system):
        est = estimate_ges(scalar_ode_system, 20, 10.0, step=0.125, seed=1)
        assert est.is_ges
        assert 0.99 <= est.lam <= 1.01
        assert 1.0 <= est.M <= 1.05

    def test_neutral_system_decays(self, neutral_system):
        est = estimate_ges(neutral_system, 20, 12.0, step=0.125, seed=2)
        assert est.is_ges
        assert est.lam > 0
        # fitted bound holds on a fresh trajectory of the fitting family
        from haleform import integrate, sample_history

        xi0 = sample_history(1, 1.0, 1.0, 2, seed=77)
        traj = integrate(neutral_system, xi0, 12.0, step=0.125)
        mags = np.linalg.norm(traj.x, axis=1)
        bound = est.bound(xi0.sup_norm(), traj.times)
        assert np.all(mags <= bound * (1.0 + 1e-6) + 1e-12)

    @pytest.mark.parametrize("a", [1.5, 6.0])
    def test_bound_holds_between_knots(self, a):
        """A rotation turns |x| between knots: M is the envelope's sup over
        each panel, not its largest knot, so the fitted bound holds on a dense
        read of every fitted run (a knots-only M fell short by 2.1e-4 at a = 1.5
        and by 4.0e-3 at a = 6, where it was clamped to 1)."""
        system = NfdeSystem(
            DifferenceOperator([1.0], [[[0.0, 0.0], [0.0, 0.0]]]),
            RhsMap(n=2, terms=(LinearTerm(0.0, [[-0.3, a], [-a, -0.3]]), LinearTerm(1.0, 0.1 * np.eye(2)))),
        )
        samples = sample_shells(2, 1.0, 4, 3)
        est = estimate_ges(system, samples, 10.0, step=0.25)
        assert est.is_ges
        times = np.linspace(0.0, 10.0, 20_001)
        for xi0, traj in zip(samples, integrate_batch(system, samples, 10.0, step=0.25)):
            mags = np.linalg.norm(traj.x_at(times), axis=1)
            assert np.all(mags <= est.bound(xi0.sup_norm(), times) * (1.0 + 1e-12))

    def test_unstable_not_ges_with_counterexample(self, unstable_system):
        est = estimate_ges(unstable_system, 10, 10.0, step=0.125, seed=3)
        assert not est.is_ges
        assert est.counterexample is not None

    def test_blowup_detected(self):
        dop = DifferenceOperator([1.0], [[[0.0]]])
        rhs = RhsMap(n=1, terms=(LinearTerm(0.0, [[5.0]]),))
        system = NfdeSystem(dop, rhs)
        est = estimate_ges(system, 5, 10.0, step=0.05, seed=4)
        assert not est.is_ges
        assert "blowup" in est.note

    @pytest.mark.parametrize("history, horizon", [
        (HistorySegment.zero(1, 1.0), 4.0),  # |x| = 0 leaves no window above the floor
        (HistorySegment.constant([1.0], 1.0), 1.0),  # 5 knots in [0.5, 1], fewer than the 8 windows
    ])
    def test_no_envelope_fit_is_not_ges(self, scalar_ode_system, history, horizon):
        est = estimate_ges(scalar_ode_system, [history], horizon, step=0.125)
        assert not est.is_ges and est.counterexample is None
        assert (est.M, est.lam, est.trajectories_used) == (np.inf, 0.0, 1)
        assert est.note == "no trajectory admitted an envelope fit"


class TestAttraction:
    def test_scalar_ode_settle_time(self, scalar_ode_system):
        eps = float(np.exp(-2.0))
        res = check_uniform_attraction(
            scalar_ode_system, 1.0, eps, samples=10, horizon=12.0, step=0.125, seed=5
        )
        assert res.status == "settled"
        assert res.settle_time == pytest.approx(2.0, abs=0.125 + 1e-12)
        assert res.delta_hat is not None and res.delta_hat < eps

    def test_eps_above_bound_settles_immediately(self, scalar_ode_system):
        res = check_uniform_attraction(
            scalar_ode_system, 0.5, 1.0, samples=8, horizon=6.0, step=0.125, seed=6
        )
        assert res.status == "settled"
        assert res.settle_time == 0.0

    def test_unstable_is_inconclusive(self, unstable_system):
        res = check_uniform_attraction(
            unstable_system, 1.0, 0.1, samples=6, horizon=6.0, step=0.125, seed=7
        )
        assert res.status == "inconclusive"
        assert res.worst is not None

    def test_probes_only_radii_that_can_pass(self, scalar_ode_system):
        """A shell starts with a constant history at its radius, so a radius above eps
        fails at t = 0: one batch holds the samples, then a shell of 4 per radius eps
        2^-6 ... eps."""
        batches = []

        def spy(system, histories, *args, **kwargs):
            batches.append([h.sup_norm() for h in histories])
            return integrate_batch(system, histories, *args, **kwargs)

        eps = float(np.exp(-2.0))
        with mock.patch.object(certify, "integrate_batch", spy):
            res = check_uniform_attraction(
                scalar_ode_system, 1.0, eps, samples=10, horizon=12.0, step=0.125, seed=5
            )
        [sups] = batches
        assert len(sups) == 10 + 7 * 4 and max(sups[:10]) == 1.0
        radii = [max(sups[10 + 4 * i : 14 + 4 * i]) for i in range(7)]
        assert radii == pytest.approx([eps * 2.0**k for k in range(-6, 1)], rel=1e-12)
        assert res.delta_hat == eps / 2.0


class TestConverse:
    def test_zero_history_maps_to_zero(self, scalar_ode_system):
        V = ConverseFunctional(scalar_ode_system, 0.5, 6.0, step=0.125)
        assert V(HistorySegment.zero(1, 1.0)) == 0.0

    def test_scalar_ode_closed_form(self, scalar_ode_system):
        # |z(t)| e^{0.5 t} = |phi(0)| e^{-0.5 t}: sup attained at t = 0
        V = ConverseFunctional(scalar_ode_system, 0.5, 6.0, step=0.125)
        from haleform import sample_history

        for seed in range(6):
            phi = sample_history(1, 1.0, 1.0, seed % 4, seed)
            assert V(phi) == pytest.approx(abs(phi.eval(0.0)[0]), rel=1e-9)

    def test_lower_bound_by_dop_norm_exact(self, neutral_system):
        from haleform import dop_apply, sample_history

        ges = estimate_ges(neutral_system, 12, 12.0, step=0.125, seed=8)
        V = construct_converse_ges(neutral_system, ges.lam / 2.0, ges=ges, step=0.125)
        for seed in range(8):
            phi = sample_history(1, 1.0, 1.0, seed % 4, seed + 50)
            assert V(phi) >= float(np.linalg.norm(dop_apply(neutral_system.dop, phi)))

    def test_horizon_rule(self):
        from haleform import GesEstimate

        ges = GesEstimate(M=2.0, lam=1.0, fit_residual=0.0, trajectories_used=5, is_ges=True)
        t = converse_horizon(ges, 0.5)
        assert t == pytest.approx((np.log(2.0) + 2.0) / 0.5)
        with pytest.raises(PreconditionError):
            converse_horizon(ges, 1.5)

    @pytest.mark.parametrize("rate", [0.0, 1.0, 1.5])
    def test_construct_refuses_a_rate_outside_zero_to_lambda(self, scalar_ode_system, rate):
        from haleform import GesEstimate

        ges = GesEstimate(M=2.0, lam=1.0, fit_residual=0.0, trajectories_used=5, is_ges=True)
        with pytest.raises(PreconditionError, match=r"rate must lie in \(0, 1.0\)"):
            construct_converse_ges(scalar_ode_system, rate, horizon=50.0, ges=ges)

    def test_blowup_evaluation_raises(self, unstable_system, unit_history):
        from haleform import EvaluationBlowupError, StepPolicy

        V = ConverseFunctional(unstable_system, 0.1, 40.0,
                               step=StepPolicy(0.125, blowup_bound=1e3))
        with pytest.raises(EvaluationBlowupError):
            V(unit_history)


class TestLipschitz:
    def test_linear_map_constants(self, input_system):
        est = estimate_lipschitz(input_system.rhs, 1.0, 1.0, samples=60, seed=13)
        assert 0.95 <= est.L0 <= 1.0 + 1e-12
        assert 0.95 <= est.linear_slope <= 1.0 + 1e-12

    def test_zero_rhs(self):
        rhs = RhsMap(n=1, m=1, terms=())
        est = estimate_lipschitz(rhs, 1.0, 1.0, samples=30, seed=14)
        assert est.L0 == 0.0
        assert est.linear_slope == 0.0
        assert est.input_gain(1.0) <= 1e-6

    def test_saturated_input_envelope(self):
        rhs = RhsMap(
            n=1, m=1,
            terms=(LinearTerm(0.0, [[-1.0]]), InputTerm([[1.0]], fn="saturation")),
        )
        est = estimate_lipschitz(rhs, 1.0, 3.0, samples=150, seed=15)
        for s in np.linspace(0.1, 2.8, 12):
            true = min(s, 1.0)
            assert est.input_gain(s) == pytest.approx(true, rel=0.05, abs=0.02)

    def test_zero_input_bound_samples_no_input(self, input_system):
        """Every sampled |u| would be 0, one point, too few for an envelope."""
        est = estimate_lipschitz(input_system.rhs, 1.0, input_bound=0.0, samples=20, seed=13)
        assert est.input_gain is None and est.linear_slope == 0.0
        assert est.L0 == estimate_lipschitz(input_system.rhs, 1.0, 1.0, samples=20, seed=13).L0


    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_is_refused(self, input_system, samples):
        """No pair gives no quotient: a vacuous L0 = 0 is refused by name,
        also where `iss_probe` passes its `lipschitz_samples` on."""
        with pytest.raises(PreconditionError, match="samples must be at least 1"):
            estimate_lipschitz(input_system.rhs, 1.0, 1.0, samples=samples)
        ics = sample_shells(1, 1.0, 1, seed=3, shells=(1.0,))
        with pytest.raises(PreconditionError, match="samples must be at least 1"):
            iss_probe(input_system, ics, [InputSignal.zero(1)], horizon=4.0, step=0.125,
                      lipschitz_samples=samples)


class TestIssProbe:
    @pytest.fixture()
    def probe_result(self, input_system):
        ics = sample_shells(1, 1.0, 10, seed=16, shells=(0.1, 1.0))
        signals = [InputSignal.zero(1)] + [
            InputSignal.constant([c]) for c in (0.25, -0.5, 1.0, -1.0)
        ]
        return iss_probe(input_system, ics, signals, horizon=10.0, step=0.125, seed=16)

    def test_linear_gain_near_unity(self, probe_result):
        assert probe_result.gamma_form == "linear"
        assert 0.95 <= probe_result.gamma_slope <= 1.1

    def test_zero_violations(self, probe_result):
        assert probe_result.violations == 0
        assert probe_result.is_iss

    def test_lipschitz_hypotheses_reported(self, probe_result):
        assert 0.95 <= probe_result.L0 <= 1.0 + 1e-12

    def test_beta_is_kl_bound(self, probe_result):
        beta = probe_result.beta
        assert beta(0.0, 1.0) == 0.0
        assert beta(1.0, 0.0) >= 1.0  # M >= 1
        assert beta(1.0, 10.0) < beta(1.0, 0.0)

    def test_requires_input_channel(self, scalar_ode_system):
        with pytest.raises(PreconditionError):
            iss_probe(scalar_ode_system, [], [], 5.0)

    def test_zero_amplitude_probes(self, input_system):
        est = iss_probe(input_system, [HistorySegment.constant([0.5], 1.0)], [InputSignal.zero(1)],
                        horizon=2.0, step=0.125)
        assert est.input_gain is None
        assert est.is_iss and est.violations == 0 and est.probes == 1

    def test_sinusoid_probes_hold(self, input_system):
        ics = sample_shells(1, 1.0, 6, seed=17, shells=(0.5,))
        signals = [InputSignal.sinusoid([1.0], omega=2.0)]
        est = iss_probe(input_system, ics, signals, horizon=8.0, step=0.125, seed=17)
        assert est.violations == 0


def _input_system(*terms):
    """x' = -x + the given terms, an input among them."""
    rhs = RhsMap(n=1, m=1, terms=(LinearTerm(0.0, [[-1.0]]), *terms))
    return NfdeSystem(DifferenceOperator([1.0], [[[0.0]]]), rhs)


def _saturated_input(gain: float, width: float) -> InputTerm:
    """gain g(u), with g a table that rises from 0 to 1 over |u| <= width and holds 1
    past it, so an input of size width already gives a response of size gain."""
    return InputTerm([[gain]], "table", {"x": [-width, 0.0, width], "y": [-1.0, 0.0, 1.0]})


class TestIssExits:
    ICS = sample_shells(1, 1.0, 2, seed=3, shells=(0.1, 0.5))

    def probe(self, system, amplitudes, step=0.125):
        signals = [InputSignal.zero(1)] + [InputSignal.constant([a]) for a in amplitudes]
        return iss_probe(system, self.ICS, signals, horizon=4.0, step=step, lipschitz_samples=2)

    def test_power_law_gain_past_the_linear_cap(self):
        """A response of about 1 to an input of 1e-7 puts the linear gain near 1e7,
        past the cap; c s^(1/2) covers every probe with c about 3.1e3."""
        est = self.probe(_input_system(_saturated_input(1.0, 1e-9)), [1e-7, 1.0])
        assert est.gamma_form == "power" and est.gamma_slope is None
        assert est.gamma.params["q"] == 0.5 and 1e3 < est.gamma.params["c"] <= certify._SLOPE_CAP
        assert est.is_iss and est.violations == 0 and est.counterexample is None

    def test_no_power_law_below_the_cap_is_not_iss(self):
        """A response of about 100 to an input of 1e-11 needs c above the cap for every q."""
        est = self.probe(_input_system(_saturated_input(100.0, 1e-14)), [1e-11, 1.0])
        assert (est.gamma, est.gamma_slope, est.gamma_form) == (None, None, "none")
        assert not est.is_iss and est.violations == est.probes == 12  # 4 histories, 3 signals
        xi0, sig = est.counterexample
        assert xi0 in self.ICS and sig.kind == "constant"

    def test_an_input_below_the_fit_floor_is_a_violation(self):
        """An input of 1e-13 is below the 1e-12 floor of the gain fit, so its response
        of about 100 is left out of the linear gain and then violates the bound."""
        est = self.probe(_input_system(_saturated_input(100.0, 1e-14)), [1e-13, 1.0])
        assert est.gamma_form == "linear" and 90.0 < est.gamma_slope < 110.0
        assert not est.is_iss and est.violations > 0
        assert float(est.counterexample[1].sup_norm(1.0)) == 1e-13

    def test_an_escape_under_input_is_not_iss(self):
        """With x' = -x + x^3 + u the zero-input runs decay, but u = 2 drives x past the
        blowup bound: the probe stops at the first escape."""
        system = _input_system(NonlinearTerm(0.0, "cubic", [[1.0]]), InputTerm([[1.0]]))
        est = self.probe(system, [2.0], step=StepPolicy(0.125, blowup_bound=10.0))
        assert est.ges.is_ges and not est.is_iss
        assert (est.gamma, est.gamma_form, est.violations, est.probes) == (None, "none", 1, 2)
        assert est.counterexample[0] is self.ICS[0] and est.counterexample[1].kind == "constant"


class TestBandSemantics:
    def test_band_straddling_counts_inconclusive_not_violation(self, scalar_ode_system):
        # alpha3 = 2 s^2 makes the derivative condition an equality up to the
        # ladder band, so samples straddle the threshold instead of violating
        V = QuadraticDopFunctional(scalar_ode_system.dop, [[1.0]])
        constants = CertificateConstants(
            "gas",
            alpha1=ComparisonFunction.power(0.5, 2.0),
            alpha2=ComparisonFunction.power(2.0, 2.0),
            alpha3=ComparisonFunction.power(2.0, 2.0, kind="K"),
        )
        samples = sample_shells(1, 1.0, 15, seed=40)
        report = verify_gas_conditions(scalar_ode_system, V, constants, samples, LADDER)
        assert report.stats("derivative").violations == 0
        assert report.stats("derivative").inconclusive > 0

    def test_sup_norm_functional_derivative_runs(self, scalar_ode_system):
        from haleform import SupNormFunctional, driver_derivative, sample_history

        V = SupNormFunctional(1.0)
        for seed in (1, 5):
            phi = sample_history(1, 1.0, 1.0, 3, seed)
            est = driver_derivative(scalar_ode_system, V, phi, ladder=LADDER)
            assert np.isfinite(est.value)
            assert est.error_band >= 0.0


class TestComparisonLemma:
    def test_decay_rate_transfers_to_trajectories(self, scalar_ode_system):
        """A passing derivative condition with rate a3 forces
        V(x_t) <= V(x_0) exp(-a3 t (1 - tol)) along trajectories."""
        from haleform import integrate, sample_history, segment

        V = QuadraticDopFunctional(scalar_ode_system.dop, [[1.0]])
        fit = fit_constants(
            scalar_ode_system, V, "ges",
            sample_shells(1, 1.0, 30, seed=41), LADDER, headroom=0.0,
        )
        assert fit.ok and fit.report.violations == 0
        a3 = fit.constants.a3
        xi0 = sample_history(1, 1.0, 1.0, 2, seed=42)
        traj = integrate(scalar_ode_system, xi0, 4.0, step=0.02)
        v0 = V(xi0)
        tol = 0.02
        for t in (0.5, 1.0, 2.0, 3.5):
            vt = V(segment(traj, t))
            assert vt <= v0 * np.exp(-a3 * t * (1.0 - tol)) + 1e-12


@pytest.mark.parametrize("per_shell", [0, -2])
def test_sample_shells_refuses_fewer_than_one_history_per_shell(per_shell):
    with pytest.raises(PreconditionError, match="per_shell must be at least 1"):
        sample_shells(1, 1.0, per_shell, 3)
    assert len(sample_shells(1, 1.0, 1, 3, shells=(0.1, 1.0, 2.0))) == 3


@pytest.mark.parametrize("variant, valid", [
    ("gas", dict(alpha1=ComparisonFunction.linear(0.5), alpha2=ComparisonFunction.linear(2.0),
                 alpha3=ComparisonFunction.linear(0.1, kind="K"))),
    ("ges", dict(a1=0.5, a2=2.0, a3=0.1)),
    ("ges-seminorm", dict(a1=0.5, a2=2.0, a3=0.1, a4=1.0, seminorm=EndpointSemiNorm())),
])
def test_constants_check_every_constant_their_conditions_name(variant, valid):
    CertificateConstants(variant, **valid)
    if "seminorm" in valid:
        with pytest.raises(PreconditionError, match="semi-norm"):
            CertificateConstants(variant, **{**valid, "seminorm": None})
    for name in (k for k in valid if k != "seminorm"):
        with pytest.raises(PreconditionError, match=name):
            CertificateConstants(variant, **{**valid, name: None})
        if variant != "gas":
            with pytest.raises(PreconditionError, match=f"positive {name}"):
                CertificateConstants(variant, **{**valid, name: 0.0})
        elif name != "alpha3":  # the bounds are class K-infinity, the decay may be class K
            with pytest.raises(PreconditionError, match=name):
                k_only = ComparisonFunction.linear(1.0, kind="K")
                CertificateConstants(variant, **{**valid, name: k_only})


def test_sample_shells_and_estimate_ges_refuse_no_shells(scalar_ode_system):
    with pytest.raises(PreconditionError, match="no shells"):
        sample_shells(1, 1.0, 3, 0, shells=())
    with pytest.raises(PreconditionError, match="no shells"):
        estimate_ges(scalar_ode_system, 4, horizon=4.0, step=0.125, shells=())


def test_estimate_ges_and_iss_probe_refuse_empty_samples(input_system):
    """No verdict from zero trajectories: each empty argument is named."""
    ics = sample_shells(1, 1.0, 1, seed=3, shells=(1.0,))
    with pytest.raises(PreconditionError, match="seeds"):
        estimate_ges(input_system, [], 4.0, step=0.125)
    with pytest.raises(PreconditionError, match="initial_histories"):
        iss_probe(input_system, [], [InputSignal.zero(1)], horizon=4.0, step=0.125)
    with pytest.raises(PreconditionError, match="input_signals"):
        iss_probe(input_system, ics, [], horizon=4.0, step=0.125)


def test_iss_probe_integrates_the_zero_input_batch_once(input_system):
    """A zero signal among the probes is the zero-input batch of the GES estimate."""
    ics = sample_shells(1, 1.0, 2, seed=3, shells=(0.1, 1.0))
    signals = [InputSignal.zero(1), InputSignal.constant([0.5])]
    loops = []
    advance = integrate_module._advance

    def counted(system, store, *args):
        loops.append(store.shape[0])
        return advance(system, store, *args)

    with mock.patch.object(integrate_module, "_advance", counted):
        est = iss_probe(input_system, ics, signals, horizon=4.0, step=0.125, seed=3)
    assert loops == [8]  # 4 histories under each signal; the zero signal's runs are the zero-input runs
    assert est.ges == estimate_ges(input_system, ics, 4.0, step=0.125)
    assert est.is_iss


def test_iss_probe_and_estimate_ges_take_each_sample_sup_once(input_system):
    """The sup of every initial history comes from one `_hermite_sups` call per sample
    list, linear histories taking their largest node, each equal to its `sup_norm`. The
    fitted M's envelope solve runs at the fitted rate, and the Lipschitz estimate's one
    sample takes one `sup_norm_diff`."""
    ics = [sample_history(1, 1.0, 1.0, 1 + k % 4, 40 + k) for k in range(5)]
    ics.append(HistorySegment(1.0, ics[0].grid, ics[0].values, "linear"))
    histories_module, calls = sys.modules["haleform.histories"], []
    hermite_sups = histories_module._hermite_sups

    def spy(times, values, right, left, owners=None, rate=0.0):
        calls.append(rate)
        return hermite_sups(times, values, right, left, owners, rate)

    with mock.patch.object(histories_module, "_hermite_sups", spy), mock.patch.object(certify, "_hermite_sups", spy):
        est = iss_probe(input_system, ics, [InputSignal.zero(1), InputSignal.constant([0.5])],
                        horizon=4.0, step=0.125, lipschitz_samples=1, seed=3)
        assert est.ges.is_ges and calls.count(0.0) == 2
        calls.clear()
        assert estimate_ges(input_system, ics, 4.0, step=0.125).is_ges and calls.count(0.0) == 1
    assert certify._sup_norms(ics).tolist() == [phi.sup_norm() for phi in ics]


def test_fit_takes_every_sample_sup_in_one_call(neutral_system):
    """A fit's rows take their sup norms together: 9 samples make one `_hermite_sups`
    call (a closed-form functional makes no other), each sup equal to its `sup_norm`."""
    samples = sample_shells(1, 1.0, 3, seed=5)
    V = QuadraticDopFunctional(neutral_system.dop, [[1.0]])
    histories_module, calls = sys.modules["haleform.histories"], []
    hermite_sups = histories_module._hermite_sups

    def spy(*args):
        calls.append(len(args))
        return hermite_sups(*args)

    with mock.patch.object(histories_module, "_hermite_sups", spy), mock.patch.object(certify, "_hermite_sups", spy):
        fit = fit_constants(neutral_system, V, "ges", samples, LadderSpec(levels=6))
    assert len(samples) == 9 and len(calls) == 1
    assert [m["sup"] for m in fit.report.margins] == [phi.sup_norm() for phi in samples]


def _planar():
    dop = DifferenceOperator(delays=[0.7], matrices=[[[0.3, 0.1], [0.0, 0.2]]])
    rhs = RhsMap(n=2, terms=(
        LinearTerm(0.0, [[-1.0, 0.2], [0.0, -0.8]]),
        LinearTerm(0.5, [[0.1, 0.0], [-0.05, 0.1]]),
    ))
    return NfdeSystem(dop, rhs, delta=0.7)


def _neutral():
    dop = DifferenceOperator(delays=[1.0], matrices=[[[0.5]]])
    return NfdeSystem(dop, RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.0]]),)))


def test_gas_and_ges_fits_leave_out_the_same_straddling_rows():
    """A derivative row whose band straddles 0 enters neither fit's decay cloud;
    the gas fit used to fail on it while the ges fit left it out."""
    system = _planar()
    V = QuadraticDopFunctional(system.dop, np.eye(2))
    samples = sample_shells(2, 0.7, 4, 0)
    fits = [
        fit_constants(system, V, variant, samples, LadderSpec(levels=6), headroom=0.02)
        for variant in ("gas", "ges")
    ]
    assert all(fit.ok for fit in fits)
    margins = fits[1].report.margins
    assert any(m["D+V"] + m["band"] >= 0.0 and m["|Dphi|"] > 1e-8 for m in margins)
    gas, ges = ([(c.name, c.violations, c.inconclusive) for c in f.report.conditions] for f in fits)
    assert gas == ges


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    variant=st.sampled_from(["gas", "ges", "ges-seminorm/dop", "ges-seminorm/endpoint"]),
    planar=st.booleans(),
    quadratic=st.booleans(),
    seed=st.integers(0, 200),
    headroom=st.sampled_from([0.0, 0.01, 0.05]),
)
def test_no_fitting_row_fails_its_own_condition(variant, planar, quadratic, seed, headroom):
    """Every row that entered a constant's cloud passes that constant's
    condition definitely: no violation and no inconclusive band."""
    system = _planar() if planar else _neutral()
    V = DopNormFunctional(system.dop)
    if quadratic:
        V = QuadraticDopFunctional(system.dop, np.eye(system.n))
    variant, _, kind = variant.partition("/")
    seminorm = {"dop": DopSemiNorm(system.dop), "endpoint": EndpointSemiNorm(), "": None}[kind]
    samples = sample_shells(system.n, system.delta, 3, seed)
    ladder = LadderSpec(levels=6)
    fit = fit_constants(system, V, variant, samples, ladder, seminorm=seminorm, headroom=headroom)
    if not fit.ok:
        return
    cols = certify._Columns(system, V, samples, ladder, seminorm)
    for condition in certify._CONDITIONS[variant]:
        _, _, scale, value, side = condition
        for k in range(len(samples)):
            entered = getattr(cols, scale)[k] > certify._DOP_NORM_FLOOR
            if side == "decay":
                entered &= getattr(cols, value)[k].value + getattr(cols, value)[k].error_band < 0.0
            if entered:
                lhs, rhs, band = certify._sides(condition, cols, k, fit.constants)
                assert not certify._exceeds(lhs, rhs, -band), (condition, lhs, rhs, band)


@pytest.mark.parametrize("ladder", [LadderSpec(levels=6), None])
@pytest.mark.parametrize("planar", [True, False])
def test_columns_of_a_list_are_those_of_each_sample_alone(planar, ladder):
    """Every column of a sample list's record holds, bit for bit, what a record
    of that sample alone holds: |D phi|, the sup norm, a weighted semi-norm, V
    and, with a ladder, D+V; without one, V is one `V.many` and no ladder runs.
    V and the semi-norm are point functionals, so V's ladder builds no rung."""
    from haleform import WeightedCompositeFunctional, WeightedSemiNorm
    from haleform import functionals

    system = _planar() if planar else _neutral()
    V = WeightedCompositeFunctional(
        [QuadraticDopFunctional(system.dop, np.eye(system.n)), DopNormFunctional(system.dop)], [1.0, 0.5])
    seminorm = WeightedSemiNorm([EndpointSemiNorm(), DopSemiNorm(system.dop)], [1.0, 2.0])
    samples = sample_shells(system.n, system.delta, 3, 7)
    together = certify._Columns(system, V, samples, ladder, seminorm)
    with mock.patch.object(functionals, "_extensions", wraps=functionals._extensions) as rungs:
        if ladder is not None:
            assert len(together.est) == len(samples)
    assert rungs.call_count == 0
    names = ["dnorm", "sup", "anorm", "v"]
    for k, phi in enumerate(samples):
        alone = certify._Columns(system, V, [phi], ladder, seminorm)
        for name in names:
            assert np.array(getattr(together, name)[k]).tobytes() == np.array(getattr(alone, name)[0]).tobytes()
        if ladder is not None:
            a, b = together.est[k], alone.est[0]
            assert (a.value, a.error_band, a.v0, a.nonsmooth) == (b.value, b.error_band, b.v0, b.nonsmooth)
            assert a.quotients.tobytes() == b.quotients.tobytes()
    assert ("est" in vars(together)) is (ladder is not None)


def _lipschitz_one_at_a_time(rhs, bound, input_bound, samples, seed, delta):
    """`estimate_lipschitz` as a loop over its samples: one draw, one sup of a
    difference and one f at a time, the reference of its batched pass."""
    from haleform import rhs_eval, sup_norm_diff

    rng = np.random.default_rng(seed)
    n, m = rhs.n, rhs.m
    u0 = np.zeros(m) if m > 0 else None
    l0, pairs = 0.0, 0
    for k in range(samples):
        phi1 = sample_history(n, delta, bound, k % 5, seed * 1009 + 2 * k)
        if k % 2 == 0:
            phi2 = sample_history(n, delta, bound, (k + 2) % 5, seed * 1009 + 2 * k + 1)
        else:
            center = 0.0 if k % 4 == 1 else float(rng.uniform(-delta, 0.0))
            width = delta * rng.uniform(0.05, 0.2)
            direction = rng.standard_normal(n)
            direction /= max(np.linalg.norm(direction), 1e-300)
            grid = np.union1d(phi1.grid, np.clip(center + width * np.linspace(-3, 3, 13), -delta, 0.0))
            bump = 0.2 * bound * np.exp(-(((grid - center) / width) ** 2))
            phi2 = HistorySegment(delta, grid, phi1.eval(grid) + np.outer(bump, direction))
        gap = sup_norm_diff(phi1, phi2)
        if gap < 1e-9:
            continue
        l0 = max(l0, float(np.linalg.norm(rhs_eval(rhs, phi1, u0) - rhs_eval(rhs, phi2, u0))) / gap)
        pairs += 1
    if m == 0 or input_bound == 0.0:
        return l0, None, 0.0, pairs
    us, gaps, slope = [0.0], [0.0], 0.0
    for k in range(samples):
        phi = sample_history(n, delta, bound, k % 5, seed * 2027 + k)
        u = rng.standard_normal(m)
        u *= input_bound * rng.uniform(0.05, 1.0) / max(np.linalg.norm(u), 1e-300)
        mag_u = float(np.linalg.norm(u))
        mag_d = float(np.linalg.norm(rhs_eval(rhs, phi, u) - rhs_eval(rhs, phi, u0)))
        us.append(mag_u)
        gaps.append(mag_d)
        if mag_u > 1e-12:
            slope = max(slope, mag_d / mag_u)
    return l0, certify.monotone_envelope(np.asarray(us), np.asarray(gaps), "upper"), slope, pairs


@pytest.mark.parametrize("name", ["neutral", "planar", "cubic", "two_delay", "distributed", "input", "saturated"])
def test_estimate_lipschitz_equals_its_loop(name):
    """One draw, one `_hermite_sups` call and one batched f give the loop's constants
    bitwise, the input gain's envelope too, on the golden systems."""
    from test_golden import _systems

    systems = {key: system for key, (system, _) in _systems().items()}
    systems["saturated"] = _input_system(_saturated_input(2.0, 0.3))
    system = systems[name]
    for seed, samples, input_bound in ((0, 1, 1.0), (3, 8, 0.7), (11, 13, 0.0)):
        est = estimate_lipschitz(system.rhs, 1.5, input_bound, samples=samples, seed=seed, delta=system.delta)
        l0, gain, slope, pairs = _lipschitz_one_at_a_time(system.rhs, 1.5, input_bound, samples, seed, system.delta)
        assert (est.L0, est.linear_slope, est.pairs_used) == (l0, slope, pairs)
        assert type(est.L0) is float and type(est.linear_slope) is float
        if gain is None:
            assert est.input_gain is None
        else:
            assert [np.asarray(est.input_gain.params[key]).tobytes() for key in ("x", "y")] == \
                [np.asarray(gain.params[key]).tobytes() for key in ("x", "y")]


def _count_batches():
    """Spy certify's integrate_batch: the batch widths, in order."""
    widths = []

    def spy(system, histories, *args, **kwargs):
        histories = list(histories)
        widths.append(len(histories))
        return integrate_batch(system, histories, *args, **kwargs)

    return widths, mock.patch.object(certify, "integrate_batch", spy)


def test_iss_probe_integrates_every_probe_in_one_batch(input_system):
    """Three histories under a zero signal, a switching one and a table: one batch of
    9; without a zero signal among the probes, the zero-input runs join the batch."""
    ics = sample_shells(1, 1.0, 3, seed=5, shells=(0.5,))
    switching = InputSignal.piecewise_constant([0.0, 0.8, 2.5], [[0.3], [-0.6], [0.2]])
    table = InputSignal.from_table([0.0, 1.0, 2.0, 4.0], [[0.1], [-0.4], [0.5], [0.0]])
    widths, spy = _count_batches()
    with spy:
        est = iss_probe(input_system, ics, [InputSignal.zero(1), switching, table], horizon=4.0, step=0.125,
                        lipschitz_samples=3, seed=2)
        assert widths == [9] and est.probes == 9 and est.is_iss
        widths.clear()
        est = iss_probe(input_system, ics, [switching, table], horizon=4.0, step=0.125, lipschitz_samples=3, seed=2)
        assert widths == [9] and est.probes == 6 and est.is_iss


def test_check_uniform_attraction_integrates_once(input_system):
    widths, spy = _count_batches()
    with spy:
        res = check_uniform_attraction(input_system, 1.0, 0.05, samples=6, horizon=10.0, step=0.125, seed=4)
    assert widths == [6 + 7 * 4] and res.status == "settled"


@pytest.mark.parametrize("seed", [-1, -3])
def test_a_negative_seed_is_refused_by_name(input_system, seed):
    """`numpy.random.default_rng` takes no negative seed: each entry point refuses it
    as a precondition, naming `seed`, where it would raise a bare ValueError."""
    ics = sample_shells(1, 1.0, 2, seed=3, shells=(0.5,))
    calls = [
        lambda: estimate_lipschitz(input_system.rhs, 1.0, 1.0, samples=4, seed=seed),
        lambda: iss_probe(input_system, ics, [InputSignal.zero(1)], horizon=2.0, step=0.125, seed=seed),
        lambda: check_uniform_attraction(input_system, 1.0, 0.05, samples=4, horizon=2.0, step=0.125, seed=seed),
        lambda: estimate_ges(input_system, 4, horizon=2.0, step=0.125, seed=seed),
        lambda: sample_shells(1, 1.0, 3, seed=seed),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match="seed must be non-negative"):
            call()
