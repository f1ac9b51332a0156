import contextlib
import hashlib
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import _systems

from haleform import functionals
from haleform.serialization import functional_from_dict
from haleform import (
    DifferenceOperator,
    DistributedTerm,
    DopNormFunctional,
    DopSemiNorm,
    EndpointSemiNorm,
    Functional,
    HistorySegment,
    InputTerm,
    IntegralQuadraticFunctional,
    L2SemiNorm,
    LadderSpec,
    LinearTerm,
    NfdeSystem,
    NonlinearTerm,
    PreconditionError,
    QuadraticDopFunctional,
    RhsMap,
    SupNormFunctional,
    WeightedCompositeFunctional,
    WeightedSemiNorm,
    dop_apply,
    driver_derivative,
    integrate,
    phi_h_extend,
    rhs_eval,
    sample_history,
    sup_norm_diff,
    trajectory_consistency,
    trajectory_grid,
)
from haleform.histories import CUBIC, LINEAR

histories_module = sys.modules["haleform.histories"]
operators_module = sys.modules["haleform.operators"]


class TestPhiHExtend:
    def test_shift_and_hold_for_trivial_operator(self, scalar_ode_system):
        # all A_j = 0 and f = 0 history: phi_h(s) = phi(s+h) then hold phi(0)
        rhs0 = RhsMap(n=1, terms=(LinearTerm(0.0, [[0.0]]),))
        system = NfdeSystem(scalar_ode_system.dop, rhs0)
        phi = sample_history(1, 1.0, 1.0, 3, seed=6)
        h = 0.125
        ph = phi_h_extend(system, phi, h)
        for s in np.linspace(-1.0, -h, 23):
            assert np.allclose(ph.eval(float(s)), phi.eval(float(s) + h), atol=1e-12)
        for s in np.linspace(-h, 0.0, 9):
            assert np.allclose(ph.eval(float(s)), phi.eval(0.0), atol=1e-12)

    def test_hand_evaluated_neutral_extension(self, neutral_system, unit_history):
        # phi = 1, h = 0.1: on (-h, 0] the extension is 1 - (s + 0.1)
        ph = phi_h_extend(neutral_system, unit_history, 0.1)
        assert ph.eval(0.0)[0] == pytest.approx(0.9, abs=1e-14)
        for s in (-0.08, -0.05, -0.02):
            assert ph.eval(s)[0] == pytest.approx(1.0 - (s + 0.1), abs=1e-12)
        assert ph.eval(-0.1)[0] == pytest.approx(1.0, abs=1e-14)

    def test_continuity_at_junction(self, neutral_system):
        rng = np.random.default_rng(0)
        for k in range(100):
            phi = sample_history(1, 1.0, 1.0, k % 5, seed=k)
            h = float(rng.uniform(1e-3, 0.9))
            ph = phi_h_extend(neutral_system, phi, h)
            eps = 1e-12
            gap = abs(ph.eval(-h + eps)[0] - ph.eval(-h - eps)[0])
            assert gap <= 1e-9

    def test_operator_identity_on_extension(self, neutral_system):
        # D phi_h = D phi + h f(phi) exactly (delay nodes are in the new grid)
        for seed in range(10):
            phi = sample_history(1, 1.0, 1.0, 3, seed=seed)
            h = 0.0625
            ph = phi_h_extend(neutral_system, phi, h)
            lhs = dop_apply(neutral_system.dop, ph)
            rhs_v = dop_apply(neutral_system.dop, phi) + h * rhs_eval(
                neutral_system.rhs, phi
            )
            assert np.allclose(lhs, rhs_v, atol=1e-14)

    def test_h_bounds(self, neutral_system, unit_history):
        with pytest.raises(PreconditionError):
            phi_h_extend(neutral_system, unit_history, 1.0)
        with pytest.raises(PreconditionError):
            phi_h_extend(neutral_system, unit_history, 0.0)

    def test_extension_converges_to_history(self, neutral_system):
        phi = sample_history(1, 1.0, 1.0, 2, seed=12)
        sups = []
        ladder = [0.2, 0.1, 0.05, 0.025]
        for h in ladder:
            sups.append(sup_norm_diff(phi_h_extend(neutral_system, phi, h), phi))
        for a, b in zip(sups, sups[1:]):
            assert b <= 0.7 * a + 1e-12
        assert sups[-1] <= 0.2


def _rung_histories(system):
    """A smooth cubic history, a kinked cubic one and a kinked linear one."""
    delta, n = system.delta, system.n
    grid = np.linspace(-delta, 0.0, 9)
    values = np.cos(3.0 * grid[:, None] + np.arange(n)) + np.abs(grid[:, None] + 0.4 * delta)
    kinks = [-0.4 * delta]
    return [
        sample_history(n, delta, 1.0, 3, seed=7),
        HistorySegment(delta, np.union1d(grid, kinks), np.cos(np.union1d(grid, kinks))[:, None]
                       * np.ones(n), kink_times=kinks),
        HistorySegment(delta, grid, values, LINEAR, kink_times=kinks),
    ]


class TestLadderRungs:
    # sha256 of every rung's grid, values, slopes and kinks over the cases of
    # `_rung_digest`; the sliver applies the D-terms as `_apply`'s column fold,
    # so the digest does not depend on the BLAS kernel
    DIGEST = "87dfe3e03a003d973ae9c588edbc815d189d51620289bbfd61c89e3fad418739"

    @staticmethod
    def _rung_digest() -> str:
        digest = hashlib.sha256()
        for system, signal in _systems().values():
            u = None if signal is None else signal.eval(0.3)
            for phi in _rung_histories(system):
                for levels in (3, 5, 8, 12, 14):
                    hs = LadderSpec(levels=levels).steps(system.dop.min_delay)
                    for rung in functionals._extensions(system, [phi], hs, u):
                        slopes = b"linear" if rung.slopes is None else rung.slopes.tobytes()
                        for part in (rung.grid.tobytes(), rung.values.tobytes(), slopes,
                                     rung.kink_times.tobytes()):
                            digest.update(part)
        return digest.hexdigest()

    def test_rungs_are_bitwise_pinned(self):
        """Every rung of the golden systems (the input system under a value
        u), from cubic and linear histories, kinked and not, at five depths."""
        assert self._rung_digest() == self.DIGEST

    def test_rungs_read_phi_once_per_kind(self, planar_system):
        """A levels-14 ladder's 15 rungs of each history of a list read the histories
        through one value read and one slope read of the kernel; D phi and f(phi) are
        computed for all of them with one read each."""
        phis = [sample_history(2, 0.7, 1.0, 1 + k % 4, seed=4 + k) for k in range(3)]
        hs = LadderSpec(levels=14).steps(planar_system.dop.min_delay)
        with _count_reads() as reads:
            rungs = functionals._extensions(planar_system, phis, hs, None)
        assert len(rungs) == 45
        assert [(histories is phis, kind) for histories, kind in reads] == [(True, 0)] * 3 + [(True, 1)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 4), st.booleans(), st.integers(0, 2**31))
    @example(1, 1, 3, False, 0)
    @example(2, 2, 4, True, 5)
    def test_a_list_gives_each_history_its_own_rungs(self, n, p, count, inputs, seed):
        """`_extensions` on a list gives, history by history, the rungs it gives on each
        history alone, bit for bit: grid, values, slopes and kinks. The histories mix
        linear and cubic, kinked and not, grids of different sizes and horizons a few
        ulps apart; f has rhs delays and, with `inputs`, an input term under a value."""
        rng = np.random.default_rng(seed)
        delays = np.sort(rng.choice([0.3, 0.5, 0.8, 1.0], p, replace=False))
        dop = DifferenceOperator(delays, 0.4 * rng.uniform(-1.0, 1.0, (p, n, n)))
        terms = [LinearTerm(0.0, -np.eye(n)), LinearTerm(0.2, rng.uniform(-0.5, 0.5, (n, n))),
                 NonlinearTerm(float(delays[-1]), "cubic", rng.uniform(-0.5, 0.5, (n, n)))]
        terms += [InputTerm(rng.uniform(-1.0, 1.0, (n, 1)), "saturation", {"limit": 0.5})] if inputs else []
        system = NfdeSystem(dop, RhsMap(n=n, m=int(inputs), terms=tuple(terms)))
        delta, phis = system.delta, []
        for k in range(count):
            d = delta * (1.0 + rng.choice([0.0, 1e-15, -1e-15]))
            grid = np.union1d(rng.uniform(-d, 0.0, rng.integers(0, 12)), [-d, 0.0])
            kinks = np.sort(rng.choice(grid, rng.integers(0, 3), replace=False))
            phis.append(HistorySegment(d, grid, rng.uniform(-1.0, 1.0, (grid.size, n)),
                                       LINEAR if rng.random() < 0.4 else CUBIC, kink_times=kinks))
        hs = LadderSpec(levels=int(rng.integers(3, 9))).steps(system.dop.min_delay)
        u = rng.uniform(-1.0, 1.0, 1) if inputs else None
        together = functionals._extensions(system, phis, hs, u)
        alone = [rung for phi in phis for rung in functionals._extensions(system, [phi], hs, u)]
        assert len(together) == len(alone) == count * hs.size
        for a, b in zip(together, alone):
            assert (a.delta, a.interp, a.slopes is None) == (b.delta, b.interp, b.slopes is None)
            for name in ("grid", "values", "slopes", "kink_times"):
                x, y = getattr(a, name), getattr(b, name)
                assert x is y is None or x.tobytes() == y.tobytes(), name


@contextlib.contextmanager
def _count_reads():
    """Record (histories, kinds) of every call of the one read of a history,
    `histories._read`, from any module."""
    calls, read = [], histories_module._read

    def spy(histories, which, ts, kind):
        calls.append((histories, kind))
        return read(histories, which, ts, kind)

    with contextlib.ExitStack() as stack:
        for module in (histories_module, operators_module, functionals):
            stack.enter_context(mock.patch.object(module, "_read", spy))
        yield calls


class TestOneRead:
    """A point functional's `many` and `sup_norm_diff` read all their histories
    with one call of the read kernel, and give what reads one at a time give."""

    @pytest.mark.parametrize("kind", ["quadratic", "dop-norm", "integral"])
    def test_many_reads_phi_and_its_rungs_at_once(self, planar_system, kind):
        phi = sample_history(2, 0.7, 1.0, 3, seed=4)
        rows = [phi, *functionals._extensions(planar_system, [phi], LadderSpec(levels=14).steps(0.7), None)]
        grid = np.linspace(-0.7, 0.0, 5)
        V = {"quadratic": QuadraticDopFunctional(planar_system.dop, [[2.0, 0.5], [0.5, 1.0]]),
             "dop-norm": DopNormFunctional(planar_system.dop, 1.5),
             "integral": IntegralQuadraticFunctional(planar_system.dop, np.eye(2), grid,
                                                     np.repeat(0.3 * np.eye(2)[None], 5, axis=0))}[kind]
        with _count_reads() as reads:
            values = V.many(rows)
        assert len(reads) == 1 and len(reads[0][0]) == 16
        assert values == [V.many([row])[0] for row in rows]
        if kind != "integral":
            d = [dop_apply(planar_system.dop, row) for row in rows]
            assert np.array_equal([V(row) for row in rows], values)
            assert np.array_equal(np.array(d), functionals._dop_rows(planar_system.dop, rows)[0])

    def test_sup_norm_diff_reads_both_histories_at_once(self):
        phi, psi = sample_history(2, 1.0, 1.0, 3, seed=4), sample_history(2, 1.0, 1.0, 2, seed=5)
        with _count_reads() as reads:
            sup = sup_norm_diff(phi, psi)
        assert len(reads) == 1
        fine = np.linspace(-1.0, 0.0, 2001)
        assert sup >= np.max(np.linalg.norm(phi.eval(fine) - psi.eval(fine), axis=1))


class TestDriverDerivative:
    def test_quadratic_chain_rule_hand_case(self, neutral_system, unit_history):
        V = QuadraticDopFunctional(neutral_system.dop, [[1.0]])
        est = driver_derivative(neutral_system, V, unit_history)
        assert est.value == pytest.approx(-1.0, abs=1e-3)

    def test_constant_functional_gives_exact_zero(self, neutral_system, unit_history):
        class One(Functional):
            kind = "constant"

            def __call__(self, phi):
                return 1.0

        est = driver_derivative(neutral_system, One(), unit_history)
        assert np.all(est.quotients == 0.0)
        assert est.value == 0.0 and est.error_band == 0.0

    def test_norm_directional_derivative(self, neutral_system):
        V = DopNormFunctional(neutral_system.dop, c=2.0)
        for seed in range(10):
            phi = sample_history(1, 1.0, 1.0, 3, seed=100 + seed)
            d = dop_apply(neutral_system.dop, phi)
            if np.linalg.norm(d) < 1e-3:
                continue
            f = rhs_eval(neutral_system.rhs, phi)
            expected = 2.0 * float(d @ f) / float(np.linalg.norm(d))
            est = driver_derivative(neutral_system, V, phi)
            assert abs(est.value - expected) <= 2e-4 + est.error_band

    def test_chain_rule_identity_random(self, neutral_system, planar_system, cubic_system):
        ladder = LadderSpec(levels=14)
        for system in (neutral_system, planar_system, cubic_system):
            P = np.eye(system.n)
            V = QuadraticDopFunctional(system.dop, P)
            for seed in range(15):
                phi = sample_history(system.n, system.delta, 1.0, seed % 5, seed)
                d = dop_apply(system.dop, phi)
                f = rhs_eval(system.rhs, phi)
                expected = 2.0 * float(d @ f)
                est = driver_derivative(system, V, phi, ladder=ladder)
                assert abs(est.value - expected) <= 1e-3 * max(1.0, abs(expected))

    def test_query_applies_d_and_f_once_per_history(self, planar_system):
        """D phi and f(phi) depend on phi alone: a levels-14 query on k histories computes
        them for all with one `_dop_rows` and one `RhsMap.eval` call, and builds all 15 k
        rungs with one read of the histories per kind, whatever k (V here reads nothing)."""
        ladder = LadderSpec(levels=14)
        for k in (1, 3, 12):
            phis = [sample_history(2, 0.7, 1.0, 1 + i % 4, seed=4 + i) for i in range(k)]
            with mock.patch.object(functionals, "_dop_rows", wraps=functionals._dop_rows) as dop_calls, \
                    mock.patch.object(RhsMap, "eval", autospec=True, side_effect=RhsMap.eval) as rhs_calls, \
                    mock.patch.object(functionals, "_read", wraps=functionals._read) as reads:
                ests = functionals.driver_derivatives(planar_system, SupNormFunctional(1.0), phis, ladder=ladder)
            assert [est.quotients.size for est in ests] == [15] * k
            assert (dop_calls.call_count, rhs_calls.call_count) == (1, 1)
            assert sorted(call.args[3] for call in reads.call_args_list) == [0, 1]  # x, and x' from the right

    def test_homogeneity_degree_two(self, neutral_system):
        V = QuadraticDopFunctional(neutral_system.dop, [[1.0]])
        phi = sample_history(1, 1.0, 1.0, 2, seed=3)
        scaled = HistorySegment(1.0, phi.grid, 2.0 * phi.values, phi.interp,
                                2.0 * phi.slopes)
        base = driver_derivative(neutral_system, V, phi)
        big = driver_derivative(neutral_system, V, scaled)
        assert abs(big.value - 4.0 * base.value) <= 4.0 * base.error_band + big.error_band + 1e-9

    def test_ladder_h0_must_stay_below_min_delay(self, neutral_system, unit_history):
        V = DopNormFunctional(neutral_system.dop)
        with pytest.raises(PreconditionError):
            driver_derivative(
                neutral_system, V, unit_history, ladder=LadderSpec(h0=2.0)
            )

    @pytest.mark.parametrize("tail", [1, 0, -1])
    def test_ladder_tail_below_two_is_refused(self, neutral_system, unit_history, tail):
        """A tail of one quotient has no spread to make a band from (its coverage
        h / (h - h) is inf), and a tail of none has no value."""
        V = DopNormFunctional(neutral_system.dop)
        with pytest.raises(PreconditionError, match=f"ladder tail {tail} must be at least 2"):
            driver_derivative(neutral_system, V, unit_history, ladder=LadderSpec(levels=5, tail=tail))


class TestFunctionalKinds:
    def test_quadratic_requires_psd(self, neutral_system):
        with pytest.raises(PreconditionError):
            QuadraticDopFunctional(neutral_system.dop, [[-1.0]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_matrices_are_refused(self, neutral_system, bad):
        """Refused by name before the symmetry test, which would warn on inf - inf."""
        with pytest.raises(PreconditionError, match="P must be finite"):
            QuadraticDopFunctional(neutral_system.dop, [[bad]])
        kernel = np.ones((3, 1, 1))
        kernel[1, 0, 0] = bad
        with pytest.raises(PreconditionError, match=r"Q\[1\] must be finite"):
            IntegralQuadraticFunctional(neutral_system.dop, [[1.0]], [-1.0, -0.5, 0.0], kernel)
        with pytest.raises(PreconditionError, match="P must be finite"):
            functional_from_dict({"kind": "point-quadratic", "P": [[bad]]}, neutral_system)

    def test_integral_quadratic_value(self, neutral_system):
        # V = (D phi)^2 + int_{-1}^{0} phi(s)^2 ds at phi(s) = s + 1:
        # D phi = 1 - 0.5 * 0 = 1; integral of (s+1)^2 over [-1, 0] = 1/3
        grid = np.linspace(-1.0, 0.0, 9)
        phi = HistorySegment(1.0, grid, (grid + 1.0)[:, None])
        kernel_grid = np.linspace(-1.0, 0.0, 5)
        kernel = np.ones((5, 1, 1))
        V = IntegralQuadraticFunctional(neutral_system.dop, [[1.0]], kernel_grid, kernel)
        assert V(phi) == pytest.approx(1.0 + 1.0 / 3.0, abs=1e-10)

    def test_sup_norm_and_weighted(self, neutral_system):
        phi = HistorySegment.constant([2.0], 1.0)
        Vs = SupNormFunctional(1.5)
        assert Vs(phi) == pytest.approx(3.0)
        Vn = DopNormFunctional(neutral_system.dop)
        W = WeightedCompositeFunctional([Vs, Vn], [1.0, 2.0])
        assert W(phi) == pytest.approx(3.0 + 2.0 * 1.0)

    def test_nonnegativity_on_samples(self, neutral_system):
        V = IntegralQuadraticFunctional(
            neutral_system.dop,
            [[0.5]],
            np.linspace(-1.0, 0.0, 5),
            0.3 * np.ones((5, 1, 1)),
        )
        for seed in range(20):
            phi = sample_history(1, 1.0, 2.0, seed % 5, seed)
            assert V(phi) >= 0.0
        assert V(HistorySegment.zero(1, 1.0)) == 0.0

    def test_a_functional_that_implements_neither_call_nor_many_is_refused(self):
        """`Functional.__call__` and `many` are each defined through the other, so a class
        with neither would recurse at its first evaluation: it is refused where it is
        defined. One of the two suffices, and an abstract base may leave both to its own
        subclasses, as `SemiNorm` does."""
        with pytest.raises(TypeError, match="Bare implements neither"):
            class Bare(Functional):
                kind = "bare"
        with pytest.raises(TypeError, match="BareSemiNorm implements neither"):
            class BareSemiNorm(functionals.SemiNorm):
                def domination_constant(self):
                    return 1.0

        class Single(Functional):
            def __call__(self, phi):
                return 2.0

        class Batch(Functional):
            def many(self, phis):
                return [3.0 for _ in phis]

        phi = HistorySegment.constant([1.0], 1.0)
        assert (Single()(phi), Single().many([phi, phi]), Batch()(phi)) == (2.0, [2.0, 2.0], 3.0)
        assert L2SemiNorm(1.0)(phi) == 1.0 and SupNormFunctional(1.0)(phi) == 1.0


class TestSemiNorms:
    def test_kinds_and_domination(self, neutral_system):
        dop_sn = DopSemiNorm(neutral_system.dop)
        end_sn = EndpointSemiNorm()
        l2_sn = L2SemiNorm(1.0)
        weighted = WeightedSemiNorm([dop_sn, end_sn], [0.5, 0.5])
        for seed in range(20):
            phi = sample_history(1, 1.0, 1.0, seed % 5, seed)
            sup = phi.sup_norm()
            for sn in (dop_sn, end_sn, l2_sn, weighted):
                assert sn(phi) <= sn.domination_constant() * sup + 1e-9

    def test_absolute_homogeneity_and_triangle(self, neutral_system):
        sn = DopSemiNorm(neutral_system.dop)
        a = sample_history(1, 1.0, 1.0, 2, seed=1)
        b = HistorySegment(1.0, a.grid, np.cos(2 * a.grid)[:, None])
        ab = HistorySegment(1.0, a.grid, a.values + b.values)
        assert sn(ab) <= sn(a) + sn(b) + 1e-12
        scaled = HistorySegment(1.0, a.grid, -2.5 * a.values, a.interp, -2.5 * a.slopes)
        assert sn(scaled) == pytest.approx(2.5 * sn(a), rel=1e-12)

    def test_l2_integrates_over_its_own_delta(self):
        """On a history longer than delta only [-delta, 0] counts, so the
        domination bound sqrt(delta) sup|phi| holds (and is attained by 1)."""
        phi = HistorySegment.constant([1.0], 1.0)
        sn = L2SemiNorm(0.5)
        assert sn(phi) == pytest.approx(np.sqrt(0.5), rel=1e-14)
        assert sn(phi) <= sn.domination_constant() * phi.sup_norm() * (1 + 1e-14)
        wide = sample_history(1, 1.0, 1.0, 3, seed=9)
        assert L2SemiNorm(2.0)(wide) == L2SemiNorm(1.0)(wide)

    def test_endpoint_attains_domination(self):
        phi = HistorySegment.constant([3.0], 1.0)
        sn = EndpointSemiNorm()
        assert sn(phi) == pytest.approx(sn.domination_constant() * phi.sup_norm())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**31))
    @example(2, 3, 0)
    def test_many_gives_each_history_its_own_value(self, n, count, seed):
        """Every semi-norm kind's `many` on a list gives, bit for bit, what each
        history gives alone, and alone the D-norm and the endpoint give their
        formulas; the histories are linear and cubic, n = 1..3, on grids of
        different sizes, and a weighted semi-norm sits inside another."""
        rng = np.random.default_rng(seed)
        dop = DifferenceOperator([0.5, 1.0], 0.4 * rng.uniform(-1.0, 1.0, (2, n, n)))
        phis = []
        for _ in range(count):
            grid = np.union1d(rng.uniform(-1.0, 0.0, rng.integers(0, 12)), [-1.0, 0.0])
            phis.append(HistorySegment(1.0, grid, rng.uniform(-1.0, 1.0, (grid.size, n)),
                                       LINEAR if rng.random() < 0.4 else CUBIC))
        inner = WeightedSemiNorm([DopSemiNorm(dop), L2SemiNorm(0.6)], [0.5, 2.0])
        outer = WeightedSemiNorm([inner, EndpointSemiNorm()], [0.25, 1.0])
        for sn in (DopSemiNorm(dop), EndpointSemiNorm(), L2SemiNorm(0.6), L2SemiNorm(1.5), inner, outer):
            alone = [sn(phi) for phi in phis]
            assert np.array(sn.many(phis)).tobytes() == np.array(alone).tobytes(), sn.kind
            assert sn.many([]) == []
        for phi in phis:
            assert DopSemiNorm(dop)(phi) == float(np.linalg.norm(dop_apply(dop, phi)))
            assert EndpointSemiNorm()(phi) == float(np.linalg.norm(phi.eval(0.0)))
            assert outer(phi) == 0.25 * inner(phi) + 1.0 * EndpointSemiNorm()(phi)


class TestTrajectoryConsistency:
    def test_zero_rhs_both_sides_vanish(self, unit_history):
        dop = DifferenceOperator([1.0], [[[0.5]]])
        rhs = RhsMap(n=1, terms=(LinearTerm(0.5, [[0.0]]),))
        system = NfdeSystem(dop, rhs)
        traj = integrate(system, unit_history, 3.0, step=0.05)
        V = QuadraticDopFunctional(dop, [[1.0]])
        grid = trajectory_grid(traj, 10)
        res = trajectory_consistency(system, V, traj, grid, 1e-4)
        assert res.max_deviation <= 1e-8

    def test_exponential_case_relative_deviation(self, neutral_system, unit_history):
        traj = integrate(neutral_system, unit_history, 5.0, step=1e-3)
        V = QuadraticDopFunctional(neutral_system.dop, [[1.0]])
        grid = trajectory_grid(traj, 25)
        res = trajectory_consistency(neutral_system, V, traj, grid, 1e-4)
        assert res.max_relative <= 1e-2

    def test_deviation_first_order_in_fd_step(self, neutral_system, unit_history):
        traj = integrate(neutral_system, unit_history, 5.0, step=1e-3)
        V = QuadraticDopFunctional(neutral_system.dop, [[1.0]])
        grid = trajectory_grid(traj, 10)
        d1 = trajectory_consistency(neutral_system, V, traj, grid, 2e-4).max_deviation
        d2 = trajectory_consistency(neutral_system, V, traj, grid, 1e-4).max_deviation
        assert d2 <= 0.7 * d1


class TestOneQuadratureRule:
    """Every integral against a history is the Gauss rule on its panels, so
    each is exact on the linear history phi(s) = 1 + s against K(s) = 1 + s."""

    phi = HistorySegment(1.0, [-1.0, 0.0], [0.0, 1.0], "linear")
    kernel = DistributedTerm([-1.0, 0.0], np.array([0.0, 1.0])[:, None, None])
    system = NfdeSystem(DifferenceOperator([1.0], [[[0.0]]]), RhsMap(n=1, terms=(kernel,)))

    def test_linear_history_integrals_are_exact(self):
        W = IntegralQuadraticFunctional(self.system.dop, [[0.0]], self.kernel.grid, self.kernel.kernel)
        assert abs(rhs_eval(self.system.rhs, self.phi)[0] - 1.0 / 3.0) <= 1e-14
        assert abs(W(self.phi) - 0.25) <= 1e-14
        assert abs(L2SemiNorm(1.0)(self.phi) - np.sqrt(1.0 / 3.0)) <= 1e-14

    def test_knot_zero_agrees_with_the_later_stages(self):
        # f at knot 0 and at every later stage by one rule: the run is fourth order,
        # not first, so a coarse and a fine step agree closely
        ends = [integrate(self.system, self.phi, 0.25, step=h).x_at(0.25)[0] for h in (1 / 16, 1 / 1024)]
        assert abs(ends[0] - ends[1]) <= 1e-5
