import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haleform import (
    DifferenceOperator,
    DimensionError,
    DistributedTerm,
    HistorySegment,
    HorizonError,
    InputTerm,
    LinearTerm,
    NfdeSystem,
    NonlinearTerm,
    PreconditionError,
    RhsMap,
    dop_apply,
    rhs_eval,
    sample_history,
)
from haleform.operators import _PRIMITIVES, _apply, primitive_nonlinearity
from test_batch import SYSTEMS as BATCH_SYSTEMS, TABLE


def ramp_history(delta=1.0, num=9):
    grid = np.linspace(-delta, 0.0, num)
    return HistorySegment(delta, grid, (grid + 1.0)[:, None])


class TestDopApply:
    def test_zero_matrix_is_evaluation_at_zero(self):
        dop = DifferenceOperator([1.0], [[[0.0]]])
        phi = ramp_history()
        assert dop_apply(dop, phi)[0] == pytest.approx(1.0, abs=1e-15)

    def test_scalar_half(self, unit_history):
        dop = DifferenceOperator([1.0], [[[0.5]]])
        assert dop_apply(dop, unit_history)[0] == pytest.approx(0.5, abs=1e-15)

    def test_two_delay_ramp(self):
        # phi(s) = s + 1: 1 - 0.3 * phi(-0.5) - 0.4 * phi(-1) = 1 - 0.15 = 0.85
        dop = DifferenceOperator([0.5, 1.0], [[[0.3]], [[0.4]]])
        phi = ramp_history()
        assert dop_apply(dop, phi)[0] == pytest.approx(0.85, abs=1e-12)

    def test_horizon_mismatch_raises(self):
        dop = DifferenceOperator([2.0], [[[0.5]]])
        with pytest.raises(HorizonError):
            dop_apply(dop, ramp_history(delta=1.0))

    def test_dimension_mismatch_raises(self):
        dop = DifferenceOperator([1.0], [np.eye(2)])
        with pytest.raises(DimensionError):
            dop_apply(dop, ramp_history())

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(-2.0, 2.0, allow_nan=False),
        st.floats(-2.0, 2.0, allow_nan=False),
        st.integers(0, 1000),
    )
    def test_linearity(self, a, b, seed):
        from haleform import sample_history

        dop = DifferenceOperator([0.4, 1.0], [[[0.3]], [[-0.2]]])
        phi = sample_history(1, 1.0, 1.0, 2, seed)
        psi = HistorySegment(1.0, phi.grid, np.sin(3 * phi.grid)[:, None])
        mix = HistorySegment(1.0, phi.grid, a * phi.values + b * psi.values)
        lhs = dop_apply(dop, mix)
        rhs_val = a * dop_apply(dop, phi) + b * dop_apply(dop, psi)
        assert np.allclose(lhs, rhs_val, atol=1e-11)


class TestDifferenceOperator:
    def test_delays_must_be_positive_and_distinct(self):
        with pytest.raises(PreconditionError):
            DifferenceOperator([0.0], [[[0.5]]])
        with pytest.raises(PreconditionError):
            DifferenceOperator([0.5, 0.5], [[[0.1]], [[0.2]]])

    def test_sorted_by_delay(self):
        dop = DifferenceOperator([1.0, 0.25], [[[2.0]], [[3.0]]])
        assert dop.delays[0] == 0.25
        assert dop.matrices[0][0, 0] == 3.0
        assert dop.min_delay == 0.25 and dop.max_delay == 1.0


class TestRhsEval:
    def test_negative_feedback(self, unit_history):
        rhs = RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.0]]),))
        assert rhs_eval(rhs, unit_history)[0] == pytest.approx(-1.0)

    def test_input_term(self):
        rhs = RhsMap(n=1, m=1, terms=(LinearTerm(0.0, [[-1.0]]), InputTerm([[1.0]])))
        zero = HistorySegment.zero(1, 1.0)
        assert rhs_eval(rhs, zero, np.array([2.0]))[0] == pytest.approx(2.0)

    def test_distributed_ramp_integral(self):
        # int_{-1}^{0} phi(s) ds with phi(s) = s equals -1/2
        grid = np.linspace(-1.0, 0.0, 9)
        phi = HistorySegment(1.0, grid, grid[:, None])
        kern = DistributedTerm(np.array([-1.0, 0.0]), np.array([[[1.0]], [[1.0]]]))
        rhs = RhsMap(n=1, terms=(kern,))
        assert rhs_eval(rhs, phi)[0] == pytest.approx(-0.5, abs=1e-12)

    def test_distributed_quadrature_vs_analytic_oscillation(self):
        # kernel K(s) = 1, phi(s) = sin(2 pi s): integral is 0 up to quadrature error
        grid = np.linspace(-1.0, 0.0, 33)
        phi = HistorySegment(1.0, grid, np.sin(2 * np.pi * grid)[:, None])
        kern = DistributedTerm(np.linspace(-1.0, 0.0, 17), np.ones((17, 1, 1)))
        rhs = RhsMap(n=1, terms=(kern,))
        assert abs(rhs_eval(rhs, phi)[0]) < 1e-6

    def test_all_zero_terms_return_zero(self):
        rhs = RhsMap(n=1, terms=(LinearTerm(0.3, [[0.0]]),))
        from haleform import sample_history

        for seed in range(5):
            phi = sample_history(1, 1.0, 2.0, 3, seed)
            assert rhs_eval(rhs, phi)[0] == 0.0

    def test_unknown_nonlinearity_rejected(self):
        with pytest.raises(PreconditionError):
            NonlinearTerm(0.0, "wiggle", [[1.0]])

    def test_nonlinearity_must_vanish_at_zero(self):
        with pytest.raises(PreconditionError):
            NonlinearTerm(0.0, "table", [[1.0]], {"x": [-1.0, 1.0], "y": [0.5, 1.5]})

    def test_saturation_primitive(self):
        rhs = RhsMap(n=1, terms=(NonlinearTerm(0.0, "saturation", [[1.0]]),))
        big = HistorySegment.constant([5.0], 1.0)
        assert rhs_eval(rhs, big)[0] == pytest.approx(1.0)

    def test_dimension_checks(self):
        rhs = RhsMap(n=1, m=1, terms=(LinearTerm(0.0, [[-1.0]]), InputTerm([[1.0]])))
        zero = HistorySegment.zero(1, 1.0)
        with pytest.raises(DimensionError):
            rhs_eval(rhs, zero, np.array([1.0, 2.0]))
        rhs0 = RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.0]]),))
        with pytest.raises(DimensionError):
            rhs_eval(rhs0, zero, np.array([1.0]))

    def test_input_term_requires_m(self):
        with pytest.raises(DimensionError):
            RhsMap(n=1, m=0, terms=(InputTerm([[1.0]]),))


PARAMS = {"saturation": {"limit": 0.5}, "table": TABLE}
# signed zeros, infinities, NaN, subnormals, the cube's overflow (past about 5.6e102) and ordinary values
EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -1e-310, 6e102, -6e102, 1e300, -1e300, 0.5, -1.5]


class TestPrimitives:
    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(_PRIMITIVES)), b=st.integers(1, 4), n=st.integers(1, 3), data=st.data())
    def test_a_float_rounds_as_its_entry_of_an_array(self, name, b, n, data):
        """g on a Python float gives, bit for bit, what g on a (B, n) array gives that entry,
        and what g gives it on a batch's (B,) column: one history's kernel calls g on float
        locals and a batch's on columns, and they must step alike. The cube of a float past
        its overflow is inf, as on an array (a float power would raise OverflowError)."""
        g = primitive_nonlinearity(name, PARAMS.get(name, {}))
        values = data.draw(st.lists(st.one_of(st.sampled_from(EDGES), st.floats()), min_size=b * n, max_size=b * n))
        x = np.array(values).reshape(b, n)
        with np.errstate(all="ignore"):
            rows, columns, alone = g(x), [g(column.copy()) for column in x.T], [g(v) for v in values]
        assert all(isinstance(v, float) for v in alone)
        assert np.array(alone).tobytes() == rows.tobytes() == np.array(columns).T.tobytes()

    def test_the_cube_is_the_product(self):
        """The cube is x * x * x, on arrays and on floats: numpy's x**3 takes its SIMD pow,
        which differs from the product in the last bit on many values (and from numpy's own
        baseline dispatch), and Python's v**3 differs from both."""
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(0.1, 1.5, 20_000), rng.standard_normal(20_000), [-0.0, 0.0, 1e-120]])
        cube = primitive_nonlinearity("cubic", {})
        assert cube(x).tobytes() == (x * x * x).tobytes()
        assert all(cube(v) == v * v * v for v in x[:2000].tolist())


class TestNfdeSystem:
    def test_delta_is_max_delay(self, neutral_system):
        assert neutral_system.delta == 1.0

    def test_zero_fixed_point(self):
        """f(0) = 0, and f(0, 0) = 0 where there is an input, on every batch test system."""
        for system, _ in BATCH_SYSTEMS.values():
            zero = HistorySegment.zero(system.n, system.delta)
            f = rhs_eval(system.rhs, zero, np.zeros(system.m) if system.m else None)
            assert f.shape == (system.n,) and np.all(f == 0.0)

    def test_dimension_agreement(self):
        dop = DifferenceOperator([1.0], [np.eye(2)])
        rhs = RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.0]]),))
        with pytest.raises(DimensionError):
            NfdeSystem(dop, rhs)

    def test_delta_cannot_undercut_delays(self):
        dop = DifferenceOperator([1.0], [[[0.5]]])
        rhs = RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.0]]),))
        with pytest.raises(PreconditionError):
            NfdeSystem(dop, rhs, delta=0.5)

    def test_min_positive_delay_includes_rhs(self):
        dop = DifferenceOperator([1.0], [[[0.5]]])
        rhs = RhsMap(n=1, terms=(LinearTerm(0.25, [[-1.0]]),))
        assert NfdeSystem(dop, rhs).min_positive_delay() == 0.25

    @pytest.mark.parametrize("kind", ["cubic", "saturated-input"])
    def test_systems_with_primitives_pickle(self, cubic_system, kind):
        """Every primitive binds a module function, so a system holding one round-trips
        through pickle, and its copy's f is the original's bit for bit."""
        import pickle

        dop = DifferenceOperator([1.0], [[[0.2]]])
        table = {"x": [-2.0, 0.0, 2.0], "y": [-1.0, 0.0, 0.5]}
        system, u = {
            "cubic": (cubic_system, None),
            "saturated-input": (NfdeSystem(dop, RhsMap(n=1, m=1, terms=(
                NonlinearTerm(0.0, "sine", [[-1.0]]), NonlinearTerm(0.5, "table", [[0.3]], table),
                InputTerm([[1.0]], "saturation", {"limit": 0.5})))), np.array([0.8])),
        }[kind]
        copy = pickle.loads(pickle.dumps(system))
        for seed in range(5):
            phi = sample_history(1, system.delta, 2.0, 1 + seed % 4, seed)
            assert rhs_eval(copy.rhs, phi, u).tobytes() == rhs_eval(system.rhs, phi, u).tobytes()


class TestApply:
    @pytest.mark.parametrize("a", [[[-1.0]], [[-0.5]], [[2.0]]])
    def test_one_by_one_stack_rounds_each_row_as_alone(self, a):
        """Signed zeros included: -1 times a zero row is -0 in one row, and
        must be -0 in a stack too (a stacked matmul would give +0)."""
        a = np.array(a)
        rows = np.array([[0.0], [-0.0], [1.5], [-2.25], [0.0]])
        stacked = _apply(a, rows)
        for k in range(len(rows)):
            for alone in (_apply(a, rows[k : k + 1])[0], _apply(a, rows[k]), a[0, 0] * rows[k]):
                assert stacked[k].tobytes() == alone.tobytes()
        assert np.signbit(_apply(np.array([[-1.0]]), rows))[[0, 4]].all()

    @staticmethod
    def _left_fold(a: list, x: list) -> list:
        """a x on Python floats: entry i is a_i0 x_0 + a_i1 x_1 + ..., left to right."""
        out = []
        for row in a:
            acc = row[0] * x[0]
            for aik, xk in zip(row[1:], x[1:]):
                acc = acc + aik * xk
            out.append(acc)
        return out

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), count=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @example(n=2, count=6, seed=0)
    def test_every_entry_is_the_left_fold_over_columns(self, n, count, seed):
        """Bit for bit, for a single vector, a single row, a stack of rows and a stack of
        matrices with a row each, so that no product rounds through a fused multiply-add
        or depends on the rows around it. Rows of signed zeros keep the fold's signs."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4, (n, n))
        a[rng.random((n, n)) < 0.2] *= 0.0  # signed zeros in the matrix too
        rows = rng.standard_normal((count, n)) * 10.0 ** rng.integers(-3, 4, (count, 1))
        rows[rng.random(count) < 0.3] *= 0.0
        want = np.array([self._left_fold(a.tolist(), row) for row in rows.tolist()])
        assert _apply(a, rows).tobytes() == want.tobytes()
        assert _apply(np.stack([a] * count), rows).tobytes() == want.tobytes()
        assert _apply(a, np.stack([rows, rows])).tobytes() == np.stack([want, want]).tobytes()
        for k in range(count):
            assert _apply(a, rows[k]).tobytes() == want[k].tobytes()
            assert _apply(a, rows[k : k + 1]).tobytes() == want[k : k + 1].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_minus_identity_keeps_a_zero_rows_sign(self, n):
        """-I has -0 off its diagonal, so each entry of -I times a zero row folds -0 terms
        only, and -1 times a zero row stays -0 at every n."""
        rows = np.zeros((3, n))
        assert np.signbit(_apply(-np.eye(n), rows)).all()
        assert not np.signbit(_apply(-np.eye(n), -rows)).any()


def test_evaluations_leave_a_distributed_term_as_built():
    """Evaluating a distributed term, directly or as an integral-quadratic functional's
    kernel, keeps nothing on the term: its attributes read as they did when it was built."""
    from haleform import IntegralQuadraticFunctional

    grid, kernel = np.linspace(-1.0, 0.0, 5), np.linspace(0.1, 0.5, 5)
    term = DistributedTerm(grid, kernel)
    V = IntegralQuadraticFunctional(DifferenceOperator([1.0], [[[0.5]]]), [[1.0]], grid, kernel[:, None, None])
    before = [{key: repr(value) for key, value in vars(t).items()} for t in (term, V._term)]
    for phi in (ramp_history(), ramp_history(num=5), ramp_history()):
        RhsMap(n=1, terms=(term,)).eval([phi])
        V(phi)
    V.many([ramp_history(num=7)] * 3)
    assert [{key: repr(value) for key, value in vars(t).items()} for t in (term, V._term)] == before
