"""integrate_batch and its consumers agree with one history at a time."""
import contextlib
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from haleform import (
    ConverseFunctional,
    DifferenceOperator,
    EvaluationBlowupError,
    HistorySegment,
    InputSignal,
    LadderSpec,
    LinearTerm,
    NfdeSystem,
    PreconditionError,
    QuadraticDopFunctional,
    RhsMap,
    StepPolicy,
    driver_derivative,
    driver_derivatives,
    integrate,
    integrate_batch,
    sample_history,
    verify_gas_conditions,
    verify_ges_conditions,
    verify_ges_seminorm,
)
from haleform.certify import CertificateConstants
from haleform.comparison import ComparisonFunction
from haleform.functionals import DopSemiNorm, phi_h_extend
from test_golden import _systems

integrate_module = sys.modules["haleform.integrate"]

SYSTEMS = _systems()
SIGNALS = {
    "pwc": None,  # the golden input system's own piecewise-constant signal
    "sinusoid": InputSignal.sinusoid([0.8], 2.3, 0.4),
    "table": InputSignal.from_table([0.0, 0.45, 1.1, 2.0], [[0.2], [-0.6], [0.9], [0.1]]),
    "constant": InputSignal.constant([0.3]),
}


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _history(system, seed: int, bound: float, kink: float | None):
    phi = sample_history(system.n, system.delta, bound, seed % 5, seed)
    if kink is None:
        return phi
    return HistorySegment(phi.delta, phi.grid, phi.values, phi.interp, phi.slopes, [kink])


def _assert_agree(batch, single, n: int):
    """Bitwise for n = 1; within 1e-12 of the history scale for n > 1, where a
    stacked matrix product may round its last bit differently."""
    assert batch.blowup == single.blowup
    assert batch.order_reduced == single.order_reduced
    assert batch.t_end == single.t_end
    assert _same(batch.times, single.times)
    assert _same(batch.breakpoints, single.breakpoints)
    for got, want in ((batch.x, single.x), (batch.z, single.z)):
        if n == 1:
            assert _same(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(want))))


histories_st = st.lists(
    st.tuples(
        st.integers(0, 10_000),
        st.sampled_from([0.1, 1.0, 3.0]),
        # one kink set per mesh; rung-like kinks at -h0 * 2^-k end at steps of their own
        st.sampled_from([None, -0.3, -0.55, -1.0 / 16.0, -1.0 / 128.0]),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(SYSTEMS)), draws=histories_st, signal=st.sampled_from(sorted(SIGNALS)))
def test_batch_agrees_with_single_runs(name, draws, signal):
    """Rows drawn at sup-norm 3 can cross the blowup bound next to healthy ones,
    and rows with different kinks run on meshes of different lengths."""
    system, pwc = SYSTEMS[name]
    u = (SIGNALS[signal] or pwc) if system.m else None
    histories = [_history(system, seed, bound, kink) for seed, bound, kink in draws]
    policy = StepPolicy(step=1.0 / 16.0, blowup_bound=2.5)
    batch = integrate_batch(system, histories, 2.0, step=policy, u=u)
    assert len(batch) == len(histories)
    for phi, traj in zip(histories, batch):
        assert traj.xi0 is phi
        _assert_agree(traj, integrate(system, phi, 2.0, step=policy, u=u), system.n)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_blowing_up_row_leaves_its_neighbours_alone(name):
    system, u = SYSTEMS[name]
    policy = StepPolicy(step=1.0 / 16.0, blowup_bound=3.0)
    small = [_history(system, seed, 0.2, None) for seed in (3, 4)]
    big = HistorySegment.constant(np.full(system.n, 10.0), system.delta)
    histories = [small[0], big, small[1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = integrate_batch(system, histories, 3.0, step=policy, u=u)
    assert [t.blowup for t in batch] == [False, True, False]
    for phi, traj in zip(histories, batch):
        _assert_agree(traj, integrate(system, phi, 3.0, step=policy, u=u), system.n)


def test_histories_on_different_meshes_run_as_separate_groups():
    system, _ = SYSTEMS["neutral"]
    histories = [_history(system, 1, 1.0, kink) for kink in (None, -0.3, None, -0.55, -0.3)]
    batch = integrate_batch(system, histories, 2.5, step=0.125)
    assert _same(batch[0].times, batch[2].times) and _same(batch[1].times, batch[4].times)
    for a, b in ((0, 1), (0, 3), (1, 3)):
        assert not _same(batch[a].times, batch[b].times)
    assert integrate_batch(system, [], 2.5, step=0.125) == []


def test_input_values_on_arrays_equal_scalar_evaluations():
    """The integrator evaluates its input once on the mesh; that must equal
    the per-stage scalar evaluations bitwise, on either side of a jump."""
    _, pwc = SYSTEMS["input"]
    ts = np.concatenate([np.linspace(0.0, 3.0, 97), [0.7, 1.6, 0.45, 1.1]])
    for sig in [pwc, *(s for s in SIGNALS.values() if s is not None), InputSignal.zero(1)]:
        for side in ("+", "-"):
            many = sig.eval(ts, side)
            for k, t in enumerate(ts):
                assert _same(many[k], sig.eval(float(t), side))


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=4), horizon=st.sampled_from([1.0, 4.0]))
@example(seeds=list(range(8)), horizon=1.0)  # some rows rerun, the others do not
def test_converse_many_equals_one_at_a_time(seeds, horizon):
    """Short horizons put the maximizer at the edge and exercise the reruns:
    each horizon integrates, in one loop, the rows that reach it alone."""
    system, _ = SYSTEMS["neutral"]
    V = ConverseFunctional(system, 0.3, horizon, step=0.125)
    phis = [_history(system, seed, 1.0, -0.3 if seed % 3 == 0 else None) for seed in seeds]
    with _count_loops() as widths:
        single, loops = [], []
        for phi in phis:
            start = len(widths)
            single.append(V(phi))
            loops.append(len(widths) - start)
        del widths[:]
        assert _same(V.many(phis), single)
    assert widths == [sum(n > k for n in loops) for k in range(max(loops))]


def test_converse_many_raises_for_the_first_blowup_in_order():
    """A slow blowup found in a horizon-extension rerun still wins over a fast
    one found later in the input order, as it does one history at a time."""
    growing = NfdeSystem(
        DifferenceOperator([1.0], [[[0.5]]]), RhsMap(n=1, terms=(LinearTerm(0.0, [[0.5]]),))
    )
    V = ConverseFunctional(growing, 0.1, 4.0, step=StepPolicy(step=0.125, blowup_bound=2.0))
    slow = HistorySegment.constant([0.05], 1.0)
    fast = HistorySegment(1.0, [-1.0, -0.5, 0.0], [[0.0], [0.5], [1.5]], kink_times=[-0.5])
    messages = {}
    for name, phi in (("slow", slow), ("fast", fast)):
        with pytest.raises(EvaluationBlowupError) as alone:
            V(phi)
        messages[name] = str(alone.value)
    assert messages["slow"] != messages["fast"]
    for order in (("slow", "fast"), ("fast", "slow")):
        phis = {"slow": slow, "fast": fast}
        with pytest.raises(EvaluationBlowupError) as batched:
            V.many([phis[name] for name in order])
        assert str(batched.value) == messages[order[0]]


@pytest.mark.parametrize("name", ["neutral", "planar"])
def test_driver_derivatives_equal_per_history_estimates(name):
    system, _ = SYSTEMS[name]
    ladder = LadderSpec(levels=4)
    phis = [_history(system, seed, 1.0, None) for seed in (2, 9, 14)]
    Vs = [QuadraticDopFunctional(system.dop, np.eye(system.n))]
    if system.n == 1:
        Vs.append(ConverseFunctional(system, 0.3, 4.0, step=0.125))
    for V in Vs:
        for est, phi in zip(driver_derivatives(system, V, phis, None, ladder), phis):
            ref = driver_derivative(system, V, phi, None, ladder)
            assert _same(est.quotients, ref.quotients) and _same(est.h_ladder, ref.h_ladder)
            assert (est.value, est.error_band, est.v0, est.nonsmooth) == (
                ref.value, ref.error_band, ref.v0, ref.nonsmooth
            )


def test_verification_refuses_an_empty_sample_list():
    system, _ = SYSTEMS["neutral"]
    V = QuadraticDopFunctional(system.dop, [[1.0]])
    linear = ComparisonFunction.linear
    gas = CertificateConstants("gas", alpha1=linear(0.5), alpha2=linear(2.0), alpha3=linear(0.1))
    ges = CertificateConstants("ges", a1=0.5, a2=2.0, a3=0.1)
    sn = DopSemiNorm(system.dop)
    seminorm = CertificateConstants("ges-seminorm", a1=0.5, a2=2.0, a3=0.1, a4=2.0, seminorm=sn)
    with pytest.raises(PreconditionError, match="at least one sample"):
        verify_gas_conditions(system, V, gas, [])
    with pytest.raises(PreconditionError, match="at least one sample"):
        verify_ges_conditions(system, V, ges, [])
    with pytest.raises(PreconditionError, match="at least one sample"):
        verify_ges_seminorm(system, V, sn, seminorm, [])


@pytest.mark.filterwarnings("error")
def test_one_node_trajectory_lookups_hold_its_value():
    """Blowup on the first step leaves one knot; no lookup divides by a zero panel."""
    system, _ = SYSTEMS["neutral"]
    traj = integrate(system, HistorySegment.constant([1.0], 1.0), 2.0, StepPolicy(0.125, blowup_bound=0.5))
    assert traj.blowup and traj.times.size == 1
    node = traj.x[0]
    assert _same(traj.x_at(np.array([-0.5, 0.0])), [[1.0], [1.0]])
    assert _same(traj.x_at(np.array([0.0, 0.5])), [[1.0], node])
    assert _same(traj.x_at(0.3), node)
    assert _same(traj.z_at(np.array([0.0, 0.25])), [traj.z[0], traj.z[0]])
    assert _same(traj.z_at(0.25), traj.z[0])
    for side in ("+", "-"):
        assert np.all(np.isfinite(traj._store.xdot_many(np.array([-0.2, 0.0, 0.4]), side)))


@contextlib.contextmanager
def _count_loops():
    """Record the batch width of every step loop run inside the block."""
    widths = []
    advance = integrate_module._advance

    def counted(system, store, *args):
        widths.append(store.shape[0])
        return advance(system, store, *args)

    with mock.patch.object(integrate_module, "_advance", counted):
        yield widths


def _witness():
    system, _ = SYSTEMS["neutral"]
    return system, ConverseFunctional(system, 0.3, 10.0, step=0.125)


def test_converse_dplus_query_runs_one_step_loop():
    """V(phi) and every rung of a levels-5 ladder integrate together, though
    each rung's kink seeds its own mesh."""
    system, V = _witness()
    phi = _history(system, 7, 1.0, None)
    ladder = LadderSpec(levels=5)
    rungs = [phi_h_extend(system, phi, float(h)) for h in ladder.steps(system.dop.min_delay)]
    sizes = {traj.times.size for traj in integrate_batch(system, [phi, *rungs], 10.0, step=0.125)}
    assert sizes == {81, 91}
    with _count_loops() as widths:
        est = driver_derivative(system, V, phi, None, ladder)
    assert widths == [7]
    assert est.v0 == V(phi)


def test_ragged_rows_park_at_their_own_ends_next_to_blowups():
    """Rows of 81 and 91 knots end at different steps, and rows that blow up
    stop at steps of their own. Each is the trajectory of its history alone."""
    growing = NfdeSystem(
        DifferenceOperator([1.0], [[[0.5]]]), RhsMap(n=1, terms=(LinearTerm(0.0, [[0.5]]),))
    )
    policy = StepPolicy(step=0.125, blowup_bound=2.0)
    draws = [(0.002, -0.0625), (0.3, None), (0.002, None), (0.1, -0.03125), (0.01, -0.125), (0.002, -0.25)]
    histories = [_history(growing, 40 + k, bound, kink) for k, (bound, kink) in enumerate(draws)]
    batch = integrate_batch(growing, histories, 10.0, step=policy)
    ends = [(traj.blowup, traj.times.size) for traj in batch]
    assert {(False, 81), (False, 91)} <= set(ends)
    assert len({size for blowup, size in ends if blowup}) >= 2
    for phi, traj in zip(histories, batch):
        _assert_agree(traj, integrate(growing, phi, 10.0, step=policy), growing.n)


def test_short_mesh_row_outlives_a_blown_up_long_one():
    """The longest mesh's only history blows up at once, and the distributed
    term's quadrature must not run on the steps left after the short row ends."""
    system, _ = SYSTEMS["distributed"]
    policy = StepPolicy(step=1.0 / 16.0, blowup_bound=2.0)
    big = HistorySegment.constant([3.0], system.delta)
    kinked = HistorySegment(big.delta, big.grid, big.values, big.interp, big.slopes, [-1.0 / 128.0])
    histories = [kinked, _history(system, 5, 0.01, None)]
    batch = integrate_batch(system, histories, 2.0, step=policy)
    assert [(t.blowup, t.times.size) for t in batch] == [(True, 1), (False, 33)]
    assert integrate(system, kinked, 2.0, step=StepPolicy(step=1.0 / 16.0)).times.size > 33
    for phi, traj in zip(histories, batch):
        _assert_agree(traj, integrate(system, phi, 2.0, step=policy), system.n)
