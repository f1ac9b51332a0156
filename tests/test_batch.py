"""integrate_batch and its consumers agree with one history at a time."""
import contextlib
import itertools
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
    DistributedTerm,
    DopNormFunctional,
    EvaluationBlowupError,
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
    dop_apply,
    driver_derivative,
    driver_derivatives,
    integrate,
    integrate_batch,
    rhs_eval,
    sample_history,
    sample_shells,
    verify_gas_conditions,
    verify_ges_conditions,
    verify_ges_seminorm,
)
from haleform.certify import CertificateConstants
from haleform.comparison import ComparisonFunction
from haleform.functionals import DopSemiNorm, phi_h_extend
from haleform.histories import _hermite_basis, _hermite_sum
from haleform.operators import _apply
from test_golden import _systems

integrate_module = sys.modules["haleform.integrate"]
histories_module = sys.modules["haleform.histories"]


def _hermite(theta, length, y0, y1, s0, s1):
    """The cubic Hermite value at theta of a panel with end values y0, y1 and end slopes s0, s1."""
    return _hermite_sum(_hermite_basis(theta), length, y0, y1, s0, s1)


SYSTEMS = _systems()


def _primitive_system(fn: str, params: dict) -> NfdeSystem:
    """A scalar system whose tip term is the primitive fn (golden "cubic" has the cubic)."""
    return NfdeSystem(DifferenceOperator([1.0], [[[0.4]]]), RhsMap(n=1, terms=(
        NonlinearTerm(0.0, fn, [[-1.3]], params), LinearTerm(0.5, [[-0.3]]))))


def _distributed_2d() -> NfdeSystem:
    """A planar system whose distributed term couples the components, with a
    kernel that starts inside the window."""
    grid = np.linspace(-0.9, 0.0, 4)
    kernel = np.array([[[0.2 + 0.1 * g, -0.1], [0.05, 0.15 - 0.1 * g]] for g in grid])
    return NfdeSystem(DifferenceOperator([1.0], [[[0.3, 0.1], [0.0, 0.2]]]), RhsMap(n=2, terms=(
        LinearTerm(0.0, [[-1.2, 0.3], [-0.2, -1.0]]), DistributedTerm(grid, kernel))))


def _planar_with(term) -> NfdeSystem:
    """The golden planar system with one more rhs term."""
    planar, _ = SYSTEMS["planar"]
    m = term.m if isinstance(term, InputTerm) else 0
    return NfdeSystem(planar.dop, RhsMap(n=2, m=m, terms=(*planar.rhs.terms, term)), delta=planar.delta)


TABLE = {"x": [-5.0, -1.0, 0.0, 1.0, 5.0], "y": [-3.0, -0.5, 0.0, 0.7, 2.0]}
WITH_PRIMITIVES = {**SYSTEMS, **{fn: (_primitive_system(fn, params), None)
                                 for fn, params in (("sine", {}), ("saturation", {"limit": 0.5}), ("table", TABLE))},
                   "distributed_2d": (_distributed_2d(), None),
                   # a coupled saturation tip term, and an input term under the golden input system's jumps
                   "saturation_2d": (_planar_with(NonlinearTerm(0.0, "saturation", [[-0.6, 0.2], [0.1, -0.4]],
                                                                {"limit": 0.3})), None),
                   "input_2d": (_planar_with(InputTerm([[1.0], [-0.5]])), SYSTEMS["input"][1])}
DISTRIBUTED = {"distributed", "distributed_2d"}
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


def _assert_agree(batch, single):
    """Knots and lookups (x, x' from both sides, z) on [-Delta, t_end], knot
    times and midpoints among them, bit for bit at every n: a single history
    steps on Python floats and a batch on arrays, and every matrix product of
    either is `_apply`'s column fold."""
    assert batch.blowup == single.blowup
    assert batch.order_reduced == single.order_reduced
    assert batch.t_end == single.t_end
    assert _same(batch.times, single.times)
    assert _same(batch.breakpoints, single.breakpoints)
    mids = 0.5 * (single.times[:-1] + single.times[1:])
    ts = np.concatenate([np.linspace(-single.system.delta, single.t_end, 13), single.times, mids])
    pairs = [(batch.x, single.x), (batch.z, single.z), (batch.x_at(ts), single.x_at(ts))]
    pairs += [(batch.xdot_at(ts, side), single.xdot_at(ts, side)) for side in "+-"]
    pairs.append((batch.z_at(ts[ts >= 0.0]), single.z_at(ts[ts >= 0.0])))
    for got, want in pairs:
        assert _same(got, want)


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


TWO = [(3, 1.0, None), (4, 0.1, -0.3)]  # two rows: a batch on arrays, each alone on floats


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(WITH_PRIMITIVES)), draws=histories_st,
       signal=st.sampled_from(sorted(SIGNALS)), run=st.just((2.0, 1.0 / 16.0)))
@example(name="sine", draws=TWO, signal="pwc", run=(2.0, 1.0 / 16.0))
@example(name="cubic", draws=TWO, signal="pwc", run=(2.0, 1.0 / 16.0))
@example(name="saturation", draws=TWO, signal="pwc", run=(2.0, 1.0 / 16.0))
@example(name="table", draws=TWO, signal="pwc", run=(2.0, 1.0 / 16.0))
@example(name="input", draws=TWO, signal="pwc", run=(2.0, 1.0 / 16.0))  # jumps at 0.7 and 1.6
@example(name="distributed", draws=TWO, signal="pwc", run=(2.0, 1.0 / 16.0))
@example(name="distributed_2d", draws=TWO, signal="pwc", run=(2.0, 1.0 / 16.0))
@example(name="planar", draws=TWO, signal="pwc", run=(2.0, 1.0 / 16.0))
@example(name="saturation_2d", draws=TWO, signal="pwc", run=(2.0, 1.0 / 16.0))
@example(name="input_2d", draws=TWO, signal="pwc", run=(2.0, 1.0 / 16.0))  # jumps at 0.7 and 1.6
@example(name="planar", draws=[(28, 3.0, -0.3), *TWO], signal="pwc", run=(2.0, 1.0 / 16.0))  # row 0 blows up
@example(name="distributed_2d", draws=[(5, 1.0, -1.0 / 16.0), *TWO, (6, 3.0, -0.55)], signal="pwc",
         run=(2.0, 1.0 / 16.0))
# row 0 blows up; then a run across plans of 512 steps alone and of 256 in the batch
@example(name="neutral", draws=[(10, 3.0, None), (3, 1.0, None)], signal="pwc", run=(2.0, 1.0 / 16.0))
@example(name="neutral", draws=TWO[:1] * 2, signal="pwc", run=(1.5, 1e-3))
def test_batch_agrees_with_single_runs(name, draws, signal, run):
    """Rows drawn at sup-norm 3 can cross the blowup bound next to healthy ones,
    and rows with different kinks run on meshes of different lengths. A single
    run steps on Python floats (a list of them for n > 1) and a batch of two or
    more on arrays."""
    system, pwc = WITH_PRIMITIVES[name]
    u = (SIGNALS[signal] or pwc) if system.m else None
    histories = [_history(system, seed, bound, kink) for seed, bound, kink in draws]
    horizon, step = run
    policy = StepPolicy(step=step, blowup_bound=2.5)
    batch = integrate_batch(system, histories, horizon, step=policy, u=u)
    assert len(batch) == len(histories)
    for phi, traj in zip(histories, batch):
        assert traj.xi0 is phi
        _assert_agree(traj, integrate(system, phi, horizon, step=policy, u=u))


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
        _assert_agree(traj, integrate(system, phi, 3.0, step=policy, u=u))


def test_rhs_without_terms_parks_a_blown_up_row():
    """f = 0, so x(t) = z(0) + A x(t - 1): its stages fold no term at all."""
    system = NfdeSystem(DifferenceOperator([1.0], [[[0.5]]]), RhsMap(n=1, terms=()))
    policy = StepPolicy(step=0.25, blowup_bound=0.8)
    histories = [sample_history(1, 1.0, 1.0, 2, seed) for seed in (3, 4)]
    batch = integrate_batch(system, histories, 4.0, step=policy)
    assert [(t.blowup, t.t_end) for t in batch] == [(False, 4.0), (True, 0.5)]
    for phi, traj in zip(histories, batch):
        _assert_agree(traj, integrate(system, phi, 4.0, step=policy))


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
    """Odd and even window counts (levels 4 and 5) for the median of the spreads, and
    V = |D phi|, whose levels-4 ladder flags one neutral history nonsmooth."""
    system, _ = SYSTEMS[name]
    phis = [_history(system, seed, 1.0, None) for seed in (2, 9, 14)]
    Vs = [QuadraticDopFunctional(system.dop, np.eye(system.n)), DopNormFunctional(system.dop)]
    if system.n == 1:
        Vs.append(ConverseFunctional(system, 0.3, 4.0, step=0.125))
    for V, ladder in itertools.product(Vs, (LadderSpec(levels=4), LadderSpec(levels=5))):
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
    """Blowup on the first step leaves one knot, so t_end = 0: no lookup divides
    by a zero panel, and a read past t_end is refused."""
    system, _ = SYSTEMS["neutral"]
    traj = integrate(system, HistorySegment.constant([1.0], 1.0), 2.0, StepPolicy(0.125, blowup_bound=0.5))
    assert traj.blowup and traj.times.size == 1 and traj.t_end == 0.0
    assert _same(traj.x[0], [1.0])
    assert _same(traj.x_at(np.array([-0.5, 0.0, 1e-10])), [[1.0], [1.0], [1.0]])
    assert _same(traj.z_at(np.array([0.0, 1e-10])), [traj.z[0], traj.z[0]])
    assert _same(traj.z_at(0.0), traj.z[0])
    for side in ("+", "-"):
        assert np.all(np.isfinite(traj.xdot_at(np.array([-0.2, 0.0, 1e-10]), side)))
    for read in (traj.x_at, traj.z_at, traj.xdot_at):
        with pytest.raises(PreconditionError, match="t <= 0 only"):
            read(0.3)


def test_z_lookups_refuse_negative_times():
    """z = D x_t starts at t = 0: array lookups refuse earlier times as scalar ones do."""
    system, _ = SYSTEMS["neutral"]
    traj = integrate(system, HistorySegment.constant([1.0], 1.0), 2.0, step=0.125)
    for t in (-0.5, np.array([-0.5]), np.array([0.25, -1e-12, 1.0])):
        with pytest.raises(PreconditionError, match="t >= 0"):
            traj.z_at(t)
    for ts in (np.array([-0.5]), np.array([0.0, -0.25])):
        with pytest.raises(PreconditionError, match="t >= 0"):
            traj.z_dense(ts)
    assert _same(traj.z_dense(np.array([0.0, 0.5])), traj.z[[0, 4]])


def test_lookups_refuse_times_outside_the_trajectory():
    """x and x' from either side are read on [-Delta, t_end] and z on [0, t_end]:
    a time outside is refused, at either end, rather than read from the last
    panel's extrapolation; one within 1e-9 of an end reads the end."""
    system, _ = SYSTEMS["neutral"]
    traj = integrate(system, _history(system, 7, 1.0, None), 1.0, step=0.125)
    assert traj.t_end == 1.0
    reads = {"x": traj.x_at, "x'+": lambda t: traj.xdot_at(t, "+"), "x'-": lambda t: traj.xdot_at(t, "-"),
             "z": traj.z_at, "z dense": lambda t: traj.z_dense(np.atleast_1d(t))}
    for name, read in reads.items():
        lo = 0.0 if name.startswith("z") else -1.0
        for t in (lo - 0.5, np.array([lo, 1.5]), np.array([0.5, 1.0 + 1e-6]), 2.0):
            with pytest.raises(PreconditionError, match="defined for"):
                read(t)
        assert _same(read(np.array([1.0 + 1e-10])), read(np.array([1.0])))
        if lo < 0.0:
            assert _same(read(np.array([lo - 1e-10])), read(np.array([lo])))


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
        _assert_agree(traj, integrate(growing, phi, 10.0, step=policy))


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
        _assert_agree(traj, integrate(system, phi, 2.0, step=policy))


@contextlib.contextmanager
def _count_gathers():
    """Record the number of steps of every block of reads gathered inside the block."""
    spans = []
    steps = integrate_module._Reads.steps

    def spy(self, a, b, run):
        spans.append(b - a)
        return steps(self, a, b, run)

    with mock.patch.object(integrate_module._Reads, "steps", spy):
        yield spans


def test_steps_gather_their_reads_in_blocks():
    """Every step of the neutral system reads x one delay back, so a block
    runs until those reads reach the knot it starts at, or the plan ends."""
    system, _ = SYSTEMS["neutral"]
    phi = _history(system, 7, 1.0, None)
    with _count_gathers() as spans:
        traj = integrate(system, phi, 1.5, step=1e-3)
    assert traj.times.size - 1 == sum(spans) == 1500
    plan = integrate_module._PLAN_READS // 4  # steps per plan: 4 reads per step
    assert len(spans) == -(-1500 // plan) == 3
    with _count_gathers() as spans:
        traj = integrate(system, phi, 10.0, step=0.125)
    assert traj.times.size - 1 == sum(spans) == 80
    assert min(spans[:-1]) >= 6


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_products_round_as_one_row_products(n):
    """A block applies each matrix to the rows of all its steps at once, and
    a single run's one-row products must come out the same, bit for bit."""
    rng = np.random.default_rng(n)
    for _ in range(20):
        a = rng.standard_normal((n, n))
        rows = rng.standard_normal((37, n)) * 10.0 ** rng.integers(-3, 4, (37, 1))
        stacked = _apply(a, rows)
        for k in range(len(rows)):
            assert _same(stacked[k], _apply(a, rows[k : k + 1])[0])
            assert _same(stacked[k], _apply(a, rows[k]))


def test_planar_blocks_cross_input_jumps():
    """Fine steps make blocks of hundreds of steps; they end at plan ends and
    run across the jumps of the input, which the mesh aligns with knots."""
    planar, _ = SYSTEMS["planar"]
    system = NfdeSystem(
        planar.dop,
        RhsMap(n=2, m=1, terms=(*planar.rhs.terms, InputTerm([[1.0], [-0.5]]))),
        delta=planar.delta,
    )
    u = InputSignal.piecewise_constant([0.0, 0.37, 0.81, 1.26], [[0.5], [-1.0], [0.25], [2.0]])
    histories = [_history(system, seed, 1.0, kink) for seed, kink in ((1, None), (2, -0.3), (3, None))]
    with _count_gathers() as spans:
        batch = integrate_batch(system, histories, 1.5, step=1e-3, u=u)
    assert max(spans) > 100
    for phi, traj in zip(histories, batch):
        assert 0.81 in traj.times
        _assert_agree(traj, integrate(system, phi, 1.5, step=1e-3, u=u))


def test_a_row_that_blows_up_mid_block_ends_the_block():
    """The rows that go on start a new block at the next step; the steps
    gathered past it for the old running set are dropped."""
    growing = NfdeSystem(
        DifferenceOperator([1.0], [[[0.5]]]), RhsMap(n=1, terms=(LinearTerm(0.0, [[0.5]]),))
    )
    policy = StepPolicy(step=1.0 / 64.0, blowup_bound=2.0)
    histories = [_history(growing, 40 + k, bound, None) for k, bound in enumerate((0.01, 0.3, 0.002, 0.1))]
    with _count_gathers() as spans:
        batch = integrate_batch(growing, histories, 6.0, step=policy)
    ends = [(traj.blowup, traj.times.size) for traj in batch]
    assert (False, 385) in ends and len({size for blowup, size in ends if blowup}) >= 2
    assert sum(spans) > 384
    for phi, traj in zip(histories, batch):
        _assert_agree(traj, integrate(growing, phi, 6.0, step=policy))



@contextlib.contextmanager
def _count_windows():
    """Record, per window plan, its steps and each stage's reads, and every
    gather as (plans placed so far, step of the plan)."""
    plans, gathers = [], []
    init, gather = integrate_module._Window.__init__, integrate_module._Window.gather

    def spy_init(self, store, term, delta, tips, anchors, rows):
        init(self, store, term, delta, tips, anchors, rows)
        reads = np.diff(self.starts)  # each row's: x at its nodes, then x'(a+)
        plans.append((int(rows[0].max()) + 1, [int(reads[rows[1] == e].sum()) for e in (0, 1)]))

    def spy_gather(self, j):
        gathers.append((len(plans), j))
        return gather(self, j)

    with mock.patch.object(integrate_module._Window, "__init__", spy_init), \
            mock.patch.object(integrate_module._Window, "gather", spy_gather):
        yield plans, gathers


def test_distributed_windows_are_gathered_once_per_step():
    """A step gathers its windows' reads once, the new knot's included; a
    system without a distributed term places no window at all."""
    system, _ = SYSTEMS["distributed"]
    with _count_windows() as (plans, gathers):
        traj = integrate(system, _history(system, 3, 1.0, None), 2.0, step=1.0 / 16.0)
    assert traj.times.size == 33
    assert gathers == [(p + 1, j) for p, (steps, _) in enumerate(plans) for j in range(steps)]
    assert sum(steps for steps, _ in plans) == len(gathers) == 32
    neutral, _ = SYSTEMS["neutral"]
    with _count_windows() as (plans, gathers):
        integrate(neutral, _history(neutral, 3, 1.0, None), 2.0, step=1.0 / 16.0)
    assert plans == gathers == []


def test_window_plans_keep_to_the_read_budget():
    """Fine steps put hundreds of nodes in a window: each plan places at most
    _PLAN_READS reads per stage, unless it holds a single step; the trajectory
    is the one the same histories give alone."""
    system, _ = SYSTEMS["distributed"]
    histories = [_history(system, seed, 1.0, kink) for seed, kink in ((4, None), (9, -0.3))]
    with _count_windows() as (plans, _):
        batch = integrate_batch(system, histories, 2.5, step=1.0 / 128.0)
    assert len(plans) > 3
    for steps, reads in plans:
        assert steps == 1 or max(reads) <= integrate_module._PLAN_READS
    for phi, traj in zip(histories, batch):
        _assert_agree(traj, integrate(system, phi, 2.5, step=1.0 / 128.0))


def _windows_at(store, term, delta, start: int, stop: int):
    """The windows of every history at steps start..stop-1, placed as the step
    loop places them, with their rows and the Gauss rule `_Window` took."""
    j, e, b = (a.ravel() for a in np.meshgrid(np.arange(start, stop), [0, 1], np.arange(store.shape[0]),
                                              indexing="ij"))
    m = store.mesh_of[b]
    t0, t1 = store.times[j, m], store.times[j + 1, m]
    tips, rows, rules = np.where(e == 0, t0 + 0.5 * (t1 - t0), t1), np.stack([j - start, e, b]), []
    rule = DistributedTerm._rule

    def spy(self, panels):
        rules.append(rule(self, panels))
        return rules[-1]

    with mock.patch.object(DistributedTerm, "_rule", spy):
        window = integrate_module._Window(store, term, delta, tips, t0, rows)
    return window, tips, t0, rows, rules[0]


@pytest.mark.parametrize("name", sorted(DISTRIBUTED))
@pytest.mark.parametrize("kinks", [[None], [None, -0.3, -1.0 / 16.0, -0.55]], ids=["one", "kinked4"])
def test_window_values_equal_the_sliver_substituted_sum(name, kinks):
    """At the midpoint, the step end and the new knot, a window's value equals
    one Gauss sum over its nodes with the sliver past the anchor a substituted:
    x(a) + w (tip - x(a)) at a stage, and the Hermite of [a, s] from x(a) and
    x'(a+) to the tip and its left slope at the new knot; the other nodes read
    x from the store. Tips and slopes are random, so the value is checked as a
    function of them, on floats for one history (lists of them for n > 1)."""
    system, _ = WITH_PRIMITIVES[name]
    term = system.rhs.terms[-1]
    trajs = integrate_batch(system, [_history(system, 20 + k, 1.0, kink) for k, kink in enumerate(kinks)],
                            2.0, step=1.0 / 16.0)
    store, rng = trajs[0]._batch, np.random.default_rng(len(kinks))
    floats, live = store.shape[0] == 1, np.arange(len(trajs))
    for start, stop in ((0, 4), (17, 20)):  # windows over the initial histories, then over knots only
        window, tips, anchors, rows, (nodes, weights, kmats, counts) = _windows_at(
            store, term, system.delta, start, stop)
        parts = np.split(np.arange(nodes.size), np.cumsum(counts)[:-1])
        for j in range(stop - start):
            window.gather(j)
            tip, slope = rng.standard_normal((2, len(trajs), system.n))
            for e in (0, 1, 2):
                t, sl = ([float(a[0, 0]) if system.n == 1 else a[0].tolist() for a in (tip, slope)] if floats
                         else (tip, slope))
                got = window.value(j, e, t, live, sl)
                want = []
                for b, traj in enumerate(trajs):
                    r = int(np.flatnonzero((rows[0] == j) & (rows[1] == min(e, 1)) & (rows[2] == b))[0])
                    k, a, s = parts[r], anchors[r], tips[r]
                    t = s + nodes[k]
                    v, past = traj.x_at(np.minimum(t, a)), t > a
                    w = ((t[past] - a) / (s - a))[:, None]
                    if e < 2:
                        v[past] = (1.0 - w) * v[past] + w * tip[b]
                    else:
                        v[past] = _hermite(w, s - a, traj.x_at(a), tip[b], traj.xdot_at(a, "+"), slope[b])
                    assert past.any()
                    want.append(np.einsum("k,kij,kj->i", weights[k], kmats[k], v))
                want = np.array(want)
                np.testing.assert_allclose(np.reshape(got, want.shape), want, rtol=0.0,
                                           atol=1e-13 * np.max(np.abs(want)))


@contextlib.contextmanager
def _count_plans():
    """Record the reads that each plan of reads places; a run's first plan also
    places the reads of knot 0, four per history here."""
    placed = []
    place = integrate_module._place

    def spy(store, cols, *args):
        placed.append(np.size(cols))
        return place(store, cols, *args)

    with mock.patch.object(integrate_module, "_place", spy):
        yield placed


@pytest.mark.parametrize("name", sorted(set(WITH_PRIMITIVES) - DISTRIBUTED))
def test_knot_zero_reads_no_history_one_at_a_time(name):
    """z(0) and f at knot 0 come from one read of every initial history and
    one `RhsMap.eval` on the batch, with no per-history `dop_apply`, `RhsMap.eval`
    or history read (`histories._read`, which `HistorySegment.eval` calls), and
    equal those bit for bit (a zero history's signed zeros included)."""
    system, pwc = WITH_PRIMITIVES[name]
    u = pwc if system.m else None
    histories = [_history(system, seed, 1.0, kink) for seed, kink in ((1, None), (2, -0.3), (3, None))]
    histories += [HistorySegment.zero(system.n, system.delta),
                  HistorySegment(system.delta, histories[0].grid, histories[0].values, "linear")]
    calls = []

    def spy(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    with mock.patch.object(histories_module, "_read", spy("eval", histories_module._read)), \
            mock.patch.object(RhsMap, "eval", spy("rhs", RhsMap.eval)):
        batch = integrate_batch(system, histories, 1.0, step=1.0 / 16.0, u=u)
    assert calls == ["rhs"]
    for phi, traj in zip(histories, batch):
        assert _same(traj.z[0], dop_apply(system.dop, phi))
        f = rhs_eval(system.rhs, phi, None if u is None else u.eval(0.0))
        assert _same(traj._batch.zdot_right[0, traj._row], f)


@pytest.mark.parametrize("name", sorted(DISTRIBUTED))
def test_distributed_knot_zero_evaluates_f_once_per_batch(name):
    """A distributed system's f at knot 0 is one `RhsMap.eval` on the whole batch,
    not one per history, and equals `rhs_eval` on each history bit for bit."""
    system, _ = WITH_PRIMITIVES[name]
    histories = [_history(system, seed, 1.0, kink) for seed, kink in ((1, None), (2, -0.3), (3, None))]
    histories += [HistorySegment.zero(system.n, system.delta),
                  HistorySegment(system.delta, histories[0].grid, histories[0].values, "linear")]
    calls = []
    real = RhsMap.eval
    with mock.patch.object(RhsMap, "eval", lambda *args, **kwargs: calls.append("rhs") or real(*args, **kwargs)):
        batch = integrate_batch(system, histories, 1.0, step=1.0 / 16.0)
    assert calls == ["rhs"]
    for phi, traj in zip(histories, batch):
        assert _same(traj._batch.zdot_right[0, traj._row], rhs_eval(system.rhs, phi))


def test_converse_fit_batch_places_its_reads_in_three_plans():
    """The fit's batch of 15 samples with their levels-5 rungs, 105 rows on 7
    meshes: a knot read is placed once per mesh, and a read of the initial
    histories once per group of histories that share a mesh and a grid."""
    system, V = _witness()
    samples = sample_shells(1, system.delta, 5, 1234)
    ladder = LadderSpec(levels=5)
    rows = [row for phi in samples
            for row in (phi, *(phi_h_extend(system, phi, float(h)) for h in ladder.steps(system.dop.min_delay)))]
    with _count_plans() as placed:
        batch = integrate_batch(system, rows, V.horizon, step=0.125)
    assert len(rows) == 105 and len({traj.times.size for traj in batch}) >= 2
    assert len(placed) <= 3
    assert placed[0] - 4 * len(rows) <= integrate_module._PLAN_READS
    assert max(placed[1:]) <= integrate_module._PLAN_READS


def test_wide_batches_of_shared_grids_plan_as_one_history():
    """Plans do not get shorter as the batch grows: 64 histories on one mesh
    and one grid place the reads of one, and still run as each does alone."""
    system, _ = SYSTEMS["neutral"]
    shells = [HistorySegment.constant([c], system.delta) for c in np.linspace(-2.0, 2.0, 64)]
    with _count_plans() as alone:
        integrate(system, shells[0], 1.5, step=1e-3)
    with _count_plans() as wide:
        batch = integrate_batch(system, shells, 1.5, step=1e-3)
    assert len(wide) == len(alone) == 3
    assert wide[0] - 4 * len(shells) == alone[0] - 4 and wide[1:] == alone[1:]
    for phi, traj in zip(shells[::21], batch[::21]):
        _assert_agree(traj, integrate(system, phi, 1.5, step=1e-3))


@pytest.mark.parametrize("name", ["planar", "two_delay", "input"])
def test_mixed_linear_and_cubic_histories_agree_with_single_runs(name):
    """Linear and cubic histories on one grid fall in different groups, and a
    linear history's panel slopes are read from its own nodes."""
    system, pwc = SYSTEMS[name]
    phi = _history(system, 11, 1.0, None)
    histories = [phi, HistorySegment(system.delta, phi.grid, phi.values, "linear"), _history(system, 12, 1.0, -0.3),
                 HistorySegment(system.delta, phi.grid, -phi.values, "linear", kink_times=[-0.3])]
    batch = integrate_batch(system, histories, 2.0, step=1.0 / 32.0, u=pwc)
    for history, traj in zip(histories, batch):
        _assert_agree(traj, integrate(system, history, 2.0, step=1.0 / 32.0, u=pwc))


# signals with jumps of their own: a history's mesh is anchored at its signal's only
PER_HISTORY_SIGNALS = {
    **{key: sig for key, sig in SIGNALS.items() if sig is not None},
    "pwc": SYSTEMS["input"][1],
    "switching": InputSignal.piecewise_constant([0.0, 0.3, 1.25], [[-0.4], [0.7], [0.1]]),
    "zero": InputSignal.zero(1),
}


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(draws=st.lists(st.tuples(st.integers(0, 10_000), st.sampled_from([0.1, 1.0]),
                                st.sampled_from([None, -0.3, -1.0 / 16.0]),
                                st.sampled_from(sorted(PER_HISTORY_SIGNALS))), min_size=1, max_size=6))
@example(draws=[(3, 1.0, None, "pwc"), (4, 0.1, -0.3, "switching"), (5, 1.0, None, "table"), (3, 1.0, None, "zero")])
@example(draws=[(7, 1.0, None, "switching")])
def test_one_signal_per_history_equals_per_signal_batches(draws):
    """integrate_batch with u[b] for history b gives each trajectory bitwise as the
    batch of its signal's histories does, mesh and breakpoints included: another
    signal's jumps do not reach it."""
    system, _ = SYSTEMS["input"]
    histories = [_history(system, seed, bound, kink) for seed, bound, kink, _ in draws]
    signals = [PER_HISTORY_SIGNALS[key] for *_, key in draws]
    batch = integrate_batch(system, histories, 2.0, step=1.0 / 16.0, u=signals)
    for key in {key for *_, key in draws}:
        rows = [b for b, (*_, k) in enumerate(draws) if k == key]
        alone = integrate_batch(system, [histories[b] for b in rows], 2.0, step=1.0 / 16.0,
                                u=PER_HISTORY_SIGNALS[key])
        for b, traj in zip(rows, alone):
            assert batch[b].input is PER_HISTORY_SIGNALS[key] and batch[b].xi0 is histories[b]
            _assert_agree(batch[b], traj)


def test_one_signal_per_history_is_checked():
    system, pwc = SYSTEMS["input"]
    phi = _history(system, 1, 1.0, None)
    with pytest.raises(PreconditionError, match="2 input signals for 1 histories"):
        integrate_batch(system, [phi], 2.0, step=0.125, u=[pwc, pwc])
    neutral, _ = SYSTEMS["neutral"]
    with pytest.raises(PreconditionError, match="input-free"):
        integrate_batch(neutral, [phi], 2.0, step=0.125, u=[pwc])
    [traj] = integrate_batch(system, [phi], 2.0, step=0.125, u=(pwc,))
    _assert_agree(traj, integrate(system, phi, 2.0, step=0.125, u=pwc))


@pytest.mark.parametrize("name", sorted(WITH_PRIMITIVES))
def test_batched_rhs_equals_rhs_eval_row_by_row(name):
    """`RhsMap.eval` on many histories, one read of them all, gives each row
    bitwise as `rhs_eval` on its history does, under an input per row."""
    system, _ = WITH_PRIMITIVES[name]
    phis = [_history(system, seed, 1.0, None) for seed in range(7)]
    phis.append(HistorySegment(system.delta, phis[1].grid, phis[1].values, "linear"))
    us = np.linspace(-1.0, 1.0, len(phis) * system.m).reshape(len(phis), system.m) if system.m else None
    rows = system.rhs.eval(phis, us)
    for r, phi in enumerate(phis):
        assert _same(rows[r], rhs_eval(system.rhs, phi, None if us is None else us[r]))
    assert system.rhs.eval([], None if us is None else us[:0]).shape == (0, system.n)


def _residual_one_at_a_time(traj, count):
    """`residual_check` as a loop over its sample times: one segment and one f each."""
    from haleform import segment
    from haleform.integrate import _clear_times

    times = traj.times
    sel = _clear_times(traj, 0.5 * (times[:-1] + times[1:]), count)
    d = 0.5 * np.min(np.diff(times))
    worst = 0.0
    for tm in sel.tolist():
        zdot = (traj.z_at(tm + d) - traj.z_at(tm - d)) / (2.0 * d)
        u = None if traj.input is None else traj.input.eval(tm)
        worst = max(worst, float(np.linalg.norm(zdot - rhs_eval(traj.system.rhs, segment(traj, tm), u))))
    return worst


@pytest.mark.parametrize("name", sorted(WITH_PRIMITIVES))
def test_residual_check_equals_its_loop_and_reads_segments_in_runs(name):
    """z's centered differences take one store read, and the samples' segments take
    one per run of segments that places at most _PLAN_READS reads: all 50 at once
    where they are short; the residual is the loop's, bitwise."""
    from haleform import residual_check

    system, u = WITH_PRIMITIVES[name]
    budget = integrate_module._PLAN_READS
    short = min(1.0 / 8.0, system.min_positive_delay() / 4.0)
    for seed, horizon, step in ((3, 3.0, short), (8, 0.9, 1.0 / 32.0), (5, 3.0, 1.0 / 64.0)):
        traj = integrate(system, _history(system, seed, 1.0, -0.3), horizon, step=step, u=u)
        reads = []
        read = integrate_module._BatchStore.read

        def spy(store, cols, ts, kind):
            reads.append(ts.size)
            return read(store, cols, ts, kind)

        with mock.patch.object(integrate_module._BatchStore, "read", spy):
            got = residual_check(traj, 50)
        placed = reads[1:]  # none where no time is clear of the breakpoints
        assert max(placed, default=0) <= budget and all(a + b > budget for a, b in zip(placed, placed[1:]))
        assert len(placed) <= 1 or step < short
        assert got == _residual_one_at_a_time(traj, 50)


@st.composite
def kernel_systems(draw):
    """A small system of n = 1..3 components for the block kernel: 1-2 D-terms, tip terms
    linear (decaying or growing) and nonlinear in random order, a delayed block term first,
    second or third (where it no longer opens the fold), and optionally an input term (under
    a signal with jumps) and a distributed term."""
    n, rng = draw(st.integers(1, 3)), np.random.default_rng(draw(st.integers(0, 2**16)))
    rate = draw(st.sampled_from([-0.5, 1.5]))

    def matrix(scale):
        return scale * rng.uniform(-1.0, 1.0, (n, n)) / n

    delays = [1.0, 0.6][: draw(st.integers(1, 2))]
    dop = DifferenceOperator(delays, [matrix(0.4) for _ in delays])
    tips = draw(st.lists(st.sampled_from(["linear", "saturation", "sine", "cubic", "table"]), min_size=1, max_size=3))
    params = {"saturation": {"limit": 0.5}, "table": TABLE}
    terms = [LinearTerm(0.0, matrix(1.0) + rate * np.eye(n)) if fn == "linear"
             else NonlinearTerm(0.0, fn, matrix(-1.0), params.get(fn, {})) for fn in tips]
    terms.insert(draw(st.integers(0, 2)), LinearTerm(0.5, matrix(0.3)))
    m = int(draw(st.booleans()))
    if m:
        terms.append(InputTerm(rng.uniform(-1.0, 1.0, (n, 1))))
    if draw(st.booleans()):
        grid = np.linspace(-0.9, 0.0, 4)
        terms.insert(draw(st.integers(0, len(terms))), DistributedTerm(grid, np.array([matrix(0.3) for _ in grid])))
    return NfdeSystem(dop, RhsMap(n=n, m=m, terms=tuple(terms)), delta=1.0)


# a growing planar system that blows up mid-run, one whose fold opens at 0 (signed zeros), and one of
# three components whose tip terms are nonlinear
GROWING = NfdeSystem(DifferenceOperator([1.0], [[[0.3, 0.0], [0.1, -0.2]]]), RhsMap(n=2, terms=(
    NonlinearTerm(0.0, "sine", [[0.2, -0.1], [0.0, 0.3]]), LinearTerm(0.5, [[0.1, 0.0], [0.0, -0.1]]),
    LinearTerm(0.0, [[1.5, 0.2], [-0.1, 1.2]]))))
OPENS_AT_ZERO = NfdeSystem(DifferenceOperator([0.6, 1.0], [[[-0.3]], [[0.2]]]), RhsMap(n=1, terms=(
    LinearTerm(0.0, [[-1.0]]), NonlinearTerm(0.0, "cubic", [[-0.5]]), LinearTerm(0.5, [[-0.2]]))))
THREE = NfdeSystem(DifferenceOperator([1.0, 0.6], [np.eye(3) * 0.3, [[0.0, 0.1, 0.0], [0.0, 0.0, 0.1], [0.1, 0.0, 0.0]]]),
                   RhsMap(n=3, terms=(
                       NonlinearTerm(0.0, "saturation", [[-0.8, 0.2, 0.0], [0.1, -0.7, 0.2], [0.0, 0.1, -0.9]],
                                     {"limit": 0.5}),
                       LinearTerm(0.5, np.full((3, 3), 0.05)),
                       NonlinearTerm(0.0, "sine", [[0.1, 0.0, -0.2], [0.0, 0.2, 0.0], [-0.1, 0.0, 0.1]]),
                       NonlinearTerm(0.0, "cubic", -0.3 * np.eye(3)))))
# a planar system whose tip terms take all four primitives, the cube's large enough at a history bound of 3
# that its last bit reaches the state
ALL_PRIMITIVES = NfdeSystem(DifferenceOperator([1.0], [[[0.3, 0.1], [0.0, -0.2]]]), RhsMap(n=2, terms=(
    NonlinearTerm(0.0, "cubic", [[-0.4, 0.1], [0.05, -0.3]]), NonlinearTerm(0.0, "sine", [[0.2, -0.1], [0.0, 0.3]]),
    LinearTerm(0.5, [[0.1, 0.0], [-0.1, 0.1]]), NonlinearTerm(0.0, "saturation", [[-0.5, 0.2], [0.1, -0.4]],
                                                             {"limit": 0.5}),
    NonlinearTerm(0.0, "table", [[0.3, 0.0], [-0.2, 0.1]], TABLE))))
# signals whose jumps fall at different times, so that a step's jumps hit some histories of a batch only
JUMPS = [InputSignal.piecewise_constant([0.0, 0.37, 0.81, 1.26], [[0.5], [-1.0], [0.25], [2.0]]),
         InputSignal.piecewise_constant([0.0, 0.5, 1.1], [[-0.3], [0.8], [-1.5]])]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(system=kernel_systems(), seed=st.integers(0, 10_000), bound=st.sampled_from([0.1, 1.0, 3.0]),
       blowup=st.sampled_from([2.5, 1e12]), zero=st.booleans())
@example(system=GROWING, seed=3, bound=1.0, blowup=2.5, zero=False)
@example(system=GROWING, seed=6, bound=0.1, blowup=2.5, zero=False)
@example(system=OPENS_AT_ZERO, seed=3, bound=1.0, blowup=1e12, zero=True)
@example(system=THREE, seed=5, bound=3.0, blowup=1e12, zero=False)
@example(system=WITH_PRIMITIVES["input_2d"][0], seed=7, bound=1.0, blowup=1e12, zero=False)
@example(system=ALL_PRIMITIVES, seed=4, bound=3.0, blowup=1e12, zero=False)
def test_a_batch_steps_each_history_as_it_steps_alone(system, seed, bound, blowup, zero):
    """A batch of three histories steps through the system's batch kernel, on (B,) arrays,
    and each history alone through its single-history kernel, on floats: each trajectory of
    the batch, and every plane of its knots (z' too), is the one its history gives alone, bit
    for bit. The histories' kinks differ, so they run on meshes of their own (ragged ones);
    an input system's histories take signals whose jumps fall at different steps; signed
    zeros of a zero history and blowups under a small bound are included: GROWING's
    histories blow up partway through blocks (the last at step 11 and the middle one at
    step 21 from seed 3; from seed 6, the middle one alone at step 18), and the others go on."""
    u = [JUMPS[0], JUMPS[1], JUMPS[0]] if system.m else [None] * 3
    other = HistorySegment.zero(system.n, system.delta) if zero else _history(system, seed + 1, 1.0, -0.3)
    histories = [_history(system, seed, bound, None), other, _history(system, seed + 2, bound, -0.55)]
    policy = StepPolicy(step=1.0 / 16.0, blowup_bound=blowup)
    batch = integrate_batch(system, histories, 2.0, step=policy, u=u if system.m else None)
    for phi, sig, traj in zip(histories, u, batch):
        single = integrate(system, phi, 2.0, step=policy, u=sig)
        _assert_agree(traj, single)
        assert _same(*(t._batch.block[:, : t.times.size, t._row] for t in (traj, single)))
    if system is GROWING:
        sizes = {3: [(False, 33), (True, 22), (True, 12)], 6: [(False, 33), (True, 19), (False, 37)]}[seed]
        assert [(traj.blowup, traj.times.size) for traj in batch] == sizes


def test_a_row_that_overflows_parks_under_an_infinite_bound():
    """Under blowup_bound = inf only a state that is not finite blows up, as under a bound
    past about 1.3e154, whose square is inf (a float power of it would raise OverflowError).
    x' = x^3 from 3 overflows within a few steps; in a batch that row parks at the step where
    it does alone, although the rows' |x|^2 then sum to inf, which is no more than the bound.
    With steps of 0.125, one history's kernel cubes floats past 1e300, where a float power
    would raise too."""
    system = NfdeSystem(DifferenceOperator([1.0], [[[0.0]]]), RhsMap(n=1, terms=(NonlinearTerm(0.0, "cubic", [[1.0]]),)))
    phis = [HistorySegment.constant([c], 1.0) for c in (0.1, 3.0, -0.2)]
    for policy in (StepPolicy(step=1.0 / 16.0, blowup_bound=np.inf), StepPolicy(step=0.125, blowup_bound=1e200)):
        batch = integrate_batch(system, phis, 1.0, step=policy)
        for phi, traj in zip(phis, batch):
            _assert_agree(traj, integrate(system, phi, 1.0, step=policy))
        assert [traj.blowup for traj in batch] == [False, True, False] and batch[1].times.size < 8


def test_a_jump_takes_the_left_limit_in_its_own_rows_only():
    """z' from the left takes an input's left limit only in the histories whose signal jumps
    at the step. The first signal switches exactly at the horizon, which is not one of its
    jumps (a signal jumps in (0, horizon)), in the step where the second one jumps: there
    the first history's z' from the left is its z' from the right, as it is alone."""
    system, _ = SYSTEMS["input"]
    u = [InputSignal.piecewise_constant([0.0, 2.0], [[0.5], [-1.0]]),
         InputSignal.piecewise_constant([0.0, 1.95], [[0.2], [0.9]])]
    phi = _history(system, 3, 1.0, None)
    batch = integrate_batch(system, [phi, phi], 2.0, step=1.0 / 16.0, u=u)
    for sig, traj in zip(u, batch):
        single = integrate(system, phi, 2.0, step=1.0 / 16.0, u=sig)
        _assert_agree(traj, single)
        assert _same(*(t._batch.block[:, : t.times.size, t._row] for t in (traj, single)))
    last = batch[0].times.size - 1  # the first history's last knot, at the horizon, is the second's jump
    assert batch[0].times[last] == 2.0 and batch[1].times[last] == 1.95
    zdot = batch[0]._batch.block[4:, last, 0]
    assert _same(zdot[0], zdot[1]) and not _same(*batch[1]._batch.block[4:, last, 1])


@contextlib.contextmanager
def _count_compiles():
    """Record the file name of every source compiled inside the block."""
    names, real = [], compile

    def spy(source, filename, *args, **kwargs):
        names.append(filename)
        return real(source, filename, *args, **kwargs)

    with mock.patch("builtins.compile", spy):
        yield names


def test_a_system_compiles_its_block_kernel_once():
    """Each variant of the kernel is compiled at a system's first run of its kind (one
    history, or a batch) and kept on it: another integration, a converse V(phi) and its
    D+V compile nothing, a batch compiles its variant once and reuses it, and an equal
    system compiles its own."""
    system, other = (NfdeSystem(DifferenceOperator([1.0], [[[0.5]]]), RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.0]]),)))
                     for _ in range(2))
    phis = [_history(system, seed, 1.0, None) for seed in (3, 4, 5)]
    with _count_compiles() as names:
        integrate_batch(system, phis[:2], 2.0, step=0.125)
    assert len(names) == 1
    batch_kernel = integrate_module._kernel(system, True)
    with _count_compiles() as names:
        integrate_batch(system, phis, 3.0, step=0.25)
    assert names == [] and integrate_module._kernel(system, True) is batch_kernel
    with _count_compiles() as names:
        integrate(system, phis[0], 2.0, step=0.125)
    assert len(names) == 1
    kernel, V = integrate_module._kernel(system), ConverseFunctional(system, 0.3, 10.0, step=0.125)
    assert kernel is not batch_kernel
    with _count_compiles() as names:
        integrate(system, phis[1], 3.0, step=0.25)
        integrate_batch(system, phis, 2.0, step=0.125)
        V(phis[0])
        driver_derivative(system, V, phis[0], None, LadderSpec(levels=5))
    assert names == [] and integrate_module._kernel(system) is kernel
    assert integrate_module._kernel(system, True) is batch_kernel
    with _count_compiles() as names:
        integrate(other, phis[0], 2.0, step=0.125)
    assert len(names) == 1 and integrate_module._kernel(other) is not kernel


@pytest.mark.parametrize("name", sorted(DISTRIBUTED))
def test_rhs_with_a_distributed_term_reads_the_histories_once(name):
    """`RhsMap.eval` reads every history at the pointwise terms' delays and at the
    distributed term's Gauss nodes with one `_read`, one history or several."""
    system, _ = WITH_PRIMITIVES[name]
    phis = [_history(system, seed, 1.0, kink) for seed, kink in ((1, None), (2, -0.3), (3, None))]
    reads, real = [], sys.modules["haleform.operators"]._read
    with mock.patch.object(sys.modules["haleform.operators"], "_read", lambda *args: reads.append(1) or real(*args)):
        system.rhs.eval(phis)
        rhs_eval(system.rhs, phis[0])
    assert len(reads) == 2


def test_a_system_with_a_kernel_pickles_without_it():
    """Pickling leaves both compiled kernels behind: the copy compiles its own, which
    integrate alike, one history and a batch."""
    import pickle

    system, _ = SYSTEMS["planar"]
    phis = [_history(system, seed, 1.0, None) for seed in (5, 6)]
    traj = integrate(system, phis[0], 2.0, step=1.0 / 16.0)
    batch = integrate_batch(system, phis, 2.0, step=1.0 / 16.0)
    copy = pickle.loads(pickle.dumps(system))
    kernels = ("_kernel", "_batch_kernel")
    assert all(name in vars(system) and name not in vars(copy) for name in kernels)
    _assert_agree(integrate(copy, phis[0], 2.0, step=1.0 / 16.0), traj)
    for got, want in zip(integrate_batch(copy, phis, 2.0, step=1.0 / 16.0), batch):
        _assert_agree(got, want)
    for flag in (False, True):
        assert integrate_module._kernel(copy, flag) is not integrate_module._kernel(system, flag)
