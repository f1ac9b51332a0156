import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import haleform
from haleform import (
    DifferenceOperator,
    HistorySegment,
    InputSignal,
    InputTerm,
    LadderSpec,
    LinearTerm,
    NfdeSystem,
    NonlinearTerm,
    PreconditionError,
    RhsMap,
    StepPolicy,
    dop_apply,
    integrate,
    integrate_batch,
    residual_check,
    rhs_eval,
    sample_history,
    segment,
    trajectory_grid,
)
from haleform.cli import main
from haleform.functionals import phi_h_extend
from haleform.integrate import _breakpoint_gap, _meshes, propagation_breakpoints
from haleform.serialization import history_to_dict, read_json, system_to_dict, write_json


def neutral_exact(t):
    """Closed form for d/dt (x(t) - 0.5 x(t-1)) = -x(t), xi0 = 1, on [0, 2]."""
    if t <= 1.0:
        return np.exp(-t)
    tau = t - 1.0
    return np.exp(-tau) * (np.exp(-1.0) - 0.5 * tau)


def _residual_times(traj, sample_count):
    """The midpoints `residual_check` samples."""
    mids = 0.5 * (traj.times[:-1] + traj.times[1:])
    cand = mids[_breakpoint_gap(traj, mids) >= 2.0 * np.min(np.diff(traj.times))]
    return cand[np.unique(np.linspace(0, cand.size - 1, min(sample_count, cand.size)).astype(int))]


class TestClosedForms:
    def test_scalar_ode_exponential(self, scalar_ode_system, unit_history):
        traj = integrate(scalar_ode_system, unit_history, 5.0, step=1e-3)
        assert abs(traj.x_at(5.0)[0] - np.exp(-5.0)) < 1e-8

    def test_neutral_first_interval(self, neutral_system, unit_history):
        traj = integrate(neutral_system, unit_history, 1.0, step=1e-3)
        assert abs(traj.x_at(1.0)[0] - np.exp(-1.0)) < 1e-6

    def test_neutral_second_interval(self, neutral_system, unit_history):
        traj = integrate(neutral_system, unit_history, 2.0, step=1e-3)
        for t in (1.25, 1.5, 1.875):
            assert abs(traj.x_at(t)[0] - neutral_exact(t)) < 1e-6

    def test_zero_rhs_conserves_dop(self, unit_history):
        dop = DifferenceOperator([1.0], [[[0.5]]])
        rhs = RhsMap(n=1, terms=(LinearTerm(0.5, [[0.0]]),))
        system = NfdeSystem(dop, rhs)
        traj = integrate(system, unit_history, 3.0, step=0.05)
        z0 = dop_apply(dop, unit_history)
        assert np.max(np.abs(traj.z - z0)) < 1e-14

    def test_convergence_order_between_breakpoints(self, neutral_system, unit_history):
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            traj = integrate(neutral_system, unit_history, 1.0, step=h)
            errs.append(abs(traj.x_at(0.875)[0] - neutral_exact(0.875)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.0


class TestSegment:
    def test_segment_zero_is_initial_history(self, neutral_system, unit_history):
        traj = integrate(neutral_system, unit_history, 2.0, step=0.05)
        seg = segment(traj, 0.0)
        assert seg is unit_history

    def test_segment_constant_trajectory(self, unit_history):
        dop = DifferenceOperator([1.0], [[[0.5]]])
        rhs = RhsMap(n=1, terms=(LinearTerm(0.5, [[0.0]]),))
        system = NfdeSystem(dop, rhs)
        traj = integrate(system, unit_history, 2.0, step=0.05)
        seg = segment(traj, 1.5)
        pts = seg.eval(np.linspace(-1.0, 0.0, 40))
        assert np.max(np.abs(pts - 1.0)) < 1e-12

    def test_segment_tip_matches_dense_store(self, neutral_system, unit_history):
        traj = integrate(neutral_system, unit_history, 3.0, step=0.01)
        rng = np.random.default_rng(5)
        for t in rng.uniform(0.0, 3.0, 100):
            seg = segment(traj, float(t))
            assert np.allclose(seg.eval(0.0), traj.x_at(float(t)), atol=1e-14)
            assert seg.delta == neutral_system.delta

    def test_segment_out_of_range(self, neutral_system, unit_history):
        traj = integrate(neutral_system, unit_history, 1.0, step=0.05)
        with pytest.raises(PreconditionError):
            segment(traj, 1.5)
        with pytest.raises(PreconditionError):
            segment(traj, -0.5)


class TestResidual:
    def test_exponential_case_residual(self, neutral_system, unit_history):
        traj = integrate(neutral_system, unit_history, 2.0, step=1e-3)
        assert residual_check(traj, 50) <= 1e-5

    def test_zero_rhs_residual(self, unit_history):
        dop = DifferenceOperator([1.0], [[[0.5]]])
        rhs = RhsMap(n=1, terms=(LinearTerm(0.5, [[0.0]]),))
        system = NfdeSystem(dop, rhs)
        traj = integrate(system, unit_history, 2.0, step=0.01)
        assert residual_check(traj, 30) <= 1e-10

    def test_reads_every_z_value_in_one_lookup(self, planar_system):
        """The centered differences read all their z values at once; the
        check's value is the per-sample one, bit for bit."""
        traj = integrate(planar_system, sample_history(2, planar_system.delta, 1.0, 3, seed=4), 3.0, step=0.01)
        lookups = []
        lookup = type(traj._batch).lookup

        def spy(store, b, ts, kind):
            lookups.append((kind, ts.size))
            return lookup(store, b, ts, kind)

        with mock.patch.object(type(traj._batch), "lookup", spy):
            worst = residual_check(traj, 25)
        assert lookups == [("z", 50)]
        reference, d = 0.0, 0.5 * np.min(np.diff(traj.times))
        for tm in _residual_times(traj, 25):
            zdot = (traj.z_at(tm + d) - traj.z_at(tm - d)) / (2.0 * d)
            reference = max(reference, float(np.linalg.norm(zdot - rhs_eval(planar_system.rhs, segment(traj, tm)))))
        assert worst == reference

    def test_residual_shrinks_with_step(self, neutral_system):
        xi0 = sample_history(1, 1.0, 1.0, 3, seed=2)
        res = []
        for h in (2e-2, 1e-2, 5e-3):
            traj = integrate(neutral_system, xi0, 2.0, step=h)
            res.append(residual_check(traj, 40))
        assert res[1] <= 0.6 * res[0]
        assert res[2] <= 0.6 * res[1]


class TestProperties:
    def test_linearity_in_initial_condition(self, neutral_system):
        xi0 = sample_history(1, 1.0, 1.0, 3, seed=9)
        base = integrate(neutral_system, xi0, 3.0, step=0.02)
        for c in (-2.0, 0.5, 3.0):
            scaled = HistorySegment(1.0, xi0.grid, c * xi0.values, xi0.interp,
                                    c * xi0.slopes)
            traj = integrate(neutral_system, scaled, 3.0, step=0.02)
            ref = c * base.x_at(3.0)
            scale = max(1.0, float(np.abs(ref[0])))
            assert float(np.abs(traj.x_at(3.0) - ref)[0]) / scale < 1e-9

    def test_semigroup_reintegration(self, neutral_system, unit_history):
        # restart at a breakpoint so the extracted segment carries the kink
        full = integrate(neutral_system, unit_history, 3.0, step=5e-3)
        first = integrate(neutral_system, unit_history, 1.0, step=5e-3)
        mid = segment(first, 1.0)
        rest = integrate(neutral_system, mid, 2.0, step=5e-3)
        assert abs(rest.x_at(2.0)[0] - full.x_at(3.0)[0]) < 1e-7

    def test_time_invariance_autonomous(self, scalar_ode_system):
        xi0 = sample_history(1, 1.0, 1.0, 2, seed=4)
        full = integrate(scalar_ode_system, xi0, 4.0, step=0.01)
        first = integrate(scalar_ode_system, xi0, 1.5, step=0.01)
        rest = integrate(scalar_ode_system, segment(first, 1.5), 2.5, step=0.01)
        assert abs(rest.x_at(2.5)[0] - full.x_at(4.0)[0]) < 1e-7


class TestGuards:
    def test_step_exceeding_quarter_min_delay(self, neutral_system, unit_history):
        with pytest.raises(PreconditionError):
            integrate(neutral_system, unit_history, 1.0, step=0.3)

    def test_blowup_flagged_not_raised(self, unit_history):
        dop = DifferenceOperator([1.0], [[[0.0]]])
        rhs = RhsMap(n=1, terms=(LinearTerm(0.0, [[4.0]]),))
        system = NfdeSystem(dop, rhs)
        traj = integrate(
            system, unit_history, 12.0, step=StepPolicy(step=0.05, blowup_bound=1e6)
        )
        assert traj.blowup
        assert traj.t_end < 12.0

    @pytest.mark.parametrize("count", [1, 2])
    def test_overflow_within_a_step_is_a_blowup(self, count):
        """From x = 1e5, x' = -x + x^3 + 2 overflows inside the first step's
        stages: each history parks with the blowup flag, and no warning is
        raised on the way (one float history and a batch of two)."""
        terms = (LinearTerm(0.0, [[-1.0]]), NonlinearTerm(0.0, "cubic", [[1.0]]), InputTerm([[1.0]]))
        system = NfdeSystem(DifferenceOperator([1.0], [[[0.0]]]), RhsMap(n=1, m=1, terms=terms))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trajs = integrate_batch(system, [HistorySegment.constant([1e5], 1.0)] * count, 2.0,
                                    step=0.125, u=InputSignal.constant([2.0]))
        assert [(traj.blowup, traj.t_end) for traj in trajs] == [(True, 0.0)] * count

    def test_horizon_mismatch(self, neutral_system):
        short = HistorySegment.constant([1.0], 0.5)
        with pytest.raises(PreconditionError):
            integrate(neutral_system, short, 1.0, step=0.05)

    def test_input_to_input_free_system(self, neutral_system, unit_history):
        with pytest.raises(PreconditionError):
            integrate(neutral_system, unit_history, 1.0, step=0.1,
                      u=InputSignal.zero(1))


class TestBreakpoints:
    @pytest.mark.parametrize("seed", range(4))
    def test_mesh_splits_each_anchor_interval_as_alone(self, seed):
        """One repeat/arange builds the knots a + (b - a) j / k of every anchor
        interval [a, b), bit for bit as a loop over the intervals does."""
        rng = np.random.default_rng(seed)
        step, horizon = rng.uniform(0.01, 0.3), rng.uniform(0.5, 9.0)
        anchors = np.concatenate([rng.uniform(-1.0, horizon + 1.0, 9), np.arange(0.0, horizon, 0.7), [1e-10]])
        points = np.unique(np.concatenate([[0.0], anchors]))
        points = points[(points >= 0.0) & (points < horizon - 1e-9)]
        points = np.append(points[np.r_[True, np.diff(points) > 1e-9]], horizon)
        loop = [np.array([0.0])]
        for a, b in zip(points[:-1], points[1:]):
            k = max(1, int(np.ceil((b - a) / step - 1e-12)))
            loop.append(a + (b - a) * np.arange(1, k + 1) / k)
        mesh = _meshes(step, horizon, anchors, np.zeros(anchors.size, dtype=int), 1)[0]
        assert np.concatenate(loop).tobytes() == mesh.tobytes()

    def test_commensurate_lattice(self):
        bps, truncated = propagation_breakpoints([0.5, 1.0], 2.0)
        assert not truncated
        assert np.allclose(bps, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_incommensurate_delays_merge_within_tolerance(self):
        bps, truncated = propagation_breakpoints([1.0, 1.0 + 5e-10], 3.0)
        assert not truncated
        assert np.allclose(bps, [0.0, 1.0, 2.0, 3.0], atol=1e-8)

    def test_truncated_lattice_falls_back_to_the_plain_mesh(self, tmp_path):
        # delays 1, sqrt 2, sqrt 3 up to 70: more lattice points than the enumeration keeps
        dop = DifferenceOperator([1.0, np.sqrt(2.0), np.sqrt(3.0)], [[[0.2]], [[0.1]], [[0.1]]])
        system = NfdeSystem(dop, RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.0]]),)))
        history = HistorySegment.constant([1.0], system.delta)
        traj = integrate(system, history, 70.0)
        assert traj.order_reduced
        assert np.array_equal(traj.times, 70.0 * np.arange(561) / 560)  # step 1/8, no anchors
        # the breakpoints are the anchors the mesh used, not the cut enumeration, so a
        # trajectory grid spreads over the whole run
        assert np.array_equal(traj.breakpoints, [0.0])
        grid = trajectory_grid(traj, 50)
        assert grid.min() == 0.25 and grid.max() == 69.75 and np.diff(grid).max() < 2.0
        jumps = InputSignal.piecewise_constant([0.0, 3.3, 41.0], [[0.0], [1.0], [0.5]])
        rhs = RhsMap(n=1, m=1, terms=(LinearTerm(0.0, [[-1.0]]), InputTerm([[1.0]])))
        traj = integrate(NfdeSystem(dop, rhs), history, 70.0, u=jumps)
        assert np.array_equal(traj.breakpoints, [0.0, 3.3, 41.0])
        write_json(tmp_path / "sys.json", system_to_dict(system))
        write_json(tmp_path / "hist.json", history_to_dict(history))
        out = tmp_path / "out"
        assert main(["simulate", str(tmp_path / "sys.json"), str(tmp_path / "hist.json"),
                     "-T", "70", "--out", str(out)]) == 0
        result = read_json(out / "report.json")["result"]
        assert result["order_reduced"] is True and result["breakpoints"] == [0.0]

    def test_mesh_hits_breakpoints_exactly(self, neutral_system, unit_history):
        traj = integrate(neutral_system, unit_history, 3.0, step=0.07)
        for b in (1.0, 2.0, 3.0):
            assert np.min(np.abs(traj.times - b)) == 0.0


class TestInputSignals:
    def test_constant_input_steady_state(self, input_system):
        xi0 = HistorySegment.zero(1, 1.0)
        traj = integrate(input_system, xi0, 10.0, step=0.05,
                         u=InputSignal.constant([2.0]))
        # x' = -x + 2 from rest: x -> 2
        assert abs(traj.x_at(10.0)[0] - 2.0) < 1e-4

    def test_piecewise_constant_switch(self, input_system):
        xi0 = HistorySegment.zero(1, 1.0)
        u = InputSignal.piecewise_constant([0.0, 1.0], [[1.0], [0.0]])
        traj = integrate(input_system, xi0, 2.0, step=0.05, u=u)
        # x(1) = 1 - e^{-1}, then decays: x(2) = (1 - e^{-1}) e^{-1}
        assert abs(traj.x_at(1.0)[0] - (1 - np.exp(-1))) < 1e-7
        assert abs(traj.x_at(2.0)[0] - (1 - np.exp(-1)) * np.exp(-1)) < 1e-7

    def test_jump_time_in_mesh(self, input_system):
        xi0 = HistorySegment.zero(1, 1.0)
        u = InputSignal.piecewise_constant([0.0, 0.333], [[1.0], [-1.0]])
        traj = integrate(input_system, xi0, 1.0, step=0.05, u=u)
        assert np.min(np.abs(traj.times - 0.333)) == 0.0

    def test_signal_sup_norms(self):
        u = InputSignal.sinusoid([2.0], omega=3.0)
        assert u.sup_norm(10.0) == pytest.approx(2.0, rel=1e-4)
        pw = InputSignal.piecewise_constant([0.0, 1.0], [[1.0], [3.0]])
        assert pw.sup_norm(0.5) == 1.0
        assert pw.sup_norm(2.0) == 3.0
        zero = InputSignal.zero(2)
        assert zero.sup_norm(5.0) == 0.0

    def test_cumulative_sup_nondecreasing(self):
        u = InputSignal.piecewise_constant([0.0, 1.0, 2.0], [[2.0], [0.5], [3.0]])
        cs = u.cumulative_sup(np.linspace(0.0, 3.0, 13))
        assert np.all(np.diff(cs) >= 0.0)
        assert cs[0] == 0.0
        assert cs[-1] == 3.0

    @pytest.mark.parametrize("u", [
        InputSignal.zero(2),
        InputSignal.constant([0.3, -1.2]),
        InputSignal.piecewise_constant([0.0, 0.7, 1.6, 2.5], [[0.5, 0.1], [-1.0, 2.0], [0.25, 0.0], [3.0, 1.0]]),
        InputSignal("piecewise-constant", {"times": [0.4, 1.1], "values": [[0.2], [-0.7]]}),
        InputSignal.sinusoid([0.8, 0.3], 2.3, 0.4),
        InputSignal.from_table([0.0, 0.45, 1.1, 2.0], [[0.2], [-0.6], [0.9], [0.1]]),
    ], ids=["zero", "constant", "pwc", "pwc-late-start", "sinusoid", "table"])
    def test_cumulative_sup_is_sup_norm_at_each_time(self, u):
        """Bitwise, at switching times and between them, before 0 and past the last piece."""
        times = np.concatenate([[-0.5, 0.0], np.linspace(0.0, 3.0, 25), [0.7, 1.1, 1.6, 2.5, 2.5 + 1e-12]])
        want = np.array([u.sup_norm(t) for t in times])
        got = u.cumulative_sup(times)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestStepFrames:
    """The step loop's Python overhead, counted rather than timed: wall-clock step
    costs swing by tens of percent between runs of the same code on one host, while
    the number of haleform frames a step enters does not depend on the host. Both
    variants of the block kernel, one history's and a batch's, are compiled from
    source whose file name lies in the package, so their frames (one per block) and
    the compile, on a system's first run of each kind, count too."""

    @staticmethod
    def frames_per_step(system, horizon, step, size: int = 1) -> float:
        """Frames per step of one run of `size` histories, which share a mesh."""
        root = str(Path(haleform.__file__).parent)
        phis = [sample_history(system.n, system.delta, 1.0, 2, seed) for seed in range(size)]
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            if event == "call" and frame.f_code.co_filename.startswith(root):
                count += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            traj = integrate_batch(system, phis, horizon, step=step)[0]
        finally:
            sys.setprofile(previous)
        return count / (traj.times.size - 1)

    @pytest.mark.parametrize("name, horizon, step", [("neutral", 1.5, 1e-3), ("planar", 4.0, 0.01)])
    def test_at_most_eight_frames_per_step(self, request, name, horizon, step):
        system = request.getfixturevalue(f"{name}_system")
        assert self.frames_per_step(system, horizon, step) <= 8.0

    def test_batch_of_neutral_histories_at_most_eight_frames_per_step(self, neutral_system):
        """Four histories step through the batch kernel, on (4,) arrays."""
        assert self.frames_per_step(neutral_system, 1.5, 1e-3, size=4) <= 8.0

    def test_batch_of_planar_histories_at_most_one_frame_per_step(self, planar_system):
        """Four planar histories step through the system's batch kernel, one call per
        block of steps on (4,) arrays, one per component, compile included: a stage
        calls no haleform function, as one history's does not."""
        assert self.frames_per_step(planar_system, 4.0, 0.01, size=4) <= 1.0

    def test_one_neutral_history_at_most_one_frame_per_step(self, neutral_system):
        """One history steps through the system's block kernel, one call per block of
        steps on float locals: a stage calls no haleform function."""
        assert self.frames_per_step(neutral_system, 1.5, 1e-3) <= 1.0

    def test_one_planar_history_at_most_one_frame_per_step(self, planar_system):
        """One history of two components steps on two float locals: the kernel writes
        its linear tip term's column fold and its D-terms out, so a stage calls no
        haleform function either."""
        assert self.frames_per_step(planar_system, 4.0, 0.01) <= 1.0

    def test_cubic_system_at_most_sixteen_frames_per_step(self, cubic_system):
        """A nonlinear term's primitive is bound to its params: one call per value, which
        the kernel makes on a (1, n) array of the stage tip."""
        assert self.frames_per_step(cubic_system, 1.5, 1.0 / 32.0) <= 16.0


class TestSetupEvents:
    """An integration's set-up, counted rather than timed, as `TestStepFrames` counts
    the step loop: profile events, that is haleform and numpy Python frames entered
    and C functions called."""

    @staticmethod
    def events(call) -> int:
        roots = tuple(str(Path(module.__file__).parent) for module in (haleform, np))
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "c_call" or event == "call" and frame.f_code.co_filename.startswith(roots)

        call()  # imports and first-call work are not set-up
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(previous)
        return count

    def test_one_step_run_stays_within_three_fifths_of_its_former_set_up(self, neutral_system):
        """A one-step run is set-up only: it makes at most 60% of the 522 events it made
        when every mesh had a pass of its own and each read plan scattered its reads."""
        phi = sample_history(1, 1.0, 1.0, 2, 3)
        assert self.events(lambda: integrate(neutral_system, phi, 0.125, step=0.125)) <= 0.6 * 522

    def test_ragged_ladder_costs_as_its_rows_on_one_mesh_past_its_lattices(self, neutral_system):
        """phi and its six levels-5 rungs, on 7 meshes, against the same rows on one
        mesh: past the breakpoints that the rungs' own kinks add, which the heap
        enumerates point by point, the ragged batch makes at most 1.3x the events."""
        system, phi = neutral_system, sample_history(1, 1.0, 1.0, 2, 3)
        rows = [phi, *(phi_h_extend(system, phi, float(h)) for h in LadderSpec(levels=5).steps(1.0))]
        one_mesh = [HistorySegment(r.delta, r.grid, r.values, r.interp, r.slopes, rows[-1].kink_times) for r in rows]

        def runs(batch):
            return self.events(lambda: integrate_batch(system, batch, 10.0, step=0.125))

        def lattices(batch):
            return self.events(lambda: [propagation_breakpoints([1.0], 10.0, (0.0, *r.kink_times)) for r in batch])

        assert integrate_batch(system, rows, 10.0, step=0.125)[0]._batch.mesh_count == 7
        assert runs(rows) - (lattices(rows) - lattices(one_mesh[:1])) <= 1.3 * runs(one_mesh)
