"""The vectorized lookups agree bitwise with their scalar, per-node references."""
import bisect

import numpy as np

from haleform import (
    ConverseFunctional,
    HistorySegment,
    InputSignal,
    LadderSpec,
    QuadraticDopFunctional,
    driver_derivative,
    integrate,
    phi_h_extend,
    sample_history,
    segment,
    trajectory_grid,
)
from haleform.histories import _hermite_basis, _hermite_deriv_basis, _hermite_sum
from haleform.integrate import _BP_TOL, _breakpoint_gap


def _hermite(theta, length, y0, y1, s0, s1):
    """The cubic Hermite value at theta of a panel with end values y0, y1 and end slopes s0, s1."""
    return _hermite_sum(_hermite_basis(theta), length, y0, y1, s0, s1)


def _hermite_deriv(theta, length, y0, y1, s0, s1):
    """Its time derivative."""
    return _hermite_sum(_hermite_deriv_basis(theta), length, y0, y1, s0, s1) / length


def _point(grid, values, slopes, s, deriv=False, side="+"):
    """One value (or derivative) of an interpolant at a scalar time: bisect and
    Python floats, the way a per-point lookup computes it. slopes None is linear."""
    g = [float(v) for v in grid]
    i = min(max(bisect.bisect_right(g, s) - 1, 0), len(g) - 2)
    if deriv and side == "-" and i > 0 and s == g[i]:
        i -= 1
    length = g[i + 1] - g[i]
    theta = (s - g[i]) / length
    y0, y1 = values[i], values[i + 1]
    if slopes is None:
        return (y1 - y0) / length if deriv else y0 + theta * (y1 - y0)
    return (_hermite_deriv if deriv else _hermite)(theta, length, y0, y1, slopes[i], slopes[i + 1])


def _history_point(phi, s, deriv=False, side="+"):
    s = min(max(float(s), -phi.delta), 0.0)
    return _point(phi.grid, phi.values, phi.slopes, s, deriv, side)


def _store_point(traj, t, name="x", side="+"):
    """x, z or x' ("dx", from `side`) of a trajectory at time t, one knot pair at a time."""
    t = float(t)
    if name == "x" and t <= 0.0:
        return _history_point(traj.xi0, t)
    if name == "dx" and (t < 0.0 or (t == 0.0 and side == "-")):
        return _history_point(traj.xi0, t, True, side)

    def column(array):  # the trajectory's column of its batch store
        return getattr(traj._batch, array)[:, traj._row]

    y, right, left = (column("z"), column("zdot_right"), column("zdot_left")) if name == "z" else (
        column("x"), column("xdot_right"), column("xdot_left")
    )
    node = {"x": y, "z": y, "dx": column("xdot_right" if side == "+" else "xdot_left")}[name]
    times = [float(v) for v in traj.times]
    if len(times) == 1:
        return node[0]
    i = min(max(bisect.bisect_right(times, t) - 1, 0), len(times) - 2)
    if t == times[i]:
        return node[i]
    if t == times[i + 1]:
        return node[i + 1]
    length = times[i + 1] - times[i]
    kernel = _hermite_deriv if name == "dx" else _hermite
    return kernel((t - times[i]) / length, length, y[i], y[i + 1], right[i], left[i + 1])


def _histories(n, delta):
    out = [sample_history(n, delta, 1.0, r, seed) for r, seed in ((1, 3), (3, 8), (5, 21))]
    out.append(HistorySegment(delta, out[1].grid, out[1].values, "linear"))
    return out


def _systems(request):
    names = ("neutral_system", "planar_system", "cubic_system", "two_delay_system", "distributed_system")
    return [request.getfixturevalue(name) for name in names]


def _same(a, b):
    return np.asarray(a).shape == np.asarray(b).shape and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _segment_reference(traj, t):
    """segment() as a per-node loop over scalar store lookups."""
    delta = traj.system.delta
    lo = t - delta
    knots = [lo]
    past = traj.xi0.grid + 0.0
    knots.extend(past[(past > lo) & (past < t)])
    pos = traj.times
    knots.extend(pos[(pos > lo) & (pos < t) & (pos > 0.0)])
    knots.append(t)
    grid = np.unique(np.asarray(knots))
    grid = grid[np.r_[True, np.diff(grid) > _BP_TOL * max(1.0, delta)]]
    grid[-1] = t
    values = np.stack([_store_point(traj, g) for g in grid])
    slopes = np.stack([
        _store_point(traj, g, "dx", "-" if k == grid.size - 1 else "+") for k, g in enumerate(grid)
    ])
    return HistorySegment(delta, grid - t, values, "cubic-hermite", slopes)


def test_history_eval_matches_scalar_path():
    for phi in _histories(2, 1.5):
        pts = np.concatenate([phi.grid, np.linspace(-1.5, 0.0, 53)])
        batch = phi.eval(pts)
        for k, s in enumerate(pts):
            assert _same(batch[k], _history_point(phi, s))
            assert _same(phi.eval(float(s)), batch[k])


def test_history_deriv_matches_scalar_path_on_both_sides_at_nodes():
    for phi in _histories(2, 1.5):
        pts = np.concatenate([phi.grid, np.linspace(-1.5, 0.0, 53)])
        for side in ("+", "-"):
            batch = phi.deriv(pts, side)
            for k, s in enumerate(pts):
                assert _same(batch[k], _history_point(phi, s, True, side))
                assert _same(phi.deriv(float(s), side), batch[k])


def test_store_array_lookups_match_scalar_lookups(request):
    for system in _systems(request):
        phis = _histories(system.n, system.delta)
        kinked = HistorySegment(system.delta, phis[1].grid, phis[1].values, kink_times=[-0.3 * system.delta])
        for phi in [*phis, kinked]:
            traj = integrate(system, phi, 2.3, step=1.0 / 32.0)
            ts = np.concatenate([
                traj.times, np.linspace(-system.delta, traj.t_end, 61), [2.0 * traj.t_end / 3.0]
            ])
            xs = traj.x_at(ts)
            for k, t in enumerate(ts):
                assert _same(xs[k], _store_point(traj, t))
                assert _same(traj.x_at(float(t)), xs[k])
            for side in ("+", "-"):
                xd = traj.xdot_at(ts, side)
                for k, t in enumerate(ts):
                    assert _same(xd[k], _store_point(traj, t, "dx", side))
                    assert _same(traj.xdot_at(float(t), side), xd[k])
            zs = traj.z_dense(ts[ts >= 0.0])
            for k, t in enumerate(ts[ts >= 0.0]):
                assert _same(zs[k], _store_point(traj, t, "z"))
                assert _same(traj.z_at(float(t)), zs[k])


def test_segment_matches_per_node_reference(request):
    for system in _systems(request):
        phi = _histories(system.n, system.delta)[1]
        traj = integrate(system, phi, 2.7, step=1.0 / 32.0)
        for t in (1e-3, 0.31, system.delta, 1.0 + 1.0 / 64.0, 2.0, traj.t_end):
            seg = segment(traj, t)
            ref = _segment_reference(traj, min(t, traj.t_end))
            for got, want in ((seg.grid, ref.grid), (seg.values, ref.values), (seg.slopes, ref.slopes)):
                assert _same(got, want)


def test_phi_h_extend_matches_per_node_reference(request):
    for system in _systems(request):
        for phi in _histories(system.n, system.delta)[:3]:
            for h in system.dop.min_delay / 8.0 * 0.5 ** np.arange(0, 13, 4):
                ext = phi_h_extend(system, phi, float(h))
                left = np.nonzero(ext.grid <= -h)[0]
                ref = np.stack([
                    _history_point(phi, ext.grid[k] + h, True, "-" if ext.grid[k] == -h else "+") for k in left
                ])
                assert _same(ext.slopes[left], ref)
                assert _same(ext.values[left], phi.eval(ext.grid[left] + h))


def test_breakpoint_guard_matches_brute_force(request):
    signal = InputSignal("piecewise-constant", {"times": [0.0, 0.55, 1.3], "values": [[1.0], [0.0], [-1.0]]})
    input_system = request.getfixturevalue("input_system")
    cases = [(system, None) for system in _systems(request)] + [(input_system, signal)]
    for system, u in cases:
        phi = _histories(system.n, system.delta)[0]
        traj = integrate(system, phi, 3.1, step=1.0 / 64.0, u=u)
        bps = np.concatenate([traj.breakpoints, [0.0, traj.t_end]])
        mids = 0.5 * (traj.times[:-1] + traj.times[1:])
        for ts in (traj.times, mids, np.linspace(-0.5, traj.t_end + 0.5, 97)):
            brute = np.array([np.min(np.abs(bps - t)) for t in ts])
            assert _same(_breakpoint_gap(traj, ts), brute)
        guard = 2.0 * float(np.min(np.diff(traj.times)))
        brute_times = traj.times[np.array([np.min(np.abs(bps - t)) >= guard for t in traj.times])]
        assert _same(trajectory_grid(traj, traj.times.size), brute_times)


def test_derivative_estimate_carries_base_value(neutral_system, planar_system):
    for system in (neutral_system, planar_system):
        V = QuadraticDopFunctional(system.dop, np.eye(system.n))
        for phi in _histories(system.n, system.delta):
            est = driver_derivative(system, V, phi, None, LadderSpec(levels=4))
            assert est.v0 == V(phi)
    W = ConverseFunctional(neutral_system, 0.3, 4.0, step=0.125)
    phi = _histories(1, 1.0)[1]
    assert driver_derivative(neutral_system, W, phi, None, LadderSpec(levels=3)).v0 == W(phi)
