"""Method-of-steps integration of d/dt D x_t = f(x_t [, u(t)]).

The integrated quantity is z(t) = D x_t, which is continuously differentiable
between breakpoints; the state is reconstructed algebraically as
x(t) = z(t) + sum_j A_j x(t - Delta_j) from the dense store. A classical
4-stage explicit step advances z; delayed arguments always read the dense
store (cubic Hermite between accepted nodes, the initial history for t <= 0)
and never extrapolate. Breakpoints sum_j k_j Delta_j are inserted into the
mesh so derivative jumps stay aligned with step boundaries.

The mesh is complete before the first step, so the dense store is a set of
preallocated (mesh size, n) arrays (x, z and their sided slopes) filled one
row per accepted node, and every lookup, scalar or vectorized, reads them in
place. Stages at the same time share their delayed reads: the terms
A_j x(s - Delta_j) and the right-hand side's reads of the accepted past.
"""
from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .histories import CUBIC, HistorySegment, _hermite, _hermite_deriv
from .operators import NfdeSystem, dop_apply, rhs_eval
from .signals import InputSignal

_BP_TOL = 1e-9


@dataclass(frozen=True)
class StepPolicy:
    """Fixed-step mesh parameters. step defaults to min positive delay / 8."""

    step: float | None = None
    breakpoint_limit: int = 20000
    blowup_bound: float = 1e12


def propagation_breakpoints(delays, horizon: float, limit: int = 20000, seeds=(0.0,)):
    """Sums seed + nonnegative integer multiples of the delays, up to horizon.

    Seeds below zero model derivative kinks inside the initial history; only
    the nonnegative part of their lattice is reported. Returns (breakpoints,
    truncated). Sums closer than 1e-9 are merged, which covers rationally
    commensurate delays; if the lattice has more than `limit` points below
    the horizon the enumeration stops and `truncated` is True (callers fall
    back to the plain mesh, reducing observed order).
    """
    delays = sorted({float(d) for d in delays if d > 0})
    out = []
    seen = set()
    heap = []
    for s in seeds:
        key = int(round(float(s) / _BP_TOL))
        if key not in seen:
            seen.add(key)
            heapq.heappush(heap, float(s))
    truncated = False
    while heap:
        v = heapq.heappop(heap)
        if v > horizon + _BP_TOL:
            break
        if v >= -_BP_TOL:
            out.append(max(v, 0.0))
            if len(out) > limit:
                truncated = True
                break
        for d in delays:
            w = v + d
            key = int(round(w / _BP_TOL))
            if w <= horizon + _BP_TOL and key not in seen:
                seen.add(key)
                heapq.heappush(heap, w)
    return np.asarray(out), truncated


def _build_mesh(step: float, horizon: float, anchors: np.ndarray) -> np.ndarray:
    anchors = np.unique(np.concatenate([[0.0], anchors]))
    anchors = anchors[(anchors >= 0.0) & (anchors < horizon - _BP_TOL)]
    keep = np.r_[True, np.diff(anchors) > _BP_TOL]
    anchors = np.append(anchors[keep], horizon)
    mesh = [np.array([0.0])]
    for a, b in zip(anchors[:-1], anchors[1:]):
        k = max(1, int(np.ceil((b - a) / step - 1e-12)))
        mesh.append(a + (b - a) * np.arange(1, k + 1) / k)
    return np.concatenate(mesh)


class _DenseStore:
    """Accepted knots of x and z with sided Hermite slopes, preallocated on the mesh.

    The mesh is fixed before the first step, so every array holds one row per
    mesh node and rows [0, count) are the accepted knots (rows beyond stay
    NaN). Node times return the stored rows; times in between use the cubic
    Hermite of the enclosing interval, with right slopes at its left end and
    left slopes at its right.
    """

    def __init__(self, xi0: HistorySegment, mesh: np.ndarray, n: int):
        self.xi0 = xi0
        self.n = n
        self.mesh = mesh
        self._mesh_list = mesh.tolist()
        self.count = 0
        self.x, self.z, self.zdot_left, self.zdot_right, self.xdot_left, self.xdot_right = (
            np.full((mesh.size, n), np.nan) for _ in range(6)
        )

    @property
    def times(self) -> np.ndarray:
        return self.mesh[: self.count]

    def append(self, x, z, zdl, zdr, xdl, xdr):
        self.x[self.count] = x
        self.z[self.count] = z
        self.count += 1
        self.set_last_slopes(zdl, zdr, xdl, xdr)

    def set_last_slopes(self, zdl, zdr, xdl, xdr):
        k = self.count - 1
        self.zdot_left[k] = zdl
        self.zdot_right[k] = zdr
        self.xdot_left[k] = xdl
        self.xdot_right[k] = xdr

    def _at(self, t: float, kernel, y, right, left, node) -> np.ndarray:
        tl = self._mesh_list
        i = bisect.bisect_right(tl, t, 0, self.count) - 1
        i = min(max(i, 0), self.count - 2)
        if t == tl[i]:
            return node[i]
        if t == tl[i + 1]:
            return node[i + 1]
        length = tl[i + 1] - tl[i]
        return kernel((t - tl[i]) / length, length, y[i], y[i + 1], right[i], left[i + 1])

    def _many(self, ts: np.ndarray, kernel, y, right, left, node) -> np.ndarray:
        """`_at` on every time of ts at once."""
        times = self.times
        i = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, times.size - 2)
        length = times[i + 1] - times[i]
        theta = (ts - times[i]) / length
        out = kernel(theta[:, None], length[:, None], y[i], y[i + 1], right[i], left[i + 1])
        at_left = ts == times[i]
        at_right = ts == times[i + 1]
        out[at_left] = node[i[at_left]]
        out[at_right] = node[i[at_right] + 1]
        return out

    def x_at(self, t: float) -> np.ndarray:
        if t <= 0.0:
            return self.xi0.eval_scalar(t)
        return self._at(t, _hermite, self.x, self.xdot_right, self.xdot_left, self.x)

    def x_many(self, ts: np.ndarray) -> np.ndarray:
        out = np.empty((ts.size, self.n))
        past = ts <= 0.0
        if past.any():
            out[past] = self.xi0.eval(ts[past])
        if not past.all():
            out[~past] = self._many(
                ts[~past], _hermite, self.x, self.xdot_right, self.xdot_left, self.x
            )
        return out

    def xdot_at(self, t: float, side: str = "+") -> np.ndarray:
        if t < 0.0 or (t == 0.0 and side == "-"):
            return self.xi0.deriv_scalar(min(t, 0.0), side)
        node = self.xdot_right if side == "+" else self.xdot_left
        return self._at(t, _hermite_deriv, self.x, self.xdot_right, self.xdot_left, node)

    def xdot_many(self, ts: np.ndarray, side: str = "+") -> np.ndarray:
        out = np.empty((ts.size, self.n))
        past = (ts < 0.0) | ((ts == 0.0) & (side == "-"))
        if past.any():
            out[past] = self.xi0.deriv(ts[past], side)
        if not past.all():
            node = self.xdot_right if side == "+" else self.xdot_left
            out[~past] = self._many(
                ts[~past], _hermite_deriv, self.x, self.xdot_right, self.xdot_left, node
            )
        return out

    def z_at(self, t: float) -> np.ndarray:
        if t < 0.0:
            raise PreconditionError("z is defined for t >= 0 only")
        return self._at(t, _hermite, self.z, self.zdot_right, self.zdot_left, self.z)

    def z_many(self, ts: np.ndarray) -> np.ndarray:
        return self._many(ts, _hermite, self.z, self.zdot_right, self.zdot_left, self.z)


class _StageView:
    """History x_s seen by the right-hand side during a stage evaluation.

    Times at or before the anchor (last accepted node) read the dense store
    through `past`, a cache shared by every view at the same stage time; the
    sliver (anchor, s] interpolates linearly to the stage tip. Only rhs
    delays shorter than one step ever read the sliver.
    """

    def __init__(
        self, store: _DenseStore, delta: float, tip_t: float, tip_x, anchor_t: float, past: dict
    ):
        self.store = store
        self.delta = delta
        self.tip_t = tip_t
        self.tip_x = tip_x
        self.anchor_t = anchor_t
        self.anchor_x = store.x[store.count - 1]
        self.past = past
        self.interp = CUBIC

    def eval(self, tau):
        if np.isscalar(tau) or np.ndim(tau) == 0:
            t = self.tip_t + float(tau)
            if t <= self.anchor_t:
                x = self.past.get(t)
                if x is None:
                    x = self.past[t] = self.store.x_at(t)
                return x
            if t >= self.tip_t or self.tip_t == self.anchor_t:
                return self.tip_x
            w = (t - self.anchor_t) / (self.tip_t - self.anchor_t)
            return (1.0 - w) * self.anchor_x + w * self.tip_x
        t = self.tip_t + np.asarray(tau, dtype=float).ravel()
        out = np.empty((t.size, self.store.n))
        past = t <= self.anchor_t
        if past.any():
            key = t[past].tobytes()
            x = self.past.get(key)
            if x is None:
                x = self.past[key] = self.store.x_many(t[past])
            out[past] = x
        sliver = ~past & (t < self.tip_t) & (self.tip_t != self.anchor_t)
        out[~past & ~sliver] = self.tip_x
        if sliver.any():
            w = ((t[sliver] - self.anchor_t) / (self.tip_t - self.anchor_t))[:, None]
            out[sliver] = (1.0 - w) * self.anchor_x + w * self.tip_x
        return out

    def quad_panels(self) -> np.ndarray:
        lo = self.tip_t - self.delta
        past = self.store.xi0.grid + 0.0
        past = past[(past >= lo) & (past <= 0.0)]
        times = self.store.times
        accepted = times[np.searchsorted(times, lo) : np.searchsorted(times, self.anchor_t, "right")]
        pts = np.concatenate([past, accepted, [self.anchor_t, self.tip_t]])
        return np.unique(np.clip(pts - self.tip_t, -self.delta, 0.0))


@dataclass
class Trajectory:
    """Dense solution on [-Delta, t_end] plus the z = D x_t store."""

    system: NfdeSystem
    xi0: HistorySegment
    times: np.ndarray
    x: np.ndarray
    z: np.ndarray
    breakpoints: np.ndarray
    t_end: float
    blowup: bool
    order_reduced: bool
    input: InputSignal | None
    _store: _DenseStore = field(repr=False)

    def x_at(self, t):
        if np.ndim(t) == 0:
            return self._store.x_at(float(t))
        return self._store.x_many(np.asarray(t, dtype=float).ravel())

    def z_at(self, t):
        if np.ndim(t) == 0:
            return self._store.z_at(float(t))
        return self.z_dense(np.asarray(t, dtype=float).ravel())

    def z_dense(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized Hermite evaluation of z on times in [0, t_end]."""
        return self._store.z_many(ts)

    def xdot_at(self, t, side: str = "+"):
        return self._store.xdot_at(float(t), side)


def integrate(
    system: NfdeSystem,
    xi0: HistorySegment,
    horizon: float,
    step: StepPolicy | float | None = None,
    u: InputSignal | None = None,
) -> Trajectory:
    """Integrate the system from initial history xi0 over [0, horizon].

    The step must not exceed a quarter of the smallest positive delay, so
    that stage-time reconstructions only ever read already-accepted history.
    Non-finite or overflowing states truncate the trajectory with the blowup
    flag set rather than raising.
    """
    policy = step if isinstance(step, StepPolicy) else StepPolicy(step=step)
    if horizon <= 0.0:
        raise PreconditionError("horizon must be positive")
    if abs(xi0.delta - system.delta) > _BP_TOL * max(1.0, system.delta):
        raise PreconditionError(
            f"initial history horizon {xi0.delta} != system horizon {system.delta}"
        )
    if xi0.n != system.n:
        raise PreconditionError("initial history dimension disagrees with system")
    if system.m > 0 and u is None:
        u = InputSignal.zero(system.m)
    if system.m == 0 and u is not None:
        raise PreconditionError("input signal passed to an input-free system")
    min_delay = system.min_positive_delay()
    h = policy.step if policy.step is not None else min_delay / 8.0
    if h is None or h <= 0.0:
        raise PreconditionError("step must be positive")
    if h > min_delay / 4.0 + _BP_TOL:
        raise PreconditionError(
            f"step {h} exceeds min positive delay / 4 = {min_delay / 4.0}"
        )

    all_delays = list(system.dop.delays) + system.rhs.positive_delays()
    seeds = [0.0] + [float(s) for s in xi0.kink_times if s > -system.delta]
    bps, truncated = propagation_breakpoints(
        all_delays, horizon, policy.breakpoint_limit, seeds=seeds
    )
    anchors = bps if not truncated else np.array([0.0, horizon])
    if u is not None:
        anchors = np.concatenate([anchors, u.jump_times(horizon)])
    mesh = _build_mesh(h, horizon, anchors)

    rhs = system.rhs
    delta = system.delta
    store = _DenseStore(xi0, mesh, system.n)
    dop_terms = list(zip(system.dop.delays.tolist(), system.dop.matrices))

    def delayed(t: float) -> list[np.ndarray]:
        """The terms A_j x(t - Delta_j), in summation order."""
        return [a @ store.x_at(t - d) for d, a in dop_terms]

    def recon(z_val: np.ndarray, terms: list[np.ndarray]) -> np.ndarray:
        out = z_val.copy()
        for term in terms:
            out += term
        return out

    def delayed_slope_sum(t: float, side: str) -> np.ndarray:
        out = np.zeros(system.n)
        for d, a in dop_terms:
            out += a @ store.xdot_at(t - d, side)
        return out

    def u_at(t: float, side: str = "+"):
        return u.eval(t, side) if u is not None else None

    def f_for(view, t: float, side: str = "+") -> np.ndarray:
        return rhs.eval(view, u_at(t, side))

    # seed node at t = 0
    z0 = dop_apply(system.dop, xi0)
    x0 = xi0.eval(0.0)
    zdr0 = rhs.eval(xi0, u_at(0.0, "+"))
    xdl0 = xi0.deriv(0.0, "-")
    store.append(x0, z0, zdr0, zdr0, xdl0, xdl0)
    xdr0 = zdr0 + delayed_slope_sum(0.0, "+")
    store.set_last_slopes(zdr0, zdr0, xdl0, xdr0)

    blowup = False
    u_jumps = set(np.round(u.jump_times(horizon) / _BP_TOL).astype(np.int64)) if u is not None else set()
    mesh_list = store._mesh_list

    for i in range(mesh.size - 1):
        t = mesh_list[i]
        t_next = mesh_list[i + 1]
        hh = t_next - t
        z_cur = store.z[i]
        k1 = store.zdot_right[i]

        # stages at one time share their delayed reads: D-terms and rhs past
        s_mid = t + 0.5 * hh
        mid_terms, mid_past = delayed(s_mid), {}
        z2 = z_cur + 0.5 * hh * k1
        k2 = f_for(_StageView(store, delta, s_mid, recon(z2, mid_terms), t, mid_past), s_mid)
        z3 = z_cur + 0.5 * hh * k2
        k3 = f_for(_StageView(store, delta, s_mid, recon(z3, mid_terms), t, mid_past), s_mid)
        z4 = z_cur + hh * k3
        end_terms, end_past = delayed(t_next), {}
        # the step integrates the u-branch active on (t, t_next): left limit at t_next
        k4 = f_for(_StageView(store, delta, t_next, recon(z4, end_terms), t, end_past), t_next, "-")

        z_new = z_cur + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x_new = recon(z_new, end_terms)
        mag2 = float(x_new @ x_new)
        if not np.isfinite(mag2) or mag2 > policy.blowup_bound**2:
            blowup = True
            break

        # provisional slopes from the last stage; refreshed right below
        tail_left = delayed_slope_sum(t_next, "-")
        store.append(x_new, z_new, k4, k4, k4 + tail_left, k4 + tail_left)

        node_view = _StageView(store, delta, t_next, x_new, t_next, end_past)
        zdr_new = f_for(node_view, t_next, "+")
        key = int(round(t_next / _BP_TOL))
        zdl_new = f_for(node_view, t_next, "-") if key in u_jumps else zdr_new
        xdl_new = zdl_new + tail_left
        xdr_new = zdr_new + delayed_slope_sum(t_next, "+")
        store.set_last_slopes(zdl_new, zdr_new, xdl_new, xdr_new)

    times = store.times
    count = store.count
    return Trajectory(
        system=system,
        xi0=xi0,
        times=times,
        x=store.x[:count],
        z=store.z[:count],
        breakpoints=bps[bps <= times[-1] + _BP_TOL],
        t_end=float(times[-1]),
        blowup=blowup,
        order_reduced=truncated,
        input=u,
        _store=store,
    )


def segment(traj: Trajectory, t: float) -> HistorySegment:
    """History of horizon Delta ending at time t, node-exact at store knots.

    Interior nodes carry right-sided slopes; a derivative kink strictly inside
    the window is therefore smoothed within its single mesh interval.
    """
    delta = traj.system.delta
    if t < -_BP_TOL or t > traj.t_end + _BP_TOL:
        raise PreconditionError(f"segment time {t} outside [0, {traj.t_end}]")
    t = min(max(t, 0.0), traj.t_end)
    if t == 0.0:
        return traj.xi0
    lo = t - delta
    past = traj.xi0.grid + 0.0
    pos = traj.times
    grid = np.unique(np.concatenate([
        [lo], past[(past > lo) & (past < t)], pos[(pos > lo) & (pos < t) & (pos > 0.0)], [t]
    ]))
    keep = np.r_[True, np.diff(grid) > _BP_TOL * max(1.0, delta)]
    grid = grid[keep]
    grid[-1] = t
    store = traj._store
    values = store.x_many(grid)
    slopes = np.vstack([store.xdot_many(grid[:-1], "+"), store.xdot_at(t, "-")])
    return HistorySegment(delta, grid - t, values, CUBIC, slopes)


def _breakpoint_gap(traj: Trajectory, ts: np.ndarray) -> np.ndarray:
    """Distance from each time in ts to the nearest breakpoint, 0 or t_end."""
    bps = np.unique(np.concatenate([traj.breakpoints, [0.0, traj.t_end]]))
    pos = np.searchsorted(bps, ts)
    below = bps[np.maximum(pos - 1, 0)]
    above = bps[np.minimum(pos, bps.size - 1)]
    return np.minimum(np.abs(below - ts), np.abs(above - ts))


def residual_check(traj: Trajectory, sample_count: int = 50) -> float:
    """Max |centered difference of D x_t - f(x_t)| at midpoints between breakpoints.

    Candidate times keep at least two mesh steps away from every breakpoint;
    the centered difference of the dense z store is compared against a direct
    right-hand-side evaluation on the extracted segment.
    """
    if traj.blowup:
        raise PreconditionError("residual check on a blown-up trajectory")
    times = traj.times
    if times.size < 5:
        raise PreconditionError("trajectory too short for a residual check")
    h_local = np.min(np.diff(times))
    mids = 0.5 * (times[:-1] + times[1:])
    guard = 2.0 * h_local
    cand = mids[_breakpoint_gap(traj, mids) >= guard]
    if cand.size == 0:
        return 0.0
    sel = cand[np.unique(np.linspace(0, cand.size - 1, min(sample_count, cand.size)).astype(int))]
    worst = 0.0
    for tm in sel:
        d = min(h_local, 0.25 * guard)
        zdot_fd = (traj.z_at(tm + d) - traj.z_at(tm - d)) / (2.0 * d)
        fval = rhs_eval(
            traj.system.rhs,
            segment(traj, tm),
            traj.input.eval(tm) if traj.input is not None else None,
        )
        worst = max(worst, float(np.linalg.norm(zdot_fd - fval)))
    return worst
