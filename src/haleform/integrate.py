"""Method-of-steps integration of d/dt D x_t = f(x_t [, u(t)]).

The integrated quantity is z(t) = D x_t, which is continuously differentiable
between breakpoints; the state is reconstructed algebraically as
x(t) = z(t) + sum_j A_j x(t - Delta_j) from the dense store. A classical
4-stage explicit step advances z; delayed arguments always read the dense
store (cubic Hermite between accepted nodes, the initial history for t <= 0)
and never extrapolate. Breakpoints sum_j k_j Delta_j are inserted into the
mesh so derivative jumps stay aligned with step boundaries.

The mesh is complete before the first step, and it depends on the history
only through its kink times. So histories with the same kinks advance
together: the dense store is a set of preallocated (mesh size, B, n) arrays
(x, z and their sided slopes) for B histories, filled one row per accepted
node, and every lookup reads them in place. Stages at the same time share
their delayed reads: the terms A_j x(s - Delta_j) and the right-hand side's
reads of the accepted past. Each history's trajectory keeps a (mesh size, n)
view of its own column.
"""
from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .histories import CUBIC, HistorySegment, _hermite, _hermite_deriv
from .operators import NfdeSystem, _apply, dop_apply, rhs_eval
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


def _lookup(mesh_list, count, t, kernel, y, right, left, node):
    """Value at time t of the Hermite interpolant through the first `count` knots.

    y, right, left and node hold one row per mesh node, each row an (n,) vector
    or a (B, n) stack of them: every row of a stack shares the interval and its
    weights. Node times return the node row; a single knot holds its value.
    """
    if count == 1:
        return node[0]
    i = bisect.bisect_right(mesh_list, t, 0, count) - 1
    i = min(max(i, 0), count - 2)
    if t == mesh_list[i]:
        return node[i]
    if t == mesh_list[i + 1]:
        return node[i + 1]
    length = mesh_list[i + 1] - mesh_list[i]
    return kernel((t - mesh_list[i]) / length, length, y[i], y[i + 1], right[i], left[i + 1])


class _DenseStore:
    """Accepted knots of one trajectory's x and z with sided Hermite slopes.

    Rows [0, count) of the (mesh size, n) arrays are the accepted knots. Node
    times return the stored rows; times in between use the cubic Hermite of
    the enclosing interval, with right slopes at its left end and left slopes
    at its right. A trajectory of one knot holds its value.
    """

    def __init__(self, xi0: HistorySegment, mesh: np.ndarray, mesh_list: list, count: int, arrays):
        self.xi0 = xi0
        self.n = xi0.n
        self.mesh = mesh
        self._mesh_list = mesh_list
        self.count = count
        self.x, self.z, self.zdot_left, self.zdot_right, self.xdot_left, self.xdot_right = arrays

    @property
    def times(self) -> np.ndarray:
        return self.mesh[: self.count]

    def _at(self, t: float, kernel, y, right, left, node) -> np.ndarray:
        return _lookup(self._mesh_list, self.count, t, kernel, y, right, left, node)

    def _many(self, ts: np.ndarray, kernel, y, right, left, node) -> np.ndarray:
        """`_at` on every time of ts at once."""
        times = self.times
        if times.size == 1:
            return np.repeat(node[:1], ts.size, axis=0)
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


class _BatchStore:
    """The dense stores of B histories on one mesh, as (mesh size, B, n) arrays.

    The step loop fills one mesh row per accepted step for every history at
    once, and a lookup at one time shares its interval and Hermite weights
    across the B rows; reads of the initial histories go history by history.
    """

    def __init__(self, histories, mesh: np.ndarray):
        self.histories = histories
        self.mesh = mesh
        self.mesh_list = mesh.tolist()
        self.count = 0
        self.shape = (len(histories), histories[0].n)
        self.arrays = tuple(np.full((mesh.size, *self.shape), np.nan) for _ in range(6))
        self.x, self.z, self.zdot_left, self.zdot_right, self.xdot_left, self.xdot_right = self.arrays
        self._row_stores = []

    def append(self, x, z, zdl, zdr, xdl, xdr):
        self.x[self.count] = x
        self.z[self.count] = z
        self.count += 1
        for store in self._row_stores:
            store.count = self.count
        self.set_last_slopes(zdl, zdr, xdl, xdr)

    def set_last_slopes(self, zdl, zdr, xdl, xdr):
        k = self.count - 1
        self.zdot_left[k] = zdl
        self.zdot_right[k] = zdr
        self.xdot_left[k] = xdl
        self.xdot_right[k] = xdr

    def x_at(self, t: float) -> np.ndarray:
        if t <= 0.0:
            out = np.empty(self.shape)
            for b, xi0 in enumerate(self.histories):
                out[b] = xi0.eval_scalar(t)
            return out
        return _lookup(
            self.mesh_list, self.count, t, _hermite, self.x, self.xdot_right, self.xdot_left, self.x
        )

    def xdot_at(self, t: float, side: str) -> np.ndarray:
        if t < 0.0 or (t == 0.0 and side == "-"):
            out = np.empty(self.shape)
            for b, xi0 in enumerate(self.histories):
                out[b] = xi0.deriv_scalar(min(t, 0.0), side)
            return out
        node = self.xdot_right if side == "+" else self.xdot_left
        return _lookup(
            self.mesh_list, self.count, t, _hermite_deriv, self.x, self.xdot_right, self.xdot_left, node
        )

    def row_stores(self) -> list[_DenseStore]:
        """One store per history over the batch arrays, kept at the batch's count."""
        if not self._row_stores:
            self._row_stores = [self.row(b) for b in range(len(self.histories))]
        return self._row_stores

    def row(self, b: int, copy: bool = False) -> _DenseStore:
        """History b's store as it stands; `copy` detaches it from the batch arrays."""
        arrays = tuple(a[: self.count, b].copy() if copy else a[:, b] for a in self.arrays)
        return _DenseStore(self.histories[b], self.mesh, self.mesh_list, self.count, arrays)

    def retire(self, b: int):
        """Zero history b's rows, so that its stages stay finite after a blowup."""
        for a in self.arrays:
            a[:, b] = 0.0


class _StageView:
    """History x_s seen by the right-hand side during a stage evaluation.

    Times at or before the anchor (last accepted node) read the dense store
    through `past`, a cache shared by every view at the same stage time; the
    sliver (anchor, s] interpolates linearly to the stage tip. Only rhs
    delays shorter than one step ever read the sliver. On a batch store a
    scalar-time read returns one (B, n) stack; `rows` splits the view per
    history for terms that integrate each history on its own panels.
    """

    def __init__(self, store, delta: float, tip_t: float, tip_x, anchor_t: float, past: dict):
        self.store = store
        self.delta = delta
        self.tip_t = tip_t
        self.tip_x = tip_x
        self.anchor_t = anchor_t
        self.past = past
        self.interp = CUBIC

    @property
    def anchor_x(self):
        return self.store.x[self.store.count - 1]

    @property
    def rows(self) -> list[_StageView] | None:
        if not isinstance(self.store, _BatchStore):
            return None
        # the row views at one stage time share a read cache per history
        return [
            _StageView(
                store, self.delta, self.tip_t, self.tip_x[b], self.anchor_t,
                self.past.setdefault(("row", b), {}),
            )
            for b, store in enumerate(self.store.row_stores())
        ]

    def eval(self, tau):
        if type(tau) is float or np.ndim(tau) == 0:
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
        key = ("panels", self.anchor_t)
        if key not in self.past:
            self.past[key] = self._panels()
        return self.past[key]

    def _panels(self) -> np.ndarray:
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
    flag set rather than raising. This is `integrate_batch` on one history.
    """
    return integrate_batch(system, [xi0], horizon, step, u)[0]


def integrate_batch(
    system: NfdeSystem,
    histories,
    horizon: float,
    step: StepPolicy | float | None = None,
    u: InputSignal | None = None,
) -> list[Trajectory]:
    """Integrate the system from every history of `histories`; one Trajectory each, in order.

    All histories share the input, horizon and step. Those whose meshes agree
    (the same kink seeds) advance together in one step loop, on (B, n)
    stacks; the others go into groups of their own. Matrices apply row by
    row, with the matrix-vector product a single run uses, so each trajectory
    is the one `integrate` gives its history alone. A history that blows up
    stops there, as it would alone, while the rest of its group goes on.
    """
    policy = step if isinstance(step, StepPolicy) else StepPolicy(step=step)
    if horizon <= 0.0:
        raise PreconditionError("horizon must be positive")
    histories = list(histories)
    for xi0 in histories:
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
    jumps = u.jump_times(horizon) if u is not None else np.empty(0)
    lattices = {}  # kink seeds -> (breakpoints, truncated, mesh)
    lattice_of = []
    groups = {}  # mesh bytes -> indices of the histories on that mesh
    for k, xi0 in enumerate(histories):
        seeds = (0.0,) + tuple(float(s) for s in xi0.kink_times if s > -system.delta)
        if seeds not in lattices:
            bps, truncated = propagation_breakpoints(
                all_delays, horizon, policy.breakpoint_limit, seeds=seeds
            )
            anchors = bps if not truncated else np.array([0.0, horizon])
            mesh = _build_mesh(h, horizon, np.concatenate([anchors, jumps]))
            lattices[seeds] = (bps, truncated, mesh)
        lattice_of.append(lattices[seeds])
        groups.setdefault(lattice_of[k][2].tobytes(), []).append(k)

    out = [None] * len(histories)
    for ks in groups.values():
        mesh = lattice_of[ks[0]][2]
        rows = _advance(system, [histories[k] for k in ks], mesh, u, jumps, policy.blowup_bound)
        for k, (store, blowup) in zip(ks, rows):
            bps, truncated, _ = lattice_of[k]
            times = store.times
            out[k] = Trajectory(
                system=system,
                xi0=histories[k],
                times=times,
                x=store.x[: store.count],
                z=store.z[: store.count],
                breakpoints=bps[bps <= times[-1] + _BP_TOL],
                t_end=float(times[-1]),
                blowup=blowup,
                order_reduced=truncated,
                input=u,
                _store=store,
            )
    return out


def _advance(system, histories, mesh, u, jumps, blowup_bound) -> list[tuple[_DenseStore, bool]]:
    """The method-of-steps loop on one mesh for a batch of histories.

    Returns each history's store and blowup flag. A row that blows up keeps
    a copy of its accepted knots and is zeroed in the batch arrays, so its
    later stages, computed with the others but never read, stay finite.
    """
    rhs = system.rhs
    delta = system.delta
    dop_terms = list(zip(system.dop.delays.tolist(), system.dop.matrices))
    ends = mesh[1:]
    mids = mesh[:-1] + 0.5 * (ends - mesh[:-1])
    store = _BatchStore(histories, mesh)
    size = len(histories)

    # the input on the mesh, shared by the batch: "+" at nodes and midpoints,
    # "-" at step ends (the step integrates the branch active on (t, t_next))
    if u is not None:
        u_node, u_mid, u_end = u.eval(mesh, "+"), u.eval(mids, "+"), u.eval(ends, "-")
    else:
        u_node = u_mid = u_end = [None] * mesh.size

    def delayed(t: float) -> list[np.ndarray]:
        """The terms A_j x(t - Delta_j), in summation order."""
        return [_apply(a, store.x_at(t - d)) for d, a in dop_terms]

    def recon(z_val: np.ndarray, terms: list[np.ndarray]) -> np.ndarray:
        for term in terms:
            z_val = z_val + term
        return z_val

    def delayed_slope_sum(t: float, side: str) -> np.ndarray:
        out = np.zeros(store.shape)
        for d, a in dop_terms:
            out += _apply(a, store.xdot_at(t - d, side))
        return out

    # seed node at t = 0
    for b, xi0 in enumerate(histories):
        store.x[0, b] = xi0.eval(0.0)
        store.z[0, b] = dop_apply(system.dop, xi0)
        store.zdot_left[0, b] = store.zdot_right[0, b] = rhs.eval(xi0, u_node[0])
        store.xdot_left[0, b] = xi0.deriv(0.0, "-")
    store.count = 1
    store.xdot_right[0] = store.zdot_right[0] + delayed_slope_sum(0.0, "+")

    bound2 = blowup_bound**2
    alive = np.ones(size, dtype=bool)
    done: dict[int, _DenseStore] = {}
    u_jumps = set(np.round(jumps / _BP_TOL).astype(np.int64))
    mesh_list = store.mesh_list
    mids_list = mids.tolist()

    for i in range(mesh.size - 1):
        t = mesh_list[i]
        t_next = mesh_list[i + 1]
        hh = t_next - t
        z_cur = store.z[i]
        k1 = store.zdot_right[i]

        # stages at one time share their delayed reads: D-terms and rhs past
        s_mid = mids_list[i]
        mid_terms, mid_past = delayed(s_mid), {}
        z2 = z_cur + 0.5 * hh * k1
        k2 = rhs.eval(_StageView(store, delta, s_mid, recon(z2, mid_terms), t, mid_past), u_mid[i])
        z3 = z_cur + 0.5 * hh * k2
        k3 = rhs.eval(_StageView(store, delta, s_mid, recon(z3, mid_terms), t, mid_past), u_mid[i])
        z4 = z_cur + hh * k3
        end_terms, end_past = delayed(t_next), {}
        k4 = rhs.eval(_StageView(store, delta, t_next, recon(z4, end_terms), t, end_past), u_end[i])

        z_new = z_cur + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x_new = recon(z_new, end_terms)
        # no row can exceed the bound while the whole batch stays below it
        flat = x_new.ravel()
        total = float(flat @ flat)
        if not math.isfinite(total) or total > bound2:
            mag2 = np.einsum("bi,bi->b", x_new, x_new)
            for b in np.flatnonzero(alive & (~np.isfinite(mag2) | (mag2 > bound2))).tolist():
                done[b] = store.row(b, copy=True)
                store.retire(b)
                alive[b] = False
            if len(done) == size:
                break
        if done:
            keep = alive[:, None]
            x_new, z_new, k4 = (np.where(keep, a, 0.0) for a in (x_new, z_new, k4))

        # provisional slopes from the last stage; refreshed right below
        tail_left = delayed_slope_sum(t_next, "-")
        store.append(x_new, z_new, k4, k4, k4 + tail_left, k4 + tail_left)

        node_view = _StageView(store, delta, t_next, x_new, t_next, end_past)
        zdr_new = rhs.eval(node_view, u_node[i + 1])
        key = int(round(t_next / _BP_TOL))
        zdl_new = rhs.eval(node_view, u_end[i]) if key in u_jumps else zdr_new
        xdl_new = zdl_new + tail_left
        xdr_new = zdr_new + delayed_slope_sum(t_next, "+")
        store.set_last_slopes(zdl_new, zdr_new, xdl_new, xdr_new)

    return [(done[b], True) if b in done else (store.row(b), False) for b in range(size)]


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
