"""Method-of-steps integration of d/dt D x_t = f(x_t [, u(t)]).

The integrated quantity is z(t) = D x_t, which is continuously differentiable
between breakpoints; the state is reconstructed algebraically as
x(t) = z(t) + sum_j A_j x(t - Delta_j) from the dense store. A classical
4-stage explicit step advances z; delayed arguments always read the dense
store (cubic Hermite between accepted nodes, the initial history for t <= 0)
and never extrapolate. Breakpoints sum_j k_j Delta_j are inserted into the
mesh so derivative jumps stay aligned with step boundaries.

A batch of histories advances in one step loop whatever their meshes (each
history's kinks seed its own breakpoints): knot k of every history is row k
of (longest mesh, B, n) arrays, and a history parks where its mesh ends or
it blows up. A trajectory is a column of that batch store: it keeps the
store and its row index, and one lookup reads its accepted knots for x, x'
from either side and z; the converse witness reads the z panels of a whole
batch from the store at once. A step is at most a quarter of the smallest
delay, so the delayed reads of the loop are placed ahead, and a block of
steps gathers them at once as soon as they touch accepted knots only. Every
term that reads no stage tip (the D-terms A_j x(s - Delta_j), the slope
sums, the rhs's delayed pointwise and input terms) then applies to the whole
block; only the terms that read the tip evaluate stage by stage.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .histories import CUBIC, HistorySegment, _hermite, _hermite_basis, _hermite_deriv
from .histories import _hermite_deriv_basis, _hermite_sum
from .operators import InputTerm, NfdeSystem, _apply, dop_apply, rhs_eval
from .signals import InputSignal

_BP_TOL = 1e-9
_PLAN_READS = 2048  # delayed reads (per mesh) placed at once ahead of the step loop
_BREAKPOINT_LIMIT = 20000  # lattice points enumerated before a mesh falls back to plain steps


@dataclass(frozen=True)
class StepPolicy:
    """Fixed-step mesh parameters. step defaults to min positive delay / 8."""

    step: float | None = None
    blowup_bound: float = 1e12


def propagation_breakpoints(delays, horizon: float, limit: int = _BREAKPOINT_LIMIT, seeds=(0.0,)):
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


class _Knots:
    """Increasing meshes of two knots or more as one array ordered by (row,
    time), keyed exactly as row + i * time: numpy orders complex numbers
    lexicographically, so one searchsorted places the times of every row."""

    def __init__(self, meshes):
        self.sizes = np.array([m.size for m in meshes])
        self.starts = np.concatenate([[0], np.cumsum(self.sizes)[:-1]])
        self.last = self.starts + self.sizes - 2  # each row's last interval
        self.times = np.concatenate(meshes)
        self.keys = np.repeat(np.arange(len(meshes)), self.sizes) + 1j * self.times

    def locate(self, rows, ts, last=None):
        """(f, theta, length, at_left, at_right) of time ts[k] on row rows[k], f
        being the flat index of the left knot of its interval (the row's first
        or last interval, or the one at flat index `last`, for times outside it)."""
        f = np.searchsorted(self.keys, rows + 1j * ts, side="right") - 1
        f = np.minimum(np.maximum(f, self.starts[rows]), self.last[rows] if last is None else last)
        lo, hi = self.times[f], self.times[f + 1]
        return f, (ts - lo) / (hi - lo), hi - lo, ts == lo, ts == hi


class _BatchStore:
    """Accepted knots of B histories as (longest mesh, B, n) arrays, knot k of
    every history in row k. History b runs on mesh `mesh_of[b]` of the
    distinct `meshes`, which `times` holds padded with their last knots. The
    running histories hold `count` knots, a parked one its entry of `counts`.
    A trajectory is a column of this store, read through `lookup`.
    """

    def __init__(self, histories, meshes, mesh_of):
        self.histories, self.meshes, self.mesh_of = histories, meshes, np.asarray(mesh_of)
        self.knots = _Knots(meshes)
        size = int(self.knots.sizes.max())
        self.shape = (len(histories), histories[0].n)
        # planes x, x' right, x' left, z, z' right, z' left: one gather reads a cubic
        self.block = np.full((6, size, *self.shape), np.nan)
        self.x, self.xdot_right, self.xdot_left, self.z, self.zdot_right, self.zdot_left = self.block
        self.flat = self.block.reshape(-1, self.shape[1])
        # per kind of read, the flat rows of y0, s0, y1, s1 and of the knot a knot
        # time returns, less knot 0's row in plane 0: values in plane a, knots in k
        plane, width = self.x.size // self.shape[1], self.shape[0]
        self.offsets = {
            kind: np.array([[a], [a + 1], [a], [a + 2], [k]]) * plane + [[0], [0], [width], [width], [0]]
            for kind, (a, k) in {"x": (0, 0), "+": (0, 1), "-": (0, 2), "z": (3, 3)}.items()
        }
        self.times = np.stack([np.pad(m, (0, size - m.size), mode="edge") for m in meshes], axis=1)
        self.count, self.counts = 0, np.zeros(len(histories), dtype=int)

    def lookup(self, b: int, count=None):
        """The reader of history b from its first `count` knots, by default all.

        read(ts, kind) is x ("x"), x' from the right or left ("+", "-") or z
        ("z") at times ts, one (n,) row each. x and x' at t <= 0 (x' from the
        right at t < 0) come from the initial history; a knot time returns the
        knot's row; any other time, the cubic Hermite of its accepted interval,
        with right slopes at its left end and left slopes at its right. A
        history of one knot holds its value.
        """
        count = int(self.counts[b] if count is None else count)
        mesh = self.mesh_of[b]
        start = self.knots.starts[mesh]
        last, one = start + max(count, 2) - 2, count == 1
        width = self.shape[0]
        column = b - start * width  # knot f of `knots` is flat row f * width + column

        def read(ts: np.ndarray, kind: str) -> np.ndarray:
            f, theta, length, at_left, at_right = self.knots.locate(mesh, ts, last)
            at_right &= not one
            flat = f * width + column + self.offsets[kind]
            flat[4] += width * at_right
            g = self.flat.take(flat, axis=0)
            kernel = _hermite if kind in ("x", "z") else _hermite_deriv
            out = kernel(theta[:, None], length[:, None], g[0], g[2], g[1], g[3])
            node = at_left | at_right | one
            if node.any():
                np.copyto(out, g[4], where=node[:, None])
            if kind != "z":
                past = ts < 0.0 if kind == "+" else ts <= 0.0
                if past.any():
                    xi0 = self.histories[b]
                    out[past] = xi0.eval(ts[past]) if kind == "x" else xi0.deriv(ts[past], kind)
            return out

        return read


class _Reads:
    """The delayed reads of a run of steps, placed before them: read p at step
    i is x, or x' from the side sides[p] (None for x), at times[p, i, m] for
    the histories on mesh m. At t <= 0 (for x' from the right, t < 0) that is
    the initial history, evaluated here; at a knot time, the knot's row; at
    any other time, the Hermite cubic of its accepted interval, whose knot
    rows and weights are found here once per mesh, so that a block of steps
    gathers all its reads, for all histories, with one `take`. reach[i] is
    the last knot that the reads of steps 0..i touch.
    """

    def __init__(self, store: _BatchStore, running: np.ndarray, times: np.ndarray, sides, seed=None):
        shape = times.shape
        plan, steps, meshes = np.nonzero(np.broadcast_to(running, shape))
        ts = times[plan, steps, meshes]
        kind = np.array([(None, "+", "-").index(side) for side in sides])
        self.deriv = kind[:, None, None] > 0
        kind = kind[plan]
        hist = (ts < 0.0) | ((ts == 0.0) & (kind != 1))
        f, theta, length, at_left, at_right = store.knots.locate(meshes, ts)
        # initial-history and left-knot reads keep to one knot: their discarded Hermite stays finite
        k = np.where(hist, 0, f - store.knots.starts[meshes])
        k1 = np.where(hist | at_left, k, k + 1)
        theta, length = np.where(hist, 0.0, theta), np.where(hist, 1.0, length)
        basis = np.where(kind == 0, _hermite_basis(theta), _hermite_deriv_basis(theta))
        # rows in the flattened block (history 0): y0, s0, y1, s1 and the knot of a knot-time read
        size, width = store.x.shape[:2]
        rows = np.vstack([k, size + k, k1, 2 * size + k1, kind * size + np.where(at_right, k1, k)])

        def dense(values, fill=0):  # (..., steps, P, M)
            out = np.full((*values.shape[:-1], shape[1], shape[0], shape[2]), fill, dtype=values.dtype)
            out[..., steps, plan, meshes] = values
            return out

        self.rows = dense(rows * width)
        self.reach = np.maximum.accumulate(dense(k1).max(axis=(1, 2)))
        self.coefs = dense(np.vstack([basis, length]), 1.0)[..., None]
        self.node, self.hist_mask = dense(at_left | at_right)[..., None], dense(hist)[..., None]
        self.flat = store.flat
        # the initial histories, read once per history and kind of read (x,
        # x' right, x' left), together with the times of that kind in `seed`
        self.hist = np.zeros((int(steps[hist].max()) + 1 if hist.any() else 0, shape[0], *store.shape))
        seed = seed or ([], [], [])
        self.seed = [np.empty((width, len(t), store.shape[1])) for t in seed]
        for code, extra in enumerate(seed):
            for b, xi0 in enumerate(store.histories):
                sel = hist & (meshes == store.mesh_of[b]) & (kind == code)
                at = np.concatenate([ts[sel], extra])
                if at.size:
                    values = xi0.eval(at) if code == 0 else xi0.deriv(at, "+-"[code - 1])
                    self.hist[steps[sel], plan[sel], b] = values[: at.size - len(extra)]
                    self.seed[code][b] = values[at.size - len(extra) :]

    def steps(self, a: int, b: int, run) -> np.ndarray:
        """Every read of steps a..b-1, (b - a, P, running histories, n). run is
        (act, col, live): the running histories' columns, meshes and indices."""
        act, col, live = run
        g = self.flat.take(self.rows[:, a:b][..., col] + live, axis=0)
        c = self.coefs[:, a:b][..., col, :]
        out = _hermite_sum(c, c[4], g[0], g[2], g[1], g[3])
        np.divide(out, c[4], out=out, where=self.deriv)
        np.copyto(out, g[4], where=self.node[a:b][..., col, :])
        hist = self.hist[a:b]  # kept for the steps up to the last that reads an initial history
        if len(hist):
            where = self.hist_mask[a : a + len(hist)][..., col, :]
            np.copyto(out[: len(hist)], hist[:, :, act], where=where)
        return out


class _StageView:
    """The running histories' x_s, seen by the right-hand side during a stage,
    or, without a tip, by the tipless terms on a block's stacked reads.

    tau = 0 reads the stage tip and a pointwise delay tau > 0 reads
    `reads[-tau]`, x(s - tau) read for the stages. A term that integrates over
    the window sees one history at a time through `rows`, given `times`:
    (tip times, anchor times, step), the anchor being the last accepted knot.
    """

    interp = CUBIC

    def __init__(self, store: _BatchStore, live, delta, tip_x, reads: dict, times):
        self.store, self.live, self.delta = store, live, delta
        self.tip_x, self.reads, self.times = tip_x, reads, times

    def eval(self, tau):
        return self.tip_x if tau == 0.0 else self.reads[tau]

    @property
    def rows(self) -> list[_RowView]:
        (tips, anchors, i), count = self.times, self.store.count
        meshes = self.store.mesh_of[self.live].tolist()
        return [
            _RowView(self.store, b, count, self.delta, tips[i, m], self.tip_x[k], anchors[i, m])
            for k, (b, m) in enumerate(zip(self.live.tolist(), meshes))
        ]


class _RowView:
    """History b's x_s during a stage, for terms that integrate over the window.

    Times at or before the anchor, the last of its `count` accepted knots,
    read the store; the sliver (anchor, s] interpolates linearly to the stage tip.
    """

    interp = CUBIC

    def __init__(self, store: _BatchStore, b: int, count: int, delta: float, tip_t, tip_x, anchor_t):
        self.read, self.grid = store.lookup(b, count), store.histories[b].grid
        self.times = store.meshes[store.mesh_of[b]][:count]
        self.delta, self.tip_t, self.tip_x, self.anchor_t = delta, tip_t, tip_x, anchor_t

    def eval(self, tau) -> np.ndarray:
        t = self.tip_t + np.asarray(tau, dtype=float).ravel()
        out = self.read(np.minimum(t, self.anchor_t), "x")  # later times read x at the anchor
        later = t > self.anchor_t
        sliver = later & (t < self.tip_t)
        if sliver.any():
            w = ((t[sliver] - self.anchor_t) / (self.tip_t - self.anchor_t))[:, None]
            out[sliver] = (1.0 - w) * out[sliver] + w * self.tip_x
        out[later & ~sliver] = self.tip_x
        return out

    def quad_panels(self) -> np.ndarray:
        lo = self.tip_t - self.delta
        past = self.grid + 0.0
        past = past[(past >= lo) & (past <= 0.0)]
        times = self.times
        accepted = times[np.searchsorted(times, lo) : np.searchsorted(times, self.anchor_t, "right")]
        pts = np.concatenate([past, accepted, [self.anchor_t, self.tip_t]])
        return np.unique(np.clip(pts - self.tip_t, -self.delta, 0.0))


@dataclass
class Trajectory:
    """Dense solution on [-Delta, t_end] plus the z = D x_t store: column
    `_row` of the batch store `_batch` it was integrated in."""

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
    _batch: _BatchStore = field(repr=False)
    _row: int = field(repr=False)

    def x_at(self, t):
        return self._read(t, "x")

    def z_at(self, t):
        return self._read(t, "z")

    def z_dense(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized Hermite evaluation of z on times in [0, t_end]."""
        return self._read(ts, "z")

    def xdot_at(self, t, side: str = "+"):
        return self._read(t, "-" if side == "-" else "+")  # as HistorySegment.deriv reads a side

    def _read(self, t, kind: str):
        """A store lookup at a time (one (n,) value) or at an array of times (one row each)."""
        ts = np.atleast_1d(np.asarray(t, dtype=float)).ravel()
        if kind == "z" and (ts < 0.0).any():
            raise PreconditionError("z is defined for t >= 0 only")
        out = self._batch.lookup(self._row)(ts, kind)
        return out[0] if np.ndim(t) == 0 else out


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

    All histories share the input, horizon and step, and advance in one step
    loop on (B, n) stacks, each on its own mesh. Matrices apply row by row,
    with the matrix-vector product a single run uses, so each trajectory is
    the one `integrate` gives its history alone. A history that blows up
    stops there, as it would alone, while the others go on.
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
    if not histories:
        return []

    all_delays = list(system.dop.delays) + system.rhs.positive_delays()
    jumps = u.jump_times(horizon) if u is not None else np.empty(0)
    lattices = {}  # kink seeds -> (breakpoints, truncated, mesh, mesh index)
    rows = []
    for xi0 in histories:
        seeds = (0.0,) + tuple(float(s) for s in xi0.kink_times if s > -system.delta)
        if seeds not in lattices:
            bps, truncated = propagation_breakpoints(all_delays, horizon, seeds=seeds)
            anchors = bps if not truncated else np.array([0.0, horizon])
            mesh = _build_mesh(h, horizon, np.concatenate([anchors, jumps]))
            lattices[seeds] = (bps, truncated, mesh, len(lattices))
        rows.append(lattices[seeds])

    store = _BatchStore(histories, [mesh for _, _, mesh, _ in lattices.values()], [r[3] for r in rows])
    blowups = _advance(system, store, u, jumps, policy.blowup_bound)
    out = []
    for b, (bps, truncated, _, _) in enumerate(rows):
        count = int(store.counts[b])
        times = store.meshes[store.mesh_of[b]][:count]
        out.append(Trajectory(
            system=system,
            xi0=histories[b],
            times=times,
            x=store.x[:count, b],
            z=store.z[:count, b],
            breakpoints=bps[bps <= times[-1] + _BP_TOL],
            t_end=float(times[-1]),
            blowup=bool(blowups[b]),
            order_reduced=truncated,
            input=u,
            _batch=store,
            _row=b,
        ))
    return out


def _advance(system, store: _BatchStore, u, jumps, blowup_bound) -> np.ndarray:
    """The method-of-steps loop for every history of the store; returns their blowup flags.

    Step i takes every running history from its knot i to knot i + 1. A history parks,
    keeping its knots, where its mesh ends or its state blows up; the rest go on. A block
    of steps ends where its plan of reads ends or the running histories change.
    """
    rhs = system.rhs
    dop_terms = list(zip(system.dop.delays.tolist(), system.dop.matrices))
    x, xdr, xdl, z, zdr, zdl = store.block
    size, (width, n) = store.x.shape[0], store.shape
    t0, t1 = store.times[:-1], store.times[1:]
    mids = t0 + 0.5 * (t1 - t0)
    hh = (t1 - t0)[:, store.mesh_of, None]  # every history's step lengths
    half, sixth = 0.5 * hh, hh / 6.0
    running = np.arange(size - 1)[:, None] < store.knots.sizes - 1

    # the reads of each step: x at the midpoint and at the step end for each
    # offset, then x' from the left and from the right at the step end for
    # each D-term; placed ahead in runs of steps that bound their memory
    offsets = sorted({d for d, _ in dop_terms} | set(rhs.positive_delays()))
    specs = [(mids - d, None) for d in offsets] + [(t1 - d, None) for d in offsets]
    specs += [(t1 - d, side) for side in "-+" for d, _ in dop_terms]
    chunk = max(1, _PLAN_READS // (len(specs) * len(store.meshes)))
    cuts = np.cumsum([0, len(offsets), len(offsets), len(dop_terms), len(dop_terms)]).tolist()
    mid_at, end_at, left_at, right_at = (slice(a, b) for a, b in zip(cuts, cuts[1:]))
    dop_at = [offsets.index(d) for d, _ in dop_terms]
    # the rhs terms that read no stage tip: inputs, and pointwise terms with a delay
    tipless = [k for k, t in enumerate(rhs.terms) if isinstance(t, InputTerm) or getattr(t, "delay", 0) > 0]

    # the input on each mesh: "+" at nodes and midpoints, "-" at step ends
    # (the step integrates the branch active on (t, t_next))
    u_node = u_mid = u_end = jump = None
    if u is not None:
        u_node, u_mid, u_end = (
            u.eval(times.ravel(), side).reshape(*times.shape, -1)[:, store.mesh_of]
            for times, side in ((store.times, "+"), (mids, "+"), (t1, "-"))
        )
        jump_keys = np.round(jumps / _BP_TOL).astype(np.int64)
        jump = np.isin(np.round(t1 / _BP_TOL).astype(np.int64), jump_keys)[:, store.mesh_of]

    def d_terms(values) -> list:  # A_j v_j for each D-term j
        return [_apply(a, v) for (_, a), v in zip(dop_terms, values)]

    def plan(start: int, seed=None) -> _Reads:
        stop = start + chunk
        times = np.stack([t[start:stop] for t, _ in specs])
        return _Reads(store, running[start:stop], times, [side for _, side in specs], seed)

    def block(i: int, stop: int, run) -> tuple:
        """(steps, running, n) stacks for steps i..stop-1: the D-terms at midpoints and step
        ends, the slope sums from the left and right, and the tipless rhs terms at
        midpoints, step ends and new knots."""
        act, _, live = run
        values = reads.steps(i % chunk, i % chunk + stop - i, run)
        shape = values.shape[0], live.size, n
        v = values.swapaxes(0, 1).reshape(len(specs), -1, n)  # each read's rows, step-major
        mid, end = v[mid_at], v[end_at]

        def known(at, us, first: int) -> dict:  # the tipless terms, with the inputs from step `first`
            if us is not None:
                us = us[first : first + shape[0], act].reshape(-1, u.m)
            view = _StageView(store, live, system.delta, None, {-d: w for d, w in zip(offsets, at)}, None)
            return {k: rhs.terms[k].eval(view, us).reshape(shape) for k in tipless}

        def slopes(values) -> np.ndarray:  # sum_j A_j x'(t - Delta_j)
            return sum(d_terms(values), np.zeros(v.shape[1:])).reshape(shape)

        return (
            [w.reshape(shape) for w in d_terms(mid[dop_at])],
            [w.reshape(shape) for w in d_terms(end[dop_at])],
            slopes(v[left_at]),
            slopes(v[right_at]),
            known(mid, u_mid, i),
            known(end, u_end, i),
            known(end, u_node, i + 1),
        )

    reads = plan(0, ([0.0], [-d for d, _ in dop_terms], [0.0]))  # and the seed node's reads
    x[0], xdl[0] = reads.seed[0][:, 0], reads.seed[2][:, 0]
    for b, xi0 in enumerate(store.histories):
        z[0, b] = dop_apply(system.dop, xi0)
        zdl[0, b] = zdr[0, b] = rhs.eval(xi0, None if u_node is None else u_node[0, b])
    xdr[0] = zdr[0] + sum(d_terms(reads.seed[1].swapaxes(0, 1)), np.zeros((width, n)))
    store.count = 1

    bound2 = blowup_bound**2
    blowup = np.zeros(width, dtype=bool)
    ends = store.knots.sizes[store.mesh_of] - 1

    def running_rows(live):
        """(act, col, live): the running histories' columns, meshes and indices."""
        act = slice(None) if live.size == width else live
        return act, slice(None) if len(store.meshes) == 1 else store.mesh_of[live], live

    run = act, col, live = running_rows(np.arange(width))
    start = stop = 0
    for i in range(size - 1):
        if i == stop:  # a new block: park the histories whose meshes end here
            if (ends[live] == i).any():
                store.counts[live[ends[live] == i]] = i + 1
                run = act, col, live = running_rows(live[ends[live] > i])
                if live.size == 0:  # the longer meshes' histories all blew up
                    break
            if i and i % chunk == 0:
                reads = plan(i)
            # the steps whose reads touch knots 0..i only, up to the plan's end,
            # the next park and the plan's budget of reads
            ready = i - i % chunk + int(np.searchsorted(reads.reach, i, "right"))
            budget = max(1, _PLAN_READS // (len(specs) * live.size))
            start, stop = i, min(ready, int(ends[live].min()), i + budget)
            mid_terms, end_terms, lefts, rights, mid_known, end_known, node_known = block(i, stop, run)
        k = i - start
        z_cur, k1 = z[i, act], zdr[i, act]

        # stages at one time share their delayed reads: D-terms and rhs past
        mid_k = {j: w[k] for j, w in mid_known.items()}

        def mid_view(z_stage):
            tip = sum((w[k] for w in mid_terms), z_stage)
            return _StageView(store, live, system.delta, tip, {}, (mids, t0, i))

        h_half = half[i, act]
        k2 = rhs.eval(mid_view(z_cur + h_half * k1), None, mid_k)
        k3 = rhs.eval(mid_view(z_cur + h_half * k2), None, mid_k)
        end_k = {j: w[k] for j, w in end_known.items()}
        tip = sum((w[k] for w in end_terms), z_cur + hh[i, act] * k3)
        k4 = rhs.eval(_StageView(store, live, system.delta, tip, {}, (t1, t0, i)), None, end_k)

        z_new = z_cur + sixth[i, act] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x_new = sum((w[k] for w in end_terms), z_new)
        tail_left, tail_right = lefts[k], rights[k]
        node_k = {j: w[k] for j, w in node_known.items()}
        # no row can exceed the bound while the whole batch stays below it
        flat = x_new.ravel()
        total = float(flat @ flat)
        if not math.isfinite(total) or total > bound2:
            mag2 = np.einsum("bi,bi->b", x_new, x_new)
            keep = np.isfinite(mag2) & (mag2 <= bound2)
            blowup[live[~keep]] = True
            store.counts[live[~keep]] = i + 1
            run = act, col, live = running_rows(live[keep])
            if live.size == 0:
                break
            x_new, z_new, k4 = x_new[keep], z_new[keep], k4[keep]
            tail_left, tail_right = tail_left[keep], tail_right[keep]
            end_k, node_k = ({j: w[keep] for j, w in terms.items()} for terms in (end_k, node_k))
            stop = i + 1  # the block ends with the running histories

        # provisional slopes from the last stage; refreshed right below
        store.count = i + 2
        x[i + 1, act], z[i + 1, act] = x_new, z_new
        zdl[i + 1, act] = zdr[i + 1, act] = k4
        xdl[i + 1, act] = xdr[i + 1, act] = k4 + tail_left

        node_view = _StageView(store, live, system.delta, x_new, {}, (t1, t1, i))
        zdr_new = zdl_new = rhs.eval(node_view, None, node_k)
        if jump is not None and jump[i, act].any():
            zdl_new = np.where(jump[i, act][:, None], rhs.eval(node_view, None, end_k), zdr_new)
        zdl[i + 1, act], zdr[i + 1, act] = zdl_new, zdr_new
        xdl[i + 1, act] = zdl_new + tail_left
        xdr[i + 1, act] = zdr_new + tail_right

    store.counts[live] = store.count
    return blowup


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
    read = traj._batch.lookup(traj._row)
    values = read(grid, "x")
    slopes = np.vstack([read(grid[:-1], "+"), read(grid[-1:], "-")])
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
