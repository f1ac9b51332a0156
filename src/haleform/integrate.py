"""Method-of-steps integration of d/dt D x_t = f(x_t [, u(t)]).

The integrated quantity is z(t) = D x_t, which is continuously differentiable
between breakpoints; the state is reconstructed algebraically as
x(t) = z(t) + sum_j A_j x(t - Delta_j) from the dense store. A classical
4-stage explicit step advances z; delayed arguments always read the dense
store (cubic Hermite between accepted nodes, the initial history for t <= 0)
and never extrapolate. Breakpoints sum_j k_j Delta_j are inserted into the
mesh so derivative jumps stay aligned with step boundaries.

A batch of histories advances in one step loop whatever their meshes (each
history's kinks seed its own breakpoints, and its input signal's jumps, which
may be its own, anchor its mesh): knot k of every history is row k of
(longest mesh, B, n) arrays, and a history parks where its mesh ends or it
blows up. A trajectory is a column of that batch store, whose rows past the
knots hold its initial history as a history lays out its nodes: `_place`
places a read of either (x, x' from either side, z) through the one read
kernel of histories (`histories._Knots.locate`, `_weights`, `_gather`) and
one `take` gathers it; the converse witness reads the z panels of a batch at
once. A step is at most a quarter of the smallest delay, so the delayed reads
of the loop are placed ahead, and a block of steps gathers them at once as
soon as they touch accepted knots only. The stage plan, made once per
integration, sorts the rhs terms: block terms (inputs, delayed pointwise
terms) then apply to the whole block, as do the D-terms A_j x(s - Delta_j)
and slope sums; tip terms (delay-0 pointwise ones) are written into each
stage, a primitive as one call per component; window terms (distributed
ones) are linear in x, so a step gathers their accepted part with one
`take` and a stage's value is affine in its tip
(at the new knot, in the tip and its left slope), with matrices fixed ahead.
The loop stores final values only. A stage is the tip from z, its scale and
D-term rows, and the left fold 0 + v_0 + v_1 + ... of the terms in order, as
`RhsMap.eval`, the one evaluation of f on histories, rounds; knot 0 is that
call on the batch. One loop runs a kernel compiled from the stage plan (`_kernel`), whose
locals are one history's floats or a batch's (B,) arrays, which round alike; every matrix
product is `operators._apply`'s column fold, so nothing depends on the BLAS kernel.
"""
from __future__ import annotations

import bisect
import heapq
import linecache
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import PreconditionError
from .histories import CUBIC, HistorySegment, _cubic, _gather, _hermite_basis, _Knots, _weights
from .operators import DistributedTerm, InputTerm, NfdeSystem, _apply
from .signals import InputSignal

_BP_TOL = 1e-9
_PLAN_READS = 2560  # delayed reads (of all histories) placed at once ahead of the step loop; a converse
# query's levels-5 ladder, 7 meshes over 10 delays at 8 steps a delay, places 2,548
_BREAKPOINT_LIMIT = 20000  # lattice points enumerated before a mesh falls back to plain steps


@dataclass(frozen=True)
class StepPolicy:
    """Fixed-step mesh parameters. step defaults to min positive delay / 8."""

    step: float | None = None
    blowup_bound: float = 1e12


def propagation_breakpoints(delays, horizon: float, seeds=(0.0,)):
    """Sums seed + nonnegative integer multiples of the delays, up to horizon.

    Seeds below zero model derivative kinks inside the initial history; only
    the nonnegative part of their lattice is reported. Returns (breakpoints,
    truncated). Sums closer than 1e-9 are merged, which covers rationally
    commensurate delays; if the lattice has more than _BREAKPOINT_LIMIT points
    below the horizon the enumeration stops and `truncated` is True (callers
    fall back to the plain mesh, reducing observed order).
    """
    delays = sorted({float(d) for d in delays if d > 0})
    reach, pop, push = horizon + _BP_TOL, heapq.heappop, heapq.heappush
    first = {round(s / _BP_TOL): s for s in [*map(float, seeds)][::-1]}  # each merge key's first seed
    seen, heap, out = set(first), list(first.values()), []
    heapq.heapify(heap)  # distinct keys, so distinct sums: they pop in order whatever the heap's shape
    while heap and len(out) <= _BREAKPOINT_LIMIT:
        v = pop(heap)
        if v > reach:
            break
        if v >= -_BP_TOL:
            out.append(max(v, 0.0))
        for d in delays:
            w = v + d
            if w <= reach and (key := round(w / _BP_TOL)) not in seen:
                seen.add(key)
                push(heap, w)
    return np.array(out, dtype=float), len(out) > _BREAKPOINT_LIMIT


def _meshes(step: float, horizon: float, anchors: np.ndarray, of: np.ndarray, count: int):
    """The meshes of `count` sets of anchors (anchors[i] is of set of[i]) in one pass, as
    one array, set by set, and the size of each: set k's mesh cuts each interval [a, b)
    between 0, its anchors and the horizon in k steps, knots a + (b - a) j / k."""
    inside = (anchors >= 0.0) & (anchors < horizon - _BP_TOL)
    # (set, anchor) sorted as complex numbers, each set from its 0; equal anchors merge with close ones
    keys = np.sort(np.concatenate([np.arange(count) + 0j, of[inside] + 1j * anchors[inside]]))
    of, a = keys.real, keys.imag
    head = np.concatenate([[True], of[1:] != of[:-1]])  # each set's first interval, from 0
    keep = head | np.concatenate([[False], a[1:] - a[:-1] > _BP_TOL])
    a, head = a[keep], head[keep]
    width = np.where(np.concatenate([head[1:], [True]]), horizon, np.concatenate([a[1:], [horizon]])) - a
    k = np.maximum(1, np.ceil(width / step - 1e-12).astype(int))
    c = k + head  # a set's first interval also holds its knot 0
    total = c.cumsum()
    j = np.arange(total[-1]) - (total - k - 1).repeat(c)  # every interval's j at once, from 0 or 1
    return a.repeat(c) + width.repeat(c) * j / k.repeat(c), np.add.reduceat(c, head.nonzero()[0])


class _BatchStore:
    """Accepted knots of B histories as (longest mesh, B, n) arrays, knot k of
    every history in row k. History b runs on mesh `mesh_of[b]` of the
    `mesh_count` meshes, which `times` holds padded with their last knots, and
    holds `counts[b]` of them once it parks. Past the knots, column b holds
    the nodes of its initial history, whose grid `knots` keys after the
    meshes. The histories of one mesh whose initial histories share a grid and
    interpolation place every read alike: they are group `group_of[b]`; `firsts`
    holds the first history of each mesh and of each group. A trajectory is a
    column of this store, read through `lookup`.
    """

    # per kind of read (x, x' right, x' left, z), the planes of y0, s0, y1, s1 and of a knot
    # time's knot; below which time it reads the initial history (t <= 0 or t < 0)
    planes = np.array([[0, 1, 0, 2, 0], [0, 1, 0, 2, 1], [0, 1, 0, 2, 2], [3, 4, 3, 5, 3]])
    past_below = np.array([np.nextafter(0.0, 1.0), 0.0, np.nextafter(0.0, 1.0), -np.inf])

    def __init__(self, histories, meshes, sizes, mesh_of, firsts):
        self.histories, self.mesh_of, self.mesh_count = histories, np.array(mesh_of), sizes.size
        groups = {}  # (mesh, interpolation, grid) -> (group, its first history)
        self.group_of = np.array([groups.setdefault((m, xi0.interp, xi0.grid.tobytes()), (len(groups), b))[0]
                                  for b, (m, xi0) in enumerate(zip(mesh_of, histories))])
        self.firsts = [np.array(firsts), np.array([b for _, b in groups.values()])]
        nodes = np.array([xi0.num_nodes for xi0 in histories])
        self.knots = _Knots(np.concatenate([meshes, *(xi0.grid for xi0 in histories)]),
                            np.concatenate([sizes, nodes]))
        size = np.maximum.reduce(sizes)
        self.shape = (len(histories), histories[0].n)
        # planes x, x' right, x' left, z, z' right, z' left: one gather reads a cubic
        self.block = np.full((6, size + np.maximum.reduce(nodes), *self.shape), np.nan)
        accepted = self.block[:, :size]  # the knots; the initial histories' nodes follow them
        self.x, self.xdot_right, self.xdot_left, self.z, self.zdot_right, self.zdot_left = accepted
        self.flat = self.block.reshape(-1, self.shape[1])
        # the initial histories' nodes as a history reads them (`histories._read`): values in
        # plane 0, slopes in both slope planes
        self.linear = np.array([xi0.interp != CUBIC for xi0 in histories])
        cols = np.arange(nodes.size).repeat(nodes)  # each node's history, then its row in the block
        at = size + np.arange(cols.size) - (nodes.cumsum() - nodes).repeat(nodes), cols
        self.block[(0, *at)] = np.concatenate([xi0.values for xi0 in histories])
        self.block[(1, *at)] = self.block[(2, *at)] = np.concatenate(
            [xi0._nodes[xi0.num_nodes :] for xi0 in histories])
        # each mesh's times, padded with its last knot
        starts = self.knots.starts[: self.mesh_count]
        self.times = self.knots.times[starts + np.minimum(np.arange(size)[:, None], sizes - 1)]
        self.counts = np.zeros(len(histories), dtype=int)

    def read(self, cols, ts, kind) -> np.ndarray:
        """x (kind 0), x' from the right or left (1, 2) or z (3) of history cols[k]
        at time ts[k], one (n,) row each, placed by `_place`."""
        rows, coefs, node, _ = _place(self, cols, ts, kind)
        return _gather(self.flat, rows, coefs[..., None], node[:, None])

    def lookup(self, b: int, ts: np.ndarray, kind: str) -> np.ndarray:
        """x ("x"), x' from the right or left ("+", "-") or z ("z") of history b at
        times ts in [-Delta, t_end] ([0, t_end] for z), one (n,) row each; times
        within _BP_TOL outside are read at the end."""
        code = "x+-z".index(kind)
        t_end = float(self.times[self.counts[b] - 1, self.mesh_of[b]])
        lo = 0.0 if code == 3 else float(self.knots.times[self.knots.starts[self.mesh_count + b]]) - _BP_TOL
        if ts.size and (ts.min() < lo or ts.max() > t_end + _BP_TOL):  # z starts at exactly 0
            raise PreconditionError(f"{kind} is defined for t >= {lo:g} and t <= {t_end:g} only")
        return self.read(b, np.minimum(ts, t_end), code)


def _place(store: _BatchStore, cols, ts, kind):
    """Where reads of kind[k] (0 x, 1 x' from the right, 2 x' from the left, 3 z)
    of history cols[k] at time ts[k] (one kind or history may stand for all) sit
    in the flat buffer: (rows of y0, s0, y1, s1 and of a knot time's knot,
    `_weights`, knot reads, last knots touched). A knot time reads its knot,
    another time the cubic Hermite of its interval, right slopes at its left end
    and left slopes at its right. x and x' at t <= 0 (x' from the right: t < 0)
    read the initial history as `HistorySegment` does, from its nodes in the
    layout it reads (see `histories._read`): clamped to -Delta, a node from the
    left in the panel on its left."""
    knots, kind = store.knots, np.broadcast_to(kind, np.shape(ts))
    past = ts < store.past_below[kind]
    some, row, lin = past.any(), store.mesh_of[cols], past & store.linear[cols]
    if some:  # reads of the initial histories, whose grids the knots key after the meshes
        row = np.where(past, store.mesh_count + cols, row)
        ts = np.maximum(ts, knots.times[knots.starts[row]])
    f, theta, length, lo, hi = knots.locate(row, ts, some and past & (kind == 2))
    at_left, at_right, k = ts == lo, ts == hi, f - knots.starts[row]
    if some:
        at_left, at_right = at_left & ~past, at_right & ~past
        k = k + store.x.shape[0] * past  # a history's nodes follow its knots
    k1 = k + ~at_left  # a left-knot read keeps to its knot: its discarded Hermite stays finite
    rows = (np.array([k, k, k1, k1, k + at_right]) + store.planes[kind].T * store.block.shape[1]) * store.shape[0]
    coefs = _weights(theta, length, (kind == 1) | (kind == 2), lin if some and lin.any() else False)
    return rows + cols, np.array(coefs), at_left | at_right, np.where(past, 0, k1) if some else k1


class _Reads:
    """The delayed reads of steps start..stop-1, placed before them (see `_place`): read p at
    step i is of kind kind[p] (x, x' from the right or left) at times[p, i, m] on mesh m. The
    first `prefix` steps read back into the initial histories (t <= 0) and place a read once per
    group of histories (see `_BatchStore`), the later steps once per mesh, parked or not (a
    parked mesh's times are its last knot); a gather broadcasts it over the group or mesh, so a
    block of steps gathers its reads with one `take` (two across the prefix's end). reach[i] is
    the last knot steps start..start+i read."""

    def __init__(self, store: _BatchStore, start: int, stop: int, times, kind, early: int, extra):
        prefix = min(max(early - start, 0), stop - start)  # this plan's share of the run's `early` steps
        self.start, self.stop, self.prefix, self.flat = start, stop, prefix, store.flat
        self.group_of, (meshes, groups) = store.group_of, store.firsts
        # (read, step, group) in the prefix, then (read, step, mesh), each placed for its first history
        parts = times[:, :prefix, store.mesh_of[groups]], times[:, prefix:]
        units = np.concatenate([groups[np.arange(parts[0].size) % groups.size],
                                meshes[np.arange(parts[1].size) % meshes.size]])
        cut = parts[0].size, units.size
        # `extra` reads (cols, times, kinds) of the initial histories are placed along and read at once
        rows, coefs, node, k1 = _place(store, np.concatenate([units, extra[0]]), np.concatenate(
            [parts[0].ravel(), parts[1].ravel(), extra[1]]), np.concatenate(
            [kind.repeat(parts[0][0].size), kind.repeat(parts[1][0].size), extra[2]]))
        self.extra = _gather(self.flat, rows[:, cut[1] :], coefs[:, cut[1] :, None], node[cut[1] :, None])
        rows[:, : cut[1]] -= units  # each for column 0
        self.parts, reach = [], []  # rows, coefs, node of the groups, then of the meshes
        for p, lo, hi in zip(parts, [0, cut[0]], cut):
            self.parts.append([a[..., lo:hi].reshape(*a.shape[:-1], *p.shape) for a in (rows, coefs, node)])
            reach.append(np.maximum.reduce(k1[lo:hi].reshape(p.shape), axis=(0, 2)))  # each step's last knot
        self.reach = np.maximum.accumulate(np.concatenate(reach)).tolist()

    def steps(self, a: int, b: int, run) -> np.ndarray:
        """Every read of steps a..b-1 of the plan, (P, b - a, running histories, n).
        run is (act, col, live): the running histories' columns, meshes and indices."""
        col, live = run[1:3]
        spans = (a, min(b, self.prefix), self.group_of[live]), (max(a - self.prefix, 0), b - self.prefix, col)
        out = [_gather(self.flat, rows[:, :, lo:hi][..., c] + live, coefs[:, :, lo:hi][..., c, None],
                       node[:, lo:hi][..., c, None])
               for (lo, hi, c), (rows, coefs, node) in zip(spans, self.parts) if lo < hi]
        return out[0] if len(out) == 1 else np.concatenate(out, axis=1)


class _Window:
    """A distributed term's windows for a run of steps, placed before them.

    Row r is history rows[2, r]'s window at stage rows[1, r] (midpoint, step end)
    of step rows[0, r], rows ordered by them, at time s = tips[r] and anchored at
    a = anchors[r], the last accepted knot: the initial history's grid points and
    the accepted knots in [s - Delta, s], a and s cut the panels of its Gauss
    nodes s + tau. The window is linear in x, so its value is affine in what the
    step has not accepted. A node past a reads x(a) + w (tip - x(a)) at the stage,
    w = (s + tau - a) / (s - a), and at the new knot s the Hermite of [a, s] from
    x(a) and x'(a+) to the tip and its left slope sigma: the value is c + M tip,
    and c' + M' tip + S sigma at the new knot. M, M' and S are fixed here; a step
    gathers c and c' from accepted knots with one `take`, of x at min(s + tau, a)
    and x'(a+).
    """

    def __init__(self, store: _BatchStore, term, delta: float, tips, anchors, rows):
        # the initial history's grid points in [s - Delta, 0], then the knots in [s - Delta, a]
        at = np.r_[store.mesh_count + rows[2], store.mesh_of[rows[2]]]
        lo = np.searchsorted(store.knots.keys, at + 1j * (np.r_[tips, tips] - delta))
        hi = np.searchsorted(store.knots.keys, at + 1j * np.r_[0.0 * tips, anchors], "right")
        k = lo[:, None] + np.arange((hi - lo).max())  # NaN-padded
        cuts = np.split(np.append(store.knots.times, np.nan)[np.where(k < hi[:, None], k, -1)], 2)
        panels = np.clip(np.column_stack([*cuts, anchors, tips]) - tips[:, None], -delta, 0.0)
        nodes, weights, kmats, counts = term._rule(panels)
        tip, anchor, owner = (np.repeat(v, counts) for v in (tips, anchors, rows[2]))
        t, length, ends = tip + nodes, (tips - anchors)[:, None, None], np.cumsum(counts)
        w = np.maximum(t - anchor, 0.0) / (tip - anchor)  # 0 up to a
        wk = weights[:, None, None] * kmats
        h00, h10, h01, h11 = (b[:, None, None] * wk for b in _hermite_basis(w))
        row_sum = partial(np.add.reduceat, indices=ends - counts)
        # per row: M; then M', S and the matrix of x'(a+) at the new knot
        self.affine = np.stack([row_sum(w[:, None, None] * wk), row_sum(h01), row_sum(h11) * length], 1)
        xdot = row_sum(h10) * length
        # each row's reads, x at min(s + tau, a) and then x'(a+), with their matrices in c and c'
        place = [np.insert(a, ends, b) for a, b in ((owner, rows[2]), (np.minimum(t, anchor), anchors),
                                                    (0 * owner, 1))]
        self.mats = np.insert(np.stack([(1.0 - w)[:, None, None] * wk, h00], 1), ends,
                              np.stack([0.0 * xdot, xdot], 1), axis=0)
        self.rows, coefs, node, _ = _place(store, *place)
        self.coefs, self.node, self.flat = coefs[..., None], node[:, None], store.flat
        self.starts = np.r_[0, ends + np.arange(1, counts.size + 1)]  # each row's first read, then the end
        self.steps = np.searchsorted(rows[0], np.arange(rows[0].max() + 2)).tolist()  # each step's first row
        self.index = np.zeros((rows[0].max() + 1, 2, store.shape[0]), dtype=int)
        self.index[tuple(rows)] = np.arange(counts.size)
        self.floats = self.affine.reshape(-1, 3).tolist() if store.shape == (1, 1) else None

    def gather(self, j: int):
        """Read step j's windows from the store: c and c' of each of its rows."""
        a, b = self.steps[j : j + 2]
        lo, hi = self.starts[a], self.starts[b]
        v = _gather(self.flat, self.rows[:, lo:hi], self.coefs[:, lo:hi], self.node[lo:hi])
        c = np.add.reduceat(_apply(self.mats[lo:hi], v[:, None]), self.starts[a:b] - lo)
        self.c, self.base = (c.reshape(-1, 2).tolist() if self.floats else c), a

    def value(self, j: int, e: int, tip, live, slope) -> np.ndarray:
        """The term at stage e of step j (2: the new knot, whose tip has the left slope
        `slope`) for each live history, given its tip: (B, n) tips and slopes, or one history's
        float tip and slope (lists of n for n > 1), which get a float (a list of n)."""
        if self.floats:
            (c, cn), (m, mn, s) = self.c[min(e, 1)], self.floats[self.base + min(e, 1)]
            return c + m * tip if e < 2 else cn + mn * tip + s * slope
        if isinstance(tip, list):  # as a (1, n) row: numpy's elementwise + and * round as Python's
            return self.value(j, e, np.array([tip]), live, np.array([slope]))[0].tolist()
        r = self.index[j, min(e, 1), live]
        c, mats = self.c[r - self.base, e >> 1], self.affine[r]
        if e < 2:
            return c + _apply(mats[:, 0], tip)
        return c + _apply(mats[:, 1], tip) + _apply(mats[:, 2], slope)


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
        out = self._batch.lookup(self._row, ts, kind)
        return out[0] if np.ndim(t) == 0 else out


def _store_knots(trajs: list[Trajectory], y: str):
    """`_hermite_sups`' (times, values, right slopes, left slopes, owners) of y
    ("x" or "z") on trajs, all of one batch: owner r is trajectory trajs[r]."""
    store, cols = trajs[0]._batch, np.array([traj._row for traj in trajs])
    r, k = np.nonzero(np.arange(store.z.shape[0]) < store.counts[cols][:, None])  # knot k of trajectory r
    col = cols[r]
    planes = (getattr(store, y + side)[k, col] for side in ("", "dot_right", "dot_left"))
    return store.times[k, store.mesh_of[col]], *planes, r


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
    u: InputSignal | Sequence[InputSignal] | None = None,
) -> list[Trajectory]:
    """Integrate the system from every history of `histories`; one Trajectory each, in order.

    All histories share the horizon and step and the input u, or, where u is a
    sequence of signals, history b takes u[b]. They advance in one step loop on
    (B, n) stacks, each on its own mesh: a history's kinks and its signal's
    jumps anchor its mesh, not the others'. Matrices apply as the column fold
    of a single run on floats, so each trajectory is, bit for bit, the one
    `integrate` gives its history and signal alone. A history that blows up
    stops there, as it would alone, while the others go on.
    """
    policy = step if isinstance(step, StepPolicy) else StepPolicy(step=step)
    if horizon <= 0.0:
        raise PreconditionError("horizon must be positive")
    histories, tol = list(histories), _BP_TOL * max(1.0, system.delta)
    for xi0 in histories:
        if abs(xi0.delta - system.delta) > tol:
            raise PreconditionError(f"initial history horizon {xi0.delta} != system horizon {system.delta}")
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
        raise PreconditionError(f"step {h} exceeds min positive delay / 4 = {min_delay / 4.0}")
    signals, signal_of = [u], [0] * len(histories)  # the distinct signals, by identity, and each history's
    if u is not None and not isinstance(u, InputSignal):
        if len(u) != len(histories):
            raise PreconditionError(f"{len(u)} input signals for {len(histories)} histories")
        index = {}
        signal_of = [index.setdefault(id(sig), len(index)) for sig in u]
        signals = list({id(sig): sig for sig in u}.values())
    if not histories:
        return []

    all_delays = list(system.dop.delays) + system.rhs.positive_delays()
    jumps = [np.empty(0) if sig is None else sig.jump_times(horizon) for sig in signals]
    sets, mesh_of = {}, []  # (kink times, signal) -> (their mesh, its first history)
    for b, (xi0, j) in enumerate(zip(histories, signal_of)):
        kinks = xi0.kink_times
        mesh_of.append(sets.setdefault((tuple(kinks[kinks > -system.delta].tolist()), j), (len(sets), b))[0])
    # each mesh's lattice and its signal's jumps
    lattices = [(*propagation_breakpoints(all_delays, horizon, (0.0, *kinks)), jumps[j]) for kinks, j in sets]
    # a truncated lattice's mesh is the plain one, whose anchors are 0 and the input's jumps
    anchors = [jump if cut else np.concatenate([bps, jump]) for bps, cut, jump in lattices]
    of = np.arange(len(anchors)).repeat([a.size for a in anchors])
    meshes, sizes = _meshes(h, horizon, np.concatenate(anchors), of, len(anchors))
    store = _BatchStore(histories, meshes, sizes, mesh_of, [b for _, b in sets.values()])
    inputs = None if signals[0] is None else (signals, np.array([j for _, j in sets]), jumps)
    blowups = _advance(system, store, inputs, policy.blowup_bound)
    out = []
    for b, (m, xi0, count, j) in enumerate(zip(mesh_of, histories, store.counts.tolist(), signal_of)):
        times = meshes[store.knots.starts[m] :][:count]
        bps, cut, jump = lattices[m]
        if cut:  # a cut lattice: the plain mesh's
            bps = np.r_[0.0, jump]
        out.append(Trajectory(
            system=system, xi0=xi0, times=times, x=store.x[:count, b], z=store.z[:count, b],
            breakpoints=bps[bps <= times[-1] + _BP_TOL], t_end=float(times[-1]), blowup=bool(blowups[b]),
            order_reduced=cut, input=signals[j], _batch=store, _row=b))
    return out


def _stage_plan(system: NfdeSystem):
    """(plan, block terms, distributed terms, lead). The plan has, term by term, (0, j) block term j (an
    input, or a pointwise term with a delay), (1, t) the pointwise term t without delay, taken at the stage
    tip, or (2, j) distributed term j, through its window. 0 + v_0 + v_1 rounds as 0 + v_1 + v_0, both being
    0 + (v_0 + v_1), signed zeros too: a block term among the first two, `lead`, opens the fold with its 0
    added once a block, and the plan leaves it out."""
    plan, block_terms, dist = [], [], []
    for t in system.rhs.terms:
        if isinstance(t, DistributedTerm):
            plan.append((2, len(dist)))
            dist.append(t)
        elif isinstance(t, InputTerm) or t.delay > 0:
            plan.append((0, len(block_terms)))
            block_terms.append(t)
        else:
            plan.append((1, t))
    if not plan:  # f = 0 as a block term of zeros, which has the running histories' rows
        plan.append((0, 0))
        block_terms.append(SimpleNamespace(at=np.zeros_like, delay=float(system.dop.delays[0])))
    lead = next((j for kind, j in plan[:2] if kind == 0), None)
    return [step for step in plan if step != (0, lead)], block_terms, dist, lead


def _kernel(system: NfdeSystem, batch: bool = False):
    """The step loop of one history on float locals or, for `batch`, of several on (B,) arrays, compiled
    from the system's stage plan on first use and kept on the system (`inspect.getsource` prints it; see
    the module docstring). kernel(i, stop, k, w, z, y, cols, windows, live, out, planes, b2) runs steps
    i..stop-1 from z and z' (y) at knot i, step i reading row k of a block's `cols` and step w of the
    `windows`; new knots go to `out` flat (a batch's without x'), or to `planes` where windows read them.
    It returns the step reached and z, y there, or (i, None, keep) where step i blew up (keep: a batch's).
    A tip term's primitive takes each tip component, a float or a batch's (B,) array, and rounds both alike."""
    if (attr := "_batch_kernel" if batch else "_kernel") in vars(system):
        return vars(system)[attr]
    plan, block_terms, dist, lead = _stage_plan(system)
    n, p, comps = system.n, system.dop.p, range(system.n)
    env = {"islice": islice, "array": np.array, "where": np.where, "zero": np.array(0.0),
           "two": np.array(2.0)}  # a batch's numbers are 0-d arrays, which numpy takes faster than floats

    def each(name: str) -> list[str]:  # the name's n components
        return [*map(f"{name}{{}}".format, comps)]

    row = ", ".join  # a batch hands the windows (B, n) tips, not (1, n), and unpacks their columns
    zero, two, number = ("zero", "two", np.array) if batch else ("0.0", "2.0", float)
    cols, head = ["h0", "h1", "h2", "h3"], [f"{row(each('z'))}, = z", f"{row(each('y'))}, = y"]
    cols += [v for d in range(p) for half in "me" for v in each(f"d{half}{d}_")] + each("tr") + each("tl")
    cols += [v for j in range(len(block_terms)) for c in "mek" for v in each(f"b{j}{c}_")] + ["jump"] * (system.m > 0)
    for q, (kind, t) in enumerate(plan):
        if kind == 1:  # tip term q: its matrix's entries row by row, and its primitive
            env[f"C{q}"], env[f"g{q}"] = tuple(map(number, t.matrix.ravel().tolist())), getattr(t, "_g", None)
            head.append(f"{row([f'c{q}_{r}_{c}' for r in comps for c in comps])}, = C{q}")
    head += [f"gather{j}, value{j} = windows[{j}].gather, windows[{j}].value" for j in range(len(dist))]

    def fold(c: int, e: int) -> list[str]:
        """f at the tip t: block terms at c (0 midpoint, 1 step end, 2 new knot), windows at e."""
        at = "mek"[c]
        lines, terms = [], [[zero if lead is None else f"b{lead}{at}_{i}" for i in comps]]
        for q, (kind, j) in enumerate(plan):
            if kind == 0:
                values = each(f"b{j}{at}_")
            elif kind == 1:
                x = each("t")
                if (g := env[f"g{q}"]) is not None:  # g on each tip component; on a float, kept a Python float
                    call = "float(g{}(t{}))" if not batch and type(g(0.0)) is not float else "g{}(t{})"
                    lines += [f"q{q}_{i} = {call.format(q, i)}" for i in comps]
                    x = each(f"q{q}_")
                values = ["(" + " + ".join([f"c{q}_{i}_{k} * {x[k]}" for k in comps]) + ")" for i in comps]
            else:  # on floats for n = 1, else on lists of n; a batch's as (B, n) rows
                tip, slope = ("t0", "sl0") if n == 1 and not batch else [
                    f"array(({row(each(v))},)).T" if batch else f"[{row(each(v))}]" for v in ("t", "sl")]
                lines.append(f"{row(each(f'r{j}_'))}{',' if batch else ''} = value{j}(w, {e}, {tip}, live, "
                             f"{slope if e == 2 else None}){'.T' if batch else ''}")
                values = each(f"r{j}_")
            terms.append(values)
        return lines + [f"f{i} = {' + '.join([values[i] for values in terms])}" for i in comps]

    def tip(base: str, half: str) -> list[str]:  # t = base + each D-term at the midpoint (m) or step end (e)
        return [f"t{i} = {base.format(i)}" + "".join([f" + d{half}{d}_{i}" for d in range(p)]) for i in comps]

    body = [f"gather{j}(w)" for j in range(len(dist))]
    body += tip("z{0} + h0 * y{0}", "m") + fold(0, 0) + [f"a{i} = y{i} + {two} * f{i}" for i in comps]  # k2
    body += tip("z{0} + h1 * f{0}", "m") + fold(0, 0) + [f"a{i} = a{i} + {two} * f{i}" for i in comps]  # k3
    body += tip("z{0} + h2 * f{0}", "e") + fold(1, 1) + [f"a{i} = a{i} + f{i}" for i in comps]  # k4
    body += [f"n{i} = z{i} + h3 * a{i}" for i in comps] + tip("n{0}", "e")  # z and x at the new knot
    body.append(f"mag = {' + '.join([f'{t} * {t}' for t in each('t')])}")  # |x|^2 past the bound, or not finite
    body += [  # a batch's rows all pass where their sum does (finite, at most b2), else each row's own test
        "if ((s := sum(mag.tolist())) > b2 or s - s != 0.0) and not (keep := (mag <= b2) & (mag - mag == 0.0)).all():",
        "    return i, None, keep"] if batch else ["if mag > b2 or mag - mag != 0.0:", "    return i, None, None"]
    body += [f"sl{i} = f{i} + tl{i}" for i in comps] if dist else []  # the tip's left slope, for the windows
    body += fold(2, 2) + [f"y{i} = f{i}" for i in comps]  # z' from the right: the next step's k1
    left = [f"f{i} = where(jump, f{i}, y{i})" for i in comps] if batch else []  # z' from the left, where u jumps
    body += [f"if jump{'.any()' if batch else ''}:", *["    " + line for line in fold(1, 2) + left]] if system.m else []
    knot = [each("t"), [f"y{i} + tr{i}" for i in comps], [f"f{i} + tl{i}" for i in comps], each("n"),
            each("y"), each("f")]  # x, x' from the right and the left, z, z' from the right and the left
    knot[1:3] = [] if batch and not dist else knot[1:3]  # a batch's caller adds the slope sums to z' at once
    body.append(f"planes[:, i + 1]{'[..., live]' if batch else ''} = {row([f'({row(v)},)' for v in knot])}"
                if dist else f"out += {row([v for values in knot for v in values])},")
    body += [f"{row(each('z'))} = {row(each('n'))}", "i += 1", *(["w += 1"] if dist else [])]
    source = "\n    ".join([
        "def kernel(i, stop, k, w, z, y, cols, windows, live, out, planes, b2):", *head,
        f"for {row(cols)} in islice(zip(*cols), k, k + stop - i):", *["    " + line for line in body],
        f"return i, [{row(each('z'))}], [{row(each('y'))}]"]) + "\n"
    name = str(Path(__file__).with_name(f"<kernel {hash(source) & 0xFFFFFFFFFFFF:012x}>"))  # one per source
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    exec(compile(source, name, "exec"), env)
    object.__setattr__(system, attr, env["kernel"])
    return env["kernel"]


def _advance(system, store: _BatchStore, inputs, blowup_bound) -> np.ndarray:
    """The method-of-steps loop for every history of the store; returns their blowup flags.
    `inputs` is None for an input-free system, else (signals, each mesh's signal, each
    signal's jump times).

    Step i takes every running history from its knot i to knot i + 1. A history parks,
    keeping its knots, where its mesh ends or its state blows up; the rest go on. A block
    of steps ends where its plan of reads ends or the running histories change; one call of the
    system's compiled kernel (`_kernel`) runs it, or the part one plan of windows covers. Where
    some histories of a batch blow up at a step, they park, and a block starts there for the rest.
    """
    dop_terms = list(zip(system.dop.delays.tolist(), system.dop.matrices))
    x, xdr, xdl, z, zdr, zdl = store.block
    size, (width, n) = store.x.shape[0], store.shape
    t0, t1 = store.times[:-1], store.times[1:]
    lengths = t1 - t0  # each mesh's step lengths
    mids = t0 + 0.5 * lengths
    ends = store.knots.sizes[store.mesh_of] - 1

    # the reads of each step: x at the midpoint and at the step end for each
    # offset, then x' from the left and from the right at the step end for
    # each D-term; placed ahead in runs of steps that place at most _PLAN_READS
    offsets = sorted({*system.dop.delays.tolist(), *system.rhs.positive_delays()})
    lags = np.array(offsets)[:, None, None], system.dop.delays[:, None, None]
    read_times = np.concatenate([mids - lags[0], t1 - lags[0], t1 - lags[1], t1 - lags[1]])
    read_kinds = np.array([0] * (2 * len(offsets)) + [2] * len(dop_terms) + [1] * len(dop_terms))
    # the first steps read back into the initial histories and place per group, the rest per mesh, parked too
    early = np.logical_or.reduce(read_times < store.past_below[read_kinds][:, None, None], axis=(0, 2))
    prefix = np.count_nonzero(early)
    placed = (len(read_kinds) * np.where(early, store.firsts[1].size, store.mesh_count)).cumsum()
    # D-term j's x at midpoints and step ends, then its x' from the right and from the left
    dop_at = [[o, o + len(offsets), 2 * len(offsets) + len(dop_terms) + j, 2 * len(offsets) + j]
              for j, o in enumerate(map(offsets.index, system.dop.delays.tolist()))]
    plan, block_terms, dist, lead = _stage_plan(system)  # a block term's delay is read at offsets[o]
    block_at = [None if isinstance(t, InputTerm) else offsets.index(t.delay) for t in block_terms]

    # the input on each mesh: "+" at nodes and midpoints, "-" at step ends
    # (the step integrates the branch active on (t, t_next))
    u_node = u_mid = u_end = jump = None
    if inputs is not None:
        signals, signal_of, jumps = inputs
        cols = [slice(None)] if len(signals) == 1 else [(signal_of == j).nonzero()[0] for j in range(len(signals))]
        u_node, u_mid, u_end = (np.empty((*times.shape, system.m)) for times in (store.times, mids, t1))
        jump = np.empty(t1.shape, dtype=bool)
        for sig, c, keys in zip(signals, cols, jumps):  # each signal on its meshes
            for out, times, side in ((u_node, store.times, "+"), (u_mid, mids, "+"), (u_end, t1, "-")):
                out[:, c] = sig.eval(times[:, c].ravel(), side).reshape(times.shape[0], -1, system.m)
            keys = np.round(keys / _BP_TOL).astype(np.int64)
            jump[:, c] = np.isin(np.round(t1[:, c] / _BP_TOL).astype(np.int64), keys)
        u_node, u_mid, u_end, jump = (a[:, store.mesh_of] for a in (u_node, u_mid, u_end, jump))

    def plan_reads(start: int, extra=(np.empty(0, dtype=int),) * 3) -> _Reads:
        budget = (placed[start - 1] if start else 0) + _PLAN_READS
        stop = max(start + 1, int(placed.searchsorted(budget, "right")))
        return _Reads(store, start, stop, read_times[:, start:stop], read_kinds, prefix, extra)

    # what scales k1, k2, k3 in the stage tips and the RK sum in z, on each mesh
    spans = np.array([0.5 * lengths, 0.5 * lengths, lengths, lengths / 6.0])
    # a block's rows: the four scales, each D-term at midpoints and step ends, the slope sums from
    # the right and the left, then each block term at midpoints, step ends and new knots
    tails = 4 + 2 * len(dop_terms)

    def block(i: int, stop: int, run) -> np.ndarray:
        """Steps i..stop-1 of the running histories, (rows, steps, running histories, n)."""
        act, col = run[:2]
        v = reads.steps(i - reads.start, stop - reads.start, run)  # (reads, steps, histories, n)
        out = np.empty((tails + 2 + 3 * len(block_terms), *v.shape[1:]))
        out[:4] = spans[:, i:stop, col, None]
        dv = [_apply(a, v[at]) for (_, a), at in zip(dop_terms, dop_at)]
        out[4:tails] = np.concatenate([d[:2] for d in dv])
        out[tails : tails + 2] = sum((d[2:] for d in dv), np.zeros((2, *v.shape[1:])))
        for j, (t, o) in enumerate(zip(block_terms, block_at)):
            args = (v[o], v[o + len(offsets)], v[o + len(offsets)]) if o is not None else (  # an input, "-"
                w[:, act] for w in (u_mid[i:stop], u_end[i:stop], u_node[i + 1 : stop + 1]))  # at step ends
            for c, arg in enumerate(args):
                out[tails + 2 + 3 * j + c] = 0.0 + t.at(arg) if j == lead else t.at(arg)
        return out

    # knot 0 from one read (x, x' from the left at 0, x' from the right at -Delta_j, x at each offset): z as
    # `dop_apply`; f is one `RhsMap.eval` on the batch, handed the (B, n) stacks of x(-d) as its delays' values
    at = np.array([0.0, 0.0, *(-lags[1].ravel()), *(-lags[0].ravel())]).repeat(width)
    kinds = np.array([0, 2] + [1] * len(dop_terms) + [0] * len(offsets)).repeat(width)
    reads = plan_reads(0, (np.arange(at.size) % width, at, kinds))
    seeds = reads.extra.reshape(-1, width, n)
    x[0], xdl[0] = seeds[:2]
    back = dict(zip([0.0, *offsets], [seeds[0], *seeds[2 + len(dop_terms) :]]))  # x at -d
    z[0] = seeds[0]
    for d, a in dop_terms:
        z[0] -= _apply(a, back[d])
    zdl[0] = zdr[0] = f = system.rhs.eval(store.histories, None if u_node is None else u_node[0], back)
    xdr[0] = f + sum((_apply(a, s) for (_, a), s in zip(dop_terms, seeds[2:])), np.zeros((width, n)))

    # each distributed term's window reads, placed in runs of steps (see `_Window`)
    if dist:
        # a bound on a history's reads at a stage of each step, two per panel and one of x'(a+):
        # the kernel grid, s and the grid points and knots in [midpoint - Delta, step end] cut them
        lo, first = mids - system.delta, store.mesh_count  # history b's grid is row first + b of the knots
        knots = np.arange(first) + 1j * np.stack([t1, lo])
        knots = store.knots.keys.searchsorted(knots[0], "right") - store.knots.keys.searchsorted(knots[1])
        past = (store.knots.starts + store.knots.sizes)[first:] - np.searchsorted(
            store.knots.keys, np.arange(first, first + width) + 1j * lo[:, store.mesh_of])
        bound = 2 * (past + knots[:, store.mesh_of] + max(t.grid.size for t in dist))

    def plan_windows(start: int, live) -> tuple:
        """The windows of a run of steps each of whose stages places at most _PLAN_READS reads."""
        total = np.cumsum(bound[start:, live].sum(axis=1))
        stop = start + max(1, int(np.searchsorted(total, _PLAN_READS, "right")))
        j, e, b = (a.ravel() for a in np.meshgrid(np.arange(start, stop), [0, 1], live, indexing="ij"))
        j, e, b = (a[j < ends[b]] for a in (j, e, b))
        m = store.mesh_of[b]  # the midpoint and the step end, each anchored at the step's start
        tips, rows = np.where(e == 0, mids[j, m], t1[j, m]), np.stack([j - start, e, b])
        return stop, [_Window(store, t, system.delta, tips, t0[j, m], rows) for t in dist]

    def running_rows(live):
        """(act, col, live, park): the running histories' columns, meshes and indices, and the next park."""
        act = slice(None) if live.size == width else live
        col = slice(None) if store.mesh_count == 1 else store.mesh_of[live]
        return act, col, live, int(np.minimum.reduce(ends[live], initial=size))

    batch, planes = width > 1, store.block.swapaxes(2, 3)  # a batch's kernel runs on (B,) arrays; (6, knots, n, B)
    kernel, own = _kernel(system, batch), planes if batch else planes[..., 0]  # one history's writes (6, knots, n)
    run = act, col, live, park = running_rows(np.arange(width))
    bound2, windows, i = blowup_bound * blowup_bound, [], 0
    start = stop = wstart = wstop = 0
    # a stage may overflow within a step: the new knot's finiteness test parks its history
    with np.errstate(over="ignore", invalid="ignore"):
        while i < size - 1 and live.size:  # the histories running at the last knot park there
            if i == stop:  # a new block: park the histories whose meshes end here
                if i == park:
                    store.counts[live[ends[live] == i]] = i + 1
                    run = act, col, live, park = running_rows(live[ends[live] > i])
                    continue
                if i == reads.stop:
                    reads = plan_reads(i)
                # the steps whose reads touch knots 0..i only, up to the plan's end and the next park
                start, stop = i, min(reads.start + bisect.bisect_right(reads.reach, i), park)
                values = block(i, stop, run)  # the kernel reads each component's rows, then the jump flags
                rows = np.concatenate([values[:4, ..., 0], values[4:].transpose(0, 3, 1, 2).reshape(
                    -1, stop - i, live.size), *(() if jump is None else (jump[None, i:stop, act],))])
                cols = [*rows] if batch else [*map(memoryview, rows[..., 0])]
                if batch or i == 0:  # z and z' at knot i: one history carries them from call to call
                    zc, yc = ([*z[i, act].T], [*zdr[i, act].T]) if batch else (z[0, 0].tolist(), zdr[0, 0].tolist())
            if dist and i == wstop:
                wstart, (wstop, windows) = i, plan_windows(i, live)
            i, zc, yc = kernel(i, min(stop, wstop) if dist else stop, i - start, i - wstart, zc, yc, cols,
                               windows, live, knots := [], own, bound2)
            if knots and batch:  # the new knots, up to knot i: x' is z' plus the slope sums of the call's block
                new = np.concatenate(knots).reshape(-1, 4, n, live.size)
                xdot = new[:, 2:] + values[tails : tails + 2, : len(new)].transpose(1, 0, 3, 2)
                new = np.concatenate([new[:, :1], xdot, new[:, 1:]], 1)
                planes[:, i + 1 - len(new) : i + 1][..., act] = new.swapaxes(0, 1)
            elif knots:
                new = np.fromiter(knots, float, len(knots)).reshape(-1, 6, n).swapaxes(0, 1)
                own[:, i + 1 - new.shape[1] : i + 1] = new
            if zc is None:  # step i blew up: the rows yc keeps (none of one history) take it again
                keep = yc if batch else np.zeros(1, dtype=bool)
                store.counts[live[~keep]] = i + 1
                run = act, col, live, park = running_rows(live[keep])
                stop = i
    store.counts[live] = i + 1
    return store.counts <= ends  # a history that parks before its mesh ends blew up


def segment(traj: Trajectory, t: float) -> HistorySegment:
    """History of horizon Delta ending at time t, node-exact at store knots.

    Interior nodes carry right-sided slopes; a derivative kink strictly inside
    the window is therefore smoothed within its single mesh interval.
    """
    if t < -_BP_TOL or t > traj.t_end + _BP_TOL:
        raise PreconditionError(f"segment time {t} outside [0, {traj.t_end}]")
    t = min(max(t, 0.0), traj.t_end)
    return traj.xi0 if t == 0.0 else _segments(traj, np.array([t]))[0]


def _segments(traj: Trajectory, ts: np.ndarray) -> list[HistorySegment]:
    """`segment` at each time of ts in (0, t_end]. Segment k's nodes are ts[k] -
    Delta, the initial history's nodes and the positive knots strictly between,
    and ts[k]; a node within _BP_TOL max(1, Delta) of the one kept before it is
    dropped, and the last one kept moves to ts[k]. One store read takes a run of
    segments that places at most _PLAN_READS reads (one segment at least), as a
    plan of the step loop does, so short segments share a read and long ones
    hold no more memory than one alone."""
    delta = traj.system.delta
    lo, inner = ts - delta, np.concatenate([traj.xi0.grid + 0.0, traj.times[traj.times > 0.0]])
    first, stop = np.searchsorted(inner, lo, "right"), np.searchsorted(inner, ts)
    counts = stop - first + 2  # lo, inner[first:stop], t
    ends = counts.cumsum()
    grid = inner[np.minimum(np.arange(ends[-1]) - (ends - counts - first + 1).repeat(counts), inner.size - 1)]
    grid[ends - counts], grid[ends - 1] = lo, ts
    keep = np.diff(grid, prepend=-np.inf) > _BP_TOL * max(1.0, delta)
    keep[ends - counts] = True
    sizes = np.add.reduceat(keep, ends - counts)
    grid = grid[keep]
    ends = sizes.cumsum()
    starts = ends - sizes
    grid[ends - 1] = ts
    shifted = grid - ts.repeat(sizes)
    shifted[starts], shifted[ends - 1] = -delta, 0.0
    out, k = [], 0
    while k < sizes.size:  # segments k..last-1: x at their nodes, then x' from the right, from the left at each end
        last = k + max(1, int(np.searchsorted(2 * (ends[k:] - starts[k]), _PLAN_READS, "right")))
        a, size = starts[k], ends[last - 1] - starts[k]
        kinds = np.repeat([0, 1], size)
        kinds[size + ends[k:last] - 1 - a] = 2
        reads = traj._batch.read(traj._row, np.tile(grid[a : a + size], 2), kinds)
        out += [_cubic(delta, shifted[i:j], reads[i - a : j - a], reads[size + i - a : size + j - a])
                for i, j in zip(starts[k:last].tolist(), ends[k:last].tolist())]
        k = last
    return out


def _breakpoint_gap(traj: Trajectory, ts: np.ndarray) -> np.ndarray:
    """Distance from each time in ts to the nearest breakpoint, 0 or t_end."""
    bps = np.unique(np.concatenate([traj.breakpoints, [0.0, traj.t_end]]))
    pos = np.searchsorted(bps, ts)
    below = bps[np.maximum(pos - 1, 0)]
    above = bps[np.minimum(pos, bps.size - 1)]
    return np.minimum(np.abs(below - ts), np.abs(above - ts))


def _clear_times(traj: Trajectory, ts: np.ndarray, count: int) -> np.ndarray:
    """Up to `count` evenly spread times of ts at least two mesh steps from every breakpoint, 0 and t_end."""
    cand = ts[_breakpoint_gap(traj, ts) >= 2.0 * np.min(np.diff(traj.times))]
    return cand[np.unique(np.linspace(0, cand.size - 1, min(count, cand.size)).astype(int))]


def residual_check(traj: Trajectory, sample_count: int = 50) -> float:
    """Max |centered difference of D x_t - f(x_t)| at midpoints between breakpoints.

    Candidate times keep at least two mesh steps away from every breakpoint;
    the centered difference of the dense z store is compared against f on the
    extracted segments (`_segments`: one store read for short ones), evaluated
    at once through the rhs terms, not through the step loop's stage plan.
    """
    if traj.blowup:
        raise PreconditionError("residual check on a blown-up trajectory")
    times = traj.times
    if times.size < 5:
        raise PreconditionError("trajectory too short for a residual check")
    sel = _clear_times(traj, 0.5 * (times[:-1] + times[1:]), sample_count)
    if sel.size == 0:
        return 0.0
    d = 0.5 * np.min(np.diff(times))
    z = traj.z_dense(np.concatenate([sel + d, sel - d])).reshape(2, sel.size, -1)  # one lookup
    f = traj.system.rhs.eval(_segments(traj, sel), None if traj.input is None else traj.input.eval(sel))
    return max([0.0, *(float(np.linalg.norm(r)) for r in (z[0] - z[1]) / (2.0 * d) - f)])
