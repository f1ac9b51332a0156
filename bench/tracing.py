"""Span tracer for the haleform layers, installed from outside the library.

`install` wraps every public function and method defined in each layer
module, under every name that binds it: the defining module, each module
that imported it by name (``certify.integrate``, ``cli.driver_derivative``,
...) and the package namespace. Each call then records one span
(name, start, end, parent span, round) in flat arrays kept in memory;
while `paused` is set, wrapped calls run without a span. `uninstall` puts
every original object back. `layer_metrics` turns the spans into the
per-layer figures the benchmark reports.

Self time of a span is its duration minus the durations of its direct
children. Inclusive time of a group of names sums the spans of the group
that have no ancestor in the group, so nested calls are not counted twice.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "histories",
    "operators",
    "integrate",
    "functionals",
    "certify",
    "stability",
    "signals",
    "comparison",
    "serialization",
    "cli",
)


class SpanLog:
    """Spans in flat arrays; span i has parent span `parent[i]` (-1 for none)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.round = array("i")
        self.start = array("q")
        self.end = array("q")
        self.extra: dict[int, object] = {}
        self.stack: list[int] = []
        self.current_round = -1
        self.paused = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start_ns: int, end_ns: int, parent: int = -1, rnd: int = 0):
        """Append one finished span (used by tests on synthetic trees)."""
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.round.append(rnd)
        self.start.append(start_ns)
        self.end.append(end_ns)
        return len(self.name) - 1

    def __len__(self) -> int:
        return len(self.name)

    def arrays(self) -> dict[str, np.ndarray]:
        """Read-only views of the span arrays (the log must not grow after)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "round": np.frombuffer(self.round, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def write(self, path: str) -> None:
        """Write the spans and the name table as one .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Span duration minus the summed durations of its direct children."""
    has_parent = parents >= 0
    covered = np.bincount(
        parents[has_parent], weights=durations[has_parent], minlength=durations.size
    )
    return durations - covered


# -- result hooks: counts read off a call's return value ---------------------------

def _steps(args, kwargs, traj):
    return int(traj.times.size - 1)


def _nodes(args, kwargs, seg):
    return int(seg.num_nodes)


def _nonsmooth(args, kwargs, est):
    return int(bool(est.nonsmooth))


def _torus_points(args, kwargs, margin):
    dop = args[0] if args else kwargs["dop"]
    resolution = args[1] if len(args) > 1 else kwargs.get("resolution", 64)
    return int(resolution) ** int(dop.p)


def _bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _report_counts(args, kwargs, result):
    report = getattr(result, "report", result)
    checked = sum(c.checked for c in report.conditions)
    return (checked, report.inconclusive)


HOOKS = {
    "integrate.integrate": _steps,
    "functionals.phi_h_extend": _nodes,
    "functionals.driver_derivative": _nonsmooth,
    "stability.gamma0": _torus_points,
    "serialization.write_json": _bytes,
    "certify.fit_constants": _report_counts,
    "certify.verify_gas_conditions": _report_counts,
    "certify.verify_ges_conditions": _report_counts,
    "certify.verify_ges_seminorm": _report_counts,
}


def _wrap(log: SpanLog, name: str, fn):
    nid = log.name_id(name)
    hook = HOOKS.get(name)
    names, parents, rounds = log.name, log.parent, log.round
    starts, ends, stack, extra = log.start, log.end, log.stack, log.extra
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if log.paused:
            return fn(*args, **kwargs)
        idx = len(names)
        names.append(nid)
        parents.append(stack[-1] if stack else -1)
        rounds.append(log.current_round)
        starts.append(0)
        ends.append(0)
        stack.append(idx)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            starts[idx] = t0
            stack.pop()
        if hook is not None:
            extra[idx] = hook(args, kwargs, result)
        return result

    traced.__bench_traced__ = True
    return traced


def _layer_modules():
    return {short: importlib.import_module(f"haleform.{short}") for short in LAYERS}


def _holders():
    """Every namespace that may bind a layer function by name."""
    import haleform

    return [haleform] + list(_layer_modules().values())


def traced_targets():
    """(qualified name, original) for every public function and method traced."""
    out = []
    for short, mod in _layer_modules().items():
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{short}.{attr}", obj))
            elif inspect.isclass(obj):
                for meth, fn in sorted(vars(obj).items()):
                    if inspect.isfunction(fn) and (meth == "__call__" or not meth.startswith("_")):
                        out.append((f"{short}.{attr}.{meth}", fn))
    return out


def install(log: SpanLog) -> list[tuple[object, str, object]]:
    """Wrap every traced target wherever it is bound; return the undo list."""
    holders = _holders()
    patches = []
    for name, original in traced_targets():
        wrapper = _wrap(log, name, original)
        if name.count(".") == 2:
            short, cls_name, meth = name.split(".")
            owner = getattr(sys.modules[f"haleform.{short}"], cls_name)
            patches.append((owner, meth, original))
            setattr(owner, meth, wrapper)
            continue
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# -- per-layer figures ----------------------------------------------------------------

HISTORY_EVAL = (
    "histories.HistorySegment.eval",
    "histories.HistorySegment.eval_scalar",
    "histories.HistorySegment.deriv",
    "histories.HistorySegment.deriv_scalar",
)
RHS = (
    "operators.rhs_eval",
    "operators.RhsMap.eval",
    "operators.LinearTerm.eval",
    "operators.NonlinearTerm.eval",
    "operators.DistributedTerm.eval",
    "operators.InputTerm.eval",
)
DENSE = (
    "integrate.Trajectory.x_at",
    "integrate.Trajectory.z_at",
    "integrate.Trajectory.z_dense",
)
VERIFY = (
    "certify.verify_gas_conditions",
    "certify.verify_ges_conditions",
    "certify.verify_ges_seminorm",
    "certify.reverify_counterexample",
)
SIGNAL_EVAL = ("signals.InputSignal.eval", "signals.InputSignal.__call__")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("integrate.calls", "count"),
    ("integrate.steps", "count"),
    ("integrate.self_s", "s"),
    ("integrate.us_per_step", "us"),
    ("integrate.dense_s", "s"),
    ("integrate.segment_s", "s"),
    ("histories.eval_calls", "count"),
    ("histories.eval_s", "s"),
    ("operators.rhs_calls", "count"),
    ("operators.rhs_s", "s"),
    ("operators.dop_calls", "count"),
    ("operators.dop_s", "s"),
    ("functionals.phi_h_calls", "count"),
    ("functionals.phi_h_s", "s"),
    ("functionals.phi_h_nodes_mean", "nodes"),
    ("functionals.derivative_calls", "count"),
    ("functionals.derivative_self_s", "s"),
    ("functionals.v_calls", "count"),
    ("functionals.v_s", "s"),
    ("functionals.nonsmooth_frac", "ratio"),
    ("functionals.v_per_derivative", "ratio"),
    ("certify.converse_calls", "count"),
    ("certify.converse_self_s", "s"),
    ("certify.integrations_per_converse", "ratio"),
    ("certify.fit_self_s", "s"),
    ("certify.verify_self_s", "s"),
    ("certify.ges_self_s", "s"),
    ("certify.iss_self_s", "s"),
    ("certify.attraction_self_s", "s"),
    ("certify.sample_s", "s"),
    ("certify.inconclusive", "count"),
    ("certify.inconclusive_frac", "ratio"),
    ("stability.gamma0_calls", "count"),
    ("stability.gamma0_s", "s"),
    ("stability.torus_points", "computed-points"),
    ("signals.eval_calls", "count"),
    ("signals.cumulative_sup_s", "s"),
    ("comparison.envelope_s", "s"),
    ("serialization.write_s", "s"),
    ("serialization.bytes_written", "bytes"),
    ("cli.scenario_self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


class SpanTable:
    """Vectorised views of a span log for the metric formulas."""

    def __init__(self, log: SpanLog):
        a = log.arrays()
        self.names = list(log.names)
        self.name = a["name"]
        self.parent = a["parent"]
        self.round = a["round"]
        self.dur = (a["end_ns"] - a["start_ns"]) * 1e-9
        self.self_s = self_times(self.dur, self.parent)
        self.extra = log.extra
        self.in_count = self.round == 0  # counts come from round 0 only
        parent_name = np.full(self.name.size, -1)
        has = self.parent >= 0
        parent_name[has] = self.name[self.parent[has]]
        self.parent_name = parent_name

    def ids(self, names) -> np.ndarray:
        wanted = [self.names.index(n) for n in names if n in self.names]
        return np.asarray(wanted, dtype=np.int64)

    def mask(self, names) -> np.ndarray:
        return np.isin(self.name, self.ids(names))

    def outer(self, names) -> np.ndarray:
        """Spans of the group with no ancestor in the group."""
        in_group = self.mask(names)
        has = self.parent >= 0
        parent = np.where(has, self.parent, 0)
        under = np.zeros(in_group.size, dtype=bool)
        while True:  # one pass per tree level
            nxt = has & (in_group[parent] | under[parent])
            if np.array_equal(nxt, under):
                return in_group & ~under
            under = nxt

    def calls(self, names) -> int:
        return int(np.sum(self.outer(names) & self.in_count))

    def inclusive(self, names) -> float:
        return float(np.sum(self.dur[self.outer(names)]))

    def self_time(self, names) -> float:
        return float(np.sum(self.self_s[self.mask(names)]))

    def extras(self, name, counted_only=True) -> list:
        sel = self.mask([name])
        if counted_only:
            sel &= self.in_count
        return [self.extra[int(i)] for i in np.nonzero(sel)[0] if int(i) in self.extra]

    def child_calls(self, child_names, parent_names) -> int:
        sel = self.mask(child_names) & np.isin(self.parent_name, self.ids(parent_names))
        return int(np.sum(sel & self.in_count))


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(log: SpanLog, rounds: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer figures: counts over round 0 (they repeat exactly for a seed),
    times as seconds per traced round (mean over `rounds` rounds)."""
    t = SpanTable(log)
    per = 1.0 / max(rounds, 1)
    integ = ["integrate.integrate"]
    steps_all = sum(t.extras("integrate.integrate", counted_only=False))
    nodes = t.extras("functionals.phi_h_extend")
    reports = (
        t.extras("certify.fit_constants")
        + t.extras("certify.verify_gas_conditions")
        + t.extras("certify.verify_ges_conditions")
        + t.extras("certify.verify_ges_seminorm")
    )
    checked = sum(c for c, _ in reports)
    inconclusive = sum(i for _, i in reports)
    functional_calls = [n for n in t.names if n.endswith(".__call__") and _is_functional(n)]
    derivative = ["functionals.driver_derivative"]
    converse = ["certify.ConverseFunctional.__call__"]
    n_deriv = t.calls(derivative)
    n_conv = t.calls(converse)
    out = {
        "integrate.calls": t.calls(integ),
        "integrate.steps": sum(t.extras("integrate.integrate")),
        "integrate.self_s": t.self_time(integ) * per,
        "integrate.us_per_step": _ratio(t.inclusive(integ) * 1e6, steps_all),
        "integrate.dense_s": t.inclusive(DENSE) * per,
        "integrate.segment_s": t.inclusive(["integrate.segment"]) * per,
        "histories.eval_calls": t.calls(HISTORY_EVAL),
        "histories.eval_s": t.self_time(HISTORY_EVAL) * per,
        "operators.rhs_calls": t.calls(["operators.RhsMap.eval"]),
        "operators.rhs_s": t.self_time(RHS) * per,
        "operators.dop_calls": t.calls(["operators.dop_apply"]),
        "operators.dop_s": t.self_time(["operators.dop_apply"]) * per,
        "functionals.phi_h_calls": t.calls(["functionals.phi_h_extend"]),
        "functionals.phi_h_s": t.inclusive(["functionals.phi_h_extend"]) * per,
        "functionals.phi_h_nodes_mean": _ratio(sum(nodes), len(nodes)),
        "functionals.derivative_calls": n_deriv,
        "functionals.derivative_self_s": t.self_time(derivative) * per,
        "functionals.v_calls": t.calls(functional_calls),
        "functionals.v_s": t.inclusive(functional_calls) * per,
        "functionals.nonsmooth_frac": _ratio(sum(t.extras(derivative[0])), n_deriv),
        "functionals.v_per_derivative": _ratio(t.child_calls(functional_calls, derivative), n_deriv),
        "certify.converse_calls": n_conv,
        "certify.converse_self_s": t.self_time(converse) * per,
        "certify.integrations_per_converse": _ratio(t.child_calls(integ, converse), n_conv),
        "certify.fit_self_s": t.self_time(["certify.fit_constants"]) * per,
        "certify.verify_self_s": t.self_time(VERIFY) * per,
        "certify.ges_self_s": t.self_time(["certify.estimate_ges"]) * per,
        "certify.iss_self_s": t.self_time(["certify.iss_probe"]) * per,
        "certify.attraction_self_s": t.self_time(["certify.check_uniform_attraction"]) * per,
        "certify.sample_s": t.inclusive(["certify.sample_shells"]) * per,
        "certify.checked": checked,
        "certify.inconclusive": inconclusive,
        "certify.inconclusive_frac": _ratio(inconclusive, checked),
        "stability.gamma0_calls": t.calls(["stability.gamma0"]),
        "stability.gamma0_s": t.inclusive(["stability.gamma0"]) * per,
        "stability.torus_points": sum(t.extras("stability.gamma0")),
        "signals.eval_calls": t.calls(SIGNAL_EVAL),
        "signals.cumulative_sup_s": t.inclusive(["signals.InputSignal.cumulative_sup"]) * per,
        "comparison.envelope_s": t.inclusive(["comparison.monotone_envelope"]) * per,
        "serialization.write_s": t.inclusive(["serialization.write_json"]) * per,
        "serialization.bytes_written": sum(t.extras("serialization.write_json")),
        "cli.scenario_self_s": t.self_time(["cli.run_scenario"]) * per,
        "trace.overhead_frac": overhead_frac,
    }
    return out


def _is_functional(name: str) -> bool:
    """True for `<module>.<Class>.__call__` where Class is a Functional."""
    from haleform.functionals import Functional

    short, cls_name, _ = name.split(".")
    cls = getattr(sys.modules[f"haleform.{short}"], cls_name, None)
    return inspect.isclass(cls) and issubclass(cls, Functional)
