"""Value types own their data: each copies the caller's arrays when it is built,
so a later edit of those arrays changes neither the value nor its outputs, and
the caller's arrays stay writable."""
import numpy as np
import pytest

from haleform import (
    ComparisonFunction,
    DifferenceOperator,
    DistributedTerm,
    HistorySegment,
    InputSignal,
    InputTerm,
    LinearTerm,
    NonlinearTerm,
    QuadraticDopFunctional,
)
from haleform.serialization import read_json, signal_from_dict, signal_to_dict, write_json
from haleform.stability import StabilityMargin

TIMES = np.linspace(0.0, 3.0, 13)
POINTS = np.linspace(-1.0, 0.0, 9)


def _history(grid, values, slopes, kinks=None):
    return HistorySegment(1.0, grid, values, slopes=slopes, kink_times=kinks)


def _history_read(seg):
    return seg.grid, seg.values, seg.slopes, seg.kink_times, seg.eval(POINTS), seg.deriv(POINTS)


def _signal_read(sig):
    return (sig.eval(TIMES), sig.eval(TIMES, "-"), sig.jump_times(3.0), sig.sup_norm(2.0),
            sig.cumulative_sup(TIMES))


# name -> (the caller's arrays, the value built from them, what the value gives)
CASES = {
    "history-1d": (
        (np.linspace(-1.0, 0.0, 5), np.array([0.0, 1.0, -1.0, 0.5, 2.0]), np.ones(5), np.array([-0.5])),
        _history, _history_read),
    "history-2d": (
        (np.linspace(-1.0, 0.0, 4), np.arange(8.0).reshape(4, 2), -np.arange(8.0).reshape(4, 2)),
        _history, _history_read),
    "signal-constant": ((np.array([0.5, -2.0]),), InputSignal.constant, _signal_read),
    "signal-piecewise-constant": (
        (np.array([0.0, 1.0, 2.0]), np.array([[1.0], [-3.0], [0.5]])),
        InputSignal.piecewise_constant, _signal_read),
    "signal-sinusoid": ((np.array([1.0, 2.0]),), lambda a: InputSignal.sinusoid(a, 2.0, 0.3), _signal_read),
    "signal-table": (
        (np.array([0.0, 1.0, 2.5]), np.array([[0.0], [2.0], [-1.0]])), InputSignal.from_table, _signal_read),
    "signal-params": (
        (np.array([0.0, 1.5]), np.array([[2.0, 0.0], [0.0, -1.0]])),
        lambda t, v: InputSignal("piecewise-constant", {"times": t, "values": v}), _signal_read),
    "comparison-table": (
        (np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 3.0])),
        lambda x, y: ComparisonFunction.table(x, y), lambda c: (c.params["x"], c.params["y"], c(TIMES))),
    "difference-operator": (
        (np.array([1.0, 0.5]), np.array([[[0.2]], [[0.3]]])), DifferenceOperator,
        lambda d: (d.delays, d.matrices)),
    "linear-term": ((np.array([[-1.0, 0.5], [0.0, -2.0]]),), lambda m: LinearTerm(0.5, m),
                    lambda t: (t.matrix, t.at(np.ones(2)))),
    "nonlinear-term": ((np.array([[-1.0]]),), lambda m: NonlinearTerm(0.0, "cubic", m),
                       lambda t: (t.matrix, t.at(np.full(1, 2.0)))),
    "nonlinear-table": (
        (np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 0.0, 1.0])),
        lambda x, y: NonlinearTerm(0.0, "table", [[1.0]], {"x": x, "y": y}),
        lambda t: (t.at(np.array([[0.5], [-0.25]])),)),
    "input-table": (
        (np.array([-1.0, 0.0, 1.0]), np.array([-2.0, 0.0, 1.0])),
        lambda x, y: InputTerm([[1.0], [2.0]], "table", {"x": x, "y": y}),
        lambda t: (t.at(np.array([0.5])), t.at(np.array([-0.75])))),
    "distributed-term": (
        (np.linspace(-1.0, 0.0, 3), np.array([0.1, 0.2, 0.4])), DistributedTerm,
        lambda t: (t.grid, t.kernel)),
    "input-term": ((np.array([[1.0], [2.0]]),), InputTerm, lambda t: (t.matrix, t.at(np.ones(1)))),
    "stability-margin": ((np.array([0.0, 1.0]),), lambda a: StabilityMargin(0.5, a, 64, True),
                         lambda s: (s.argmax_theta,)),
    "quadratic-functional": (
        (np.eye(1) * 2.0,), lambda p: QuadraticDopFunctional(DifferenceOperator([1.0], [[[0.5]]]), p),
        lambda v: (v.P, v(HistorySegment.constant([1.0], 1.0)))),
}


@pytest.mark.parametrize("name", list(CASES))
def test_value_is_unchanged_by_edits_of_the_callers_arrays(name):
    arrays, build, read = CASES[name]
    arrays = [a.copy() for a in arrays]
    value = build(*arrays)
    before = [np.array(x, copy=True) for x in read(value)]
    for a in arrays:
        assert a.flags.writeable, "the caller's array was frozen"
        a *= -3.0
        a += 7.0
    after = read(value)
    for b, x in zip(before, after):
        assert np.array_equal(b, x)


def test_kept_arrays_are_read_only():
    seg = HistorySegment(1.0, np.linspace(-1.0, 0.0, 3), np.zeros((3, 2)))
    table = ComparisonFunction.table([0.0, 1.0], [0.0, 1.0])
    dop = DifferenceOperator([1.0], [[[0.5]]])
    kept = [seg.grid, seg.values, seg.slopes, seg.kink_times, table.params["x"], table.params["y"],
            dop.delays, dop.matrices, LinearTerm(0.0, [[1.0]]).matrix]
    assert not any(a.flags.writeable for a in kept)


def _signal_params():
    return {"times": np.array([0.0, 1.0]), "values": np.array([[1.0], [2.0]])}


# name -> (the caller's params, the value built from them, an edit of them, what the value gives)
PARAMS = {
    "signal-array": (_signal_params, lambda d: InputSignal("piecewise-constant", d),
                     lambda d: d["values"].__imul__(-3.0), lambda s: (s.eval(0.5), s.params["values"])),
    "signal-list": (lambda: {"times": [0.0, 1.0], "values": [[1.0], [2.0]]},
                    lambda d: InputSignal("piecewise-constant", d),
                    lambda d: d["values"][0].__setitem__(0, 5.0), lambda s: (s.eval(0.5), s.params["values"])),
    "comparison": (lambda: {"c": 1.5}, lambda d: ComparisonFunction("Kinf", "linear", d),
                   lambda d: d.__setitem__("c", -5.0), lambda c: (c(2.0), c.params["c"])),
    "nonlinear-term": (lambda: {"limit": 0.5}, lambda d: NonlinearTerm(0.0, "saturation", [[1.0]], d),
                       lambda d: d.__setitem__("limit", 3.0),
                       lambda t: (t.at(np.full(1, 2.0)), t.params["limit"])),
    "input-term": (lambda: {"x": np.array([-1.0, 0.0, 1.0]), "y": np.array([-2.0, 0.0, 2.0])},
                   lambda d: InputTerm([[1.0]], "table", d),
                   lambda d: d["y"].__imul__(-3.0), lambda t: (t.at(np.array([0.5])), t.params["y"])),
}


@pytest.mark.parametrize("name", list(PARAMS))
def test_value_is_unchanged_by_edits_of_the_callers_params(name):
    """A value keeps its own copy of `params`, as it does of its arrays: neither a key
    set anew nor an array or list edited in place reaches it."""
    params, build, edit, read = PARAMS[name]
    d = params()
    value = build(d)
    before = [np.array(x, copy=True) for x in read(value)]
    edit(d)
    assert all(np.array_equal(b, x) for b, x in zip(before, read(value)))
    assert not any(v.flags.writeable for v in value.params.values() if isinstance(v, np.ndarray))


def test_written_signal_reads_back_as_built(tmp_path):
    """A signal's file holds the params it was built with, not the caller's later edit."""
    d = _signal_params()
    sig = InputSignal("piecewise-constant", d)
    d["values"] *= -3.0
    write_json(tmp_path / "u.json", signal_to_dict(sig))
    back = signal_from_dict(read_json(tmp_path / "u.json"))
    assert back.eval(0.5)[0] == sig.eval(0.5)[0] == 1.0
