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
