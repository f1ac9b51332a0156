"""Exact sups of input signals."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haleform import InputSignal

EPS = np.finfo(float).eps
GRID = 20_000  # points of the fine grid of [0, t)


def _lipschitz(sig: InputSignal) -> float:
    if sig.kind == "sinusoid":
        return float(np.linalg.norm(sig.params["amplitude"]) * abs(sig.params["omega"]))
    times, values = np.asarray(sig.params["times"]), np.asarray(sig.params["values"])
    return float(np.max(np.linalg.norm(np.diff(values, axis=0), axis=1) / np.diff(times)))


values_st = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def signals(draw):
    m = draw(st.integers(1, 3))
    if draw(st.booleans()):
        amplitude = [draw(values_st) for _ in range(m)]
        return InputSignal.sinusoid(amplitude, draw(st.floats(-12.0, 12.0)), draw(st.floats(-7.0, 7.0)))
    size = draw(st.integers(2, 8))
    start = draw(st.floats(-1.0, 1.0))
    times = start + np.cumsum([0.0] + [draw(st.floats(0.05, 1.5)) for _ in range(size - 1)])
    return InputSignal.from_table(times, [[draw(values_st) for _ in range(m)] for _ in range(size)])


@settings(max_examples=60, deadline=None)
@given(sig=signals(), ts=st.lists(st.floats(0.01, 6.0), min_size=1, max_size=4))
# a phase large beside omega t: summed first, omega t kept only the phase's last bit
@example(sig=InputSignal.sinusoid([1.0], 1e-13, 7.0), ts=[5.786721143803204])
def test_exact_sup_bounds_a_fine_grid(sig, ts):
    """The exact sup over [0, t) is at least every value on a fine grid of
    [0, t) (up to the rounding of the values), and above the grid's maximum by
    at most the grid spacing times the signal's Lipschitz constant."""
    ts = np.sort(ts)
    exact = sig.cumulative_sup(ts)
    for t, sup in zip(ts, exact):
        grid = np.linspace(0.0, t, GRID + 1)[:-1]
        top = float(np.max(np.linalg.norm(sig.eval(grid), axis=1)))
        assert sup >= top * (1.0 - 4.0 * EPS)
        assert sup <= top + (t / GRID) * _lipschitz(sig) * (1.0 + 1e-9) + 4.0 * EPS * top
        assert sig.sup_norm(t) == sup


def test_sups_read_what_a_sampled_grid_misses():
    """A peak between the 4,097 samples the sups took, and a table's value at
    t itself, which a grid of [0, t) never reaches."""
    wave = InputSignal.sinusoid([0.8], 2.3, 0.4)  # peaks at s = (pi / 2 - 0.4) / 2.3
    peak = (0.5 * np.pi - 0.4) / 2.3
    assert wave.sup_norm(peak + 1e-3) == 0.8
    assert wave.cumulative_sup(np.array([peak - 0.1]))[0] == np.linalg.norm(wave.eval(peak - 0.1))
    table = InputSignal.from_table([0.0, 1.0, 2.0], [[0.0], [1.0], [0.5]])
    assert np.array_equal(table.cumulative_sup(np.array([0.0, 0.5, 1.0, 1.5, 3.0])), [0.0, 0.5, 1.0, 1.0, 1.0])
    late = InputSignal.from_table([0.5, 1.0], [[-2.0], [1.0]])  # constant -2 before its first node
    assert late.sup_norm(0.25) == 2.0
