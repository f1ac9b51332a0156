import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haleform import DimensionError, HistorySegment, PreconditionError, combine, sample_history, sup_norm_diff
from haleform.histories import LINEAR, fd_slopes


def test_node_values_reproduced_exactly():
    grid = np.array([-1.0, -0.6, -0.25, 0.0])
    values = np.array([[1.0], [-2.0], [0.5], [3.0]])
    for interp in ("linear", "cubic-hermite"):
        seg = HistorySegment(1.0, grid, values, interp)
        out = seg.eval(grid)
        assert np.array_equal(out, values)
        for g, v in zip(grid, values):
            assert seg.eval(float(g))[0] == v[0]


def test_eval_matches_scalar_and_vector_paths():
    seg = sample_history(2, 1.5, 1.0, 3, seed=11)
    pts = np.linspace(-1.5, 0.0, 37)
    batch = seg.eval(pts)
    for k, s in enumerate(pts):
        assert np.allclose(seg.eval(float(s)), batch[k], rtol=0, atol=0)


def test_grid_must_span_horizon():
    with pytest.raises(PreconditionError):
        HistorySegment(1.0, np.array([-0.5, 0.0]), np.array([[1.0], [1.0]]))
    with pytest.raises(PreconditionError):
        HistorySegment(1.0, np.array([-1.0, -0.5]), np.array([[1.0], [1.0]]))


def test_nonfinite_values_rejected():
    with pytest.raises(PreconditionError):
        HistorySegment(1.0, np.array([-1.0, 0.0]), np.array([[np.nan], [1.0]]))


def test_evaluation_outside_domain_raises():
    seg = HistorySegment.constant([1.0], 1.0)
    with pytest.raises(PreconditionError):
        seg.eval(0.5)
    with pytest.raises(PreconditionError):
        seg.eval(-1.5)


def test_continuity_at_nodes():
    seg = sample_history(1, 1.0, 1.0, 4, seed=3)
    eps = 1e-12
    for g in seg.grid[1:-1]:
        left = seg.eval(float(g) - eps)
        right = seg.eval(float(g) + eps)
        assert np.linalg.norm(left - right) < 1e-9


def test_fd_slopes_exact_for_quadratics():
    grid = np.array([-2.0, -1.4, -0.9, -0.3, 0.0])
    values = (grid**2 + 3 * grid)[:, None]
    slopes = fd_slopes(grid, values)
    assert np.allclose(slopes[:, 0], 2 * grid + 3, atol=1e-12)


def test_cubic_interpolation_reproduces_cubics_with_exact_slopes():
    grid = np.linspace(-1.0, 0.0, 5)
    f = lambda s: s**3 - 0.5 * s
    df = lambda s: 3 * s**2 - 0.5
    seg = HistorySegment(1.0, grid, f(grid)[:, None], slopes=df(grid)[:, None])
    pts = np.linspace(-1.0, 0.0, 101)
    assert np.max(np.abs(seg.eval(pts)[:, 0] - f(pts))) < 1e-14


def test_sample_history_roughness_zero_is_constant():
    seg = sample_history(3, 2.0, 1.0, 0, seed=42)
    assert np.allclose(seg.values, seg.values[0])
    assert seg.sup_norm() <= 1.0 + 1e-12


def _sampled_sup(seg, refine):
    """The largest |phi| at the nodes and at `refine` - 1 even fractions of each panel."""
    fine = [seg.grid] + [seg.grid[:-1] + k / refine * np.diff(seg.grid) for k in range(1, refine)]
    return np.max(np.linalg.norm(seg.eval(np.concatenate(fine)), axis=1))


@pytest.mark.parametrize("seed", range(12))
def test_sample_history_sup_norm_bound_on_finer_grid(seed):
    bound = 0.8
    seg = sample_history(2, 1.0, bound, seed % 5, seed)
    assert _sampled_sup(seg, 10) <= bound + 1e-12


def test_sample_history_deterministic_per_seed():
    a = sample_history(2, 1.0, 1.0, 3, seed=7)
    b = sample_history(2, 1.0, 1.0, 3, seed=7)
    assert np.array_equal(a.grid, b.grid)
    assert np.array_equal(a.values, b.values)
    c = sample_history(2, 1.0, 1.0, 3, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_sample_history_family_spans_kinds():
    kinds = set()
    for seed in range(40):
        seg = sample_history(1, 1.0, 1.0, 3, seed=seed)
        if np.allclose(seg.values, seg.values[0]):
            kinds.add("constant")
        else:
            kinds.add("varying")
    assert kinds == {"constant", "varying"}


def test_combine_is_linear_on_matching_grids():
    a = sample_history(1, 1.0, 1.0, 2, seed=1)
    b = HistorySegment(1.0, a.grid, np.cos(a.grid)[:, None])
    c = combine(2.0, a, -0.5, b)
    pts = np.linspace(-1.0, 0.0, 50)
    assert np.allclose(c.eval(pts), 2.0 * a.eval(pts) - 0.5 * b.eval(pts), atol=1e-12)


def test_sup_norm_diff_zero_for_identical():
    a = sample_history(2, 1.0, 1.0, 2, seed=5)
    assert sup_norm_diff(a, a) == 0.0


def test_sup_norm_diff_refuses_histories_of_two_dimensions():
    with pytest.raises(DimensionError, match="same dimension"):
        sup_norm_diff(sample_history(1, 1.0, 1.0, 2, 5), sample_history(2, 1.0, 1.0, 2, 6))


def test_sup_norm_diff_refuses_histories_of_two_horizons():
    with pytest.raises(PreconditionError, match="same horizon"):
        sup_norm_diff(sample_history(1, 1.0, 1.0, 2, 5), sample_history(1, 2.0, 1.0, 2, 6))


def _dense_mags(f, grid):
    """|f| on a 4,000x refined grid of `grid`'s panels, then on 4,001 points
    between the two neighbours of that grid's argmax. Near a maximum the
    4,000x grid alone sits up to about 1.5e-9 relative below the sup."""
    t = np.sort(np.concatenate([grid] + [grid[:-1] + k / 4000 * np.diff(grid) for k in range(1, 4000)]))
    mags = np.linalg.norm(f(t), axis=1)
    i = int(np.argmax(mags))
    local = np.linspace(t[max(i - 1, 0)], t[min(i + 1, t.size - 1)], 4001)
    return np.concatenate([mags, np.linalg.norm(f(local), axis=1)])


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["cubic", "linear", "linear - cubic", "cubic - linear"]),
    n=st.integers(1, 3),
    roughness=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_sup_norms_are_exact(kind, n, roughness, seed):
    """The sup of a cubic or linear history, and of the difference of a linear
    and a cubic one, is at least |phi| at every point of a dense grid and
    within 1e-12 of the largest. Near a maximum |phi| is flat down to its
    rounding, so the grid may beat the sup by a few ulps, never by more."""
    cubic = sample_history(n, 1.0, 1.0, roughness, seed)
    rng = np.random.default_rng(seed)
    grid = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 0.0, 3 + 2 * roughness)), [0.0]])
    linear = HistorySegment(1.0, grid, rng.standard_normal((grid.size, n)), LINEAR)
    if kind in ("cubic", "linear"):
        phi = cubic if kind == "cubic" else linear
        sup, mags = phi.sup_norm(), _dense_mags(phi.eval, phi.grid)
    else:
        a, b = (linear, cubic) if kind == "linear - cubic" else (cubic, linear)
        sup = sup_norm_diff(a, b)
        mags = _dense_mags(lambda t: a.eval(t) - b.eval(t), np.union1d(a.grid, b.grid))
    assert mags.max() * (1.0 - 1e-14) <= sup <= mags.max() * (1.0 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
)
def test_sample_history_contract(roughness, seed, bound):
    seg = sample_history(1, 1.0, bound, roughness, seed)
    assert seg.grid[0] == -1.0 and seg.grid[-1] == 0.0
    assert np.all(np.isfinite(seg.values))
    assert _sampled_sup(seg, 10) <= bound + 1e-9 * bound


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.25, np.nan, -np.inf])
                | st.floats(-1.5, 0.5), max_size=6))
def test_kink_times_are_the_sorted_distinct_ones_in_the_horizon(kinks):
    """Whatever their order, repeats, NaNs or range, the stored kinks are
    np.unique's, cut to [-delta, 0]."""
    seg = HistorySegment(1.0, [-1.0, 0.0], [[0.0], [1.0]], kink_times=kinks)
    expect = np.unique(np.asarray(kinks, dtype=float))
    expect = expect[(expect >= -1.0) & (expect <= 0.0)]
    assert seg.kink_times.tobytes() == expect.tobytes()


def test_sup_of_a_constant_history_solves_no_panel():
    """A constant history's panels all fall to the hull test, so its sup returns before
    the panel solve, with at most a third of the 117 C functions it called when the
    solve ran on an empty stack."""
    phi, calls = HistorySegment.constant([-1.5], 1.0), 0
    histories_module = sys.modules["haleform.histories"]

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "c_call"

    with mock.patch.object(histories_module, "_critical_points", side_effect=AssertionError("a panel solve")):
        assert phi.sup_norm() == 1.5
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            phi.sup_norm()
        finally:
            sys.setprofile(previous)
    assert calls <= 117 / 3
