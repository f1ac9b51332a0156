import bisect
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haleform import DimensionError, HistorySegment, PreconditionError, combine, sample_histories, sample_history, sup_norm_diff
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


def test_kind_pick_is_the_generators_choice():
    """The sampler picks a draw's kind by bisecting, with one uniform, the cdf that
    `Generator.choice` builds from p and bisects with the one uniform it draws: over
    10,000 seeds the same kind, and the same generator stream after it. Whole draws
    of 300 seeds, each after its amplitude, equal the reference sampler's, which
    calls choice."""
    histories_module = sys.modules["haleform.histories"]
    kinds, cdf = histories_module._KINDS, histories_module._KIND_CDF
    for seed in range(10_000):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert kinds[bisect.bisect_right(cdf, ours.random())] == theirs.choice(kinds, p=[0.15, 0.45, 0.4])
        assert ours.random() == theirs.random()
    drawn = sample_histories(2, 1.0, [(1.0, 1 + seed % 3, seed) for seed in range(300)])
    for seed, phi in enumerate(drawn):
        assert _same_history(phi, _draw_alone(2, 1.0, 1.0, 1 + seed % 3, seed))


def _draw_alone(n, delta, bound, roughness, seed):
    """One draw as `sample_history` makes it, history by history: the reference of the sampler."""
    rng = np.random.default_rng(seed)
    amplitude = bound * rng.uniform(0.3, 1.0)
    kind = "constant" if roughness == 0 else rng.choice(["constant", "fourier", "piecewise-cubic"], p=[0.15, 0.45, 0.4])
    if kind == "constant":
        direction = rng.standard_normal(n)
        direction /= max(np.linalg.norm(direction), 1e-300)
        return HistorySegment.constant(amplitude * direction, delta)
    num = max(17, 8 * roughness + 1)
    grid = np.linspace(-delta, 0.0, num)
    if kind == "fourier":
        values = np.zeros((num, n))
        values += rng.standard_normal(n)[None, :]
        for k in range(1, roughness + 1):
            decay = 1.0 / (1.0 + k * k)
            phase = 2.0 * np.pi * k * (grid + delta) / delta
            values += decay * np.outer(np.cos(phase), rng.standard_normal(n))
            values += decay * np.outer(np.sin(phase), rng.standard_normal(n))
        seg = HistorySegment(delta, grid, values)
    else:
        knots = np.linspace(-delta, 0.0, roughness + 2)
        kv = rng.standard_normal((roughness + 2, n))
        ks = rng.standard_normal((roughness + 2, n)) / delta
        seg = HistorySegment(delta, knots, kv, "cubic-hermite", ks)
        seg = HistorySegment(delta, grid, seg.eval(grid), "cubic-hermite")
    fine = seg.grid[:-1] + np.arange(1, 20)[:, None] / 20 * np.diff(seg.grid)
    sup = float(np.max(np.linalg.norm(seg.eval(np.concatenate([seg.grid, fine.ravel()])), axis=1)))
    if sup < 1e-300:
        return HistorySegment.zero(n, delta)
    return HistorySegment(delta, grid, seg.values * (amplitude / sup), "cubic-hermite", seg.slopes * (amplitude / sup))


def _shells_alone(n, delta, per_shell, seed, shells, max_roughness):
    """`sample_shells` one draw at a time: each shell's pinned constant, then its draws."""
    out, counter = [], 0
    for shell in shells:
        rng = np.random.default_rng(seed + counter)
        direction = rng.standard_normal(n)
        direction /= max(np.linalg.norm(direction), 1e-300)
        out.append(HistorySegment.constant(shell * direction, delta))
        counter += 1
        for k in range(per_shell - 1):
            out.append(_draw_alone(n, delta, shell, k % (max_roughness + 1), seed + counter))
            counter += 1
    return out


def _same_history(a: HistorySegment, b: HistorySegment) -> bool:
    return (a.delta == b.delta and a.interp == b.interp and a.grid.tobytes() == b.grid.tobytes()
            and a.values.tobytes() == b.values.tobytes() and a.slopes.tobytes() == b.slopes.tobytes()
            and a.kink_times.tobytes() == b.kink_times.tobytes())


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("max_roughness", [0, 1, 2, 3, 4])
def test_sample_shells_draws_equal_draws_alone(n, max_roughness):
    """The sampler's one call gives each draw bitwise as one draw alone does, over
    several shells, every roughness up to the cap and both sampled kinds."""
    from haleform import sample_shells

    for seed, shells in ((0, (0.1, 1.0, 10.0)), (17, (2.5,)), (301, (0.3, 4.0))):
        drawn = sample_shells(n, 0.7 + 0.2 * n, 12, seed, shells, max_roughness)
        alone = _shells_alone(n, 0.7 + 0.2 * n, 12, seed, shells, max_roughness)
        assert len(drawn) == len(alone) == 12 * len(shells)
        assert all(_same_history(a, b) for a, b in zip(drawn, alone))


def test_sampler_draws_are_sample_history_draws():
    from haleform import sample_histories

    draws = [(0.5 + k % 3, k % 5, 1000 + k) for k in range(40)] + [(2.0, None, 7)]
    drawn = sample_histories(2, 1.3, draws)
    for (bound, roughness, seed), phi in zip(draws[:-1], drawn):
        assert _same_history(phi, sample_history(2, 1.3, bound, roughness, seed))
        assert _same_history(phi, _draw_alone(2, 1.3, bound, roughness, seed))
    assert drawn[-1].sup_norm() == pytest.approx(2.0) and np.ptp(drawn[-1].values, axis=0).max() == 0.0
    assert sample_histories(1, 1.0, []) == []


@pytest.mark.parametrize("seed", [-1, -3])
def test_sampler_refuses_a_negative_seed(seed):
    from haleform import sample_histories, sample_shells

    for call in (lambda: sample_history(1, 1.0, 1.0, 2, seed), lambda: sample_shells(1, 1.0, 3, seed),
                 lambda: sample_histories(1, 1.0, [(1.0, 1, 4), (1.0, None, seed)])):
        with pytest.raises(PreconditionError, match="seed"):
            call()


def test_knots_are_built_on_the_first_read_alone():
    """Construction, a draw and `combine` build no `_Knots`; the first `eval` of a
    history builds one, which later reads reuse, and reads the same values."""
    histories_module = sys.modules["haleform.histories"]
    built = []
    knots = histories_module._Knots

    def counted(*args):
        built.append(args[1].size)
        return knots(*args)

    grid, values = np.linspace(-1.0, 0.0, 6), np.arange(12.0).reshape(6, 2) ** 2
    ts = np.linspace(-1.0, 0.0, 11)
    with mock.patch.object(histories_module, "_Knots", counted):
        phi = HistorySegment(1.0, grid, values)
        assert built == []
        psi = combine(1.0, phi, 0.5, phi)  # reads phi twice, alone: one build
        assert built == [1]
        built.clear()
        drawn = sample_history(2, 1.0, 1.0, 0, 3)  # a constant draw reads nothing
        assert built == [] and "_knots" not in vars(psi) and "_knots" not in vars(drawn)
        first = psi.eval(ts)
        assert built == [1]
        assert np.array_equal(psi.eval(ts), first) and built == [1]
    assert np.array_equal(first, HistorySegment(1.0, psi.grid, psi.values).eval(ts))
