import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haleform import ComparisonFunction, PreconditionError, monotone_envelope
from haleform.comparison import K, K_INF, KL, L, TAIL_EXTRAPOLATE


def test_power_and_linear_forms():
    a = ComparisonFunction.power(0.5, 2.0)
    assert a(0.0) == 0.0
    assert a(2.0) == pytest.approx(2.0)
    b = ComparisonFunction.linear(3.0)
    assert b(1.5) == pytest.approx(4.5)


def test_invalid_parameters_rejected():
    with pytest.raises(PreconditionError):
        ComparisonFunction.power(-1.0, 2.0)
    with pytest.raises(PreconditionError):
        ComparisonFunction.linear(0.0)
    with pytest.raises(PreconditionError):
        ComparisonFunction.exp_decay(-0.1)


def test_class_k_table_requirements():
    with pytest.raises(PreconditionError):
        ComparisonFunction.table([0.5, 1.0], [0.1, 0.2])  # no (0, 0) start
    with pytest.raises(PreconditionError):
        ComparisonFunction.table([0.0, 1.0, 2.0], [0.0, 0.5, 0.5])  # not strict
    t = ComparisonFunction.table([0.0, 1.0, 2.0], [0.0, 0.5, 2.0])
    assert t(0.5) == pytest.approx(0.25)
    assert t(5.0) == pytest.approx(2.0)  # hold tail


def test_kinf_table_extrapolates():
    t = ComparisonFunction.table(
        [0.0, 1.0, 2.0], [0.0, 1.0, 3.0], kind=K_INF, tail=TAIL_EXTRAPOLATE
    )
    assert t(4.0) == pytest.approx(3.0 + 2.0 * 2.0)
    with pytest.raises(PreconditionError):
        ComparisonFunction.table([0.0, 1.0], [0.0, 1.0], kind=K_INF)  # hold tail


def test_class_l_table_decreasing():
    t = ComparisonFunction.table([0.0, 1.0, 2.0], [3.0, 1.0, 0.25], kind=L)
    assert t(0.5) == pytest.approx(2.0)
    with pytest.raises(PreconditionError):
        ComparisonFunction.table([0.0, 1.0], [1.0, 2.0], kind=L)


def test_kl_product_bound():
    beta = ComparisonFunction.exponential_bound(2.0, 0.5)
    assert beta.kind == KL
    assert beta(3.0, 0.0) == pytest.approx(6.0)
    assert beta(3.0, 2.0) == pytest.approx(6.0 * np.exp(-1.0))


def test_monotone_envelope_lower_sits_below_cloud():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.1, 3.0, 80)
    y = x**2 + rng.uniform(0.0, 0.5, 80)
    env = monotone_envelope(x, y, "lower")
    vals = np.asarray(env(x))
    assert np.all(vals <= y + 1e-12)
    assert env(0.0) == 0.0
    knots_y = env.params["y"]
    assert np.all(np.diff(knots_y) > 0)


def test_monotone_envelope_upper_sits_above_cloud():
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 2.0, 60)
    y = np.sqrt(x) + rng.uniform(0.0, 0.2, 60)
    env = monotone_envelope(x, y, "upper")
    assert np.all(np.asarray(env(x)) >= y - 1e-12)


def test_monotone_envelope_headroom_scales():
    x = np.array([1.0, 2.0])
    y = np.array([1.0, 2.0])
    low = monotone_envelope(x, y, "lower", headroom=0.1)
    assert low(2.0) == pytest.approx(1.8, rel=1e-6)
    up = monotone_envelope(x, y, "upper", headroom=0.1)
    assert up(2.0) == pytest.approx(2.2, rel=1e-6)


@pytest.mark.parametrize("side, y", [("upper", [0.0, 5.0, 5.0]), ("lower", [5.0, 5.0, 5.0])])
def test_monotone_envelope_breaks_a_flat_below_an_ulp(side, y):
    """Knots 1e-11 apart make the flat-breaking ramp smaller than an ulp of the
    envelope: each flat still rises by an ulp, so the table is class K and
    keeps to its side of the cloud."""
    x = np.array([0.0, 1e-11, 2e-11])
    env = monotone_envelope(x, y, side)
    assert np.all(np.diff(env.params["y"]) > 0.0)
    values = np.array([env(v) for v in x])
    assert np.all(values >= y) if side == "upper" else np.all(values <= y)


def _per_run_cloud(x, y, side):
    """The cloud with each run of equal x (neighbours within the envelope's
    tolerance, once sorted) replaced by its last x and its min (lower) or max
    (upper) y, one run at a time."""
    order = sorted(range(len(x)), key=lambda i: x[i])
    tol = 1e-12 * max(1.0, x[order[-1]])
    runs = [[order[0]]]
    for prev, i in zip(order, order[1:]):
        if x[i] - x[prev] > tol:
            runs.append([])
        runs[-1].append(i)
    pick = min if side == "lower" else max
    return [max(x[i] for i in run) for run in runs], [pick(y[i] for i in run) for run in runs]


def _envelope_or_error(x, y, side, headroom):
    try:
        env = monotone_envelope(x, y, side, headroom)
    except PreconditionError as exc:
        return str(exc)
    return env.params["x"].tolist(), env.params["y"].tolist()


@settings(max_examples=200, deadline=None)
@given(
    cloud=st.lists(
        st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-13, 2.0, 3.5]) | st.floats(0.0, 4.0),
                  st.floats(0.0, 10.0)),
        min_size=1, max_size=30),
    side=st.sampled_from(["lower", "upper"]),
    headroom=st.sampled_from([0.0, 0.01]),
)
def test_monotone_envelope_takes_each_run_of_equal_x_as_one_sample(cloud, side, headroom):
    """The envelope of a cloud with repeated x is, bit for bit, the envelope of
    its per-run reduction, whose x are all distinct."""
    x, y = (np.array(column) for column in zip(*cloud))
    rx, ry = _per_run_cloud(x.tolist(), y.tolist(), side)
    assert _envelope_or_error(x, y, side, headroom) == _envelope_or_error(np.array(rx), np.array(ry), side, headroom)
