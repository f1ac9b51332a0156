"""The converse witness's sup of |z(t)| e^(a t), exact per Hermite panel."""
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from haleform import ConverseFunctional, certify, integrate_batch, sample_history
from haleform.histories import _critical_points
from test_golden import _systems

SYSTEMS = {name: system for name, (system, _) in _systems().items() if name != "input"}


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(sorted(SYSTEMS)),
    rate=st.floats(0.05, 1.5),
    horizon=st.sampled_from([0.5, 1.5, 3.0]),
    seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=3),
)
def test_sup_is_attained_and_beats_a_dense_grid(name, rate, horizon, seeds):
    """(V, t*) is attained by the store's own lookup, and no point of a grid
    of spacing 1/4096 lies above V. Near a maximum |z| e^(a t) is flat down
    to its rounding, so the grid may beat V by a few ulps, never by more."""
    system = SYSTEMS[name]
    V = ConverseFunctional(system, rate, horizon)
    phis = [sample_history(system.n, system.delta, 1.0, 1 + seed % 4, seed) for seed in seeds]
    trajs = integrate_batch(system, phis, horizon)
    for traj, (v, t) in zip(trajs, V._sups(trajs)):
        assert 0.0 <= t <= traj.t_end
        assert v == pytest.approx(np.linalg.norm(traj.z_at(t)) * np.exp(rate * t), rel=1e-14, abs=0.0)
        grid = np.linspace(0.0, traj.t_end, int(4096 * traj.t_end) + 1)
        dense = np.linalg.norm(traj.z_dense(grid), axis=1) * np.exp(rate * grid)
        assert v >= float(dense.max()) * (1.0 - 1e-14)


def _one_panel_store(z0, z1, s0, s1, n, length=1.0):
    """A batch store of one trajectory of one panel [0, length] of z along a
    fixed unit vector of R^n, with end values z0, z1 and end slopes s0, s1."""
    unit = np.array([0.6, 0.8])[:n] / np.linalg.norm([0.6, 0.8][:n])
    plane = lambda a, b: np.array([a, b])[:, None, None] * unit  # (2 knots, 1 history, n)
    store = SimpleNamespace(
        counts=np.array([2]), times=np.array([[0.0], [length]]), mesh_of=np.array([0]),
        z=plane(z0, z1), zdot_right=plane(s0, s1), zdot_left=plane(s0, s1),
    )
    return [SimpleNamespace(_batch=store, _row=0)]


# z on [0, 1] with end values and slopes, the rate, and the exact (sup, time)
PANELS = {
    "zero": ((0.0, 0.0, 0.0, 0.0), 1.0, (0.0, 0.0)),
    "constant": ((2.0, 2.0, 0.0, 0.0), 0.5, (2.0 * np.exp(0.5), 1.0)),
    # 1 - t / 2 at rate 1/4 decreases throughout: the maximum is z(0)
    "linear at t = 0": ((1.0, 0.5, -0.5, -0.5), 0.25, (1.0, 0.0)),
    # (1 - t) e^(4 t) peaks where 4 (1 - t) = 1
    "linear interior": ((1.0, 0.0, -1.0, -1.0), 4.0, (0.25 * np.exp(3.0), 0.75)),
    # (1 - t)^2 e^(4 t) peaks where 4 (1 - t) = 2
    "quadratic interior": ((1.0, 0.0, -2.0, 0.0), 4.0, (0.25 * np.exp(2.0), 0.5)),
    # the same with a cubic term of 1e-155, whose square would overflow a companion
    "quadratic, cubic below scale": ((1.0, 0.0, -2.0, 1e-155), 4.0, (0.25 * np.exp(2.0), 0.5)),
    # 1 + t^2 - t^3 e^(t): the cubic grows to the final knot
    "cubic at the final knot": ((1.0, 1.0, 0.0, -1.0), 1.0, (np.e, 1.0)),
}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("case", sorted(PANELS))
def test_sup_of_one_panel(case, n):
    """Panels whose polynomial drops degree (z = 0, constant, linear,
    quadratic z, or a cubic term far below the panel's scale) are solved at
    their true degree, without a warning."""
    data, rate, (value, time) = PANELS[case]
    V = ConverseFunctional(SYSTEMS["neutral"], rate, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [(v, t)] = V._sups(_one_panel_store(*data, n))
    assert v == pytest.approx(value, rel=1e-14, abs=0.0)
    assert t == pytest.approx(time, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2])
def test_critical_points_of_degenerate_panels_are_outside_the_panel(n):
    """z = 0 and constant z have no critical point: every eigenvalue is the
    -1 that fills a companion block of degree 0."""
    coefs = np.zeros((2, 4, n))
    coefs[1, 0] = 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = _critical_points(coefs, np.array([0.5, 0.5]))
    assert np.array_equal(roots, np.full((2, 3 if n == 1 else 6), -1.0))


def test_horizon_extension_stops_at_its_cap(scalar_ode_system):
    """x' = -x at rate 2: |z| e^(2 t) = |phi(0)| e^t grows to the edge of any
    horizon, so from horizon 1 V reruns at 2 and 3 and stops at the cap, 4."""
    phi = sample_history(1, 1.0, 1.0, 2, 5)
    V = ConverseFunctional(scalar_ode_system, 2.0, 1.0, step=0.125)
    runs = []

    def spy(system, histories, horizon, step=None, u=None):
        runs.append(integrate_batch(system, histories, horizon, step, u))
        return runs[-1]

    with mock.patch.object(certify, "integrate_batch", spy):
        v = V(phi)
    assert [traj.t_end for [traj] in runs] == [1.0, 2.0, 3.0, 4.0]
    [last] = runs[-1]
    assert v == pytest.approx(np.linalg.norm(last.z_at(4.0)) * np.exp(8.0), rel=1e-15)
