import numpy as np
import pytest

from haleform import (
    DifferenceOperator,
    UnsupportedDimensionError,
    gamma0,
    is_strongly_stable,
)
from haleform.stability import INCONCLUSIVE, STABLE, UNSTABLE


def brute_force_gamma0_scalar(coeffs, resolution=512):
    """Independent dense-grid oracle for scalar multi-delay operators."""
    axes = [np.exp(2j * np.pi * np.arange(resolution) / resolution) for _ in coeffs]
    mesh = np.meshgrid(*axes, indexing="ij")
    total = sum(c * m for c, m in zip(coeffs, mesh))
    return float(np.max(np.abs(total)))


def test_single_delay_scalar():
    m = gamma0(DifferenceOperator([1.0], [[[0.5]]]))
    assert m.gamma0 == pytest.approx(0.5, abs=1e-12)


def test_single_delay_identity():
    m = gamma0(DifferenceOperator([0.7], [np.eye(2)]))
    assert m.gamma0 == pytest.approx(1.0, abs=1e-12)


def test_two_delay_scalar_sum_of_moduli():
    dop = DifferenceOperator([0.5, 1.0], [[[0.3]], [[0.4]]])
    m = gamma0(dop, resolution=64, refine_iters=40)
    assert m.gamma0 == pytest.approx(0.7, abs=1e-3)
    oracle = brute_force_gamma0_scalar([0.3, 0.4], resolution=512)
    assert m.gamma0 == pytest.approx(oracle, abs=1e-3)


def test_unstable_two_delay():
    dop = DifferenceOperator([0.5, 1.0], [[[0.6]], [[0.6]]])
    verdict, margin = is_strongly_stable(dop, resolution=64)
    assert verdict == UNSTABLE
    assert margin.gamma0 == pytest.approx(1.2, abs=1e-3)


def test_single_delay_verdicts_match_eigenvalue_test():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        rho = np.max(np.abs(np.linalg.eigvals(a)))
        target = rng.uniform(0.2, 2.0)
        while 0.99 <= target <= 1.01:
            target = rng.uniform(0.2, 2.0)
        a = a * (target / rho)
        verdict, _ = is_strongly_stable(DifferenceOperator([1.0], [a]))
        assert verdict == (STABLE if target < 1.0 else UNSTABLE)


def test_nilpotent_single_delay_is_stable():
    dop = DifferenceOperator([1.0], [np.array([[0.0, 1.1], [0.0, 0.0]])])
    verdict, margin = is_strongly_stable(dop)
    assert verdict == STABLE
    assert margin.gamma0 == pytest.approx(0.0, abs=1e-12)


def test_boundary_is_inconclusive():
    verdict, _ = is_strongly_stable(DifferenceOperator([1.0], [[[1.0]]]))
    assert verdict == INCONCLUSIVE


def test_similarity_invariance():
    rng = np.random.default_rng(11)
    a1 = np.array([[0.2, 0.1], [0.0, 0.3]])
    a2 = np.array([[0.1, -0.2], [0.05, 0.0]])
    base = gamma0(DifferenceOperator([0.4, 1.0], [a1, a2]), resolution=32).gamma0
    for _ in range(5):
        t = rng.standard_normal((2, 2)) + 3 * np.eye(2)
        ti = np.linalg.inv(t)
        m = gamma0(
            DifferenceOperator([0.4, 1.0], [t @ a1 @ ti, t @ a2 @ ti]), resolution=32
        )
        assert m.gamma0 == pytest.approx(base, abs=1e-6)


def test_scaling_property():
    dop = DifferenceOperator([0.4, 1.0], [[[0.3]], [[-0.2]]])
    base = gamma0(dop, resolution=32).gamma0
    for c in (0.0, 0.5, 2.0):
        scaled = DifferenceOperator([0.4, 1.0], [[[0.3 * c]], [[-0.2 * c]]])
        m = gamma0(scaled, resolution=32)
        assert m.gamma0 == pytest.approx(c * base, abs=1e-9 + 1e-6 * c)


def test_monotone_under_resolution_doubling():
    a1 = np.array([[0.2, 0.3], [-0.1, 0.25]])
    a2 = np.array([[0.15, 0.0], [0.2, -0.1]])
    dop = DifferenceOperator([0.6, 1.0], [a1, a2])
    coarse = gamma0(dop, resolution=16, refine_iters=0).gamma0
    fine = gamma0(dop, resolution=32, refine_iters=0).gamma0
    finer = gamma0(dop, resolution=64, refine_iters=0).gamma0
    assert coarse <= fine + 1e-15
    assert fine <= finer + 1e-15


def test_refinement_never_decreases():
    dop = DifferenceOperator([0.6, 1.0], [[[0.3]], [[0.4]]])
    raw = gamma0(dop, resolution=16, refine_iters=0).gamma0
    refined = gamma0(dop, resolution=16, refine_iters=30).gamma0
    assert refined >= raw - 1e-15


def test_gamma0_dominates_component_radii():
    a1 = np.array([[0.2, 0.3], [-0.1, 0.25]])
    a2 = np.array([[0.15, 0.0], [0.2, -0.1]])
    m = gamma0(DifferenceOperator([0.6, 1.0], [a1, a2]), resolution=32)
    for a in (a1, a2):
        assert m.gamma0 >= np.max(np.abs(np.linalg.eigvals(a))) - 1e-9


def test_sweep_limit():
    mats = [0.1 * np.eye(2)] * 5
    dop = DifferenceOperator([0.2, 0.4, 0.6, 0.8, 1.0], mats)
    with pytest.raises(UnsupportedDimensionError):
        gamma0(dop)


def test_scalar_margin_is_exact_at_any_delay_count():
    coeffs = [0.2, -0.15, 0.1, -0.05, 0.3]
    delays = [0.2, 0.4, 0.6, 0.8, 1.0]
    m = gamma0(DifferenceOperator(delays, [[[c]] for c in coeffs]))
    assert m.gamma0 == pytest.approx(sum(abs(c) for c in coeffs), abs=1e-15)
    np.testing.assert_array_equal(m.argmax_theta, [0.0, np.pi, 0.0, np.pi, 0.0])
    attained = abs(sum(c * np.exp(1j * t) for c, t in zip(coeffs, m.argmax_theta)))
    assert attained == pytest.approx(m.gamma0, abs=1e-15)
    for scale, expected in ((1.0, STABLE), (1.5, UNSTABLE)):
        dop = DifferenceOperator(delays, [[[scale * c]] for c in coeffs])
        verdict, margin = is_strongly_stable(dop)
        assert verdict == expected and margin.gamma0 == pytest.approx(0.8 * scale, abs=1e-15)


def test_scalar_margin_does_not_rest_on_the_grid():
    """An odd grid misses theta = pi; the exact margin does not need it, so a
    margin just inside the boundary is not reported as stable."""
    dop = DifferenceOperator([0.5, 1.0], [[[0.5]], [[-(0.5 - 5e-7)]]])
    m = gamma0(dop, resolution=9, refine_iters=0)
    assert m.gamma0 == pytest.approx(1.0 - 5e-7, abs=1e-15)  # the 9-point grid tops out at 0.985
    assert is_strongly_stable(dop, resolution=9, refine_iters=0)[0] == INCONCLUSIVE
