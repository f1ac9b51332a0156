import numpy as np
import pytest

from haleform import (
    DifferenceOperator,
    DistributedTerm,
    HistorySegment,
    InputTerm,
    LinearTerm,
    NfdeSystem,
    NonlinearTerm,
    RhsMap,
)


@pytest.fixture
def scalar_ode_system():
    """All A_j = 0, f(phi) = -phi(0): reduces to the scalar ODE x' = -x."""
    dop = DifferenceOperator(delays=[1.0], matrices=[[[0.0]]])
    rhs = RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.0]]),))
    return NfdeSystem(dop, rhs)


@pytest.fixture
def neutral_system():
    """d/dt (x(t) - 0.5 x(t-1)) = -x(t)."""
    dop = DifferenceOperator(delays=[1.0], matrices=[[[0.5]]])
    rhs = RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.0]]),))
    return NfdeSystem(dop, rhs)


@pytest.fixture
def unstable_system():
    dop = DifferenceOperator(delays=[1.0], matrices=[[[0.0]]])
    rhs = RhsMap(n=1, terms=(LinearTerm(0.0, [[1.0]]),))
    return NfdeSystem(dop, rhs)


@pytest.fixture
def input_system():
    """f(phi, u) = -phi(0) + u."""
    dop = DifferenceOperator(delays=[1.0], matrices=[[[0.0]]])
    rhs = RhsMap(n=1, m=1, terms=(LinearTerm(0.0, [[-1.0]]), InputTerm([[1.0]])))
    return NfdeSystem(dop, rhs)


@pytest.fixture
def planar_system():
    """Two-dimensional neutral system with two pointwise rhs delays."""
    dop = DifferenceOperator(
        delays=[0.7], matrices=[[[0.3, 0.1], [0.0, 0.2]]]
    )
    rhs = RhsMap(
        n=2,
        terms=(
            LinearTerm(0.0, [[-1.0, 0.2], [0.0, -0.8]]),
            LinearTerm(0.5, [[0.1, 0.0], [-0.05, 0.1]]),
        ),
    )
    return NfdeSystem(dop, rhs, delta=0.7)


@pytest.fixture
def cubic_system():
    """Neutral system with a cubic pointwise nonlinearity."""
    dop = DifferenceOperator(delays=[1.0], matrices=[[[0.4]]])
    rhs = RhsMap(
        n=1,
        terms=(
            NonlinearTerm(0.0, "cubic", [[-1.0]]),
            LinearTerm(1.0, [[-0.3]]),
        ),
    )
    return NfdeSystem(dop, rhs)


@pytest.fixture
def unit_history():
    return HistorySegment.constant([1.0], 1.0)


@pytest.fixture
def two_delay_system():
    """Two operator delays and an rhs delay of a quarter."""
    dop = DifferenceOperator(delays=[0.5, 1.0], matrices=[[[0.3]], [[0.2]]])
    rhs = RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.2]]), LinearTerm(0.25, [[0.2]])))
    return NfdeSystem(dop, rhs)


@pytest.fixture
def distributed_system():
    """Neutral system with a linear-kernel distributed rhs term over [-1, 0]."""
    grid = np.linspace(-1.0, 0.0, 5)
    kernel = (0.1 + 0.2 * (grid + 1.0))[:, None, None]
    dop = DifferenceOperator(delays=[1.0], matrices=[[[0.3]]])
    rhs = RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.5]]), DistributedTerm(grid, kernel)))
    return NfdeSystem(dop, rhs)
