"""Bitwise outputs of rhs term orders and step paths the golden systems leave out.

The fixture `data/stage_orders.npz` pins the knots and the store lookups (see
`test_distributed_steps._record`) of: a delayed term listed before the tip
term; a nonlinear tip term after a linear one, with two D-terms; an input
with jumps, listed first and saturated, so that x' differs from the left and
the right there; both systems from a zero history, whose signed zeros the
bytes keep; and two ragged batches on three meshes where one history blows up
in the middle of a block of steps while the others go on. Regenerate it only
when a change is meant to alter these numbers:

    PYTHONPATH=src python tests/test_stage_orders.py
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from haleform import (
    DifferenceOperator,
    HistorySegment,
    InputSignal,
    InputTerm,
    LinearTerm,
    NfdeSystem,
    NonlinearTerm,
    RhsMap,
    StepPolicy,
    integrate,
    integrate_batch,
    sample_history,
)
from test_distributed_steps import _kinked, _record

FIXTURE = Path(__file__).parent / "data" / "stage_orders.npz"


def _delayed_first() -> NfdeSystem:
    return NfdeSystem(
        DifferenceOperator([0.6], [[[0.3, -0.1], [0.05, 0.2]]]),
        RhsMap(n=2, terms=(
            LinearTerm(0.3, [[0.1, -0.05], [0.0, 0.15]]),
            LinearTerm(0.0, [[-1.0, 0.3], [-0.2, -0.7]]),
        )),
    )


def _nonlinear_tip(growth: float = -1.0) -> NfdeSystem:
    return NfdeSystem(
        DifferenceOperator([0.5, 1.0], [[[0.2, 0.0], [0.1, -0.1]], [[-0.1, 0.05], [0.0, 0.15]]]),
        RhsMap(n=2, terms=(
            LinearTerm(0.0, [[growth, 0.2], [0.0, 0.8 * growth]]),
            NonlinearTerm(0.0, "sine", [[0.3, 0.0], [-0.1, 0.2]]),
            NonlinearTerm(0.75, "saturation", [[0.1, 0.0], [0.0, -0.1]], {"limit": 0.5}),
        )),
    )


def _input_first() -> tuple[NfdeSystem, InputSignal]:
    system = NfdeSystem(
        DifferenceOperator([0.8], [[[0.25, 0.0], [-0.1, 0.3]]]),
        RhsMap(n=2, m=1, terms=(
            InputTerm([[1.0], [-0.5]], fn="saturation", params={"limit": 0.8}),
            LinearTerm(0.0, [[-0.9, 0.1], [0.0, -0.6]]),
            LinearTerm(0.4, [[0.05, 0.0], [0.1, -0.05]]),
        )),
    )
    signal = InputSignal("piecewise-constant", {"times": [0.0, 0.35, 1.1], "values": [[1.5], [-0.4], [0.6]]})
    return system, signal


def stage_outputs() -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    delayed, nonlinear = _delayed_first(), _nonlinear_tip()
    for name, system in (("delayed_first", delayed), ("nonlinear_tip", nonlinear)):
        phi = sample_history(2, system.delta, 1.0, 3, 300)
        _record(out, name, integrate(system, phi, 2.5, step=0.05))
        _record(out, f"{name}/zero", integrate(system, HistorySegment.zero(2, system.delta), 1.5, step=0.05))
    system, signal = _input_first()
    phi = sample_history(2, system.delta, 1.0, 2, 301)
    _record(out, "input_first", integrate(system, phi, 2.0, 0.05, signal))
    growing, policy = _nonlinear_tip(growth=0.9), StepPolicy(step=0.05, blowup_bound=2.0)
    # with small neighbours, history 1 blows up at the second step of a block; with
    # larger ones the batch's norm passes the bound one step earlier, where no row does
    for small in (0.01, 0.05):
        batch = [_kinked(sample_history(2, growing.delta, small, 2, 302), -0.3),
                 _kinked(sample_history(2, growing.delta, 1.0, 3, 303), -0.125),
                 sample_history(2, growing.delta, small, 1, 304)]
        trajs = integrate_batch(growing, batch, 2.5, step=policy)
        assert [t.blowup for t in trajs] == [False, True, False]
        for b, traj in enumerate(trajs):
            _record(out, f"ragged_blowup/{small}/{b}", traj)
    return out


@pytest.fixture(scope="module")
def fixture():
    with np.load(FIXTURE) as data:
        return {k: data[k] for k in data.files}


def test_stage_orders_bitwise_equal_to_fixture(fixture):
    got = stage_outputs()
    assert sorted(got) == sorted(fixture)
    for key, want in fixture.items():
        assert got[key].shape == want.shape, key
        assert got[key].tobytes() == want.tobytes(), key


def test_input_jump_separates_left_and_right_slopes(fixture):
    left, right = fixture["input_first/xdot_left"], fixture["input_first/xdot_right"]
    assert (left != right).any(axis=1).sum() >= 2


def test_zero_history_stays_positive_zero(fixture):
    for key in (k for k in fixture if "/zero/" in k):
        assert not fixture[key].any() and not np.signbit(fixture[key]).any(), key


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    np.savez_compressed(FIXTURE, **stage_outputs())
    print(f"wrote {FIXTURE}", file=sys.stderr)
