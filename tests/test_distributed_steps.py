"""Bitwise outputs of the golden distributed system across step sizes and batches.

The fixture `data/distributed_steps.npz` pins, for single runs at steps 1/8,
1/16, 1/32 and 1/64, for a ragged batch of kinked histories and for a batch
whose longest-mesh row blows up: the knots x and z, and x, x' from either
side and z looked up at the knots and at the midpoints between them.
Regenerate it only when a change is meant to alter these numbers:

    PYTHONPATH=src python tests/test_distributed_steps.py
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from haleform import HistorySegment, StepPolicy, integrate, integrate_batch, sample_history
from test_golden import _systems

FIXTURE = Path(__file__).parent / "data" / "distributed_steps.npz"


def _kinked(phi: HistorySegment, kink: float | None) -> HistorySegment:
    kinks = None if kink is None else [kink]
    return HistorySegment(phi.delta, phi.grid, phi.values, phi.interp, phi.slopes, kinks)


def _record(out: dict, name: str, traj) -> None:
    out[f"{name}/x"], out[f"{name}/z"] = traj.x, traj.z
    probe = np.sort(np.concatenate([traj.times, 0.5 * (traj.times[:-1] + traj.times[1:])]))
    out[f"{name}/x_at"] = traj.x_at(probe)
    out[f"{name}/xdot_right"] = traj.xdot_at(probe, "+")
    out[f"{name}/xdot_left"] = traj.xdot_at(probe, "-")
    out[f"{name}/z_at"] = traj.z_at(probe)


def distributed_outputs() -> dict[str, np.ndarray]:
    system, _ = _systems()["distributed"]
    out: dict[str, np.ndarray] = {}
    for k in (3, 4, 5, 6):
        phi = sample_history(1, system.delta, 1.0, 3, 200 + k)
        _record(out, f"step{2**k}", integrate(system, phi, 2.5, step=2.0**-k))
    kinked = [_kinked(sample_history(1, system.delta, 1.0, 1 + j, 210 + j), kink)
              for j, kink in enumerate((-0.3, -1.0 / 16.0, None))]
    for b, traj in enumerate(integrate_batch(system, kinked, 2.5, step=1.0 / 16.0)):
        _record(out, f"ragged/{b}", traj)
    big = HistorySegment.constant([3.0], system.delta)
    blowup = [_kinked(big, -1.0 / 128.0), sample_history(1, system.delta, 0.01, 2, 220)]
    policy = StepPolicy(step=1.0 / 16.0, blowup_bound=2.0)
    for b, traj in enumerate(integrate_batch(system, blowup, 2.0, step=policy)):
        _record(out, f"blowup/{b}", traj)
    return out


@pytest.fixture(scope="module")
def fixture():
    with np.load(FIXTURE) as data:
        return {k: data[k] for k in data.files}


def test_distributed_steps_bitwise_equal_to_fixture(fixture):
    got = distributed_outputs()
    assert sorted(got) == sorted(fixture)
    for key, want in fixture.items():
        assert got[key].shape == want.shape, key
        assert got[key].tobytes() == want.tobytes(), key


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    np.savez_compressed(FIXTURE, **distributed_outputs())
    print(f"wrote {FIXTURE}", file=sys.stderr)
