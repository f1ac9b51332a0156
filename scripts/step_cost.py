#!/usr/bin/env python3
"""Per-step cost of `integrate` (ROADMAP layer L2) on the five golden systems.

Each system integrates 30 random histories, seeded 0..29, one at a time,
after one warm-up run; the line per system gives the median, over those
histories, of wall time divided by the number of steps, in microseconds.
Steps and horizons are the benchmark's where it simulates the system
(neutral, planar, two-delay, distributed) and the golden fixture's for the
cubic system. Timings depend on the machine; compare runs made on one.

    PYTHONPATH=src python scripts/step_cost.py
"""
import time

import numpy as np

from haleform import (
    DifferenceOperator,
    DistributedTerm,
    LinearTerm,
    NfdeSystem,
    NonlinearTerm,
    RhsMap,
    integrate,
    sample_history,
)


def systems():
    """name -> (system, horizon, step)."""
    grid = np.linspace(-1.0, 0.0, 5)
    kernel = (0.1 + 0.2 * (grid + 1.0))[:, None, None]
    return {
        "neutral": (NfdeSystem(
            DifferenceOperator([1.0], [[[0.5]]]), RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.0]]),))
        ), 1.5, 1e-3),
        "planar": (NfdeSystem(
            DifferenceOperator([0.7], [[[0.3, 0.1], [0.0, 0.2]]]),
            RhsMap(n=2, terms=(
                LinearTerm(0.0, [[-1.0, 0.2], [0.0, -0.8]]),
                LinearTerm(0.5, [[0.1, 0.0], [-0.05, 0.1]]),
            )),
            delta=0.7,
        ), 8.0, 0.01),
        "cubic": (NfdeSystem(
            DifferenceOperator([1.0], [[[0.4]]]),
            RhsMap(n=1, terms=(NonlinearTerm(0.0, "cubic", [[-1.0]]), LinearTerm(1.0, [[-0.3]]))),
        ), 2.5, 1.0 / 32.0),
        "two_delay": (NfdeSystem(
            DifferenceOperator([0.5, 1.0], [[[0.3]], [[0.2]]]),
            RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.2]]), LinearTerm(0.25, [[0.2]]))),
        ), 6.0, 0.01),
        "distributed": (NfdeSystem(
            DifferenceOperator([1.0], [[[0.3]]]),
            RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.5]]), DistributedTerm(grid, kernel))),
        ), 2.0, 1.0 / 16.0),
    }


def step_cost(system, horizon: float, step: float) -> float:
    """Median microseconds per step over 30 seeded histories."""
    phis = [sample_history(system.n, system.delta, 1.0, 1 + k % 4, k) for k in range(30)]
    integrate(system, phis[0], horizon, step=step)
    costs = []
    for phi in phis:
        start = time.perf_counter()
        traj = integrate(system, phi, horizon, step=step)
        costs.append((time.perf_counter() - start) / (traj.times.size - 1))
    return 1e6 * float(np.median(costs))


def main() -> int:
    for name, (system, horizon, step) in systems().items():
        cost = step_cost(system, horizon, step)
        print(f"{name:<12} {cost:8.1f} us/step  (step {step:g}, horizon {horizon:g})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
