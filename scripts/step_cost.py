#!/usr/bin/env python3
"""Cost of the exact sup of a history (ROADMAP layer L0), per-step cost of
`integrate` (layer L2) and cost of a derivative ladder (layer L3) on the five
golden systems, and cost of the converse witness (layer L4) on the neutral one.

L0: the median, over 30 random histories of n = 1 and of n = 2 components,
seeded 0..29, of the wall time of `sup_norm` and of `sup_norm_diff` between
each history and the next, in microseconds. The "read" line is the one-row
cost of the history read: the median, over the L2 histories of the neutral
system, of a `HistorySegment.eval` at the two points 0 and -1 and of a
`dop_apply` of its operator, in microseconds.

L2: each system integrates 30 random histories, seeded 0..29, one at a time,
after one warm-up run; the line per system gives the median, over those
histories, of wall time divided by the number of steps, in microseconds.
Steps and horizons are the benchmark's where it simulates the system
(neutral, planar, cubic, two-delay, distributed). The sine, saturation and
table lines swap the cubic system's tip primitive for theirs, at its step and
horizon, so the four lines give each primitive's per-step cost. One history
steps through the single-history variant of the system's block kernel,
compiled from its stage plan at the warm-up run, one call per block of steps
on float locals (one per state component; a primitive is called on each),
and each line says how many; the "x8" lines (neutral, planar, distributed) time
batches of 8 histories (`integrate_batch`), which step through the batch
variant of the same kernel, on one (8,) array per state component: the
median, over the 30 batches that start at each history and take the next
ones in turn, of wall time divided by the batch's number of steps. The
"one-step" line times a run of one neutral history over one step of 0.125,
which is all set-up: the median wall time per run, in microseconds.

L3: on the same histories, the median wall time of a levels-14
`driver_derivative` of V(phi) = |D phi|^2 (the bench's `dplus_quadratic`
query). Its "rungs" share is the median wall time of building the 15 rungs
phi_h (`functionals._extensions`) over that of the query: a point functional
such as this V reads its rungs at its lags straight off phi and builds none,
so the share is what the rung path, which integral, converse, sup and L2
functionals still take, would spend on the rungs alone, and it may pass 100%.
The "dop-norm" line is the same query of V(phi) = |D phi| on the neutral
system. The "consistency" line is the bench's `trajectory_consistency` check:
|D phi|^2 on a neutral trajectory from a constant history, step 1e-3 and
horizon 3, at four of its mesh times, the median of 7 rounds of 5 calls.

L4: the converse witness V(phi) = sup |D x_t(phi)| e^(a t) of the neutral
system at rate 0.2, horizon 10 and step 0.125, as the benchmark's certify
workload builds it. The "query" line is the median, over the same 30
histories, of the wall time of the benchmark's converse query: V(phi) and a
levels-5 `driver_derivative`. The "x105" line is the median wall time of
`V.many` on 15 of them, each followed by its 6 levels-5 rungs, on 7 meshes:
the batch that fitting certificate constants on 15 samples evaluates. The
"ladder x7" line is the median wall time of the query's ladder batch, phi
and its 6 rungs in one `integrate_batch` on 7 meshes, next to the same 7
rows on one mesh (each given the last rung's kinks, so each takes 90 steps).

L5: the probes on the benchmark's input system x' = -x + u, at the
benchmark's settings. The line gives the median, over 7 rounds of 5 calls
after one warm-up, of the mean wall time of a `sample_shells` draw (n = 1, 10 per shell on three
shells, per draw, in microseconds), and in milliseconds of
`estimate_lipschitz` with 30 samples, of `iss_probe` (4 histories under a
zero, a switching and a table signal, horizon 10, step 0.025, 30 Lipschitz
samples), of `check_uniform_attraction` (6 samples, 7 shells of 4, horizon
10, step 0.125) and of a 50-sample `residual_check` on a planar trajectory
(horizon 8, step 0.01).
Two more L5 lines time certificate checks shaped like the benchmark's: the
median, over 7 sample sets seeded 0..6, of the mean wall time of 5 calls, in
milliseconds. "verify-lk" is the simulate_cli `verify-lk` scenario's
`verify_ges_conditions`: x' = -x, V(phi) = |D phi|, 12 samples on the shells
0.1, 1 and 10, levels 6, where every sample's rungs, |D phi| and Lipschitz
gaps come from one batched pass. "fit_gas" is the certify workload's
`fit_constants`: the neutral system, an integral quadratic V, the gas variant,
18 samples, levels 8.

Timings depend on the machine; compare runs made on one.

    PYTHONPATH=src python scripts/step_cost.py
"""
import time

import numpy as np

from haleform import (
    CertificateConstants,
    ConverseFunctional,
    DopNormFunctional,
    DifferenceOperator,
    DistributedTerm,
    HistorySegment,
    LadderSpec,
    InputSignal,
    InputTerm,
    IntegralQuadraticFunctional,
    LinearTerm,
    NfdeSystem,
    NonlinearTerm,
    QuadraticDopFunctional,
    RhsMap,
    check_uniform_attraction,
    dop_apply,
    driver_derivative,
    estimate_lipschitz,
    fit_constants,
    integrate,
    integrate_batch,
    iss_probe,
    phi_h_extend,
    residual_check,
    sample_history,
    sample_shells,
    sup_norm_diff,
    trajectory_consistency,
    trajectory_grid,
    verify_ges_conditions,
)
from haleform.functionals import _extensions

REPEATS = 5  # L3 calls timed together per history
BATCH = 8  # histories of an "x8" line's batches
PRIMITIVES = {"sine": {}, "saturation": {"limit": 0.5},  # the other tip primitives' params
              "table": {"x": [-2.0, -1.0, 0.0, 1.0, 2.0], "y": [-1.2, -0.8, 0.0, 0.8, 1.2]}}


def tip_system(fn: str, params: dict | None = None) -> NfdeSystem:
    """The benchmark's cubic system with the primitive fn as its tip term."""
    return NfdeSystem(DifferenceOperator([1.0], [[[0.4]]]), RhsMap(n=1, terms=(
        NonlinearTerm(0.0, fn, [[-1.0]], params or {}), LinearTerm(1.0, [[-0.3]]))))


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
        "cubic": (tip_system("cubic"), 1.5, 1e-3),
        "two_delay": (NfdeSystem(
            DifferenceOperator([0.5, 1.0], [[[0.3]], [[0.2]]]),
            RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.2]]), LinearTerm(0.25, [[0.2]]))),
        ), 6.0, 0.01),
        "distributed": (NfdeSystem(
            DifferenceOperator([1.0], [[[0.3]]]),
            RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.5]]), DistributedTerm(grid, kernel))),
        ), 2.0, 1.0 / 16.0),
    }


def _histories(system):
    return [sample_history(system.n, system.delta, 1.0, 1 + k % 4, k) for k in range(30)]


def sup_costs(n: int) -> tuple[float, float]:
    """Median microseconds of `sup_norm` and of `sup_norm_diff` over 30 seeded
    histories of n components, each differenced with the next."""
    phis = [sample_history(n, 1.0, 1.0, 1 + k % 4, k) for k in range(30)]
    pairs = list(zip(phis, phis[1:] + phis[:1]))
    sup = _median_call_s(lambda phi: phi.sup_norm(), phis)
    diff = _median_call_s(lambda pair: sup_norm_diff(*pair), pairs)
    return 1e6 * sup, 1e6 * diff


def read_costs() -> tuple[float, float]:
    """Median microseconds of a 2-point `HistorySegment.eval` and of a
    `dop_apply` over the neutral system's 30 seeded histories."""
    system = systems()["neutral"][0]
    phis, ends = _histories(system), np.array([0.0, -system.delta])
    evals = _median_call_s(lambda phi: phi.eval(ends), phis)
    return 1e6 * evals, 1e6 * _median_call_s(lambda phi: dop_apply(system.dop, phi), phis)


def step_cost(system, horizon: float, step: float, size: int = 1) -> float:
    """Median microseconds per step over 30 seeded histories, or over the 30
    batches of `size` of them."""
    phis = _histories(system)
    batches = [[phis[(k + j) % len(phis)] for j in range(size)] for k in range(len(phis))]
    integrate_batch(system, batches[0], horizon, step=step)
    costs = []
    for batch in batches:
        start = time.perf_counter()
        trajs = integrate_batch(system, batch, horizon, step=step)
        costs.append((time.perf_counter() - start) / max(t.times.size - 1 for t in trajs))
    return 1e6 * float(np.median(costs))


def _median_call_s(call, phis) -> float:
    """Median over phis of the mean wall time of REPEATS calls, in seconds."""
    call(phis[0])
    costs = []
    for phi in phis:
        start = time.perf_counter()
        for _ in range(REPEATS):
            call(phi)
        costs.append((time.perf_counter() - start) / REPEATS)
    return float(np.median(costs))


def ladder_cost(system) -> tuple[float, float]:
    """Median milliseconds of a levels-14 quadratic D+V query over 30 seeded
    histories, and the share of it spent building the rungs."""
    ladder = LadderSpec(levels=14)
    V = QuadraticDopFunctional(system.dop, np.eye(system.n))
    hs = ladder.steps(system.dop.min_delay)
    phis = _histories(system)
    query = _median_call_s(lambda phi: driver_derivative(system, V, phi, ladder=ladder), phis)
    rungs = _median_call_s(lambda phi: _extensions(system, [phi], hs, None), phis)
    return 1e3 * query, rungs / query


def dop_norm_cost() -> float:
    """Median milliseconds of a levels-14 |D phi| D+V query over the neutral system's 30 seeded histories."""
    system = systems()["neutral"][0]
    V, ladder = DopNormFunctional(system.dop), LadderSpec(levels=14)
    return 1e3 * _median_call_s(lambda phi: driver_derivative(system, V, phi, ladder=ladder), _histories(system))


def consistency_cost() -> float:
    """Median milliseconds of a `trajectory_consistency` check shaped like the bench's."""
    system = systems()["neutral"][0]
    traj = integrate(system, HistorySegment.constant([1.3], 1.0), 3.0, step=1e-3)
    times = np.sort(np.random.default_rng(0).choice(trajectory_grid(traj, 50)[:-1], 4, replace=False))
    V = QuadraticDopFunctional(system.dop, np.eye(1))
    return 1e3 * _median_call_s(lambda _: trajectory_consistency(system, V, traj, times, 1e-4), [None] * 7)


def converse_costs() -> tuple[float, float, float, float]:
    """Median milliseconds of a converse query (V(phi) and a levels-5 D+V) over
    30 seeded histories, of `V.many` on 15 of them with their rungs, and of the
    integration of each history's ladder batch on its 7 meshes and on one."""
    system = systems()["neutral"][0]
    V = ConverseFunctional(system, 0.2, 10.0, step=0.125)
    ladder = LadderSpec(levels=5)
    phis = _histories(system)
    query = _median_call_s(lambda phi: (V(phi), driver_derivative(system, V, phi, ladder=ladder)), phis)
    hs = ladder.steps(system.dop.min_delay)
    ladders = [[phi, *(phi_h_extend(system, phi, float(h)) for h in hs)] for phi in phis]
    rows = [row for rungs in ladders[:15] for row in rungs]
    batch = _median_call_s(lambda _: V.many(rows), [None] * 7)
    costs = ([], [])  # each history's ladder on its 7 meshes, then on one, timed in turn
    for rungs in ladders:
        one_mesh = [HistorySegment(r.delta, r.grid, r.values, r.interp, r.slopes, rungs[-1].kink_times) for r in rungs]
        for cost, rows in zip(costs, (rungs, one_mesh)):
            cost.append(_median_call_s(lambda batch: integrate_batch(system, batch, 10.0, step=0.125), [rows]))
    return 1e3 * query, 1e3 * batch, *(1e3 * float(np.median(cost)) for cost in costs)


def probe_costs() -> tuple[float, ...]:
    """Median wall times of the L5 probes: microseconds per `sample_shells` draw,
    then milliseconds per `estimate_lipschitz`, `iss_probe`,
    `check_uniform_attraction` and `residual_check` call."""
    system = NfdeSystem(DifferenceOperator([1.0], [[[0.0]]]),
                        RhsMap(n=1, m=1, terms=(LinearTerm(0.0, [[-1.0]]), InputTerm([[1.0]]))))
    rng = np.random.default_rng(0)  # signals drawn as the benchmark draws its own
    switching = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 9.5, 5))])
    signals = [InputSignal.zero(1), InputSignal.piecewise_constant(switching, rng.uniform(-1.0, 1.0, (6, 1))),
               InputSignal.from_table(np.linspace(0.0, 10.0, 11), rng.uniform(-1.0, 1.0, (11, 1)))]
    ics = sample_shells(1, 1.0, 2, 0, shells=(0.1, 1.0))
    planar, horizon, step = systems()["planar"]
    traj = integrate(planar, _histories(planar)[0], horizon, step=step)
    calls = [
        lambda: sample_shells(1, 1.0, 10, 0),
        lambda: estimate_lipschitz(system.rhs, 1.0, 1.0, samples=30),
        lambda: iss_probe(system, ics, signals, horizon=10.0, step=0.025, lipschitz_samples=30),
        lambda: check_uniform_attraction(system, 1.0, 0.05, samples=6, horizon=10.0, step=0.125),
        lambda: residual_check(traj, 50),
    ]
    costs = [_median_call_s(lambda _: call(), [None] * 7) for call in calls]
    return 1e6 * costs[0] / 30, *(1e3 * cost for cost in costs[1:])


def certificate_costs() -> tuple[float, float]:
    """Median milliseconds of the benchmark's verify-lk check and of its fit_gas
    fit, each over 7 seeded sample sets."""
    ode = NfdeSystem(DifferenceOperator([1.0], [[[0.0]]]), RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.0]]),)))
    neutral = systems()["neutral"][0]
    kgrid = np.linspace(-1.0, 0.0, 5)
    V = IntegralQuadraticFunctional(neutral.dop, [[1.0]], kgrid, (0.2 + 0.3 * (kgrid + 1.0))[:, None, None])
    W, constants = DopNormFunctional(ode.dop, 1.0), CertificateConstants("ges", a1=0.9, a2=1.1, a3=0.9)
    verify = _median_call_s(lambda samples: verify_ges_conditions(ode, W, constants, samples, LadderSpec(levels=6)),
                            [sample_shells(1, 1.0, 4, seed) for seed in range(7)])
    fit = _median_call_s(lambda samples: fit_constants(neutral, V, "gas", samples, LadderSpec(levels=8)),
                         [sample_shells(1, 1.0, 6, seed) for seed in range(7)])
    return 1e3 * verify, 1e3 * fit


def main() -> int:
    for n in (1, 2):
        sup, diff = sup_costs(n)
        label = f"sup n={n}"
        print(f"L0 {label:<12} {sup:8.1f} us/sup_norm, {diff:6.1f} us/sup_norm_diff  (30 sampled histories)")
    read, dop = read_costs()
    print(f"L0 {'read':<12} {read:8.1f} us/2-point eval, {dop:6.1f} us/dop_apply  (30 sampled histories, neutral)")
    for name, (system, horizon, step) in systems().items():
        cost = step_cost(system, horizon, step)
        floats = "2 float locals" if system.n == 2 else "a float local"
        print(f"L2 {name:<12} {cost:8.1f} us/step  (step {step:g}, horizon {horizon:g}; one history's kernel on "
              f"{floats})")
    _, horizon, step = systems()["cubic"]
    for name, params in PRIMITIVES.items():
        cost = step_cost(tip_system(name, params), horizon, step)
        print(f"L2 {name:<12} {cost:8.1f} us/step  (step {step:g}, horizon {horizon:g}; the cubic system with a "
              f"{name} tip term, on a float local)")
    for name in ("neutral", "planar", "distributed"):
        system, horizon, step = systems()[name]
        cost = step_cost(system, horizon, step, BATCH)
        label = f"{name} x{BATCH}"
        arrays = f"{system.n} ({BATCH},) arrays" if system.n > 1 else f"an ({BATCH},) array"
        print(f"L2 {label:<12} {cost:8.1f} us/step  (step {step:g}, horizon {horizon:g}; {BATCH} histories' kernel on "
              f"{arrays})")
    system = systems()["neutral"][0]
    cost = step_cost(system, 0.125, 0.125)
    print(f"L2 {'one-step':<12} {cost:8.1f} us/run   (neutral, one step of 0.125: the set-up alone)")
    for name, (system, _, _) in systems().items():
        query, share = ladder_cost(system)
        print(f"L3 {name:<12} {query:8.2f} ms/query, rungs {100 * share:4.1f}%  (levels 14, |D phi|^2)")
    print(f"L3 {'dop-norm':<12} {dop_norm_cost():8.2f} ms/query  (neutral, levels 14, |D phi|)")
    print(f"L3 {'consistency':<12} {consistency_cost():8.2f} ms/check  (neutral, step 1e-3, horizon 3, 4 times)")
    query, batch, ragged, flat = converse_costs()
    print(f"L4 {'query':<12} {query:8.2f} ms/query  (neutral, V(phi) and levels-5 D+V, step 0.125, horizon 10)")
    print(f"L4 {'x105':<12} {batch:8.2f} ms/batch  (V.many on 15 histories with their levels-5 rungs)")
    print(f"L4 {'ladder x7':<12} {ragged:8.2f} ms/batch  (phi and its 6 rungs on 7 meshes; {flat:.2f} on one mesh)")
    draw, lipschitz, iss, attraction, residual = probe_costs()
    print(f"L5 {'probes':<12} {draw:8.1f} us/draw, estimate_lipschitz {lipschitz:.2f} ms, iss_probe {iss:.2f} ms, "
          f"attraction {attraction:.2f} ms, residual_check {residual:.2f} ms  (input system, planar residual)")
    verify, fit = certificate_costs()
    print(f"L5 {'verify-lk':<12} {verify:8.2f} ms/run    (x' = -x, |D phi|, 12 samples on shells 0.1/1/10, levels 6)")
    print(f"L5 {'fit_gas':<12} {fit:8.2f} ms/run    (neutral, integral quadratic, gas, 18 samples, levels 8)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
