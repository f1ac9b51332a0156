"""Self-tests of the benchmark harness: python3 -m pytest bench/test_bench.py"""
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import haleform  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_a_synthetic_span_tree():
    log = tracing.SpanLog()
    root = log.record("certify.fit_constants", 0, 100)
    a = log.record("functionals.driver_derivative", 10, 40, parent=root)
    log.record("integrate.integrate", 15, 25, parent=a)
    log.record("integrate.integrate", 50, 60, parent=root)
    table = tracing.SpanTable(log)
    np.testing.assert_allclose(table.self_s * 1e9, [60.0, 20.0, 10.0, 10.0])
    assert table.self_time(["integrate.integrate"]) == pytest.approx(20e-9)
    assert table.calls(["integrate.integrate"]) == 2
    # the inclusive time of a group counts nested members once
    both = ["certify.fit_constants", "integrate.integrate"]
    assert table.inclusive(both) == pytest.approx(100e-9)
    assert table.self_time(both) == pytest.approx(80e-9)
    assert table.child_calls(["integrate.integrate"], ["functionals.driver_derivative"]) == 1


def _bindings():
    """Every attribute of every namespace the tracer may patch."""
    owners = tracing._holders()
    for name, _ in tracing.traced_targets():
        if name.count(".") == 2:
            short, cls_name, _ = name.split(".")
            owners.append(getattr(sys.modules[f"haleform.{short}"], cls_name))
    return {(id(o), attr): value for o in owners for attr, value in vars(o).items()}


def test_install_and_uninstall_restore_every_attribute():
    before = _bindings()
    log = tracing.SpanLog()
    patches = tracing.install(log)
    try:
        assert getattr(haleform.integrate, "__bench_traced__", False)
        assert getattr(haleform.certify.integrate, "__bench_traced__", False)
        assert getattr(haleform.cli.driver_derivative, "__bench_traced__", False)
        assert getattr(haleform.HistorySegment.eval, "__bench_traced__", False)
        system = workloads.neutral_system()
        traj = haleform.integrate(system, haleform.HistorySegment.constant([1.0], 1.0), 0.5, step=0.125)
        names = {log.names[i] for i in log.name}
        assert {"integrate.integrate", "operators.RhsMap.eval"} <= names
        assert sum(log.extra.values()) == traj.times.size - 1
    finally:
        tracing.uninstall(patches)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert not any(
        getattr(fn, "__bench_traced__", False) for _, fn in tracing.traced_targets()
    )


def test_every_layer_has_traced_targets():
    layers = {name.split(".")[0] for name, _ in tracing.traced_targets()}
    assert layers == set(tracing.LAYERS)
    for name, fn in tracing.traced_targets():
        assert inspect.isfunction(fn), name


def _round_counts(part, seed):
    ctx = part.setup()
    log = tracing.SpanLog()
    rec = workloads.Recorder(log)
    patches = tracing.install(log)
    try:
        log.current_round = 0
        rec.start_round()
        for _ in part.round(ctx, rec, np.random.default_rng([seed, 0])):
            pass
    finally:
        tracing.uninstall(patches)
        part.close(ctx)
    metrics = tracing.layer_metrics(log, 1, 0.0)
    units = dict(tracing.PER_LAYER)
    times = {k for k, unit in units.items() if unit in ("s", "us")} | {"trace.overhead_frac"}
    return rec, {k: v for k, v in metrics.items() if k not in times}


def test_same_seed_gives_same_inputs_and_counts():
    cli = workloads.ScenarioCli()
    ctx = cli.setup()
    try:
        first = cli.scenarios(ctx, np.random.default_rng([5, 0]))
        again = cli.scenarios(ctx, np.random.default_rng([5, 0]))
        other = cli.scenarios(ctx, np.random.default_rng([6, 0]))
    finally:
        cli.close(ctx)
    dump = haleform.serialization.canonical_json
    assert dump([s for s, _ in first]) == dump([s for s, _ in again])
    assert dump([s for s, _ in first]) != dump([s for s, _ in other])

    ladder = workloads.LadderQuadratic()
    rec_a, counts_a = _round_counts(ladder, 5)
    rec_b, counts_b = _round_counts(ladder, 5)
    assert rec_a.failed == rec_b.failed == 0
    assert counts_a == counts_b
    # the round's only integrations are its three direct fine-step simulations
    assert counts_a["integrate.steps"] == sum(n for _, _, n in rec_a.slots()) > 3000
    assert counts_a["functionals.derivative_calls"] > 0


def test_slot_times_are_the_slowest_over_rounds():
    rec = workloads.Recorder()
    rec.rounds = [[[0.3, False, 0], [0.2, True, 10]], [[0.1, False, 0], [0.4, True, 10]]]
    assert rec.slots() == [(0.3, False, 0), (0.4, True, 10)]
    assert rec.slowest_round_s() == pytest.approx(0.7)
    assert rec.query_s() == [0.2, 0.4]


def test_benchmark_json_lists_what_the_runner_reports():
    import json

    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_checks_are_neither_timed_nor_traced():
    log = tracing.SpanLog()
    rec = workloads.Recorder(log)
    system = workloads.neutral_system()
    phi = haleform.HistorySegment.constant([1.0], 1.0)
    patches = tracing.install(log)
    try:
        rec.start_round()
        rec.op(
            "dop",
            lambda: haleform.dop_apply(system.dop, phi),
            check=lambda d: haleform.integrate(system, phi, 2.0, step=0.125) and None,
        )
    finally:
        tracing.uninstall(patches)
    names = {log.names[i] for i in log.name}
    assert "operators.dop_apply" in names
    assert not any(name.startswith("integrate.") for name in names)
    assert rec.attempted == 1 and rec.failed == 0
    assert rec.slowest_round_s() < 1e-3
