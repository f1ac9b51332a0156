"""Bitwise golden outputs of the numerics core on the benchmark's systems.

The fixture `data/golden.npz` pins integrate (times, x, z), dense lookups,
segment, phi_h_extend, driver_derivative quotients, history evaluation and
the bytes of every artifact of a few CLI scenarios, among them check-dop and
verify-lk / fit-lk on each certificate variant, and of `main(argv)` runs of
every subcommand, once at its defaults and once with every flag set.
Regenerate it only when a change is meant to alter these numbers:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from haleform import (
    ConverseFunctional,
    DifferenceOperator,
    DistributedTerm,
    HistorySegment,
    InputSignal,
    InputTerm,
    IntegralQuadraticFunctional,
    LadderSpec,
    LinearTerm,
    NfdeSystem,
    NonlinearTerm,
    QuadraticDopFunctional,
    RhsMap,
    driver_derivative,
    integrate,
    phi_h_extend,
    residual_check,
    sample_history,
    segment,
    trajectory_consistency,
    trajectory_grid,
)
from haleform.cli import main, run_scenario
from haleform.serialization import history_to_dict, read_json, system_to_dict, write_json

FIXTURE = Path(__file__).parent / "data" / "golden.npz"


def _systems() -> dict[str, tuple[NfdeSystem, InputSignal | None]]:
    grid = np.linspace(-1.0, 0.0, 5)
    kernel = (0.1 + 0.2 * (grid + 1.0))[:, None, None]
    pwc = InputSignal("piecewise-constant", {"times": [0.0, 0.7, 1.6], "values": [[0.5], [-1.0], [0.25]]})
    return {
        "neutral": (NfdeSystem(
            DifferenceOperator([1.0], [[[0.5]]]), RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.0]]),))
        ), None),
        "planar": (NfdeSystem(
            DifferenceOperator([0.7], [[[0.3, 0.1], [0.0, 0.2]]]),
            RhsMap(n=2, terms=(
                LinearTerm(0.0, [[-1.0, 0.2], [0.0, -0.8]]),
                LinearTerm(0.5, [[0.1, 0.0], [-0.05, 0.1]]),
            )),
            delta=0.7,
        ), None),
        "cubic": (NfdeSystem(
            DifferenceOperator([1.0], [[[0.4]]]),
            RhsMap(n=1, terms=(NonlinearTerm(0.0, "cubic", [[-1.0]]), LinearTerm(1.0, [[-0.3]]))),
        ), None),
        "two_delay": (NfdeSystem(
            DifferenceOperator([0.5, 1.0], [[[0.3]], [[0.2]]]),
            RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.2]]), LinearTerm(0.25, [[0.2]]))),
        ), None),
        "distributed": (NfdeSystem(
            DifferenceOperator([1.0], [[[0.3]]]),
            RhsMap(n=1, terms=(LinearTerm(0.0, [[-1.5]]), DistributedTerm(grid, kernel))),
        ), None),
        "input": (NfdeSystem(
            DifferenceOperator([1.0], [[[0.2]]]),
            RhsMap(n=1, m=1, terms=(LinearTerm(0.0, [[-1.0]]), InputTerm([[1.0]]))),
        ), pwc),
    }


def _cli_scenarios() -> dict[str, dict]:
    neutral, _ = _systems()["neutral"]
    planar, _ = _systems()["planar"]
    unstable = NfdeSystem(
        DifferenceOperator([1.0], [[[0.5]]]), RhsMap(n=1, terms=(LinearTerm(0.0, [[0.5]]),))
    )
    hist = history_to_dict(sample_history(2, 0.7, 1.0, 3, 11))
    dop_norm = {"kind": "dop-norm", "c": 1.0}
    quadratic = {"kind": "point-quadratic", "P": np.eye(2).tolist()}
    dop_seminorm = {"kind": "dop-seminorm"}
    samples = {"per_shell": 3, "shells": [0.1, 1.0], "seed": 4}
    linear = lambda c: {"kind": "Kinf", "form": "linear", "params": {"c": c}}
    return {
        "simulate": {
            "command": "simulate", "system": system_to_dict(planar),
            "simulate": {"history": hist, "horizon": 2.0, "step": 0.02, "residual_samples": 8},
        },
        "dplus": {
            "command": "dplus", "system": system_to_dict(planar),
            "dplus": {"functional": {"kind": "point-quadratic", "P": np.eye(2).tolist()},
                      "history": hist, "ladder_levels": 8},
        },
        "fit": {
            "command": "fit-lk", "system": system_to_dict(neutral),
            "fit": {"functional": dop_norm, "variant": "ges", "samples": samples,
                    "ladder_levels": 5, "headroom": 0.05},
        },
        "verify": {
            "command": "verify-lk", "system": system_to_dict(neutral),
            "verify": {"functional": dop_norm,
                       "constants": {"variant": "ges", "a1": 0.9, "a2": 1.6, "a3": 0.2},
                       "samples": samples, "ladder_levels": 5},
        },
        "ges": {
            "command": "estimate-ges", "system": system_to_dict(neutral), "seed": 3,
            "ges": {"trajectories": 3, "horizon": 6.0, "step": 0.125},
        },
        "check-dop": {
            "command": "check-dop", "system": system_to_dict(planar), "check-dop": {"resolution": 16},
        },
        "fit_gas": {
            "command": "fit-lk", "system": system_to_dict(neutral),
            "fit": {"functional": dop_norm, "variant": "gas", "samples": samples,
                    "ladder_levels": 5, "headroom": 0.05},
        },
        # lower-bound and derivative violations
        "verify_gas": {
            "command": "verify-lk", "system": system_to_dict(neutral),
            "verify": {"functional": dop_norm,
                       "constants": {"variant": "gas", "alpha1": linear(1.05), "alpha2": linear(0.8),
                                     "alpha3": {"kind": "K", "form": "power",
                                                "params": {"c": 3.0, "q": 1.5}}},
                       "samples": samples, "ladder_levels": 5},
        },
        "fit_seminorm": {
            "command": "fit-lk", "system": system_to_dict(planar),
            "fit": {"functional": quadratic, "variant": "ges-seminorm", "seminorm": dop_seminorm,
                    "samples": samples, "ladder_levels": 5, "headroom": 0.05},
        },
        # violations of all four conditions, more than the ten counterexamples kept
        "verify_seminorm": {
            "command": "verify-lk", "system": system_to_dict(planar),
            "verify": {"functional": quadratic,
                       "constants": {"variant": "ges-seminorm", "a1": 0.5, "a2": 0.8, "a3": 0.5,
                                     "a4": 0.7, "seminorm": dop_seminorm},
                       "samples": samples, "ladder_levels": 5},
        },
        # D+V > 0: the fit refuses the witness with wrong-sign evidence
        "fit_refused": {
            "command": "fit-lk", "system": system_to_dict(unstable),
            "fit": {"functional": dop_norm, "variant": "ges", "samples": samples, "ladder_levels": 5},
        },
    }


def _cli_reports(out: Path) -> dict[str, str]:
    digests = {}
    for name, scn in _cli_scenarios().items():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            run_scenario(scn, out, out / name)
        for artifact in sorted((out / name).iterdir()):
            data = artifact.read_bytes()
            digests[f"cli/{name}/{artifact.name}"] = hashlib.sha256(data).hexdigest()
    return digests


def _argv_reports(tmp: Path) -> dict[str, str]:
    """Every subcommand through `main(argv)`, at its defaults and with each flag set.

    Paths are relative to `tmp`, the working directory during the runs, so
    that each report's scenario_hash does not depend on where `tmp` is.
    """
    neutral, _ = _systems()["neutral"]
    forced, pwc = _systems()["input"]
    files = {
        "sys.json": system_to_dict(neutral),
        "input.json": system_to_dict(forced),
        "hist.json": history_to_dict(sample_history(1, 1.0, 1.0, 3, 5)),
        "V.json": {"kind": "point-quadratic", "P": [[1.0]]},
        "consts.json": {"variant": "ges", "a1": 0.9, "a2": 1.6, "a3": 0.2},
        "sn.json": {"kind": "dop-seminorm"},
        "sig.json": {"kind": pwc.kind, "params": pwc.params},
        "sigs.json": [{"kind": "constant", "params": {"value": [0.5]}},
                      {"kind": "sinusoid", "params": {"amplitude": [1.0], "omega": 2.0}}],
    }
    for name, data in files.items():
        write_json(tmp / name, data)
    step = ["--step", "0.125"]
    # command: (arguments at the defaults, arguments with every flag set)
    runs = {
        "check-dop": (["sys.json"], ["sys.json", "--resolution", "16", "--refine-iters", "5",
                                     "--seed", "2", "--tol", "margin_tol=0.001"]),
        "simulate": (["sys.json", "hist.json"],
                     ["input.json", "hist.json", "-T", "2", "--step", "0.05", "--input", "sig.json",
                      "--residual-samples", "8", "--seed", "3"]),
        "dplus": (["sys.json", "V.json", "hist.json"],
                  ["input.json", "V.json", "hist.json", "--u", "0.5", "--seed", "1",
                   "--tol", "ladder_levels=6"]),
        "verify-lk": (["sys.json", "--functional", "V.json", "--constants", "consts.json"],
                      ["sys.json", "--functional", "V.json", "--constants", "consts.json",
                       "--per-shell", "3", "--shells", "0.1", "2", "--seed", "4",
                       "--tol", "ladder_levels=5"]),
        "fit-lk": (["sys.json", "--functional", "V.json"],
                   ["sys.json", "--functional", "V.json", "--variant", "ges-seminorm",
                    "--seminorm", "sn.json", "--per-shell", "3", "--shells", "0.5", "1",
                    "--seed", "4", "--tol", "ladder_levels=5", "--tol", "headroom=0.05"]),
        "estimate-ges": (["sys.json"], ["sys.json", "--trajectories", "3", "-T", "6", *step,
                                        "--seed", "2"]),
        "attraction": (["sys.json"], ["sys.json", "--bound", "0.5", "--eps", "0.2", "--samples", "4",
                                      "-T", "5", *step, "--seed", "1"]),
        "construct-converse": (["sys.json"], ["sys.json", "--rate", "0.3", "-T", "4", *step,
                                              "--seed", "2"]),
        "iss-probe": (["input.json"], ["input.json", "--signals", "sigs.json", "-T", "4", *step,
                                       "--per-shell", "2", "--seed", "3"]),
    }
    digests = {}
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for command, (defaults, flags) in runs.items():
            for variant, args in (("defaults", defaults), ("flags", flags)):
                out = Path(f"argv-{command}-{variant}")
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    main([command, *args, "--out", str(out)])
                for artifact in sorted(out.iterdir()):
                    key = f"cli/argv/{command}/{variant}/{artifact.name}"
                    digests[key] = hashlib.sha256(artifact.read_bytes()).hexdigest()
    finally:
        os.chdir(cwd)
    return digests


def golden_outputs() -> dict[str, np.ndarray]:
    """Every pinned output, keyed by a path-like name."""
    out: dict[str, np.ndarray] = {}
    for k, (name, (system, u)) in enumerate(_systems().items()):
        phi = sample_history(system.n, system.delta, 1.0, 3, 100 + k)
        traj = integrate(system, phi, 2.5, step=1.0 / 32.0, u=u)
        out[f"{name}/times"] = traj.times
        out[f"{name}/x"] = traj.x
        out[f"{name}/z"] = traj.z
        probe = np.linspace(-system.delta, traj.t_end, 37)
        out[f"{name}/x_at"] = traj.x_at(probe)
        out[f"{name}/z_at"] = traj.z_at(probe[probe >= 0.0])
        for t in (0.3, 1.37, traj.t_end):
            seg = segment(traj, t)
            out[f"{name}/segment/{t:.4f}"] = np.column_stack([seg.grid, seg.values, seg.slopes])
        out[f"{name}/residual"] = np.array([residual_check(traj, 12)])
        out[f"{name}/grid"] = trajectory_grid(traj, 9)
        dmin = system.dop.min_delay
        u0 = None if u is None else u.eval(0.0)
        for h in (dmin / 8.0, dmin / 8.0 * 2.0**-5):
            ext = phi_h_extend(system, phi, h, u0)
            out[f"{name}/extend/{h:.6g}"] = np.column_stack([ext.grid, ext.values, ext.slopes])
        V = QuadraticDopFunctional(system.dop, np.eye(system.n))
        est = driver_derivative(system, V, phi, u0, LadderSpec(levels=8))
        out[f"{name}/dplus_quadratic"] = est.quotients
        s = np.linspace(-system.delta, 0.0, 41)
        lin = HistorySegment(system.delta, phi.grid, phi.values, "linear")
        out[f"{name}/history"] = np.column_stack([
            phi.eval(s), phi.deriv(s, "+"), phi.deriv(s, "-"),
            lin.eval(s), lin.deriv(s, "+"), lin.deriv(s, "-"),
        ])

    neutral, _ = _systems()["neutral"]
    phi = sample_history(1, 1.0, 1.0, 4, 7)
    kgrid = np.linspace(-1.0, 0.0, 6)
    W = IntegralQuadraticFunctional(neutral.dop, [[2.0]], kgrid, (0.5 + 0.1 * kgrid)[:, None, None])
    out["neutral/dplus_integral"] = driver_derivative(neutral, W, phi, None, LadderSpec(levels=8)).quotients
    C = ConverseFunctional(neutral, 0.3, 4.0, step=0.125)
    out["neutral/converse_v"] = np.array([C(phi)])
    out["neutral/dplus_converse"] = driver_derivative(neutral, C, phi, None, LadderSpec(levels=4)).quotients
    traj = integrate(neutral, phi, 3.0, step=1.0 / 64.0)
    V = QuadraticDopFunctional(neutral.dop, [[1.0]])
    res = trajectory_consistency(neutral, V, traj, trajectory_grid(traj, 6), 1.0 / 64.0, LadderSpec(levels=6))
    out["neutral/consistency"] = res.deviations
    return out


def golden_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return {**_cli_reports(Path(tmp)), **_argv_reports(Path(tmp))}


@pytest.fixture(scope="module")
def fixture():
    with np.load(FIXTURE) as data:
        return {k: data[k] for k in data.files}


def test_numerics_bitwise_equal_to_fixture(fixture):
    got = golden_outputs()
    arrays = {k: v for k, v in fixture.items() if not k.startswith("cli/")}
    assert sorted(got) == sorted(arrays)
    for key, want in arrays.items():
        assert got[key].shape == want.shape, key
        assert got[key].tobytes() == want.tobytes(), key


def test_cli_artifacts_bitwise_equal_to_fixture(fixture):
    got = golden_digests()
    want = {k: str(v) for k, v in fixture.items() if k.startswith("cli/")}
    assert got == want


def test_every_violated_condition_keeps_a_counterexample(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        run_scenario(_cli_scenarios()["verify_seminorm"], tmp_path, tmp_path / "out")
    result = read_json(tmp_path / "out" / "report.json")["result"]
    violated = {c["name"] for c in result["conditions"] if c["violations"]}
    kept = [read_json(tmp_path / "out" / name) for name in result["counterexample_files"]]
    assert len(violated) == 4
    assert {ce["condition"] for ce in kept} == violated
    assert all({"lhs", "rhs", "band"} <= set(ce) for ce in kept)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    np.savez_compressed(FIXTURE, **golden_outputs(), **golden_digests())
    print(f"wrote {FIXTURE}", file=sys.stderr)
