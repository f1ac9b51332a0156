"""Command-line front end: subcommands, scenario files, deterministic reports.

Every invocation is normalized into an effective scenario dict whose canonical
JSON is hashed into each output, so direct flags and scenario files produce
identical, reproducible artifacts. Exit codes: 0 pass/complete, 2 certificate
violation or falsifying evidence found, 3 inconclusive, 1 error.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certify import (
    check_uniform_attraction,
    construct_converse_ges,
    estimate_ges,
    fit_constants,
    iss_probe,
    sample_shells,
    verify_gas_conditions,
    verify_ges_conditions,
    verify_ges_seminorm,
)
from .errors import HaleformError
from .functionals import LadderSpec, driver_derivative
from .integrate import StepPolicy, integrate, residual_check
from .serialization import (
    SCHEMA_VERSION,
    canonical_json,
    constants_from_dict,
    constants_to_dict,
    functional_from_dict,
    functional_to_dict,
    history_from_dict,
    history_to_dict,
    read_json,
    report_to_dict,
    seminorm_from_dict,
    signal_from_dict,
    system_from_dict,
    write_json,
)
from .signals import InputSignal
from .stability import INCONCLUSIVE, STABLE, UNSTABLE, is_strongly_stable

BLOCK_FOR_COMMAND = {
    "check-dop": "check-dop",
    "simulate": "simulate",
    "dplus": "dplus",
    "verify-lk": "verify",
    "fit-lk": "fit",
    "estimate-ges": "ges",
    "attraction": "attraction",
    "construct-converse": "converse",
    "iss-probe": "iss",
}

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_INCONCLUSIVE = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _resolve(spec, base: Path, loader):
    """A block entry may be an inline dict or a path to a JSON file."""
    if isinstance(spec, str):
        return loader(read_json(base / spec))
    if isinstance(spec, dict):
        return loader(spec)
    raise HaleformError(f"expected a file path or inline object, got {type(spec).__name__}")


def _samples_from_block(block: dict, system, default_per_shell=20):
    per_shell = int(block.get("per_shell", default_per_shell))
    shells = tuple(block.get("shells", (0.1, 1.0, 10.0)))
    seed = int(block.get("seed", 0))
    max_roughness = int(block.get("max_roughness", 4))
    return sample_shells(
        system.n, system.delta, per_shell, seed, shells, max_roughness
    )


def _ladder_from_block(block: dict) -> LadderSpec:
    return LadderSpec(
        h0=block.get("ladder_h0"),
        levels=int(block.get("ladder_levels", 12)),
        tail=int(block.get("ladder_tail", 3)),
    )


def _step_policy(block: dict) -> StepPolicy:
    return StepPolicy(
        step=block.get("step"),
        blowup_bound=float(block.get("blowup_bound", 1e12)),
    )


def _write_counterexamples(report, out_dir: Path) -> list[str]:
    files = []
    for i, ce in enumerate(report.counterexamples):
        name = f"counterexample_{i:03d}.json"
        write_json(out_dir / name, history_to_dict(ce.history))
        files.append(name)
    return files


def _write_margins_csv(report, out_dir: Path) -> str | None:
    if not report.margins:
        return None
    keys = sorted(report.margins[0])
    lines = ["sample," + ",".join(keys)]
    for i, row in enumerate(report.margins):
        lines.append(f"{i}," + ",".join(_fmt(row[k]) for k in keys))
    (out_dir / "margins.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return "margins.csv"


def _trajectory_csv(traj, path: Path) -> None:
    n = traj.system.n
    header = (
        "t,"
        + ",".join(f"x_{j + 1}" for j in range(n))
        + ","
        + ",".join(f"Dx_{j + 1}" for j in range(n))
    )
    lines = [header]
    for k in range(traj.times.size):
        row = [_fmt(traj.times[k])]
        row += [_fmt(v) for v in traj.x[k]]
        row += [_fmt(v) for v in traj.z[k]]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- command executors -------------------------------------------------------------

def _run_check_dop(scn: dict, base: Path, out_dir: Path):
    system = _resolve(scn["system"], base, system_from_dict)
    block = scn.get("check-dop", {})
    resolution = int(block.get("resolution", 64))
    refine = int(block.get("refine_iters", 40))
    margin_tol = float(block.get("margin_tol", 1e-6))
    verdict, margin = is_strongly_stable(
        system.dop, resolution=resolution, margin_tol=margin_tol, refine_iters=refine
    )
    result = {
        "gamma0": margin.gamma0,
        "verdict": verdict,
        "argmax_theta": margin.argmax_theta,
        "resolution": margin.grid_resolution,
        "refined": margin.refined,
        "margin_tol": margin_tol,
    }
    code = {STABLE: EXIT_PASS, UNSTABLE: EXIT_VIOLATION, INCONCLUSIVE: EXIT_INCONCLUSIVE}[verdict]
    return code, result, {}


def _run_simulate(scn: dict, base: Path, out_dir: Path):
    system = _resolve(scn["system"], base, system_from_dict)
    block = scn.get("simulate", {})
    xi0 = _resolve(block["history"], base, history_from_dict)
    horizon = float(block.get("horizon", 10.0))
    u = None
    if "input" in block:
        u = _resolve(block["input"], base, signal_from_dict)
    traj = integrate(system, xi0, horizon, step=_step_policy(block), u=u)
    _trajectory_csv(traj, out_dir / "trajectory.csv")
    result = {
        "t_end": traj.t_end,
        "blowup": traj.blowup,
        "order_reduced": traj.order_reduced,
        "nodes": int(traj.times.size),
        "breakpoints": traj.breakpoints,
        "trajectory_csv": "trajectory.csv",
    }
    if not traj.blowup and block.get("residual_samples"):
        result["max_residual"] = residual_check(traj, int(block["residual_samples"]))
    return (EXIT_VIOLATION if traj.blowup else EXIT_PASS), result, {}


def _run_dplus(scn: dict, base: Path, out_dir: Path):
    system = _resolve(scn["system"], base, system_from_dict)
    block = scn.get("dplus", {})
    V = _resolve(block["functional"], base, lambda d: functional_from_dict(d, system))
    phi = _resolve(block["history"], base, history_from_dict)
    u = np.asarray(block["u"], float) if "u" in block else None
    est = driver_derivative(system, V, phi, u, _ladder_from_block(block))
    result = {
        "value": est.value,
        "error_band": est.error_band,
        "quotients": est.quotients,
        "h_ladder": est.h_ladder,
        "nonsmooth": est.nonsmooth,
    }
    return EXIT_PASS, result, {}


def _verdict_code(report) -> int:
    if report.failure is not None or report.violations > 0:
        return EXIT_VIOLATION
    if report.inconclusive > 0:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _run_verify(scn: dict, base: Path, out_dir: Path):
    system = _resolve(scn["system"], base, system_from_dict)
    block = scn.get("verify", {})
    V = _resolve(block["functional"], base, lambda d: functional_from_dict(d, system))
    constants = _resolve(block["constants"], base, lambda d: constants_from_dict(d, system))
    samples = _samples_from_block(block.get("samples", {}), system)
    ladder = _ladder_from_block(block)
    if constants.variant == "gas":
        report = verify_gas_conditions(system, V, constants, samples, ladder)
    elif constants.variant == "ges":
        report = verify_ges_conditions(system, V, constants, samples, ladder)
    else:
        report = verify_ges_seminorm(system, V, constants.seminorm, constants, samples, ladder)
    result = report_to_dict(report)
    result["counterexample_files"] = _write_counterexamples(report, out_dir)
    csv_name = _write_margins_csv(report, out_dir)
    if csv_name:
        result["margins_csv"] = csv_name
    return _verdict_code(report), result, {}


def _run_fit(scn: dict, base: Path, out_dir: Path):
    system = _resolve(scn["system"], base, system_from_dict)
    block = scn.get("fit", {})
    V = _resolve(block["functional"], base, lambda d: functional_from_dict(d, system))
    variant = block.get("variant", "ges")
    seminorm = None
    if "seminorm" in block:
        seminorm = _resolve(block["seminorm"], base, lambda d: seminorm_from_dict(d, system))
    samples = _samples_from_block(block.get("samples", {}), system, default_per_shell=100)
    fit = fit_constants(
        system,
        V,
        variant,
        samples,
        _ladder_from_block(block),
        seminorm=seminorm,
        headroom=float(block.get("headroom", 0.01)),
    )
    result = report_to_dict(fit.report)
    if fit.ok:
        write_json(out_dir / "constants.json", constants_to_dict(fit.constants))
        result["constants_file"] = "constants.json"
    result["counterexample_files"] = _write_counterexamples(fit.report, out_dir)
    return (EXIT_PASS if fit.ok and fit.report.passed else EXIT_VIOLATION), result, {}


def _run_ges(scn: dict, base: Path, out_dir: Path):
    system = _resolve(scn["system"], base, system_from_dict)
    block = scn.get("ges", {})
    est = estimate_ges(
        system,
        int(block.get("trajectories", 20)),
        float(block.get("horizon", 10.0)),
        step=_step_policy(block),
        seed=int(block.get("seed", 0)),
        shells=tuple(block.get("shells", (0.1, 1.0))),
    )
    result = {
        "is_ges": est.is_ges,
        "M": est.M if np.isfinite(est.M) else None,
        "lambda": est.lam if np.isfinite(est.lam) else None,
        "fit_residual": est.fit_residual if np.isfinite(est.fit_residual) else None,
        "trajectories_used": est.trajectories_used,
        "note": est.note,
    }
    if est.counterexample is not None:
        write_json(out_dir / "escaping_history.json", history_to_dict(est.counterexample))
        result["counterexample_file"] = "escaping_history.json"
    return (EXIT_PASS if est.is_ges else EXIT_VIOLATION), result, {}


def _run_attraction(scn: dict, base: Path, out_dir: Path):
    system = _resolve(scn["system"], base, system_from_dict)
    block = scn.get("attraction", {})
    res = check_uniform_attraction(
        system,
        float(block.get("bound", 1.0)),
        float(block.get("eps", 0.1)),
        samples=int(block.get("samples", 20)),
        horizon=float(block.get("horizon", 20.0)),
        step=_step_policy(block),
        seed=int(block.get("seed", 0)),
    )
    result = {
        "status": res.status,
        "settle_time": res.settle_time,
        "delta_hat": res.delta_hat,
    }
    if res.worst is not None:
        write_json(out_dir / "worst_history.json", history_to_dict(res.worst))
        result["worst_history_file"] = "worst_history.json"
    return (EXIT_PASS if res.status == "settled" else EXIT_INCONCLUSIVE), result, {}


def _run_converse(scn: dict, base: Path, out_dir: Path):
    system = _resolve(scn["system"], base, system_from_dict)
    block = scn.get("converse", {})
    step = _step_policy(block)
    ges = estimate_ges(
        system,
        int(block.get("trajectories", 20)),
        float(block.get("ges_horizon", 10.0)),
        step=step,
        seed=int(block.get("seed", 0)),
    )
    if not ges.is_ges:
        result = {"is_ges": False, "note": ges.note}
        if ges.counterexample is not None:
            write_json(out_dir / "escaping_history.json", history_to_dict(ges.counterexample))
            result["counterexample_file"] = "escaping_history.json"
        return EXIT_VIOLATION, result, {}
    rate = float(block.get("rate", ges.lam / 2.0))
    V = construct_converse_ges(system, rate, horizon=block.get("horizon"), ges=ges, step=step)
    spec = functional_to_dict(V)
    write_json(out_dir / "functional.json", spec)
    result = {
        "functional_file": "functional.json",
        "rate": V.rate,
        "horizon": V.horizon,
        "ges": {"M": ges.M, "lambda": ges.lam},
    }
    return EXIT_PASS, result, {}


def _run_iss(scn: dict, base: Path, out_dir: Path):
    system = _resolve(scn["system"], base, system_from_dict)
    block = scn.get("iss", {})
    ics_block = block.get("initial", {})
    ics = sample_shells(
        system.n,
        system.delta,
        int(ics_block.get("per_shell", 10)),
        int(ics_block.get("seed", 0)),
        tuple(ics_block.get("shells", (0.1, 1.0))),
    )
    if "signals" in block:
        signals = [signal_from_dict(s) for s in block["signals"]]
    else:
        signals = [InputSignal.zero(system.m)] + [
            InputSignal.constant(np.full(system.m, c)) for c in (0.25, -0.5, 1.0)
        ]
    est = iss_probe(
        system,
        ics,
        signals,
        horizon=float(block.get("horizon", 10.0)),
        step=_step_policy(block),
        seed=int(block.get("seed", 0)),
    )
    from .serialization import comparison_to_dict

    result = {
        "is_iss": est.is_iss,
        "violations": est.violations,
        "probes": est.probes,
        "gamma_form": est.gamma_form,
        "gamma_slope": est.gamma_slope,
        "gamma": comparison_to_dict(est.gamma) if est.gamma is not None else None,
        "input_gain": comparison_to_dict(est.input_gain) if est.input_gain is not None else None,
        "L0": est.L0,
        "beta": {"M": est.ges.M, "lambda": est.ges.lam},
    }
    if est.counterexample is not None:
        xi0, sig = est.counterexample
        write_json(out_dir / "probe_history.json", history_to_dict(xi0))
        result["counterexample_file"] = "probe_history.json"
    return (EXIT_PASS if est.is_iss else EXIT_VIOLATION), result, {}


_EXECUTORS = {
    "check-dop": _run_check_dop,
    "simulate": _run_simulate,
    "dplus": _run_dplus,
    "verify-lk": _run_verify,
    "fit-lk": _run_fit,
    "estimate-ges": _run_ges,
    "attraction": _run_attraction,
    "construct-converse": _run_converse,
    "iss-probe": _run_iss,
}


def run_scenario(scenario: dict, base: Path, out_dir: Path | None = None) -> int:
    """Execute one scenario dict; write report.json and artifacts; return exit code."""
    command = scenario.get("command")
    if command not in _EXECUTORS:
        print(f"error: unknown or missing command {command!r}", file=sys.stderr)
        return EXIT_ERROR
    out = Path(out_dir or scenario.get("out", "haleform-out"))
    out.mkdir(parents=True, exist_ok=True)
    tolerances = scenario.get("tolerances", {})
    block_name = BLOCK_FOR_COMMAND[command]
    effective = dict(scenario)
    effective.setdefault("seed", 0)
    block = dict(effective.get(block_name, {}))
    for key, value in tolerances.items():
        block.setdefault(key, value)
    block.setdefault("seed", effective["seed"])
    effective[block_name] = block
    hash_source = {k: v for k, v in effective.items() if k != "out"}
    scenario_hash = hashlib.sha256(canonical_json(hash_source).encode()).hexdigest()
    try:
        code, result, extra = _EXECUTORS[command](effective, base, out)
    except HaleformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        report = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "command": command,
            "seed": effective["seed"],
            "scenario_hash": scenario_hash,
            "error": str(exc),
        }
        write_json(out / "report.json", report)
        return EXIT_ERROR
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "seed": effective["seed"],
        "scenario_hash": scenario_hash,
        "exit_code": code,
        "result": result,
    }
    report.update(extra)
    write_json(out / "report.json", report)
    print(f"{command}: exit {code}; report at {out / 'report.json'}")
    return code


def _parse_tol(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise HaleformError(f"--tol expects name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        out[name] = float(value)
    return out


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None, help="output directory")
    common.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help="tolerance override, repeatable",
    )

    parser = argparse.ArgumentParser(
        prog="haleform",
        description="Simulate neutral delay systems in Hale's form and check "
        "Lyapunov-Krasovskii stability certificates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="global random seed")

    run_p = sub.add_parser("run", parents=[common], help="execute a scenario file")
    run_p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario's seed")

    cd = sub.add_parser("check-dop", parents=[seeded], help="strong-stability margin of the difference operator")
    cd.add_argument("system", help="system description file")
    cd.add_argument("--resolution", type=int, default=64)
    cd.add_argument("--refine-iters", type=int, default=40)

    sim = sub.add_parser("simulate", parents=[seeded], help="integrate the system from an initial history")
    sim.add_argument("system")
    sim.add_argument("history")
    sim.add_argument("-T", "--horizon", type=float, default=10.0)
    sim.add_argument("--step", type=float, default=None)
    sim.add_argument("--input", type=str, default=None, help="input signal JSON file")
    sim.add_argument("--residual-samples", type=int, default=0)

    dp = sub.add_parser("dplus", parents=[seeded], help="derivative estimate of a functional at a history")
    dp.add_argument("system")
    dp.add_argument("functional")
    dp.add_argument("history")
    dp.add_argument("--u", type=float, nargs="*", default=None, help="input value")

    ver = sub.add_parser("verify-lk", parents=[seeded], help="verify certificate conditions by sampling")
    ver.add_argument("system")
    ver.add_argument("--functional", required=True)
    ver.add_argument("--constants", required=True)
    ver.add_argument("--per-shell", type=int, default=20)
    ver.add_argument("--shells", type=float, nargs="*", default=None)

    fit = sub.add_parser("fit-lk", parents=[seeded], help="fit certificate constants from samples")
    fit.add_argument("system")
    fit.add_argument("--functional", required=True)
    fit.add_argument("--variant", choices=["gas", "ges", "ges-seminorm"], default="ges")
    fit.add_argument("--seminorm", default=None)
    fit.add_argument("--per-shell", type=int, default=100)
    fit.add_argument("--shells", type=float, nargs="*", default=None)

    ges = sub.add_parser("estimate-ges", parents=[seeded], help="estimate exponential decay from trajectories")
    ges.add_argument("system")
    ges.add_argument("--trajectories", type=int, default=20)
    ges.add_argument("-T", "--horizon", type=float, default=10.0)
    ges.add_argument("--step", type=float, default=None)

    att = sub.add_parser("attraction", parents=[seeded], help="uniform attraction probe")
    att.add_argument("system")
    att.add_argument("--bound", type=float, default=1.0)
    att.add_argument("--eps", type=float, default=0.1)
    att.add_argument("--samples", type=int, default=20)
    att.add_argument("-T", "--horizon", type=float, default=20.0)
    att.add_argument("--step", type=float, default=None)

    con = sub.add_parser("construct-converse", parents=[seeded], help="build the trajectory-based witness functional")
    con.add_argument("system")
    con.add_argument("--rate", type=float, default=None)
    con.add_argument("-T", "--horizon", type=float, default=None)
    con.add_argument("--step", type=float, default=None)

    iss = sub.add_parser("iss-probe", parents=[seeded], help="input-to-state bound fitting")
    iss.add_argument("system")
    iss.add_argument("--signals", type=str, default=None, help="JSON file with a list of input signals")
    iss.add_argument("-T", "--horizon", type=float, default=10.0)
    iss.add_argument("--step", type=float, default=None)
    iss.add_argument("--per-shell", type=int, default=10)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_ERROR

    try:
        tolerances = _parse_tol(getattr(args, "tol", None))
        if args.command == "run":
            path = Path(args.scenario)
            scenario = read_json(path)
            if args.out:
                scenario["out"] = args.out
            if args.seed is not None:
                scenario["seed"] = args.seed
            scenario.setdefault("tolerances", {}).update(tolerances)
            return run_scenario(scenario, path.parent, scenario.get("out"))
        scenario = _scenario_from_args(args, tolerances)
        return run_scenario(scenario, Path.cwd(), args.out)
    except HaleformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _scenario_from_args(args, tolerances: dict) -> dict:
    scn = {
        "command": args.command,
        "system": args.system,
        "seed": args.seed,
        "tolerances": tolerances,
    }
    if args.out:
        scn["out"] = args.out
    block = {}
    if args.command == "check-dop":
        block = {"resolution": args.resolution, "refine_iters": args.refine_iters}
    elif args.command == "simulate":
        block = {"history": args.history, "horizon": args.horizon}
        if args.step is not None:
            block["step"] = args.step
        if args.input:
            block["input"] = args.input
        if args.residual_samples:
            block["residual_samples"] = args.residual_samples
    elif args.command == "dplus":
        block = {"functional": args.functional, "history": args.history}
        if args.u is not None:
            block["u"] = args.u
    elif args.command == "verify-lk":
        block = {
            "functional": args.functional,
            "constants": args.constants,
            "samples": {"per_shell": args.per_shell, "seed": args.seed},
        }
        if args.shells:
            block["samples"]["shells"] = args.shells
    elif args.command == "fit-lk":
        block = {
            "functional": args.functional,
            "variant": args.variant,
            "samples": {"per_shell": args.per_shell, "seed": args.seed},
        }
        if args.seminorm:
            block["seminorm"] = args.seminorm
        if args.shells:
            block["samples"]["shells"] = args.shells
    elif args.command == "estimate-ges":
        block = {"trajectories": args.trajectories, "horizon": args.horizon, "seed": args.seed}
        if args.step is not None:
            block["step"] = args.step
    elif args.command == "attraction":
        block = {
            "bound": args.bound,
            "eps": args.eps,
            "samples": args.samples,
            "horizon": args.horizon,
            "seed": args.seed,
        }
        if args.step is not None:
            block["step"] = args.step
    elif args.command == "construct-converse":
        block = {"seed": args.seed}
        if args.rate is not None:
            block["rate"] = args.rate
        if args.horizon is not None:
            block["horizon"] = args.horizon
        if args.step is not None:
            block["step"] = args.step
    elif args.command == "iss-probe":
        block = {
            "horizon": args.horizon,
            "seed": args.seed,
            "initial": {"per_shell": args.per_shell, "seed": args.seed},
        }
        if args.step is not None:
            block["step"] = args.step
        if args.signals:
            block["signals"] = read_json(Path(args.signals))
    scn[BLOCK_FOR_COMMAND[args.command]] = block
    return scn


if __name__ == "__main__":
    sys.exit(main())
