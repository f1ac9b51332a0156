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
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .certify import (
    DEFAULT_SHELLS,
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
    _REQUIRED,
    SCHEMA_VERSION,
    _object,
    _read_field,
    canonical_json,
    comparison_to_dict,
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

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_INCONCLUSIVE = 3
_HEADER = {"schema_version": SCHEMA_VERSION, "tool_version": __version__}  # every report.json starts so


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _resolve(spec, base: Path, loader, inline: type = dict):
    """A block entry may be inline (an object, or a list where `inline` is list)
    or a path to a JSON file holding one, relative to `base`."""
    if isinstance(spec, str):
        spec = read_json(base / spec)
    if not isinstance(spec, inline):
        kind = "object" if inline is dict else inline.__name__
        raise HaleformError(f"expected a file path or inline {kind}, got {type(spec).__name__}")
    return loader(spec)


class _Block(dict):
    """A scenario block, named by its path ("verify.samples" is nested). Its
    entries are read through `value`, as `_read_field` reads a file's."""

    def __init__(self, name: str, entries):
        super().__init__(_object(entries, name))
        self.name = name

    def value(self, key: str, cast: Callable | None = None, default=_REQUIRED):
        return _read_field(self, key, self.name, cast, default)

    def inner(self, key: str) -> "_Block":
        """A copy of the nested block at key, empty where absent."""
        return _Block(f"{self.name}.{key}", self.get(key, {}))


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _samples_from_block(block: _Block, system, shells=DEFAULT_SHELLS):
    max_roughness = block.value("max_roughness", int, 4)
    return sample_shells(
        system.n, system.delta, block.value("per_shell", int), block.value("seed", int),
        block.value("shells", _floats, shells), max_roughness,
    )


def _ladder_from_block(block: _Block) -> LadderSpec:
    return LadderSpec(
        h0=block.value("ladder_h0", float, None),
        levels=block.value("ladder_levels", int, 12),
        tail=block.value("ladder_tail", int, 3),
    )


def _step_policy(block: _Block) -> StepPolicy:
    return StepPolicy(
        step=block.value("step", float, None),
        blowup_bound=block.value("blowup_bound", float, 1e12),
    )


def _write_counterexamples(report, out_dir: Path) -> list[str]:
    """Each counterexample as its history's file with the violated condition,
    its lhs, rhs and band (and a fit's V) beside the history's keys."""
    files = []
    for i, ce in enumerate(report.counterexamples):
        name = f"counterexample_{i:03d}.json"
        write_json(out_dir / name, {**history_to_dict(ce.history), "condition": ce.condition, **ce.details})
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
    """t, x and D x at every node, one row each, every value as `_fmt` writes it."""
    n = traj.system.n
    lines = [",".join(["t", *(f"x_{j + 1}" for j in range(n)), *(f"Dx_{j + 1}" for j in range(n))])]
    row = ",".join(["%.17g"] * (2 * n + 1))  # "%.17g" % v is format(v, ".17g")
    lines += [row % tuple(values) for values in np.column_stack([traj.times, traj.x, traj.z]).tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- command executors -------------------------------------------------------------

def _run_check_dop(system, block: _Block, base: Path, out_dir: Path):
    resolution = block.value("resolution", int)
    refine = block.value("refine_iters", int)
    margin_tol = block.value("margin_tol", float, 1e-6)
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
    return code, result


def _run_simulate(system, block: _Block, base: Path, out_dir: Path):
    xi0 = _resolve(block.value("history"), base, history_from_dict)
    horizon = block.value("horizon", float)
    u = None
    if "input" in block:
        u = _resolve(block.value("input"), base, signal_from_dict)
    residual_samples = block.value("residual_samples", int, None)
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
    if not traj.blowup and residual_samples:
        result["max_residual"] = residual_check(traj, residual_samples)
    return (EXIT_VIOLATION if traj.blowup else EXIT_PASS), result


def _run_dplus(system, block: _Block, base: Path, out_dir: Path):
    V = _resolve(block.value("functional"), base, lambda d: functional_from_dict(d, system))
    phi = _resolve(block.value("history"), base, history_from_dict)
    u = block.value("u", lambda v: np.asarray(v, float), None)
    est = driver_derivative(system, V, phi, u, _ladder_from_block(block))
    result = {
        "value": est.value,
        "error_band": est.error_band,
        "quotients": est.quotients,
        "h_ladder": est.h_ladder,
        "nonsmooth": est.nonsmooth,
    }
    return EXIT_PASS, result


def _verdict_code(report) -> int:
    if report.failure is not None or report.violations > 0:
        return EXIT_VIOLATION
    if report.inconclusive > 0:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _run_verify(system, block: _Block, base: Path, out_dir: Path):
    V = _resolve(block.value("functional"), base, lambda d: functional_from_dict(d, system))
    constants = _resolve(block.value("constants"), base, lambda d: constants_from_dict(d, system))
    samples = _samples_from_block(block.inner("samples"), system)
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
    return _verdict_code(report), result


def _run_fit(system, block: _Block, base: Path, out_dir: Path):
    V = _resolve(block.value("functional"), base, lambda d: functional_from_dict(d, system))
    variant = block.value("variant")
    seminorm = None
    if "seminorm" in block:
        seminorm = _resolve(block.value("seminorm"), base, lambda d: seminorm_from_dict(d, system))
    samples = _samples_from_block(block.inner("samples"), system)
    fit = fit_constants(
        system,
        V,
        variant,
        samples,
        _ladder_from_block(block),
        seminorm=seminorm,
        headroom=block.value("headroom", float, 0.01),
    )
    result = report_to_dict(fit.report)
    if fit.ok:
        write_json(out_dir / "constants.json", constants_to_dict(fit.constants))
        result["constants_file"] = "constants.json"
    result["counterexample_files"] = _write_counterexamples(fit.report, out_dir)
    return _verdict_code(fit.report), result


def _run_ges(system, block: _Block, base: Path, out_dir: Path):
    est = estimate_ges(
        system,
        block.value("trajectories", int),
        block.value("horizon", float),
        step=_step_policy(block),
        seed=block.value("seed", int),
        shells=block.value("shells", _floats, (0.1, 1.0)),
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
    return (EXIT_PASS if est.is_ges else EXIT_VIOLATION), result


def _run_attraction(system, block: _Block, base: Path, out_dir: Path):
    res = check_uniform_attraction(
        system,
        block.value("bound", float),
        block.value("eps", float),
        samples=block.value("samples", int),
        horizon=block.value("horizon", float),
        step=_step_policy(block),
        seed=block.value("seed", int),
    )
    result = {
        "status": res.status,
        "settle_time": res.settle_time,
        "delta_hat": res.delta_hat,
    }
    if res.worst is not None:
        write_json(out_dir / "worst_history.json", history_to_dict(res.worst))
        result["worst_history_file"] = "worst_history.json"
    return (EXIT_PASS if res.status == "settled" else EXIT_INCONCLUSIVE), result


def _run_converse(system, block: _Block, base: Path, out_dir: Path):
    step = _step_policy(block)
    ges = estimate_ges(
        system,
        block.value("trajectories", int, 20),
        block.value("ges_horizon", float, 10.0),
        step=step,
        seed=block.value("seed", int),
    )
    if not ges.is_ges:
        result = {"is_ges": False, "note": ges.note}
        if ges.counterexample is not None:
            write_json(out_dir / "escaping_history.json", history_to_dict(ges.counterexample))
            result["counterexample_file"] = "escaping_history.json"
        return EXIT_VIOLATION, result
    rate = block.value("rate", float, ges.lam / 2.0)
    V = construct_converse_ges(system, rate, horizon=block.value("horizon", float, None), ges=ges, step=step)
    spec = functional_to_dict(V)
    write_json(out_dir / "functional.json", spec)
    result = {
        "functional_file": "functional.json",
        "rate": V.rate,
        "horizon": V.horizon,
        "ges": {"M": ges.M, "lambda": ges.lam},
    }
    return EXIT_PASS, result


def _run_iss(system, block: _Block, base: Path, out_dir: Path):
    ics = _samples_from_block(block.inner("initial"), system, shells=(0.1, 1.0))
    if "signals" in block:
        signals = _resolve(
            block.value("signals"), base, lambda specs: [signal_from_dict(s) for s in specs], list
        )
    else:
        signals = [InputSignal.zero(system.m)] + [
            InputSignal.constant(np.full(system.m, c)) for c in (0.25, -0.5, 1.0)
        ]
    est = iss_probe(
        system,
        ics,
        signals,
        horizon=block.value("horizon", float),
        step=_step_policy(block),
        seed=block.value("seed", int),
    )
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
        write_json(out_dir / "probe_history.json", history_to_dict(est.counterexample[0]))
        result["counterexample_file"] = "probe_history.json"
    return (EXIT_PASS if est.is_iss else EXIT_VIOLATION), result


# -- the command table ---------------------------------------------------------------

class _Flag:
    """One option of a subcommand and the block entry it sets.

    `key` names the entry; "samples.per_shell" is nested. A flag whose default
    is None enters a block only when given; any other flag always enters, and
    its default also fills a scenario block that lacks the entry.
    """

    def __init__(self, names: str, key: str, type: Callable = str, default=None, **options):
        self.names = names.split()
        self.key = key
        self.default = default
        self.options = dict(type=type, default=default, **options)
        self.dest = self.names[-1].lstrip("-").replace("-", "_")


class _Command(NamedTuple):
    """One subcommand: its scenario block, executor, help and arguments."""

    block: str
    run: Callable
    help: str
    positionals: tuple[str, ...]  # block entries, after the system file
    flags: tuple[_Flag, ...]
    seed_at: str | None = None  # nested seed entry; defaults to the block's seed


def _horizon(default=None) -> _Flag:
    return _Flag("-T --horizon", "horizon", float, default)


_STEP = _Flag("--step", "step", float)
_FUNCTIONAL = _Flag("--functional", "functional", required=True)
_SHELLS = _Flag("--shells", "samples.shells", float, nargs="*")

_COMMANDS = {
    "check-dop": _Command(
        "check-dop", _run_check_dop, "strong-stability margin of the difference operator",
        (), (
            _Flag("--resolution", "resolution", int, 64),
            _Flag("--refine-iters", "refine_iters", int, 40),
        )),
    "simulate": _Command(
        "simulate", _run_simulate, "integrate the system from an initial history",
        ("history",), (
            _horizon(10.0),
            _STEP,
            _Flag("--input", "input", help="input signal JSON file"),
            _Flag("--residual-samples", "residual_samples", int),
        )),
    "dplus": _Command(
        "dplus", _run_dplus, "derivative estimate of a functional at a history",
        ("functional", "history"), (
            _Flag("--u", "u", float, nargs="*", help="input value"),
        )),
    "verify-lk": _Command(
        "verify", _run_verify, "verify certificate conditions by sampling",
        (), (
            _FUNCTIONAL,
            _Flag("--constants", "constants", required=True),
            _Flag("--per-shell", "samples.per_shell", int, 20),
            _SHELLS,
        ), "samples.seed"),
    "fit-lk": _Command(
        "fit", _run_fit, "fit certificate constants from samples",
        (), (
            _FUNCTIONAL,
            _Flag("--variant", "variant", str, "ges", choices=["gas", "ges", "ges-seminorm"]),
            _Flag("--seminorm", "seminorm"),
            _Flag("--per-shell", "samples.per_shell", int, 100),
            _SHELLS,
        ), "samples.seed"),
    "estimate-ges": _Command(
        "ges", _run_ges, "estimate exponential decay from trajectories",
        (), (
            _Flag("--trajectories", "trajectories", int, 20),
            _horizon(10.0),
            _STEP,
        )),
    "attraction": _Command(
        "attraction", _run_attraction, "uniform attraction probe",
        (), (
            _Flag("--bound", "bound", float, 1.0),
            _Flag("--eps", "eps", float, 0.1),
            _Flag("--samples", "samples", int, 20),
            _horizon(20.0),
            _STEP,
        )),
    "construct-converse": _Command(
        "converse", _run_converse, "build the trajectory-based witness functional",
        (), (
            _Flag("--rate", "rate", float),
            _horizon(),
            _STEP,
        )),
    "iss-probe": _Command(
        "iss", _run_iss, "input-to-state bound fitting",
        (), (
            # read when parsed: a direct invocation's block holds the list itself
            _Flag("--signals", "signals", read_json, help="JSON file with a list of input signals"),
            _horizon(10.0),
            _STEP,
            _Flag("--per-shell", "initial.per_shell", int, 10),
        ), "initial.seed"),
}


def _setdefault(block: _Block, key: str, value) -> None:
    """Set a (nested) entry unless present, copying the blocks on its path."""
    *parents, last = key.split(".")
    for name in parents:
        inner = block.inner(name)
        block[name] = inner
        block = inner
    block.setdefault(last, value)


def _block_from_args(command: _Command, args) -> _Block:
    block = _Block(command.block, {name: getattr(args, name) for name in command.positionals})
    for flag in command.flags:
        value = getattr(args, flag.dest)
        if value is not None:
            _setdefault(block, flag.key, value)
    if command.seed_at:
        # run_scenario would fill the same value; written here, it is part of the hash
        _setdefault(block, command.seed_at, args.seed)
    return block


def _refuse(exc: HaleformError, out, report: dict) -> int:
    """Print the error and, where the output directory is known, write it to report.json."""
    print(f"error: {exc}", file=sys.stderr)
    if out is not None:
        Path(out).mkdir(parents=True, exist_ok=True)
        write_json(Path(out) / "report.json", {**report, "error": str(exc)})
    return EXIT_ERROR


def run_scenario(scenario: dict, base: Path, out_dir: Path | None = None) -> int:
    """Execute one scenario dict; write report.json and artifacts; return exit code."""
    report, out = dict(_HEADER), out_dir
    try:
        effective = _Block("scenario", scenario)  # a copy
        out = out_dir or effective.get("out")
        command = effective.get("command")
        if command not in _COMMANDS:
            raise HaleformError(f"unknown or missing command {command!r}")
        out = Path(out or "haleform-out")
        out.mkdir(parents=True, exist_ok=True)
        spec = _COMMANDS[command]
        effective.setdefault("seed", 0)
        report.update(command=command, seed=effective["seed"])
        block = _Block(spec.block, effective.get(spec.block, {}))
        for key, value in effective.inner("tolerances").items():
            block.setdefault(key, value)
        block.setdefault("seed", effective["seed"])
        effective[spec.block] = block
        hash_source = {k: v for k, v in effective.items() if k != "out"}
        # refused, as in a report, where the scenario has an inf or NaN (JSON 1e400 reads as inf)
        report["scenario_hash"] = hashlib.sha256(canonical_json(hash_source).encode()).hexdigest()
        # defaults fill the block only after hashing, so the hash is of what was given
        for flag in spec.flags:
            if flag.default is not None:
                _setdefault(block, flag.key, flag.default)
        if spec.seed_at:
            _setdefault(block, spec.seed_at, block.value("seed"))
        system = _resolve(effective.value("system"), base, system_from_dict)
        code, result = spec.run(system, block, base, out)
    except HaleformError as exc:
        return _refuse(exc, out, report)
    write_json(out / "report.json", {**report, "exit_code": code, "result": result})
    print(f"{command}: exit {code}; report at {out / 'report.json'}")
    return code


def _parse_tol(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise HaleformError(f"--tol expects name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        try:
            out[name] = float(value)
        except ValueError:
            raise HaleformError(f"--tol {name}: expected a number, got {value!r}") from None
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

    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, parents=[seeded], help=command.help)
        p.add_argument("system", help="system description file")
        for positional in command.positionals:
            p.add_argument(positional)
        for flag in command.flags:
            p.add_argument(*flag.names, **flag.options)

    out = None
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_ERROR
        out = args.out
        tolerances = _parse_tol(args.tol)
        if args.command == "run":
            path = Path(args.scenario)
            scenario = _Block("scenario", read_json(path))
            out = out or scenario.get("out")
            if args.seed is not None:
                scenario["seed"] = args.seed
            scenario["tolerances"] = {**scenario.inner("tolerances"), **tolerances}
            return run_scenario(scenario, path.parent, out)
        command = _COMMANDS[args.command]
        scenario = {
            "command": args.command,
            "system": args.system,
            "seed": args.seed,
            "tolerances": tolerances,
            command.block: _block_from_args(command, args),
        }
        return run_scenario(scenario, Path.cwd(), args.out)
    except HaleformError as exc:
        return _refuse(exc, out, _HEADER)


if __name__ == "__main__":
    sys.exit(main())
