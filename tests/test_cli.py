import json
import os

import numpy as np
import pytest

from haleform.cli import main
from haleform import InputSignal
from haleform.serialization import history_from_dict, read_json, signal_to_dict, write_json

SYSTEM = {
    "n": 1,
    "m": 0,
    "delta": 1.0,
    "dop": {"delays": [1.0], "matrices": [[[0.5]]]},
    "rhs": {"terms": [{"type": "linear", "delay": 0.0, "matrix": [[-1.0]]}]},
}

UNSTABLE = {
    "n": 1,
    "m": 0,
    "delta": 1.0,
    "dop": {"delays": [1.0], "matrices": [[[0.0]]]},
    "rhs": {"terms": [{"type": "linear", "delay": 0.0, "matrix": [[1.0]]}]},
}

HISTORY = {"delta": 1.0, "grid": [-1.0, 0.0], "values": [[1.0], [1.0]]}


@pytest.fixture()
def workdir(tmp_path):
    write_json(tmp_path / "sys.json", SYSTEM)
    write_json(tmp_path / "unstable.json", UNSTABLE)
    write_json(tmp_path / "hist.json", HISTORY)
    write_json(tmp_path / "V.json", {"kind": "point-quadratic", "P": [[1.0]]})
    write_json(
        tmp_path / "consts.json", {"variant": "ges", "a1": 1.0, "a2": 1.0, "a3": 1.0}
    )
    return tmp_path


def test_check_dop_stable(workdir):
    out = workdir / "out"
    code = main(["check-dop", str(workdir / "sys.json"), "--out", str(out)])
    assert code == 0
    report = read_json(out / "report.json")
    assert report["result"]["verdict"] == "stable"
    assert report["result"]["gamma0"] == pytest.approx(0.5, abs=1e-9)
    assert report["schema_version"] == 1
    assert len(report["scenario_hash"]) == 64


def test_check_dop_unstable_exit_code(workdir, tmp_path):
    bad = {
        "n": 1, "m": 0, "delta": 1.0,
        "dop": {"delays": [0.5, 1.0], "matrices": [[[0.6]], [[0.6]]]},
        "rhs": {"terms": [{"type": "linear", "delay": 0.0, "matrix": [[-1.0]]}]},
    }
    write_json(tmp_path / "bad.json", bad)
    code = main(["check-dop", str(tmp_path / "bad.json"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_simulate_writes_csv(workdir):
    out = workdir / "sim"
    code = main([
        "simulate", str(workdir / "sys.json"), str(workdir / "hist.json"),
        "-T", "2", "--step", "0.01", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x_1,Dx_1"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    assert float(first[2]) == 0.5
    last = lines[-1].split(",")
    assert float(last[0]) == 2.0
    # closed-form value at t = 2
    expect = np.exp(-1.0) * (np.exp(-1.0) - 0.5)
    assert float(last[1]) == pytest.approx(expect, abs=1e-8)


def test_simulate_blowup_exit_code(workdir):
    out = workdir / "blow"
    code = main([
        "simulate", str(workdir / "unstable.json"), str(workdir / "hist.json"),
        "-T", "40", "--step", "0.1", "--out", str(out),
    ])
    assert code == 2
    assert read_json(out / "report.json")["result"]["blowup"] is True


def test_reports_are_byte_identical(workdir):
    code1 = main(["check-dop", str(workdir / "sys.json"), "--out", str(workdir / "r1")])
    code2 = main(["check-dop", str(workdir / "sys.json"), "--out", str(workdir / "r2")])
    assert code1 == code2 == 0
    b1 = (workdir / "r1" / "report.json").read_bytes()
    b2 = (workdir / "r2" / "report.json").read_bytes()
    assert b1 == b2


def test_dplus_report(workdir):
    out = workdir / "dp"
    code = main([
        "dplus", str(workdir / "sys.json"), str(workdir / "V.json"),
        str(workdir / "hist.json"), "--out", str(out),
    ])
    assert code == 0
    result = read_json(out / "report.json")["result"]
    assert result["value"] == pytest.approx(-1.0, abs=1e-3)
    assert result["error_band"] >= 0.0
    assert len(result["quotients"]) == len(result["h_ladder"])


@pytest.mark.parametrize("tail", ["1", "0"])
def test_dplus_refuses_a_ladder_tail_below_two(workdir, capsys, tail):
    """A tail below 2 is an input error, exit 1 with a message naming it."""
    out = workdir / "dp"
    code = main(["dplus", str(workdir / "sys.json"), str(workdir / "V.json"), str(workdir / "hist.json"),
                 "--tol", f"ladder_tail={tail}", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: ladder tail {tail} must be at least 2")
    assert "ladder tail" in read_json(out / "report.json")["error"]


def test_verify_pass_and_violation_exit_codes(workdir):
    write_json(workdir / "Vn.json", {"kind": "dop-norm", "c": 1.0})
    write_json(workdir / "good.json", {"variant": "ges", "a1": 1.0, "a2": 1.0, "a3": 0.9})
    ode = dict(SYSTEM)
    ode["dop"] = {"delays": [1.0], "matrices": [[[0.0]]]}
    write_json(workdir / "ode.json", ode)
    out = workdir / "v1"
    code = main([
        "verify-lk", str(workdir / "ode.json"), "--functional", str(workdir / "Vn.json"),
        "--constants", str(workdir / "good.json"), "--per-shell", "8",
        "--out", str(out), "--tol", "ladder_levels=8",
    ])
    assert code == 0
    report = read_json(out / "report.json")
    assert report["result"]["violations"] == 0

    write_json(workdir / "badc.json", {"variant": "ges", "a1": 1.0, "a2": 0.01, "a3": 0.9})
    out2 = workdir / "v2"
    code = main([
        "verify-lk", str(workdir / "ode.json"), "--functional", str(workdir / "Vn.json"),
        "--constants", str(workdir / "badc.json"), "--per-shell", "8",
        "--out", str(out2),
    ])
    assert code == 2
    report2 = read_json(out2 / "report.json")
    assert report2["result"]["counterexample_files"]


def test_counterexample_round_trip(workdir):
    """Histories emitted by verify-lk feed back into simulate and dplus."""
    write_json(workdir / "Vn.json", {"kind": "dop-norm", "c": 1.0})
    write_json(workdir / "badc.json", {"variant": "ges", "a1": 1.0, "a2": 0.01, "a3": 0.9})
    out = workdir / "ce"
    code = main([
        "verify-lk", str(workdir / "sys.json"), "--functional", str(workdir / "Vn.json"),
        "--constants", str(workdir / "badc.json"), "--per-shell", "6", "--out", str(out),
    ])
    assert code == 2
    ce_files = read_json(out / "report.json")["result"]["counterexample_files"]
    assert ce_files
    ce = out / ce_files[0]
    assert main([
        "simulate", str(workdir / "sys.json"), str(ce), "-T", "1",
        "--step", "0.05", "--out", str(workdir / "ce_sim"),
    ]) == 0
    assert main([
        "dplus", str(workdir / "sys.json"), str(workdir / "V.json"), str(ce),
        "--out", str(workdir / "ce_dp"),
    ]) == 0


@pytest.mark.parametrize("argv", [
    ["estimate-ges", "sys.json", "--seed", "-3"],
    ["attraction", "sys.json", "--seed", "-1", "--samples", "2", "-T", "1"],
], ids=["estimate-ges", "attraction"])
def test_a_negative_seed_is_a_clean_error(workdir, argv):
    """The installed entry point on a negative seed: exit 1 and an `error:` line that
    names the seed, not a numpy traceback."""
    import subprocess
    import sys
    from pathlib import Path

    import haleform

    env = {**os.environ, "PYTHONPATH": str(Path(haleform.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "haleform.cli", *argv, "--out", "neg"], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("error: seed must be non-negative, got") and "Traceback" not in done.stderr
    assert "seed" in read_json(workdir / "neg" / "report.json")["error"]


def test_estimate_ges_exit_codes(workdir):
    ode = dict(SYSTEM)
    ode["dop"] = {"delays": [1.0], "matrices": [[[0.0]]]}
    write_json(workdir / "ode.json", ode)
    out = workdir / "g1"
    code = main([
        "estimate-ges", str(workdir / "ode.json"), "-T", "10",
        "--step", "0.125", "--out", str(out),
    ])
    assert code == 0
    result = read_json(out / "report.json")["result"]
    assert 0.99 <= result["lambda"] <= 1.01
    assert 1.0 <= result["M"] <= 1.05

    out2 = workdir / "g2"
    code = main([
        "estimate-ges", str(workdir / "unstable.json"), "-T", "10",
        "--step", "0.125", "--out", str(out2),
    ])
    assert code == 2
    result2 = read_json(out2 / "report.json")["result"]
    assert result2["counterexample_file"]


def test_scenario_run_matches_direct_invocation(workdir):
    scenario = {
        "command": "check-dop",
        "system": "sys.json",
        "seed": 5,
        "check-dop": {"resolution": 32},
    }
    write_json(workdir / "scn.json", scenario)
    out = workdir / "scn_out"
    code = main(["run", "--scenario", str(workdir / "scn.json"), "--out", str(out)])
    assert code == 0
    report = read_json(out / "report.json")
    assert report["seed"] == 5
    assert report["result"]["resolution"] == 32
    # identical scenario twice: identical bytes
    out2 = workdir / "scn_out2"
    main(["run", "--scenario", str(workdir / "scn.json"), "--out", str(out2)])
    assert (out / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_run_seed_flag_overrides_scenario_seed_including_zero(workdir):
    write_json(workdir / "scn.json", {"command": "check-dop", "system": "sys.json", "seed": 5})
    seeds = {}
    for name, flags in (("kept", []), ("zero", ["--seed", "0"]), ("seven", ["--seed", "7"])):
        out = workdir / name
        assert main(["run", "--scenario", str(workdir / "scn.json"), "--out", str(out), *flags]) == 0
        seeds[name] = read_json(out / "report.json")["seed"]
    assert seeds == {"kept": 5, "zero": 0, "seven": 7}


def test_subcommand_seed_defaults_to_zero(workdir):
    out = workdir / "cd"
    assert main(["check-dop", str(workdir / "sys.json"), "--out", str(out)]) == 0
    assert read_json(out / "report.json")["seed"] == 0


def test_threads_flag_is_gone(workdir, capsys):
    with pytest.raises(SystemExit):
        main(["check-dop", str(workdir / "sys.json"), "--threads", "2"])


def test_scenario_tolerance_overrides(workdir):
    scenario = {
        "command": "check-dop",
        "system": "sys.json",
        "check-dop": {},
        "tolerances": {"margin_tol": 0.001},
    }
    write_json(workdir / "scn.json", scenario)
    out = workdir / "tol_out"
    assert main(["run", "--scenario", str(workdir / "scn.json"), "--out", str(out)]) == 0
    assert read_json(out / "report.json")["result"]["margin_tol"] == 0.001


def test_unknown_command_is_error(workdir, capsys):
    write_json(workdir / "scn.json", {"command": "nonsense"})
    assert main(["run", "--scenario", str(workdir / "scn.json")]) == 1


def test_parse_error_reports_location(workdir, capsys):
    bad = workdir / "broken.json"
    bad.write_text("{ not json }", encoding="utf-8")
    code = main(["check-dop", str(bad), "--out", str(workdir / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_construct_converse_writes_functional(workdir):
    ode = dict(SYSTEM)
    ode["dop"] = {"delays": [1.0], "matrices": [[[0.0]]]}
    write_json(workdir / "ode.json", ode)
    out = workdir / "conv"
    code = main([
        "construct-converse", str(workdir / "ode.json"), "--step", "0.125",
        "--out", str(out),
    ])
    assert code == 0
    spec = read_json(out / "functional.json")
    assert spec["kind"] == "converse"
    assert spec["rate"] > 0
    # emitted functional is loadable by dplus
    code = main([
        "dplus", str(workdir / "ode.json"), str(out / "functional.json"),
        str(workdir / "hist.json"), "--out", str(workdir / "conv_dp"),
        "--tol", "ladder_levels=6",
    ])
    assert code == 0


def test_attraction_command(workdir):
    ode = dict(SYSTEM)
    ode["dop"] = {"delays": [1.0], "matrices": [[[0.0]]]}
    write_json(workdir / "ode.json", ode)
    out = workdir / "att"
    code = main([
        "attraction", str(workdir / "ode.json"), "--bound", "1.0",
        "--eps", str(float(np.exp(-2.0))), "--samples", "8", "-T", "10",
        "--step", "0.125", "--out", str(out),
    ])
    assert code == 0
    result = read_json(out / "report.json")["result"]
    assert result["status"] == "settled"
    assert abs(result["settle_time"] - 2.0) <= 0.2


def test_iss_probe_command(tmp_path):
    system = {
        "n": 1, "m": 1, "delta": 1.0,
        "dop": {"delays": [1.0], "matrices": [[[0.0]]]},
        "rhs": {"terms": [
            {"type": "linear", "delay": 0.0, "matrix": [[-1.0]]},
            {"type": "input", "matrix": [[1.0]]},
        ]},
    }
    write_json(tmp_path / "sys.json", system)
    out = tmp_path / "iss"
    code = main([
        "iss-probe", str(tmp_path / "sys.json"), "-T", "8", "--step", "0.125",
        "--per-shell", "4", "--out", str(out),
    ])
    assert code == 0
    result = read_json(out / "report.json")["result"]
    assert result["is_iss"] is True
    assert result["violations"] == 0
    assert 0.9 <= result["gamma_slope"] <= 1.1


def test_iss_probe_with_zero_signals_only_reports_no_input_gain(tmp_path):
    write_json(tmp_path / "sys.json", {
        "n": 1, "m": 1, "delta": 1.0, "dop": {"delays": [1.0], "matrices": [[[0.0]]]},
        "rhs": {"terms": [{"type": "linear", "matrix": [[-1.0]]}, {"type": "input", "matrix": [[1.0]]}]},
    })
    scenario = {"command": "iss-probe", "system": "sys.json", "iss": {
        "horizon": 2.0, "step": 0.125, "initial": {"per_shell": 2}, "signals": [signal_to_dict(InputSignal.zero(1))]}}
    write_json(tmp_path / "scn.json", scenario)
    code = main(["run", "--scenario", str(tmp_path / "scn.json"), "--out", str(tmp_path / "iss")])
    assert code == 0
    result = read_json(tmp_path / "iss" / "report.json")["result"]
    assert result["input_gain"] is None and result["is_iss"] is True


def test_fit_lk_writes_constants(workdir):
    ode = dict(SYSTEM)
    ode["dop"] = {"delays": [1.0], "matrices": [[[0.0]]]}
    write_json(workdir / "ode.json", ode)
    out = workdir / "fit"
    code = main([
        "fit-lk", str(workdir / "ode.json"), "--functional", str(workdir / "V.json"),
        "--variant", "ges", "--per-shell", "12", "--out", str(out),
        "--tol", "ladder_levels=8",
    ])
    assert code == 0
    constants = read_json(out / "constants.json")
    assert constants["variant"] == "ges"
    assert constants["a3"] == pytest.approx(2.0, abs=0.1)
    # fitted constants feed back into verify-lk
    code = main([
        "verify-lk", str(workdir / "ode.json"), "--functional", str(workdir / "V.json"),
        "--constants", str(out / "constants.json"), "--per-shell", "6",
        "--out", str(workdir / "fit_verify"), "--tol", "ladder_levels=8",
    ])
    assert code in (0, 3)  # pass, or inconclusive band straddles


def test_fit_lk_unstable_exit_code(workdir):
    out = workdir / "fit_bad"
    code = main([
        "fit-lk", str(workdir / "unstable.json"), "--functional", str(workdir / "V.json"),
        "--variant", "ges", "--per-shell", "8", "--out", str(out),
        "--tol", "ladder_levels=8",
    ])
    assert code == 2
    report = read_json(out / "report.json")
    assert report["result"]["failure"]


def test_verify_seminorm_variant_via_scenario(workdir):
    ode = dict(SYSTEM)
    ode["dop"] = {"delays": [1.0], "matrices": [[[0.0]]]}
    write_json(workdir / "ode.json", ode)
    write_json(workdir / "Vn.json", {"kind": "dop-norm", "c": 1.0})
    scenario = {
        "command": "verify-lk",
        "system": "ode.json",
        "seed": 3,
        "verify": {
            "functional": "Vn.json",
            "constants": {
                "variant": "ges-seminorm",
                "a1": 1.0, "a2": 1.0, "a3": 0.9, "a4": 1.0,
                "seminorm": {"kind": "dop-seminorm"},
            },
            "samples": {"per_shell": 6},
            "ladder_levels": 8,
        },
    }
    write_json(workdir / "scn.json", scenario)
    code = main(["run", "--scenario", str(workdir / "scn.json"), "--out", str(workdir / "sn")])
    assert code == 0
    report = read_json(workdir / "sn" / "report.json")
    assert report["result"]["violations"] == 0


def test_missing_file_is_clean_error(workdir, capsys):
    code = main(["check-dop", str(workdir / "absent.json"), "--out", str(workdir / "x2")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_tol_value_that_is_not_a_number_is_clean_error(workdir, capsys):
    code = main([
        "check-dop", str(workdir / "sys.json"), "--tol", "margin_tol=abc",
        "--out", str(workdir / "x3"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "margin_tol" in err


INPUT_SYSTEM = {
    "n": 1, "m": 1, "delta": 1.0,
    "dop": {"delays": [1.0], "matrices": [[[0.2]]]},
    "rhs": {"terms": [
        {"type": "linear", "delay": 0.0, "matrix": [[-1.0]]},
        {"type": "input", "matrix": [[1.0]]},
    ]},
}


@pytest.mark.parametrize("command, block, system, scenario_block, flags", [
    ("verify-lk", "verify", "sys.json",
     {"functional": "V.json", "constants": "consts.json", "samples": {"per_shell": 3},
      "ladder_levels": 5},
     ["--functional", "V.json", "--constants", "consts.json", "--per-shell", "3",
      "--tol", "ladder_levels=5"]),
    ("fit-lk", "fit", "sys.json",
     {"functional": "V.json", "samples": {"per_shell": 3}, "ladder_levels": 5},
     ["--functional", "V.json", "--per-shell", "3", "--tol", "ladder_levels=5"]),
    ("iss-probe", "iss", "input.json",
     {"initial": {"per_shell": 2}, "horizon": 4.0, "step": 0.125},
     ["--per-shell", "2", "-T", "4", "--step", "0.125"]),
])
def test_scenario_seed_reaches_the_nested_samples(
    workdir, monkeypatch, command, block, system, scenario_block, flags
):
    """A scenario without a nested seed samples as `--seed` does on the command line."""
    monkeypatch.chdir(workdir)
    write_json(workdir / "input.json", INPUT_SYSTEM)
    write_json(workdir / "scn.json", {
        "command": command, "system": system, "seed": 5, block: scenario_block,
    })
    main(["run", "--scenario", "scn.json", "--out", "from_file"])
    main([command, system, *flags, "--seed", "5", "--out", "from_argv"])
    outs = [workdir / "from_file", workdir / "from_argv"]
    assert read_json(outs[0] / "report.json")["result"] == read_json(outs[1] / "report.json")["result"]
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name != "report.json":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_iss_signals_may_name_a_file_relative_to_the_scenario(workdir):
    signals = [{"kind": "constant", "params": {"value": [0.5]}},
               {"kind": "sinusoid", "params": {"amplitude": [1.0], "omega": 2.0}}]
    sub = workdir / "scenarios"
    sub.mkdir()
    write_json(sub / "input.json", INPUT_SYSTEM)
    write_json(sub / "sigs.json", signals)
    results = []
    for name, given in (("by_path", "sigs.json"), ("inline", signals)):
        write_json(sub / f"{name}.json", {
            "command": "iss-probe", "system": "input.json", "seed": 1,
            "iss": {"signals": given, "initial": {"per_shell": 2}, "horizon": 4.0, "step": 0.125},
        })
        out = workdir / name
        assert main(["run", "--scenario", str(sub / f"{name}.json"), "--out", str(out)]) == 0
        results.append(read_json(out / "report.json")["result"])
    assert results[0] == results[1]
    assert results[0]["probes"] > 0


def test_empty_shells_is_an_error_not_a_vacuous_pass(workdir, capsys):
    code = main([
        "verify-lk", str(workdir / "sys.json"), "--functional", str(workdir / "V.json"),
        "--constants", str(workdir / "consts.json"), "--shells", "--out", str(workdir / "e"),
    ])
    assert code == 1
    assert "no shells" in capsys.readouterr().err


def test_samples_block_with_no_histories_per_shell_is_an_error(workdir, capsys):
    write_json(workdir / "zero.json", {
        "command": "verify-lk", "system": "sys.json", "seed": 1,
        "verify": {"functional": "V.json", "constants": "consts.json",
                   "samples": {"per_shell": 0, "shells": [0.5]}},
    })
    code = main(["run", "--scenario", str(workdir / "zero.json"), "--out", str(workdir / "z")])
    assert code == 1
    assert "per_shell must be at least 1" in capsys.readouterr().err


def test_fit_lk_exits_inconclusive_when_its_recheck_is(workdir):
    """The fit's own re-check of its constants is judged as verify-lk judges it."""
    write_json(workdir / "fit_inc.json", {
        "command": "fit-lk", "system": "sys.json", "seed": 1,
        "fit": {
            "functional": {"kind": "weighted-composite", "weights": [0.05, 1.0], "parts": [
                {"kind": "sup-norm", "c": 1.0}, {"kind": "point-quadratic", "P": [[1.0]]}]},
            "variant": "ges", "samples": {"per_shell": 5, "seed": 12}, "ladder_levels": 3,
        },
    })
    out = workdir / "fit_inc"
    assert main(["run", "--scenario", str(workdir / "fit_inc.json"), "--out", str(out)]) == 3
    result = read_json(out / "report.json")["result"]
    assert result["passed"] is True
    assert result["inconclusive"] == 1
    assert (out / "constants.json").exists()


@pytest.mark.parametrize("command, block, system", [
    ("estimate-ges", {"ges": {"trajectories": 4, "horizon": 4.0, "step": 0.125, "shells": []}},
     "sys.json"),
    ("iss-probe", {"iss": {"initial": {"per_shell": 2, "shells": []}, "horizon": 4.0,
                           "step": 0.125}}, "input.json"),
])
def test_empty_shells_is_an_error_for_every_sampling_command(
    workdir, capsys, command, block, system
):
    write_json(workdir / "input.json", INPUT_SYSTEM)
    write_json(workdir / "empty.json", {"command": command, "system": system, "seed": 1, **block})
    code = main(["run", "--scenario", str(workdir / "empty.json"), "--out", str(workdir / "e")])
    assert code == 1
    assert "no shells" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, field", [
    ({"command": "check-dop", "system": {**SYSTEM, "rhs": []}}, "rhs"),
    ({"command": "check-dop", "system": {**SYSTEM, "n": "one"}}, "'n'"),
    ({"command": "check-dop", "system": {**SYSTEM, "rhs": {"terms": [5]}}}, "rhs term"),
    ({"command": "simulate", "system": INPUT_SYSTEM, "simulate": {
        "history": HISTORY, "horizon": 1.0, "input": {"kind": "sinusoid", "params": [1.0, 2.0]},
    }}, "params"),
    ({"command": "verify-lk", "system": SYSTEM, "verify": {
        "functional": {"kind": "dop-norm"}, "samples": {"per_shell": 1},
        "constants": {"variant": "ges", "a1": "x", "a2": 1.0, "a3": 0.5},
    }}, "a1"),
], ids=["rhs-list", "n-string", "term-not-object", "signal-params-list", "constant-string"])
def test_malformed_files_are_clean_errors(workdir, capsys, scenario, field):
    write_json(workdir / "bad.json", scenario)
    code = main(["run", "--scenario", str(workdir / "bad.json"), "--out", str(workdir / "bad")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert field in read_json(workdir / "bad" / "report.json")["error"]


@pytest.mark.parametrize("entry", ["1e400", "-1e400", "NaN"])
def test_non_finite_functional_matrix_is_a_clean_error(workdir, capsys, entry):
    """JSON reads 1e400 as inf: the loaded P must be refused, not give V = inf."""
    (workdir / "bad_V.json").write_text(f'{{"kind": "point-quadratic", "P": [[{entry}]]}}')
    code = main(["dplus", str(workdir / "sys.json"), str(workdir / "bad_V.json"), str(workdir / "hist.json"),
                 "--out", str(workdir / "bad")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert "P must be finite" in read_json(workdir / "bad" / "report.json")["error"]


@pytest.mark.parametrize("entry", ["1e400", "NaN"])
def test_non_finite_inline_scenario_entry_writes_an_error_report(workdir, capsys, entry):
    """An inline inf or NaN has no canonical JSON, so the scenario cannot be hashed: that
    is an error with a report, like any other refused input."""
    (workdir / "scn.json").write_text(
        '{"command": "dplus", "system": "sys.json", "dplus": {"history": "hist.json", '
        f'"functional": {{"kind": "point-quadratic", "P": [[{entry}]]}}}}}}'
    )
    code = main(["run", "--scenario", str(workdir / "scn.json"), "--out", str(workdir / "bad")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: non-finite float")
    report = read_json(workdir / "bad" / "report.json")
    assert "non-finite float" in report["error"] and "scenario_hash" not in report


@pytest.mark.parametrize("scenario, error", [
    ({"command": "check-dop", "system": SYSTEM, "check-dop": {"resolution": "abc"}},
     "check-dop: field 'resolution' must be a number"),
    ({"command": "simulate", "system": SYSTEM, "simulate": {"history": HISTORY, "horizon": "ten"}},
     "simulate: field 'horizon' must be a number"),
    ({"command": "simulate", "system": SYSTEM, "simulate": {"horizon": 1.0}},
     "simulate: missing field 'history'"),
    ({"command": "verify-lk", "system": SYSTEM, "verify": {
        "functional": {"kind": "dop-norm"}, "constants": "consts.json", "samples": {"per_shell": "three"},
    }}, "verify.samples: field 'per_shell' must be a number"),
    ({"command": "fit-lk", "system": SYSTEM, "fit": {"functional": {"kind": "dop-norm"}, "samples": 5}},
     "fit.samples: expected an object"),
    ({"command": "estimate-ges", "system": SYSTEM, "ges": {"shells": ["a"]}},
     "ges: field 'shells' must be a list of numbers"),
    ({"command": "simulate", "system": SYSTEM, "simulate": [HISTORY]}, "simulate: expected an object"),
    ({"command": "check-dop"}, "scenario: missing field 'system'"),
    ([1], "scenario: expected an object, got list"),
    ({"command": "check-dop", "system": SYSTEM, "tolerances": [1]}, "scenario.tolerances: expected an object"),
], ids=["resolution-string", "horizon-string", "no-history", "per-shell-string", "samples-number",
        "shells-strings", "block-list", "no-system", "scenario-list", "tolerances-list"])
def test_malformed_block_values_are_clean_errors(workdir, capsys, scenario, error):
    """A block value, a scenario or its tolerances that cannot be read exits 1
    with a report naming the block and the key."""
    write_json(workdir / "bad.json", scenario)
    code = main(["run", "--scenario", str(workdir / "bad.json"), "--out", str(workdir / "bad")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert read_json(workdir / "bad" / "report.json")["error"].startswith(error)


def test_construct_converse_on_a_system_that_is_not_ges_writes_the_escaping_history(workdir):
    out = workdir / "conv-unstable"
    code = main(["construct-converse", str(workdir / "unstable.json"), "--step", "0.125", "--out", str(out)])
    assert code == 2
    result = read_json(out / "report.json")["result"]
    assert result["is_ges"] is False and result["note"] == "fitted decay rate is not positive"
    assert result["counterexample_file"] == "escaping_history.json"
    assert history_from_dict(read_json(out / "escaping_history.json")).delta == 1.0
    assert not (out / "functional.json").exists()


def test_attraction_that_does_not_settle_writes_the_worst_history(workdir):
    """x' = -x from |phi| up to 1 is still above 1e-3 at t = 2."""
    ode = dict(SYSTEM, dop={"delays": [1.0], "matrices": [[[0.0]]]})
    write_json(workdir / "ode.json", ode)
    out = workdir / "att-open"
    code = main(["attraction", str(workdir / "ode.json"), "--bound", "1.0", "--eps", "1e-3",
                 "--samples", "4", "-T", "2", "--step", "0.125", "--out", str(out)])
    assert code == 3
    result = read_json(out / "report.json")["result"]
    assert (result["status"], result["settle_time"], result["delta_hat"]) == ("inconclusive", None, None)
    assert result["worst_history_file"] == "worst_history.json"
    assert history_from_dict(read_json(out / "worst_history.json")).sup_norm() <= 1.0


def test_iss_probe_that_finds_a_violation_writes_the_probe_history(tmp_path):
    """The input term saturates by |u| = 1e-14: an input of 1e-13, below the gain
    fit's floor of 1e-12, moves x by about 1 and violates the fitted bound."""
    write_json(tmp_path / "sys.json", {
        "n": 1, "m": 1, "delta": 1.0, "dop": {"delays": [1.0], "matrices": [[[0.0]]]},
        "rhs": {"terms": [{"type": "linear", "matrix": [[-1.0]]}, {
            "type": "input", "matrix": [[1.0]], "fn": "table",
            "params": {"x": [-1e-14, 0.0, 1e-14], "y": [-1.0, 0.0, 1.0]}}]},
    })
    signals = [InputSignal.zero(1), InputSignal.constant([1e-13]), InputSignal.constant([1.0])]
    write_json(tmp_path / "u.json", [signal_to_dict(sig) for sig in signals])
    out = tmp_path / "iss"
    code = main(["iss-probe", str(tmp_path / "sys.json"), "--signals", str(tmp_path / "u.json"),
                 "-T", "4", "--step", "0.125", "--per-shell", "2", "--out", str(out)])
    assert code == 2
    result = read_json(out / "report.json")["result"]
    assert result["is_iss"] is False and result["violations"] > 0
    assert result["counterexample_file"] == "probe_history.json"
    assert history_from_dict(read_json(out / "probe_history.json")).delta == 1.0


_DPLUS = ["dplus", "bad.json", "hist.json"]
_FIT_SEMINORM = ["fit-lk", "--functional", "V.json", "--variant", "ges-seminorm", "--seminorm", "bad.json", "--per-shell", "2"]


@pytest.mark.parametrize("argv, text, error", [
    (_DPLUS, '{"kind": "converse", "rate": NaN, "horizon": 2.0}', "rate must be positive and finite"),
    (_DPLUS, '{"kind": "converse", "rate": 0.1, "horizon": Infinity}', "horizon must be positive and finite"),
    (_DPLUS, '{"kind": "sup-norm", "c": NaN}', "coefficient must be positive and finite"),
    (_DPLUS, '{"kind": "dop-norm", "c": NaN}', "coefficient must be positive and finite"),
    (_DPLUS, '{"kind": "weighted-composite", "parts": [{"kind": "dop-norm"}], "weights": [NaN]}',
     "weights must be nonnegative and finite"),
    (_FIT_SEMINORM, '{"kind": "l2", "delta": -1.0}', "delta must be positive and finite"),
    (_FIT_SEMINORM, '{"kind": "l2", "delta": 0.0}', "delta must be positive and finite"),
    (_FIT_SEMINORM, '{"kind": "l2", "delta": NaN}', "delta must be positive and finite"),
    (_FIT_SEMINORM, '{"kind": "l2", "delta": Infinity}', "delta must be positive and finite"),
    (_FIT_SEMINORM, '{"kind": "weighted", "parts": [{"kind": "endpoint"}], "weights": [NaN]}',
     "weights must be nonnegative and finite"),
    (["verify-lk", "--functional", "V.json", "--constants", "bad.json", "--per-shell", "2"],
     '{"variant": "ges", "a1": NaN, "a2": 1.0, "a3": 1.0}', "needs a positive a1"),
])
def test_a_bad_parameter_in_a_file_is_refused_when_built(workdir, capsys, argv, text, error):
    """A NaN, infinite or nonpositive parameter of a functional, semi-norm or
    constants file exits 1 with an error naming it, before anything evaluates."""
    (workdir / "bad.json").write_text(text)
    command, *rest = argv
    rest = [str(workdir / a) if a.endswith(".json") else a for a in rest]
    code = main([command, str(workdir / "sys.json"), *rest, "--out", str(workdir / "bad")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert error in read_json(workdir / "bad" / "report.json")["error"]
