"""Command-line tests: exit codes, artifacts, config handling, determinism."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import boundstate_lab
from boundstate_lab.cli import (
    EXIT_INTEGRATOR,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    OUTDIR_ENV,
    _OPTION_FIELDS,
    _sweep_grid,
    build_parser,
    main,
    resolve_config,
)
from boundstate_lab.functionals import _AUX_COLUMNS
from boundstate_lab.io import SCHEMA


def run_cli(*args, cwd):
    """In-process invocation with artifacts kept inside cwd."""
    argv = list(args)
    if "--out" not in argv:
        argv += ["--out", str(cwd / argv[0])]
    return main(argv)


def test_solve_constant_shot_writes_exact_csv(tmp_path):
    out = tmp_path / "one"
    assert main(["solve", "--alpha", "1", "--rmax", "30",
                 "--out", str(out)]) == EXIT_OK
    rows = [line for line in (tmp_path / "one.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == "r,u,up,v,vp"
    assert all(row.split(",")[1] == "1" for row in rows[1:])
    payload = json.loads((tmp_path / "one.portrait.json").read_text())
    assert payload["schema"] == SCHEMA
    assert payload["config"]["alpha"] == 1.0
    assert payload["config"]["rmax"] == 30.0


def test_solve_trapped_shot_portrait(tmp_path):
    out = tmp_path / "low"
    assert main(["solve", "--alpha", "0.5", "--rmax", "40",
                 "--out", str(out)]) == EXIT_OK
    payload = json.loads((tmp_path / "low.portrait.json").read_text())
    assert payload["portrait"]["phase_kind"] == "TailOscillatory"
    assert payload["portrait"]["zeros_u"] == []


def test_solve_unwritable_path_exits_three(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x"
    assert main(["solve", "--alpha", "1", "--out", str(missing)]) == EXIT_IO


def test_missing_output_directory_exits_three_before_the_command_runs(tmp_path, monkeypatch,
                                                                      capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the checks ran")

    monkeypatch.setattr(importlib.import_module("boundstate_lab.verify"), "run_checks", refuse)
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "missing"))
    assert main(["verify", "--preset", "core", "--n", "3", "--p", "3"]) == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o failure: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["classify", "--p", "4.9", "--alpha", "1e100"],
    ["solve", "--p", "4.9", "--alpha", "1e100"],
    ["export", "--p", "4.9", "--alpha", "1e100"],
    ["sweep", "--p", "4.9", "--alpha", "1e100"],
    ["classify", "--p", "3", "--alpha", "1e200"],
    ["classify", "--p", "3", "--alpha", "1e80"],
    ["classify", "--p", "3", "--alpha", "1e100"],
], ids=["classify", "solve", "export", "sweep", "classify_p3", "classify_p3_radius",
        "classify_p3_r0"])
def test_an_overflowing_series_start_exits_two_and_writes_nothing(tmp_path, capsys, args):
    # any alpha > 0 is in the domain, but f(alpha) can overflow a double there,
    # or, lower, the r0**4 coefficient that places the default series start:
    # the series start raises, naming the height, and the command ends as an
    # integration failure
    assert main([*args, "--n", "3", "--out", str(tmp_path / "x")]) == EXIT_INTEGRATOR
    err = capsys.readouterr().err
    assert err.startswith("integration failure: ") and err.count("\n") == 1
    assert "alpha=" in err
    assert list(tmp_path.iterdir()) == []


def test_ladder_brackets_increase_and_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "lad"
    args = ["ladder", "--k", "0..2", "--tol", "1e-8", "--out", str(out)]
    assert main(args) == EXIT_OK
    first = (tmp_path / "lad.json").read_bytes()
    assert main(args) == EXIT_OK
    assert (tmp_path / "lad.json").read_bytes() == first
    entries = json.loads(first)["entries"]
    assert [e["status"] for e in entries] == ["ok", "ok", "ok"]
    assert entries[0]["alpha_hi"] < entries[1]["alpha_lo"]
    assert entries[1]["alpha_hi"] < entries[2]["alpha_lo"]


def test_supercritical_exponent_exits_one(tmp_path):
    assert run_cli("ladder", "--n", "3", "--p", "6", "--k", "0",
                   cwd=tmp_path) == EXIT_USAGE


@pytest.mark.parametrize("args", [
    ["solve", "--alpha", "5"],
    ["classify", "--alpha", "5"],
    ["ladder", "--k", "0"],
    ["sweep", "--alpha-range", "1..5", "--points", "3"],
    ["verify"],
    ["export", "--alpha", "5"],
], ids=lambda args: args[0])
def test_a_point_without_an_upper_amplitude_exits_one_before_any_shot(tmp_path, monkeypatch,
                                                                      capsys, args):
    # at n = 7 the largest double below 9/5 passes the range check, but
    # (n+2) - p*(n-2) rounds to 0.0 there: every command refuses the point
    # as a usage error before its first series start, and writes nothing
    def refuse(*args, **kwargs):
        raise AssertionError("a shot started")

    for module in ("integrate", "_dopri"):
        monkeypatch.setattr(importlib.import_module(f"boundstate_lab.{module}"),
                            "series_start", refuse)
    argv = [*args, "--n", "7", "--p", "1.7999999999999998", "--out", str(tmp_path / "x")]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "usage error: (n+2) - p*(n-2) = 0.0 must be positive\n")
    assert list(tmp_path.iterdir()) == []


def test_sweep_low_range_counts_are_zero(tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--alpha-range", "0.1..1.4", "--points", "5",
                 "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line
            in (tmp_path / "sw.csv").read_text().splitlines()
            if line and not line.startswith("#")][1:]
    assert len(rows) == 5
    assert all(row[1] == "0" for row in rows)
    assert all(row[2] == "Oscillatory" for row in rows)


def test_sweep_single_point_gives_one_row(tmp_path):
    out = tmp_path / "one_pt"
    assert main(["sweep", "--alpha", "7", "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    rows = json.loads((tmp_path / "one_pt.json").read_text())["rows"]
    assert len(rows) == 1
    assert rows[0]["node_count"] == 1
    assert rows[0]["z_1"] == pytest.approx(1.1058387, abs=1e-5)


def _count_integrations(monkeypatch):
    """Record (alpha, r_max, policy) of every integrate call sweep makes."""
    calls = []
    for name in ("boundstate_lab.classify", "boundstate_lab.cli"):
        module = importlib.import_module(name)
        original = module.integrate

        def counted(params, policy, original=original):
            calls.append((params.alpha, params.controls.r_max, policy))
            return original(params, policy)

        monkeypatch.setattr(module, "integrate", counted)
    return calls


def test_sweep_integrates_each_grid_point_once(tmp_path, monkeypatch):
    calls = _count_integrations(monkeypatch)
    out = tmp_path / "sw"
    assert main(["sweep", "--alpha-range", "2..31", "--points", "7", "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    rows = json.loads((tmp_path / "sw.json").read_text())["rows"]
    assert [row["node_count"] for row in rows] == [0, 1, 1, 2, 2, 2, 3]
    assert all((row["z_1"] is None) == (row["node_count"] == 0) for row in rows)
    assert sorted(alpha for alpha, _, _ in calls) == [row["alpha"] for row in rows]


def test_sweep_after_a_retry_reads_z1_within_r_max(tmp_path, monkeypatch):
    # Classify retries this shot at r_max = 16 and finds its zero past 8.
    # The row keeps the full-range shot's z_1: none before r_max = 8.
    calls = _count_integrations(monkeypatch)
    alpha = repr(4.337387679942187 * (1.0 + 1e-9))
    out = tmp_path / "retry"
    assert main(["sweep", "--alpha", alpha, "--rmax", "8", "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    rows = json.loads((tmp_path / "retry.json").read_text())["rows"]
    assert rows[0]["node_count"] == 1
    assert rows[0]["z_1"] is None
    assert [r_max for _, r_max, _ in calls] == [8.0, 16.0, 8.0]


@pytest.mark.parametrize("lo, hi, points", [
    (0.5, 16.0, 1), (0.5, 16.0, 2), (0.5, 16.0, 16), (0.1, 20.0, 200),
    (0.49816, 15.91, 16), (1.0, 40.0, 200), (2.0, 2.0000000001, 3), (1e-3, 1e4, 57),
])
def test_sweep_grid_is_numpy_linspace_bitwise(lo, hi, points):
    cfg = resolve_config(build_parser().parse_args(
        ["sweep", "--alpha-range", f"{lo!r}..{hi!r}", "--points", str(points)]))
    grid = _sweep_grid(cfg)
    assert [a.hex() for a in grid] == [float(a).hex() for a in np.linspace(lo, hi, points)]


def test_verify_residual_preset_passes(tmp_path, capsys):
    out = tmp_path / "vr"
    code = main(["verify", "--preset", "residual", "--n", "3", "--p", "1.5",
                 "--out", str(out)])
    assert code == EXIT_OK
    table = capsys.readouterr().out
    assert "bridge_integral" in table
    assert "overall: PASS" in table
    payload = json.loads((tmp_path / "vr.json").read_text())
    assert payload["passed"] is True


def test_verify_full_preset_fails_but_writes_the_report(tmp_path, capsys):
    out = tmp_path / "vf"
    code = main(["verify", "--preset", "full", "--checks", "tail_asymptotics",
                 "--out", str(out)])
    assert code == EXIT_VERIFY
    payload = json.loads((tmp_path / "vf.json").read_text())
    assert payload["passed"] is False
    assert "overall: FAIL" in capsys.readouterr().out


def test_verify_empty_checks_is_a_usage_error(tmp_path):
    assert run_cli("verify", "--checks", "", cwd=tmp_path) == EXIT_USAGE


def test_export_functional_columns(tmp_path):
    out = tmp_path / "ex"
    assert main(["export", "--alpha", "2", "--rmax", "8",
                 "--functionals", "E,Q,M", "--out", str(out)]) == EXIT_OK
    lines = (tmp_path / "ex.csv").read_text().splitlines()
    header = next(line for line in lines if not line.startswith("#"))
    assert header == "r,u,up,v,vp,E,Q,M"


def _table(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def test_plain_export_writes_the_rows_of_solve(tmp_path):
    # without --functionals, export writes solve's knot table: the header and
    # one row per knot of the full-range shot at (3,3), alpha = 5
    assert run_cli("solve", "--alpha", "5", cwd=tmp_path) == EXIT_OK
    assert run_cli("export", "--alpha", "5", cwd=tmp_path) == EXIT_OK
    rows = _table(tmp_path / "export.csv")
    assert rows == _table(tmp_path / "solve.csv")
    assert (len(rows), rows[0]) == (525, "r,u,up,v,vp")


@pytest.mark.parametrize("command", ["solve", "export"])
def test_a_shot_that_exhausts_its_step_budget_writes_nothing(tmp_path, monkeypatch, capsys,
                                                             command):
    # boundstate_lab.integrate is the function the package binds, so the module
    # is reached through importlib
    monkeypatch.setattr(importlib.import_module("boundstate_lab.integrate"), "_MAX_STEPS", 50)
    assert run_cli(command, "--alpha", "5", cwd=tmp_path) == EXIT_INTEGRATOR
    assert capsys.readouterr().err.startswith("integration gave up: StepLimit ")
    assert list(tmp_path.iterdir()) == []


def test_export_unknown_functional_exits_one(tmp_path):
    assert run_cli("export", "--alpha", "2", "--functionals", "E,nope",
                   cwd=tmp_path) == EXIT_USAGE


def test_export_state_column_is_not_a_functional(tmp_path, capsys):
    # u is a column of every export, not one of the 17 functionals
    assert run_cli("export", "--alpha", "2", "--functionals", "u",
                   cwd=tmp_path) == EXIT_USAGE
    named = capsys.readouterr().err.rstrip("\n").partition("choose from ")[2].split(", ")
    assert named == ["E", "E_hat", "P", "P1", "P2", "omega", "rho", "Q", "Q1", "Q2",
                     "Qn", "M", "T1", "T2", "B0", "phi_n", "varpi"]


def test_tolerances_outside_bounds_exit_one(tmp_path):
    assert run_cli("ladder", "--k", "0", "--tol", "1", cwd=tmp_path) == EXIT_USAGE
    assert run_cli("solve", "--alpha", "2", "--abs-tol", "1e-20",
                   cwd=tmp_path) == EXIT_USAGE


def test_empty_ranges_exit_one(tmp_path):
    assert run_cli("sweep", "--alpha-range", "5..2", cwd=tmp_path) == EXIT_USAGE
    assert run_cli("ladder", "--k", "3..1", cwd=tmp_path) == EXIT_USAGE


def test_config_file_fills_in_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=3\np=3.0\nalpha=0.5\nrmax=20\n")
    out = tmp_path / "from_cfg"
    assert main(["solve", "--config", str(cfg), "--alpha", "2",
                 "--out", str(out)]) == EXIT_OK
    payload = json.loads((tmp_path / "from_cfg.portrait.json").read_text())
    assert payload["config"]["alpha"] == 2.0  # flag wins
    assert payload["config"]["rmax"] == 20.0  # file fills the rest


def test_config_file_unknown_key_exits_one(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nn=3\n")
    assert run_cli("solve", "--alpha", "2", "--config", str(cfg),
                   cwd=tmp_path) == EXIT_USAGE


@pytest.mark.parametrize("source", ["flag", "config"])
def test_unknown_format_exits_one_and_writes_nothing(tmp_path, source):
    args = ["classify", "--alpha", "5", "--out", str(tmp_path / "c")]
    if source == "flag":
        args += ["--format", "xml"]
    else:
        (tmp_path / "run.cfg").write_text("format=xml\n")
        args += ["--config", str(tmp_path / "run.cfg")]
    assert main(args) == EXIT_USAGE
    assert sorted(p.name for p in tmp_path.iterdir()) == (["run.cfg"] if source == "config" else [])


@pytest.mark.parametrize("stem", ["", "sub/"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_output_stem_exits_one_and_writes_nothing(tmp_path, monkeypatch, source, stem):
    # an empty stem (or one that names only a directory) would write a hidden ".json"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    args = ["classify", "--alpha", "5"]
    if source == "flag":
        args += ["--out", stem]
    else:
        (tmp_path / "run.cfg").write_text(f"out={stem}\n")
        args += ["--config", "run.cfg"]
    assert main(args) == EXIT_USAGE
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["run.cfg", "sub"] if source == "config" else ["sub"])
    assert not any((tmp_path / "sub").iterdir())


# one value per option key, in the text a flag or a config file carries
OPTION_TEXTS = {
    "n": "4", "p": "2.5", "alpha": "3", "alpha_range": "1..2", "k": "0..2", "points": "9",
    "tol": "1e-9", "rmax": "50", "abs_tol": "1e-11", "rel_tol": "1e-9", "out": "x",
    "format": "csv", "preset": "full", "checks": "energy_monotone", "functionals": "E,Q",
}


@pytest.mark.parametrize("key", [option.name for option in _OPTION_FIELDS])
def test_flag_and_config_file_resolve_alike(tmp_path, key):
    text = OPTION_TEXTS[key]
    (tmp_path / "run.cfg").write_text(f"{key}={text}\n")
    parser = build_parser()
    by_flag = resolve_config(parser.parse_args(["verify", "--" + key.replace("_", "-"), text]))
    by_file = resolve_config(parser.parse_args(["verify", "--config", str(tmp_path / "run.cfg")]))
    default = resolve_config(parser.parse_args(["verify"]))
    assert by_flag == by_file
    assert getattr(by_flag, key) != getattr(default, key)


def test_outdir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("BOUNDSTATE_LAB_OUTDIR", str(tmp_path))
    monkeypatch.setattr("sys.argv", ["boundstate-lab"])
    assert main(["classify", "--alpha", "2"]) == EXIT_OK
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert payload["result"]["tag"] == "Oscillatory"


def test_missing_command_exits_one():
    assert main([]) == EXIT_USAGE


def test_unknown_command_exits_one_and_help_exits_zero(capsys):
    assert main(["frobnicate", "--n", "3"]) == EXIT_USAGE
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
    assert main(["--help"]) == EXIT_OK
    assert main(["ladder", "--help"]) == EXIT_OK
    assert "--functionals" in capsys.readouterr().out


def test_the_parser_is_built_once_and_no_call_leaves_a_flag_behind(tmp_path, capsys):
    assert build_parser() is build_parser()
    assert run_cli("ladder", "--k", "0..1", "--tol", "1e-8", cwd=tmp_path) == EXIT_OK
    capsys.readouterr()
    assert run_cli("ladder", "--tol", "1e-8", cwd=tmp_path) == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: ladder needs --k (a count or LO..HI)\n"
    assert resolve_config(build_parser().parse_args(["ladder"])).k is None


def test_a_command_other_than_verify_loads_neither_verify_nor_functionals(tmp_path):
    # a fresh process: importing the CLI and running a shot leaves verify, and
    # with it functionals and quadrature, unloaded
    package_root = str(Path(boundstate_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    lazy = [f"boundstate_lab.{name}" for name in ("verify", "functionals", "quadrature")]
    script = ("import sys, boundstate_lab.cli as cli; loaded = [set(sys.modules)]; "
              f"cli.main(['solve', '--alpha', '5', '--out', {str(tmp_path / 's')!r}]); "
              f"loaded.append(set(sys.modules)); print([sorted(set({lazy!r}) & m) for m in loaded])")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.strip() == "[[], []]"


def test_console_script_entry_point(tmp_path):
    # one end-to-end run through the installed script; the child imports the
    # package this test imported, installed or not
    package_root = str(Path(boundstate_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "boundstate_lab.cli", "classify", "--alpha", "5",
         "--out", str(tmp_path / "c")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == EXIT_OK
    payload = json.loads((tmp_path / "c.json").read_text())
    assert payload["result"]["node_count"] == 1
    assert "trajectory" not in payload["result"]  # repr=False: the shot stays out


# A digest case keeps the id it was first collected under: the id shows the
# digest first recorded for the case, not a re-recorded one, so moving the
# bytes on purpose (the DOP853 march moved these, and the complex-step identity
# ledger and then the identity check's formula half the four verify reports)
# does not rename the case.
FIRST_DIGESTS = {
    "903ffc9cbb9fe5d4c399aba6c29871f6b3b9f2bc24f156708f4b91030b1a9cab":
        "4ca77038bc4ec8c0716e461af1e527ca22e44cf98338e0296ad299d9d8efb8bc",
    "80892ed5d69b8927b6674dcc0a6ea0e51a3a8647644374e21966aabbcddab0e1":
        "c2029162c6c9591be7adbe45ac8978304b04acc7604989e3e246ab25eaf79182",
    "43c6046d566075c4f41c63f96ae90ac8470180491f4ec916c9f019218119cb6a":
        "5f1e34174545a7863ecae90e9ffd1c2be1b0939e98b22ffa5f216fdcf522f647",
    "ff789ce6cc1f299171098ca4de625398596af097a14c3f34c89a5406c445faad":
        "8c28d787dc953e90f55769345ec72971af6527302ead56b364c5146711542b40",
    "5059191897fd37c783f057f2ed0a4bd1668ff186abee440a856bb6a795ef82e8":
        "79f305aa63ec7c82b915801cb28012405989b4a77590a3b7471df6612ce94823",
    "3a408f667eb03814d70303e969a171a8c42d795048a8ff10b4c66d524b5394be":
        "1d8cd020dfebf5ec12f693ec579cf94aef61457459005d31fcba9cc2e7dd779a",
    "6f1b626a1953b0d6888639105167ff26cd6d01dd0254a8ba0f7961398e036b57":
        "e9a53f67abe902bcb5f56cad65dee072ee00ff82dbc612a37f7a5626b0aba062",
    "12cecd57e71f0cfa4b2396fc6a3849834bccffc5eda29b34681be68c1f9a3b4e":
        "3f1cbf33d73de5fbdaa657ee770680f892336d8a9add95c85b4963bd665b720b",
    "3e61f4753191898f384dc09699c3b5e7719c79750738bd1b5d1f701e835a95f1":
        "aff53f7ade4f04504cea206dbffb00034130032ac671dd222aaf0668aa6f68f6",
    "495e6203d3ecb6acbc11fec9d3b82ed3b3880dccfa2ee700a2c4aa880ef455da":
        "2fa5e9883ffae22fb4a9307ab3c822b3334867296762ac95bbc0b49075a5f77d",
    "615800b07bc773b25651a62193da8f222e73fc7cbf0f72f5d1761c2f7f6595c8":
        "5b4974cb186945590ac8231689a04953847750a5262d539f89c83f89b65205bc",
    "ad1aa9a44dd082330ceb33fedfc7ee0cfa5cd7db1c5c6bd0b8fd6973c990a882":
        "7957e45dd21c868ac9b809a4ea11fb88629cccd45ac582469b588c0d5d5abc14",
    "4d3dc68245e85fd73e9885302c24b9c2b6a72cab4c521444560557477c1b3c12":
        "1a04e2408c2efcc967bdba040aedf5ce728196e14df2c9b49e3600ecd06db201",
    "8bd68bbc291b6176b9d1d1894c6520707e4dcc13587b2860a16af2c077b365a8":
        "b702c3e700dbd4760fe958ba69d736a6018cf8f2fc8f314766bf36c9e74e9d30",
    "eab05420509e5e6e4416a76a0d87bbace5b757b19d97023eb65c23714dc37ca9":
        "7b26cd06d3ca55c8a17daa043470e8e0b4b4a6efbee10537e6c0b690abdd4d77",
    "6aebdf14ffc03e621e3f789e595df2520dff2cbed4349b0e751f32d4b21b5031":
        "cbda8b37d42f4ee2087d03dddc3c6872869d2e94610c09f2c6fb78039a49de59",
    "b0ac9189ca7a7f98d2d8ebcf76baad3c9998fac69e46bcbb77f810e8cacccdc8":
        "23cdfe29a51e715dce72836e11afb4d77a06a3c016b3d62bc81fd779d1d62a64",
}


def first_recorded(value):
    """pytest id of one parameter: a re-recorded digest shows its first one."""
    return FIRST_DIGESTS.get(value) if isinstance(value, str) else None


# Artifact digests recorded from the DOP853 march, the per-cell CSV writer and
# the grid-based event scan; a faster writer or scan must reproduce every byte.
GOLDEN_ARTIFACTS = [
    (3, "3", "3", "solve", "s33a3.csv",
     "903ffc9cbb9fe5d4c399aba6c29871f6b3b9f2bc24f156708f4b91030b1a9cab"),
    (3, "3", "3", "solve", "s33a3.portrait.json",
     "80892ed5d69b8927b6674dcc0a6ea0e51a3a8647644374e21966aabbcddab0e1"),
    (3, "3", "3", "export", "s33a3.csv",
     "43c6046d566075c4f41c63f96ae90ac8470180491f4ec916c9f019218119cb6a"),
    (3, "3", "6", "solve", "s33a6.csv",
     "ff789ce6cc1f299171098ca4de625398596af097a14c3f34c89a5406c445faad"),
    (3, "3", "6", "solve", "s33a6.portrait.json",
     "5059191897fd37c783f057f2ed0a4bd1668ff186abee440a856bb6a795ef82e8"),
    (3, "3", "6", "export", "s33a6.csv",
     "3a408f667eb03814d70303e969a171a8c42d795048a8ff10b4c66d524b5394be"),
    (3, "1.5", "2.5", "solve", "s315a2.5.csv",
     "6f1b626a1953b0d6888639105167ff26cd6d01dd0254a8ba0f7961398e036b57"),
    (3, "1.5", "2.5", "solve", "s315a2.5.portrait.json",
     "12cecd57e71f0cfa4b2396fc6a3849834bccffc5eda29b34681be68c1f9a3b4e"),
    (3, "1.5", "2.5", "export", "s315a2.5.csv",
     "3e61f4753191898f384dc09699c3b5e7719c79750738bd1b5d1f701e835a95f1"),
]


@pytest.mark.parametrize("n, p, alpha, command, name, digest", GOLDEN_ARTIFACTS,
                         ids=first_recorded)
def test_artifact_bytes_match_the_recorded_digests(tmp_path, monkeypatch,
                                                   n, p, alpha, command, name, digest):
    # a relative --out and no output directory keep the echoed out line fixed
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    stem = name.removesuffix(".portrait.json").removesuffix(".csv")
    args = [command, "--n", str(n), "--p", p, "--alpha", alpha, "--out", stem]
    if command == "export":
        args += ["--functionals", ",".join(_AUX_COLUMNS)]
    assert main(args) == EXIT_OK
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# The classify, ladder and sweep tables in both formats, first recorded before
# the option table replaced the per-key converters, flags and defaults of
# cli.py; the classify and sweep ones again for the DOP853 march.
GOLDEN_TABLES = [
    (["classify", "--alpha", "5"], "c33a5.json",
     "495e6203d3ecb6acbc11fec9d3b82ed3b3880dccfa2ee700a2c4aa880ef455da"),
    (["classify", "--alpha", "5"], "c33a5.csv",
     "615800b07bc773b25651a62193da8f222e73fc7cbf0f72f5d1761c2f7f6595c8"),
    (["ladder", "--k", "0..1", "--tol", "1e-8"], "l33k01.json",
     "86017b26c109ac2c7d87ba5ed2baeb1a74fe27707403d9ba339cbf1123d145d2"),
    (["ladder", "--k", "0..1", "--tol", "1e-8"], "l33k01.csv",
     "d040292864fa7059538e1f004ba938702b30314facaeefddfe829634237df70a"),
    (["sweep", "--alpha-range", "2..31", "--points", "7"], "w33a2_31.json",
     "ad1aa9a44dd082330ceb33fedfc7ee0cfa5cd7db1c5c6bd0b8fd6973c990a882"),
    (["sweep", "--alpha-range", "2..31", "--points", "7"], "w33a2_31.csv",
     "4d3dc68245e85fd73e9885302c24b9c2b6a72cab4c521444560557477c1b3c12"),
]


@pytest.mark.parametrize("args, name, digest", GOLDEN_TABLES,
                         ids=first_recorded)
def test_table_bytes_match_the_recorded_digests(tmp_path, monkeypatch, args, name, digest):
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    stem, _, fmt = name.rpartition(".")
    assert main(args + ["--n", "3", "--p", "3", "--format", fmt, "--out", stem]) == EXIT_OK
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


GOLDEN_VERIFY = [
    (3, "3", "v33.json",
     "8bd68bbc291b6176b9d1d1894c6520707e4dcc13587b2860a16af2c077b365a8"),
    (3, "1.25", "v3125.json",
     "eab05420509e5e6e4416a76a0d87bbace5b757b19d97023eb65c23714dc37ca9"),
]


@pytest.mark.parametrize("n, p, name, digest", GOLDEN_VERIFY,
                         ids=first_recorded)
def test_verify_report_bytes_match_the_recorded_digests(tmp_path, monkeypatch,
                                                        n, p, name, digest):
    # the core preset's JSON report, margins to 17 digits, pinned byte for byte
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    stem = name.removesuffix(".json")
    assert main(["verify", "--preset", "core", "--n", str(n), "--p", p,
                 "--out", stem]) == EXIT_OK
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# The other two presets: full is the only one that runs tail_asymptotics (red
# by design, so the run exits 4), residual the only one with a lone bracket case.
GOLDEN_VERIFY_PRESETS = [
    ("full", 3, "3", EXIT_VERIFY, "v33full.json",
     "6aebdf14ffc03e621e3f789e595df2520dff2cbed4349b0e751f32d4b21b5031"),
    ("residual", 3, "1.25", EXIT_OK, "v3125res.json",
     "b0ac9189ca7a7f98d2d8ebcf76baad3c9998fac69e46bcbb77f810e8cacccdc8"),
]


@pytest.mark.parametrize("preset, n, p, code, name, digest", GOLDEN_VERIFY_PRESETS,
                         ids=first_recorded)
def test_verify_preset_bytes_match_the_recorded_digests(tmp_path, monkeypatch,
                                                        preset, n, p, code, name, digest):
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    stem = name.removesuffix(".json")
    assert main(["verify", "--preset", preset, "--n", str(n), "--p", p,
                 "--out", stem]) == code
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
