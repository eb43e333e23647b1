"""End-to-end tests of the command-line interface and report files."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from nkflag import cli, constants, surfaces
from nkflag.report import (
    SCHEMA_VERSION,
    CheckReport,
    format_table,
    load_report_file,
    report_from_dict,
    report_to_dict,
    write_report_file,
)


class TestVerifyCommand:
    def test_default_riemannian_passes(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--signature", "riemannian", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "0 failed" in printed
        meta, reports = load_report_file(out)
        assert meta["schema_version"] == SCHEMA_VERSION
        assert meta["signature"] == "riemannian"
        assert len(reports) > 40
        assert all(r.passed for r in reports)

    def test_both_signatures_report_count(self, capsys):
        code = cli.main(["verify", "--signature", "both"])
        assert code == 0
        printed = capsys.readouterr().out
        # every check of both signatures; --self-test would add one per signature
        assert "87 checks, 0 failed" in printed

    def test_self_test_detects_corruption(self, capsys):
        code = cli.main(["verify", "--signature", "pseudo", "--self-test"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "self_test_corruption_detected[pseudo]" in printed

    def test_absurd_tolerance_fails(self, capsys):
        code = cli.main(["verify", "--signature", "riemannian", "--tol-exact", "1e-30"])
        assert code == 1
        # tiny but valid: the benchmark's negative control relies on exit 1 here;
        # only the six expm contracts round, so only they fail
        assert cli.main(["verify", "--signature", "both", "--tol-exact", "1e-300"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "87 checks, 6 failed"

    def test_tol_exact_reaches_every_exact_row(self, capsys, tmp_path):
        # only the six expm contracts round; every other row reads an integral
        # table and keeps its zero tolerance
        argv = ["verify", "--signature", "both", "--self-test", "--out"]
        cli.main([*argv, str(tmp_path / "default.json")])
        cli.main([*argv, str(tmp_path / "tight.json"), "--tol-exact", "1e-13"])
        default = load_report_file(tmp_path / "default.json")[1]
        tight = load_report_file(tmp_path / "tight.json")[1]
        moved = {r.name for r in default if r.tolerance == 1e-12}
        assert len(moved) == 6 and all(n.startswith("expm_") for n in moved)
        assert [r.name for r in tight] == [r.name for r in default]
        assert {r.name for r in tight if r.tolerance == 1e-13} == moved
        assert all(t.tolerance == d.tolerance for d, t in zip(default, tight) if d.name not in moved)


class TestClassifyCommand:
    def test_riemannian_table(self, capsys):
        code = cli.main(["classify", "--signature", "riemannian"])
        assert code == 0
        printed = capsys.readouterr().out
        rows = [line for line in printed.splitlines() if "plane" in line]
        assert len(rows) == 3
        assert "4.0" in rows[0] and "1.0" in rows[1] and "0.0" in rows[2]

    def test_pseudo_table(self, capsys):
        code = cli.main(["classify", "--signature", "pseudo"])
        assert code == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if "plane" in line]
        assert len(rows) == 3

    def test_both_concatenates(self, capsys):
        code = cli.main(["classify", "--signature", "both", "--no-oracle"])
        assert code == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if "plane" in line]
        assert len(rows) == 6

    @pytest.mark.parametrize("argv, checks", [([], 8), (["--no-oracle"], 2)])
    def test_check_table_follows_the_families(self, capsys, argv, checks):
        assert cli.main(["classify", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"{checks} checks, 0 failed"
        rows = lines[-checks - 2:-2]
        assert all(not row.startswith(" ") and " pass " in row for row in rows)
        if argv:
            assert all(row.startswith("case_analysis_tangency[") for row in rows)


class TestSurfaceCommand:
    def test_summary_and_csv(self, capsys, tmp_path):
        out = tmp_path / "surface2.csv"
        code = cli.main(["surface", "--id", "2", "--grid", "15", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "K mean / expected" in printed
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("id,t,u,E,F,G,K")
        assert len(lines) == 1 + 15 * 15

    def test_flat_torus_mean_curvature_prints_unsigned_zero(self, capsys):
        assert cli.main(["surface", "--id", "3"]) == 0
        assert "  K mean / expected    0.000000 / 0.0\n" in capsys.readouterr().out

    @pytest.mark.parametrize("k_mean, printed", [
        (-4e-7, "0.000000"), (-0.0, "0.000000"), (4e-7, "0.000000"),
        (-6e-7, "-0.000001"), (3.9999996, "4.000000")])
    def test_mean_curvature_is_rounded_before_its_sign(self, k_mean, printed, capsys,
                                                       monkeypatch):
        real = cli.surface_summary
        monkeypatch.setattr(cli, "surface_summary",
                            lambda *args, **kw: {**real(*args, **kw), "K_mean": k_mean})
        cli.main(["surface", "--id", "3", "--grid", "9"])
        assert f"  K mean / expected    {printed} / 0.0\n" in capsys.readouterr().out

    def test_json_format(self, capsys, tmp_path):
        out = tmp_path / "surface5.json"
        code = cli.main(["surface", "--id", "5", "--grid", "11",
                         "--out", str(out), "--format", "json"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["surface"] == 5 and payload["grid"] == 11
        assert len(payload["rows"]) == 121
        # negative-definite metric throughout
        assert all(row["G"] <= 0 for row in payload["rows"])

    def test_bad_id_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["surface", "--id", "7"])
        assert exc.value.code == 2
        assert "--id" in capsys.readouterr().err

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--signature", "pseudo"],
        ["surface", "--id", "3", "--grid", "11"],
        ["surface", "--id", "3", "--grid", "11", "--format", "json"],
    ], ids=["verify", "surface-csv", "surface-json"])
    def test_unwritable_out_exits_1(self, argv, capsys, tmp_path):
        # every check passes; only the shared tail's write fails
        assert cli.main([*argv, "--out", str(tmp_path / "missing" / "out")]) == 1
        captured = capsys.readouterr()
        assert "0 failed" in captured.out and "error: cannot write" in captured.err

    @pytest.mark.parametrize("name, fault", [
        ("holomorphic_K", lambda x, eps: math.nan),
        ("expm", lambda a: np.full(np.shape(a), np.nan)),
    ], ids=["holomorphic_K", "expm"])
    def test_nan_fails_the_verdict(self, name, fault, capsys, monkeypatch):
        # a NaN in the totally geodesic residual or the exponential
        # cross-check must not read as a pass
        monkeypatch.setattr(surfaces, name, fault)
        assert cli.main(["surface", "--id", "1", "--grid", "11"]) == 1
        nan_rows = [line.split() for line in capsys.readouterr().out.splitlines()
                    if " nan " in line]
        assert nan_rows and all(row[1] == "fail" for row in nan_rows)

    def test_largest_grid_is_accepted(self):
        args = cli._parse_args(["surface", "--id", "2", "--grid", "201"])
        assert args.grid == 201


class TestBadInput:
    """Bad flag values exit 2; the command line is the only configuration."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--seed", "abc"],
        ["verify", "--seed", "-1"],
        ["verify", "--tol-exact", "nan"],
        ["verify", "--tol-exact", "inf"],
        ["verify", "--tol-exact", "0"],
        ["verify", "--tol-exact", "-1e-12"],
        ["verify", "--tol-exact", "1.0000000000000002e-12"],
        ["verify", "--tol-exact", "1"],
        ["surface", "--id", "2", "--tol-fd", "nan"],
        ["surface", "--id", "2", "--tol-fd", "0.00010000000000000002"],
        ["surface", "--id", "2", "--tol-fd", "1"],
        ["surface", "--id", "2", "--grid", "x"],
        ["surface", "--id", "2", "--grid", "8"],
        ["surface", "--id", "2", "--grid", "202"],
    ])
    def test_bad_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    def test_tolerance_flags_may_equal_their_defaults(self):
        parse = cli._parse_args
        assert parse(["verify", "--tol-exact", "1e-12"]).tol_exact == constants.TOL_EXACT
        assert parse(["surface", "--id", "2", "--tol-fd", "1e-4"]).tol_fd == constants.TOL_CURVATURE

    @pytest.mark.parametrize("argv, word", [
        (["verify", "--bogus"], "--bogus"),
        (["verify", "--s", "pseudo"], "--s"),
        (["verify", "--seed"], "--seed"),
        (["verify", "--out", "--self-test"], "--out"),
        (["verify", "--self-test=1"], "--self-test"),
        (["surface"], "--id"),
        (["surface", "--grid", "11"], "--id"),
        (["polish"], "polish"),
        ([], "command"),
        (["verify", "extra"], "extra"),
        (["classify", "--no-oracle", "extra", "--signature", "pseudo"], "extra"),
        (["verify", "--out", ""], "--out"),
        (["verify", "--out="], "--out"),
        (["surface", "--id", "1", "--out", ""], "--out"),
        (["surface", "--id", "1", "--out="], "--out"),
    ], ids=["unknown", "ambiguous", "no-value", "flag-as-value", "switch-value", "no-id",
            "no-id-grid", "unknown-command", "no-command", "stray", "stray-mid",
            "empty-out", "empty-out-equals", "surface-empty-out", "surface-empty-out-equals"])
    def test_malformed_argv_is_usage_error(self, argv, word, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        usage, error = capsys.readouterr().err.splitlines()
        prog = "nkflag" if argv[:1] in ([], ["polish"]) else f"nkflag {argv[0]}"
        assert usage.startswith(f"usage: {prog} [-h]")
        assert error.startswith(f"{prog}: error: ") and word in error

    @pytest.mark.parametrize("argv, name, want", [
        (["verify", "--seed=7"], "seed", 7),
        (["verify", "--tol-exact=1e-13"], "tol_exact", 1e-13),
        (["verify", "--sig", "pseudo"], "signature", "pseudo"),
        (["verify", "--self"], "self_test", True),
        (["surface", "--id=4", "--form", "json"], "format", "json"),
        (["surface", "--id", "4", "--grid", "11", "--grid", "13"], "grid", 13),
        (["classify", "--signature", "pseudo", "--sig=riemannian"], "signature", "riemannian"),
        (["classify", "--no-oracle", "--no-oracle"], "no_oracle", True),
    ], ids=["equals", "equals-float", "prefix", "switch-prefix", "equals-and-prefix",
            "repeated", "repeated-prefix", "repeated-switch"])
    def test_flag_spellings(self, argv, name, want):
        args = cli._parse_args(argv)
        assert args.command == argv[0] and getattr(args, name) == want

    def test_defaults_come_from_the_flag_table(self):
        args = cli._parse_args(["surface", "--id", "6"])
        assert vars(args) == {"command": "surface", "id": 6, "grid": constants.DEFAULT_GRID,
                              "tol_fd": constants.TOL_CURVATURE, "out": None, "format": "csv"}
        assert vars(cli._parse_args(["verify"])) == {
            "command": "verify", "signature": "both", "seed": constants.DEFAULT_SEED,
            "tol_exact": constants.TOL_EXACT, "out": None, "self_test": False}

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], *(
        [command, flag] for command in cli._COMMANDS for flag in ("-h", "--help"))])
    def test_help_lists_every_flag_and_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        printed = capsys.readouterr().out
        flags = cli._COMMANDS[argv[0]] if argv[0] in cli._COMMANDS else {"version": None}
        assert printed.startswith("usage: nkflag")
        assert all(f"  --{flag}" in printed for flag in flags)
        assert printed.count("default: ") + printed.count("required") == len(flags)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == "nkflag 1.0.0\n"

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["nkflag", "classify", "--no-oracle"])
        assert cli.main() == 0
        assert capsys.readouterr().out.splitlines()[-1] == "2 checks, 0 failed"

    def test_former_env_variables_are_ignored(self, capsys, monkeypatch, tmp_path):
        commands = (["verify", "--signature", "both", "--self-test"], ["classify"],
                    ["surface", "--id", "2"])
        clean = []
        for argv in commands:
            assert cli.main(argv) == 0
            clean.append(capsys.readouterr())
        out = tmp_path / "env-out"
        for name, value in [("SEED", "abc"), ("TOL_EXACT", "1"), ("SIGNATURE", "hyperbolic"),
                            ("GRID", "x"), ("TOL_FD", "1"), ("OUT", str(out)),
                            ("FORMAT", "xml")]:
            monkeypatch.setenv(f"NKFLAG_{name}", value)
        for argv, want in zip(commands, clean):
            assert cli.main(argv) == 0
            assert capsys.readouterr() == want
        assert not out.exists()


def _child_env(**extra) -> dict:
    """This environment without OPENBLAS_NUM_THREADS, with this ``src`` on
    the import path, plus ``extra``."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": str(src), **extra}


def _child_stdout(*args, **extra_env) -> str:
    return subprocess.run([sys.executable, *args], env=_child_env(**extra_env),
                          capture_output=True, text=True, check=True, timeout=120).stdout


def test_cli_import_leaves_scipy_out():
    out = _child_stdout("-c", "import sys, nkflag.cli; print('scipy' in sys.modules)")
    assert out.strip() == "False"


@pytest.mark.parametrize("preset, want", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")],
                         ids=["unset", "user-value"])
def test_import_pins_openblas_threads(preset, want):
    # a fresh interpreter: this one imported numpy before nkflag
    code = ("import os, nkflag, numpy; print(os.environ['OPENBLAS_NUM_THREADS'],"
            " len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)")
    value, threads = _child_stdout("-c", code, **preset).split()
    assert value == want
    if not preset:
        assert threads == "1"   # OpenBLAS started no worker thread


def _surface_peak_rss(grid: int) -> int:
    """Peak RSS of ``surface --id 5 --grid <grid>`` from ``os.wait4``.  A
    small intermediate interpreter starts it: a child spawned straight from
    this process would report this process's own high-water mark."""
    code = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:], "
            "stdout=subprocess.DEVNULL); _, status, usage = os.wait4(p.pid, 0); "
            "p.returncode = os.waitstatus_to_exitcode(status); "
            "print(p.returncode, usage.ru_maxrss)")
    rc, peak = _child_stdout("-c", code, sys.executable, "-m", "nkflag.cli", "surface",
                             "--id", "5", "--grid", str(grid)).split()
    assert rc == "0"
    return int(peak)


def test_surface_memory_is_bounded():
    # the curvature stencils and the holomorphic curvatures run in fixed-size
    # point blocks, so 15x the points may not cost 15x the memory (5.6x
    # without any blocks, 1.53x with the stencil blocks alone, 1.25x with both)
    assert _surface_peak_rss(161) <= 1.5 * _surface_peak_rss(41)


class TestReportFiles:
    def test_roundtrip(self, tmp_path):
        reports = [CheckReport("alpha", 1e-15, 1e-12, 10),
                   CheckReport("beta", 2e-3, 1e-4, 5)]
        path = tmp_path / "r.json"
        write_report_file(path, reports, signature="both", seed=7)
        meta, back = load_report_file(path)
        assert meta["seed"] == 7
        assert back == reports
        assert back[0].passed and not back[1].passed

    def test_an_error_passes_only_between_zero_and_its_tolerance(self):
        assert CheckReport("x", -0.0, 0.0, 1).passed
        assert CheckReport("x", 0.0, 0.0, 1).passed
        assert not CheckReport("x", -5e-324, 0.0, 1).passed
        assert not CheckReport("x", -1e-3, 1e-12, 1).passed
        assert not CheckReport("x", np.nan, 1e-12, 1).passed

    def test_status_consistency_enforced(self):
        d = report_to_dict(CheckReport("x", 1e-15, 1e-12, 1))
        d["status"] = "fail"
        with pytest.raises(ValueError):
            report_from_dict(d)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            report_from_dict({"name": "x"})

    def test_schema_version_enforced(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99, "reports": []}))
        with pytest.raises(ValueError):
            load_report_file(path)

    @pytest.mark.parametrize("argv", [
        ["verify", "--signature", "both", "--self-test"],
        ["surface", "--id", "5", "--grid", "11", "--format", "json"],
    ], ids=["verify", "surface"])
    def test_files_on_disk_carry_schema_version_1(self, argv, tmp_path):
        # the raw file, not the loader, which agrees with whatever the writer says
        out = tmp_path / "out.json"
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["schema_version"] == 1

    def test_format_table_counts(self):
        reports = [CheckReport("a", 0.0, 1e-12, 3), CheckReport("b", 1.0, 1e-12, 3)]
        table = format_table(reports)
        assert "2 checks, 1 failed" in table
