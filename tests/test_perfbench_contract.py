"""Contract between the package and the benchmark's tracer and output gate.

``perfbench/layers.py`` wraps nkflag functions by name and times the cold
builds of lru-cached tables; ``perfbench/run.py`` imports
``kernels.active_backend``.  A rename or a dropped cache would silently break
``perfbench/run.py --trace 1``, so the names are pinned here, and one traced
``classify`` run checks the oracle spans and counters end to end.  One traced
``verify`` run pins how often each basis tensor is evaluated.
``perfbench/gate.py`` parses the printed check tables, so the gate is run
here on real ``verify``, ``surface`` and ``classify`` output.  The
benchmark times imports as setup, so the fixed cost of a process is pinned
too: ``nkflag.cli`` freezes its import heap and no command loads
``numpy.random``.  Every module's ``__all__`` must match its public
functions.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import math
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import nkflag
from nkflag import classification, cli, kernels, lie_structure, surfaces
from nkflag.report import load_report_file

_PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def layers():
    return _load("layers")


@pytest.fixture(scope="module")
def gate():
    return _load("gate")


def test_traced_functions_resolve(layers):
    missing = [f"{module}.{name}" for module, name in layers.TRACED
               if not callable(getattr(importlib.import_module(f"nkflag.{module}"), name, None))]
    assert missing == []
    # the tracer rebinds every nkflag name bound to the original function, so
    # the names cli calls the surface stages by must be the module's own
    assert cli.surface_summary is surfaces.surface_summary and cli.write_csv is surfaces.write_csv
    assert cli.write_json is surfaces.write_json


def test_cold_tables_are_cached(layers):
    assert [name for name in layers.COLD_TABLES
            if not hasattr(getattr(lie_structure, name), "cache_info")] == []


def test_active_backend_exists():
    assert callable(kernels.active_backend)


def test_cli_freezes_its_imports_and_never_loads_numpy_random():
    # every process used to pay for numpy.random (about 6 MB and 13 ms),
    # and for a full walk of the import heap at exit
    src = pathlib.Path(nkflag.__file__).resolve().parents[1]
    code = (
        "import contextlib, gc, io, json, sys\n"
        "import nkflag.cli\n"
        "frozen = gc.get_freeze_count()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rcs = [nkflag.cli.main(argv) for argv in (\n"
        "        ['verify', '--signature', 'both', '--self-test'], ['classify'],\n"
        "        ['surface', '--id', '1', '--grid', '9'])]\n"
        "print(json.dumps({'frozen': frozen, 'rcs': rcs,\n"
        "                  'loaded': [m for m in sys.modules if m.startswith('numpy.random')]}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True, timeout=120).stdout
    record = json.loads(out)
    assert record["frozen"] > 0
    assert record["rcs"] == [0, 0, 0]
    assert record["loaded"] == []


def test_all_matches_public_functions():
    # every name in a module's __all__ resolves, and every public function
    # the module defines (lru-cached ones included) is listed
    names = [m.name for m in pkgutil.iter_modules(nkflag.__path__)]
    modules = [nkflag, *(importlib.import_module(f"nkflag.{name}") for name in names)]
    problems = []
    for module in (m for m in modules if hasattr(m, "__all__")):
        problems += [f"{module.__name__}.{name} is listed but missing"
                     for name in module.__all__ if not hasattr(module, name)]
        problems += [f"{module.__name__}.{name} is not listed"
                     for name, obj in vars(module).items()
                     if not name.startswith("_") and name not in module.__all__
                     and inspect.isfunction(inspect.unwrap(obj))
                     and obj.__module__ == module.__name__]
    assert problems == []


def test_traced_classify_records_the_oracle_layers():
    src = pathlib.Path(nkflag.__file__).resolve().parents[1]
    code = (
        "import json, sys\n"
        "import nkflag.cli\n"
        "from layers import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "rc = tracer.run_main(nkflag.cli.main, ['classify'])\n"
        "print(json.dumps({'rc': rc, 'spans': sorted({s[0] for s in tracer.spans}),\n"
        "                  'counters': tracer.counters}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(_PERFBENCH)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    record = json.loads(out.strip().splitlines()[-1])
    assert record["rc"] == 0
    assert {"kernels.scan_chart.sphere", "kernels.refine_candidate"} <= set(record["spans"])
    # both signatures scan the b >= c half of the simplex: 1,194 boxes
    assert 0 < record["counters"]["kernels.scan_chart.points"] <= 1_250
    assert record["counters"]["kernels.scan_chart.hits"] > 0


def test_traced_verify_evaluates_each_basis_tensor_once():
    # per signature: the cross-check, the symmetry rows and the self-test each
    # evaluate the tensorial curvature once; the identity suite builds G once
    # and reads its argument twists off that table, and verify builds none;
    # nabla runs twice for G, twice per nabla_J{1,2,3} and once for the
    # connection table
    src = pathlib.Path(nkflag.__file__).resolve().parents[1]
    code = (
        "import collections, json\n"
        "import nkflag.cli\n"
        "from layers import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "rc = tracer.run_main(nkflag.cli.main, ['verify', '--signature', 'both', '--self-test'])\n"
        "print(json.dumps({'rc': rc, 'calls': collections.Counter(s[0] for s in tracer.spans)}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(_PERFBENCH)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    record = json.loads(out.strip().splitlines()[-1])
    calls = record["calls"]
    assert record["rc"] == 0
    assert {"verify.curvature_cross_check", "verify.corruption_self_test",
            "nk_geometry.identity_suite"} <= set(calls)
    assert calls["nk_geometry.curvature_tensorial"] == 6
    assert calls["nk_geometry.g_tensor"] == 2
    assert calls["nk_geometry.nabla"] == 18


def test_gate_parses_every_verify_table_row(gate, capsys):
    assert cli.main(["verify", "--signature", "pseudo", "--self-test"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rules = [i for i, line in enumerate(lines) if line and set(line) == {"-"}]
    assert len(rules) == 2
    rows = lines[rules[0] + 1:rules[1]]
    assert len(rows) > 40
    assert [row for row in rows if not gate._TABLE_ROW.match(row)] == []


def test_verify_emits_the_gated_report_count(gate, capsys, tmp_path):
    out = tmp_path / "verify.json"
    rc = cli.main(["verify", "--signature", "both", "--self-test", "--out", str(out)])
    _meta, reports = load_report_file(out)
    names = [r.name for r in reports]
    assert len(names) == len(set(names)) == gate.VERIFY_CHECKS
    assert gate.check_verify(rc, capsys.readouterr().out, str(out)) is None


def test_gate_rejects_failing_surface_rows(gate, capsys):
    assert cli.main(["surface", "--id", "1", "--tol-fd", "1e-12"]) == 1
    out = capsys.readouterr().out
    check = gate.check_samples(41 * 41)
    assert check(1, out, None) is not None
    # the fail rows alone are enough, whatever the exit code
    assert check(0, out, None) == ("failing check rows: "
                                   "K_max_deviation[surface1], tg_residual_max[surface1]")


def test_surface_json_export_is_a_report_file(gate, capsys, tmp_path):
    out = tmp_path / "surface5.json"
    assert cli.main(["surface", "--id", "5", "--grid", "11", "--out", str(out),
                     "--format", "json"]) == 0
    meta, reports = load_report_file(out)
    assert meta["surface"] == 5 and meta["grid"] == 11 and len(meta["rows"]) == 121
    assert len(reports) == 10 and all(r.passed for r in reports)
    assert gate.check_surface_export(5, "json", 121)(0, capsys.readouterr().out, str(out)) is None


def test_gate_accepts_the_csv_export(gate, capsys, tmp_path):
    # surface 1 at grid 11 has NaN rows, where its u-circle collapses
    out = tmp_path / "surface1.csv"
    rc = cli.main(["surface", "--id", "1", "--grid", "11", "--out", str(out)])
    assert b",nan," in out.read_bytes()
    assert gate.check_surface_export(1, "csv", 121)(rc, capsys.readouterr().out, str(out)) is None


def test_gate_judges_the_classify_check_table(gate, capsys, monkeypatch):
    assert cli.main(["classify"]) == 0
    out = capsys.readouterr().out
    assert gate.check_classify(0, out, None) is None
    lines = out.splitlines()
    table = lines[lines.index(next(line for line in lines if line.startswith("check "))):]
    assert len(table) == 2 + 8 + 2 and table[-1] == "8 checks, 0 failed"
    # family rows are indented; a check row read as one would corrupt the K list
    assert [line for line in table if gate._FAMILY_ROW.match(line)] == []

    grid_oracle = classification.grid_oracle
    monkeypatch.setattr(classification, "grid_oracle", lambda eps: dataclasses.replace(
        grid_oracle(eps), interior_min=math.nan) if eps == lie_structure.PSEUDO else grid_oracle(eps))
    rc = cli.main(["classify"])
    out = capsys.readouterr().out
    assert rc == 1 and gate.check_classify(rc, out, None) is not None
    # the fail row alone is enough, whatever the exit code
    assert gate.check_classify(0, out, None) == "failing check rows: oracle_interior_empty[pseudo]"
