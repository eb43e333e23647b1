"""Contract between the package and the benchmark's tracer and output gate.

``perfbench/layers.py`` wraps nkflag functions by name and times the cold
builds of lru-cached tables; ``perfbench/run.py`` imports
``kernels.active_backend``.  A rename or a dropped cache would silently break
``perfbench/run.py --trace 1``, so the names are pinned here, and one traced
``classify`` run checks the oracle spans and counters end to end.
``perfbench/gate.py`` parses the printed check tables, so the gate is run
here on real ``verify`` and ``surface`` output.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import nkflag
from nkflag import cli, kernels, lie_structure
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


def test_cold_tables_are_cached(layers):
    assert [name for name in layers.COLD_TABLES
            if not hasattr(getattr(lie_structure, name), "cache_info")] == []


def test_active_backend_exists():
    assert callable(kernels.active_backend)


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
    assert record["counters"]["kernels.scan_chart.points"] > 0
    assert record["counters"]["kernels.scan_chart.hits"] > 0


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


def test_surface_json_export_is_a_report_file(capsys, tmp_path):
    out = tmp_path / "surface5.json"
    assert cli.main(["surface", "--id", "5", "--grid", "11", "--out", str(out),
                     "--format", "json"]) == 0
    meta, reports = load_report_file(out)
    assert meta["surface"] == 5 and meta["grid"] == 11 and len(meta["rows"]) == 121
    assert len(reports) == 9 and all(r.passed for r in reports)
