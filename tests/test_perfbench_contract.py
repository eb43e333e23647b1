"""Contract between the package and the benchmark's per-layer tracer.

``perfbench/layers.py`` wraps nkflag functions by name and times the cold
builds of lru-cached tables; ``perfbench/run.py`` imports
``kernels.active_backend``.  A rename or a dropped cache would silently break
``perfbench/run.py --trace 1``, so the names are pinned here, and one traced
``classify`` run checks the oracle spans and counters end to end.
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
from nkflag import kernels, lie_structure

_LAYERS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(_LAYERS_PATH.parent)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    record = json.loads(out.strip().splitlines()[-1])
    assert record["rc"] == 0
    want = {f"kernels.scan_chart.{name}" for name in ("sphere", "split_pos", "split_neg")}
    assert want | {"kernels.refine_candidate"} <= set(record["spans"])
    assert record["counters"]["kernels.scan_chart.points"] > 0
    assert record["counters"]["kernels.scan_chart.hits"] > 0
