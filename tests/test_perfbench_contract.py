"""Contract between the package and the benchmark's per-layer tracer.

``perfbench/layers.py`` wraps nkflag functions by name and times the cold
builds of lru-cached tables; ``perfbench/run.py`` imports
``kernels.active_backend``.  A rename or a dropped cache would silently break
``perfbench/run.py --trace 1``, so the names are pinned here.
"""

import importlib
import importlib.util
import pathlib

import pytest

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
