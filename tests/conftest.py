import numpy as np
import pytest

from nkflag import lie_structure, surfaces


@pytest.fixture()
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture(scope="session")
def trace_metric():
    """The bi-invariant trace-form metric, 0.5 Re tr(x* y) with x* the
    adjoint of the signature's form: the referee of ``lie_structure._gram``."""
    def metric(x, y, eps: int) -> float:
        lie_structure.check_signature(eps)
        return float(0.5 * np.trace(lie_structure._twisted_adjoint(x, eps) @ y).real)

    return metric


@pytest.fixture(scope="session")
def summary_cache():
    """Session-wide cache of surface summaries keyed by (id, grid)."""
    cache: dict = {}

    def get(sid: int, n: int):
        key = (sid, n)
        if key not in cache:
            cache[key] = surfaces.surface_summary(sid, n)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def surface_error(summary_cache):
    """Worst error of the report named ``<check>[surface<id>]`` in a cached
    surface summary."""
    def get(sid: int, n: int, check: str) -> float:
        by_name = {r.name: r for r in summary_cache(sid, n)["reports"]}
        return by_name[f"{check}[surface{sid}]"].max_abs_error

    return get
