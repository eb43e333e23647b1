"""Per-layer tracing: which functions are wrapped, and how spans become metrics.

The child process (``child.py``) installs a :class:`Tracer` before calling
``nkflag.cli.main``.  The tracer wraps each public function in ``TRACED`` and
rebinds every name in the ``nkflag`` modules that refers to the original, so
consumers that imported a function by name (``verify`` imports
``curvature_tensorial``, ``cli`` imports ``surface_summary``) call the wrapper
too.  A span is ``[name, start, end, parent]``; spans of one command share
the command id of their record.

The parent (``run.py``) turns the spans of one traced pass into the metrics
in ``PER_LAYER``:

* ``<module>.<function>.calls``: number of calls;
* ``<module>.<function>.s``: time inside the function, counting nested calls
  of the same function once;
* ``<module>.<function>.self_s``: time inside minus time in traced callees;
* ``<module>.self_s``: self time of every span of the module; ``cli.self_s``
  is ``cli.main`` minus all traced callees, so the module self times add up
  to ``cli.main.s``.
"""

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

#: the package modules, one layer each
MODULES = ("cli", "report", "matrix_core", "lie_structure", "nk_geometry",
           "verify", "kernels", "classification", "surfaces")

#: lru-cached table builders; only their cache misses (cold builds) are spans
COLD_TABLES = ("basis", "_gram", "gram_diagonal", "_dual", "structure_constants")

#: (module, function) pairs wrapped in a traced child
TRACED = (
    ("report", "format_table"),
    ("report", "write_report_file"),
    ("matrix_core", "expm"),
    *(("lie_structure", name) for name in COLD_TABLES),
    ("nk_geometry", "identity_suite"),
    ("nk_geometry", "curvature_tensorial"),
    ("nk_geometry", "curvature_lie"),
    ("nk_geometry", "g_tensor"),
    ("nk_geometry", "nabla"),
    ("verify", "run_verification"),
    ("verify", "curvature_cross_check"),
    ("verify", "corruption_self_test"),
    ("verify", "connection_table"),
    ("kernels", "scan_chart"),
    ("kernels", "refine_candidate"),
    ("classification", "grid_oracle"),
    ("classification", "solve_families"),
    ("classification", "holomorphic_K"),
    ("surfaces", "surface_summary"),
    ("surfaces", "sample_rows"),
    ("surfaces", "expm_defect"),
    ("surfaces", "group_membership_defect"),
    ("surfaces", "gauss_curvature_batch"),
    ("surfaces", "almost_complex_check"),
    ("surfaces", "write_csv"),
)

#: span-name suffix of each classification chart (kernels.CHART_* values)
CHART_NAMES = {0: "sphere", 1: "split_pos", 2: "split_neg"}

#: every per-layer metric, in report order, with its unit
PER_LAYER = (
    ("import.numpy_s", "s"),
    ("import.scipy_s", "s"),
    ("import.nkflag_s", "s"),
    ("lie_structure.tables_cold_s", "s"),
    ("verify.run_verification.self_s", "s"),
    ("verify.curvature_cross_check.s", "s"),
    ("verify.corruption_self_test.s", "s"),
    ("verify.connection_table.s", "s"),
    ("nk_geometry.identity_suite.s", "s"),
    ("nk_geometry.curvature_tensorial.calls", "count"),
    ("nk_geometry.curvature_tensorial.s", "s"),
    ("nk_geometry.curvature_lie.calls", "count"),
    ("nk_geometry.curvature_lie.s", "s"),
    ("nk_geometry.g_tensor.calls", "count"),
    ("nk_geometry.g_tensor.s", "s"),
    ("nk_geometry.nabla.calls", "count"),
    ("nk_geometry.nabla.s", "s"),
    ("matrix_core.expm.calls", "count"),
    ("matrix_core.expm.s", "s"),
    ("kernels.scan_chart.sphere.s", "s"),
    ("kernels.scan_chart.split_pos.s", "s"),
    ("kernels.scan_chart.split_neg.s", "s"),
    ("kernels.scan_chart.points", "count"),
    ("kernels.scan_chart.points_per_s", "1/s"),
    ("kernels.scan_chart.hits", "count"),
    ("kernels.refine_candidate.calls", "count"),
    ("kernels.refine_candidate.s", "s"),
    ("classification.grid_oracle.self_s", "s"),
    ("classification.solve_families.s", "s"),
    ("classification.refine_yield", "share"),
    ("classification.holomorphic_K.calls", "count"),
    ("classification.holomorphic_K.s", "s"),
    ("surfaces.surface_summary.self_s", "s"),
    ("surfaces.sample_rows.calls", "count"),
    ("surfaces.sample_rows.s", "s"),
    ("surfaces.expm_defect.s", "s"),
    ("surfaces.group_membership_defect.s", "s"),
    ("surfaces.gauss_curvature_batch.s", "s"),
    ("surfaces.almost_complex_check.calls", "count"),
    ("surfaces.almost_complex_check.s", "s"),
    ("surfaces.grid_points", "count"),
    ("report.format_table.s", "s"),
    ("report.write_report_file.s", "s"),
    ("surfaces.write_csv.s", "s"),
    ("export.bytes", "bytes"),
    ("cli.main.s", "s"),
    *((f"{module}.self_s", "s") for module in MODULES),
    ("trace.run_s_untraced", "s"),
    ("trace.run_s_traced", "s"),
    ("trace.overhead_share", "share"),
)


class Tracer:
    """Span recorder for one child process; spans stay in memory."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self._stack: list[int] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, module: str, attr: str):
        name = f"{module}.{attr}"
        cold = attr in COLD_TABLES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if attr == "scan_chart":
                span = f"{name}.{CHART_NAMES[args[0]]}"
            misses = fn.cache_info().misses if cold else 0
            idx = self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if cold and fn.cache_info().misses == misses:
                # cache hit: nothing ran below it, so its span is the last one
                del self.spans[idx]
            self._count(attr, result)
            return result

        return wrapper

    def _count(self, attr: str, result) -> None:
        if attr == "scan_chart":
            self.counters["kernels.scan_chart.points"] += int(result.points)
            self.counters["kernels.scan_chart.hits"] += int(len(result.hits))
        elif attr == "grid_oracle":
            self.counters["classification.oracle_families"] += len(result.families)
        elif attr == "surface_summary":
            self.counters["surfaces.grid_points"] += int(result["samples"])

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "nkflag" or n.startswith("nkflag.")]
        for module, attr in TRACED:
            original = getattr(importlib.import_module(f"nkflag.{module}"), attr)
            wrapper = self._wrap(original, module, attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def run_main(self, main, argv):
        idx = self._enter("cli.main")
        try:
            return main(argv)
        finally:
            self._exit(idx)


def pass_metrics(records: list[dict], export_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the records of its commands)."""
    spans = []
    counters = defaultdict(int)
    for rec in records:
        offset = len(spans)
        spans.extend([name, start, end, parent + offset if parent >= 0 else -1]
                     for name, start, end, parent in rec.get("spans", []))
        for key, value in rec.get("counters", {}).items():
            counters[key] += value

    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    module_self = defaultdict(float)
    cold = 0.0
    cold_names = {f"lie_structure.{n}" for n in COLD_TABLES}
    for i, (name, start, end, parent) in enumerate(spans):
        own = end - start - child_time[i]
        calls[name] += 1
        self_time[name] += own
        module_self[name.split(".", 1)[0]] += own
        ancestors = set()
        while parent >= 0:
            ancestors.add(spans[parent][0])
            parent = spans[parent][3]
        if name not in ancestors:
            total[name] += end - start
        if name in cold_names and not ancestors & cold_names:
            cold += end - start

    scan_s = sum(total[f"kernels.scan_chart.{c}"] for c in CHART_NAMES.values())
    points = counters["kernels.scan_chart.points"]
    refines = calls["kernels.refine_candidate"]
    out = {
        "lie_structure.tables_cold_s": cold,
        "kernels.scan_chart.points": points,
        "kernels.scan_chart.points_per_s": points / scan_s if scan_s > 0 else 0.0,
        "kernels.scan_chart.hits": counters["kernels.scan_chart.hits"],
        "classification.refine_yield":
            counters["classification.oracle_families"] / refines if refines else 0.0,
        "surfaces.grid_points": counters["surfaces.grid_points"],
        "export.bytes": export_bytes,
    }
    for metric, _unit in PER_LAYER:
        if metric in out or metric.startswith(("import.", "trace.")):
            continue
        key, suffix = metric.rsplit(".", 1)
        if suffix == "calls":
            out[metric] = calls[key]
        elif suffix == "s":
            out[metric] = total[key]
        elif key in MODULES:
            out[metric] = module_self[key]
        else:
            out[metric] = self_time[key]
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import metrics from ``python -X importtime`` output.

    ``import.numpy_s`` and ``import.scipy_s`` are the cumulative times of the
    outermost imports of each package (they include what the package pulls
    in that was not loaded yet); ``import.nkflag_s`` is the self time of the
    ``nkflag`` modules alone.
    """
    pending = defaultdict(list)      # depth -> [(name, self_us, cum_us, children)]
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|")
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        node = (name, int(self_us), int(cum_us), pending.pop(depth + 1, []))
        pending[depth].append(node)

    sums = defaultdict(float)

    def visit(node, inside: frozenset):
        name, self_us, cum_us, children = node
        top = name.split(".", 1)[0]
        if top in ("numpy", "scipy") and top not in inside:
            sums[top] += cum_us
            inside = inside | {top}
        if top == "nkflag":
            sums["nkflag"] += self_us
        for child in children:
            visit(child, inside)

    for root in pending[0]:
        visit(root, frozenset())
    return {f"import.{pkg}_s": sums[pkg] / 1e6 for pkg in ("numpy", "scipy", "nkflag")}


def median_metrics(samples: list[dict]) -> dict[str, float]:
    """Per-metric median over passes."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
