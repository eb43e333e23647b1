"""Output correctness gate: one check per benchmarked CLI invocation.

Each check takes the exit code, the captured standard output and the path of
the ``--out`` file (or ``None``) and returns ``None`` when the invocation
produced a correct certificate, or a one-line reason when it did not.  A
nonzero exit code or a ``fail`` row in a printed check table always fails.
The validators read the files through ``nkflag`` itself (the report loader,
``CSV_COLUMNS``, ``SCHEMA_VERSION``) from the checkout under test.
"""

import csv
import json
import math
import re

VERIFY_CHECKS = 89
SELF_TEST_ROWS = ("self_test_corruption_detected[riemannian]",
                  "self_test_corruption_detected[pseudo]")
CLASSIFY_K = {"riemannian": (4.0, 1.0, 0.0), "pseudo": (4.0, 4.0, 1.0)}

_TABLE_ROW = re.compile(r"^(\S+)\s+(pass|fail)\s+\S+\s+\S+\s+\d+\s*$")
_FAMILY_ROW = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s+\S")
_SAMPLES = re.compile(r"^\s+samples\s+(\d+)\b", re.MULTILINE)


def _common(rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    failing = [m.group(1) for m in map(_TABLE_ROW.match, stdout.splitlines())
               if m and m.group(2) == "fail"]
    if failing:
        return f"failing check rows: {', '.join(failing[:3])}"
    return None


def check_verify(rc: int, stdout: str, out_path: str | None) -> str | None:
    """Report loads through the package's loader, all checks pass."""
    from nkflag.report import load_report_file

    if (err := _common(rc, stdout)) is not None:
        return err
    try:
        _meta, reports = load_report_file(out_path)
    except (OSError, ValueError) as exc:
        return f"report does not load: {exc}"
    if len(reports) != VERIFY_CHECKS:
        return f"report has {len(reports)} checks, expected {VERIFY_CHECKS}"
    failed = [r.name for r in reports if not r.passed]
    if failed:
        return f"report checks failed: {', '.join(failed[:3])}"
    names = {r.name for r in reports}
    missing = [n for n in SELF_TEST_ROWS if n not in names]
    if missing:
        return f"report lacks {', '.join(missing)}"
    return None


def check_classify(rc: int, stdout: str, out_path: str | None) -> str | None:
    """Both tables printed, with the expected holomorphic curvatures."""
    if (err := _common(rc, stdout)) is not None:
        return err
    if "MISMATCH" in stdout:
        return "classification mismatch printed"
    tables: dict[str, list[float]] = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("signature: "):
            current = line.split(":", 1)[1].strip()
            tables[current] = []
        elif current is not None and (m := _FAMILY_ROW.match(line)):
            try:
                tables[current].append(float(m.group(4)))
            except ValueError:
                continue  # the column header row
    for label, expected in CLASSIFY_K.items():
        got = sorted(tables.get(label, []))
        if len(got) != len(expected) or any(
                not math.isclose(g, e, abs_tol=1e-9) for g, e in zip(got, sorted(expected))):
            return f"{label} families have K = {got}, expected {sorted(expected)}"
    return None


def check_samples(expected: int):
    """The printed summary reports ``expected`` samples."""
    def check(rc: int, stdout: str, out_path: str | None) -> str | None:
        if (err := _common(rc, stdout)) is not None:
            return err
        m = _SAMPLES.search(stdout)
        if m is None or int(m.group(1)) != expected:
            return f"printed samples {m.group(1) if m else 'missing'}, expected {expected}"
        return None
    return check


def check_surface_export(sid: int, fmt: str, rows: int):
    """Summary plus an export file with the package's columns and ``rows`` rows."""
    summary = check_samples(rows)

    def check(rc: int, stdout: str, out_path: str | None) -> str | None:
        from nkflag.report import SCHEMA_VERSION
        from nkflag.surfaces import CSV_COLUMNS

        if (err := summary(rc, stdout, out_path)) is not None:
            return err
        try:
            with open(out_path, newline="") as fh:
                if fmt == "csv":
                    reader = csv.reader(fh)
                    header = next(reader, None)
                    data = list(reader)
                else:
                    payload = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"export does not load: {exc}"
        if fmt == "csv":
            if header != list(CSV_COLUMNS):
                return f"CSV header {header}, expected {list(CSV_COLUMNS)}"
            if len(data) != rows or any(r[0] != str(sid) for r in data):
                return f"CSV has {len(data)} rows for surface {sid}, expected {rows}"
            return None
        if payload.get("schema_version") != SCHEMA_VERSION or payload.get("surface") != sid:
            return f"JSON header {payload.get('schema_version')!r}/{payload.get('surface')!r}"
        data = payload.get("rows")
        if not isinstance(data, list) or len(data) != rows or any(
                not isinstance(r, dict) or set(r) != set(CSV_COLUMNS) for r in data):
            return f"JSON rows malformed or not {rows}"
        return None
    return check
