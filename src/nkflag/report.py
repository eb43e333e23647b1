"""Check reports: the universal output of all verification suites."""

import dataclasses
import json
import math
from typing import Iterable, Sequence

SCHEMA_VERSION = 1

__all__ = ["SCHEMA_VERSION", "CheckReport", "floor_check", "report_to_dict", "report_from_dict",
           "write_report_file", "load_report_file", "format_table", "all_pass"]


@dataclasses.dataclass(frozen=True)
class CheckReport:
    """One named check: worst observed error over some number of samples.
    An error is a distance, so it passes only in [0, tolerance]: a negative
    error (a sign slip) fails like a NaN does."""

    name: str
    max_abs_error: float
    tolerance: float
    samples: int

    @property
    def passed(self) -> bool:
        return 0.0 <= self.max_abs_error <= self.tolerance

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


def floor_check(name: str, floor: float, measured: float, samples: int) -> CheckReport:
    """A check that ``measured`` is at least ``floor``, as the error
    floor / measured under tolerance 1.  A measured 0 gives inf, a negative
    or NaN one gives NaN, so all three fail."""
    ratio = floor / measured if measured > 0 else (math.inf if measured == 0 else math.nan)
    return CheckReport(name, ratio, 1.0, samples)


def all_pass(reports: Iterable[CheckReport]) -> bool:
    return all(r.passed for r in reports)


def report_to_dict(r: CheckReport) -> dict:
    return {
        "name": r.name,
        "status": r.status,
        "max_abs_error": r.max_abs_error,
        "samples": r.samples,
        "tolerance": r.tolerance,
    }


def report_from_dict(d: dict) -> CheckReport:
    """The report of one file entry.  ValueError unless the entry is an
    object with every key, a string name, an integer ``samples``, numbers
    (not bools) in float range for the error and tolerance, and the status
    they give."""
    if not isinstance(d, dict):
        raise ValueError(f"report entry {d!r} is not an object")
    for key in ("name", "status", "max_abs_error", "samples", "tolerance"):
        if key not in d:
            raise ValueError(f"report entry missing key {key!r}")
    for key, kinds in (("name", str), ("samples", int), ("max_abs_error", (int, float)),
                       ("tolerance", (int, float))):
        if not isinstance(d[key], kinds) or isinstance(d[key], bool):
            raise ValueError(f"report entry {d['name']!r}: {key} must not be {d[key]!r}")
    try:
        r = CheckReport(d["name"], float(d["max_abs_error"]), float(d["tolerance"]), d["samples"])
    except OverflowError:
        raise ValueError(f"report entry {d['name']!r}: a number is out of float range") from None
    if d["status"] not in ("pass", "fail") or d["status"] != r.status:
        raise ValueError(f"report entry {r.name!r}: status inconsistent with error/tolerance")
    return r


def write_report_file(path, reports: Sequence[CheckReport], **meta) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        **meta,
        "reports": [report_to_dict(r) for r in reports],
    }
    # one json.dumps call runs the C encoder; json.dump and indent do not
    with open(path, "w") as fh:
        fh.write(json.dumps(payload) + "\n")


def load_report_file(path) -> tuple[dict, list[CheckReport]]:
    """Parse and validate a report file; returns (metadata, reports)."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("report file must contain a JSON object")
    version = payload.get("schema_version")
    # an int, not merely equal to one: True == 1.0 == 1
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    if not isinstance(payload.get("reports"), list):
        raise ValueError("report file missing 'reports' array")
    reports = [report_from_dict(d) for d in payload["reports"]]
    meta = {k: v for k, v in payload.items() if k != "reports"}
    return meta, reports


def format_table(reports: Sequence[CheckReport]) -> str:
    """Plain aligned table for human eyes; machine output goes to JSON only."""
    name_w = max([len(r.name) for r in reports] + [len("check")])
    lines = [
        f"{'check':<{name_w}}  {'status':<6}  {'max |err|':>12}  {'tol':>9}  {'n':>7}",
        "-" * (name_w + 45),
    ]
    for r in reports:
        lines.append(
            f"{r.name:<{name_w}}  {r.status:<6}  {r.max_abs_error:12.3e}  "
            f"{r.tolerance:9.1e}  {r.samples:7d}"
        )
    n_fail = sum(not r.passed for r in reports)
    lines.append("-" * (name_w + 45))
    lines.append(f"{len(reports)} checks, {n_fail} failed")
    return "\n".join(lines)
