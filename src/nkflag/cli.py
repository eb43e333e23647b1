"""Command-line front end.

Three subcommands: ``verify`` runs the structural suites and writes a JSON
report, ``classify`` prints the solution-family tables, ``surface`` checks
one example immersion and exports its per-grid-point samples.  The
verdicts are :class:`~nkflag.report.CheckReport` rows built below this
module; every command ends by printing the shared check table and taking its
exit code from it.  Every flag that takes a value, except ``--id``, can
also be supplied through an ``NKFLAG_``-prefixed environment variable
(flags win); ``--id``, ``--self-test`` and ``--no-oracle`` have no
fallback.  Exit codes are 0 = all checks passed, 1 = some check failed,
2 = usage error.
Human-readable output is a plain aligned table; machine output is JSON/CSV.
"""

import argparse
import gc
import os
import sys

from . import __version__, constants, report, verify
from .classification import classification_reports, solve_families
from .lie_structure import PSEUDO, RIEMANNIAN, signature_label
from .report import CheckReport
from .surfaces import SURFACE_IDS, surface_summary, write_csv, write_json

# the import heap lives until exit: no later collection, the one at shutdown included, walks it
gc.freeze()

_SIGNATURE_CHOICES = {"riemannian": (RIEMANNIAN,), "pseudo": (PSEUDO,),
                      "both": (RIEMANNIAN, PSEUDO)}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

#: largest accepted --grid; memory grows by about 0.4 KB per grid point
_MAX_GRID = 201


def _env(name: str, default: str | None) -> str | None:
    """Environment fallback for a flag.  argparse sends a string default
    through the flag's ``type``, so fallbacks get the same validation."""
    return os.environ.get(f"NKFLAG_{name}", default)


def _one_of(options):
    def parse(text: str) -> str:
        if text not in options:
            raise argparse.ArgumentTypeError(f"expected one of {', '.join(options)}, got {text!r}")
        return text
    return parse


def _int_in_range(low: int, high: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nkflag",
        description="Numerical certification of the nearly Kahler flag six-manifold.",
    )
    parser.add_argument("--version", action="version", version=f"nkflag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    signatures = tuple(sorted(_SIGNATURE_CHOICES))
    p_verify = sub.add_parser("verify", help="run the structural verification suites")
    p_verify.add_argument("--signature", choices=signatures, type=_one_of(signatures),
                          default=_env("SIGNATURE", "both"))
    p_verify.add_argument("--seed", type=_int_in_range(0), default=_env("SEED", str(constants.DEFAULT_SEED)))
    p_verify.add_argument("--tol-exact", type=_positive_float,
                          default=_env("TOL_EXACT", str(constants.TOL_EXACT)))
    p_verify.add_argument("--out", default=_env("OUT", None),
                          help="write the JSON report here")
    p_verify.add_argument("--self-test", action="store_true",
                          help="also flip one basis sign and require the "
                               "curvature cross-check to notice")

    p_classify = sub.add_parser("classify", help="print the solution-family tables")
    p_classify.add_argument("--signature", choices=signatures, type=_one_of(signatures),
                            default=_env("SIGNATURE", "both"))
    p_classify.add_argument("--no-oracle", action="store_true",
                            help="skip the oracle cross check")

    p_surface = sub.add_parser("surface", help="sample and export one example immersion")
    p_surface.add_argument("--id", type=int, required=True, help="surface id, 1..6")
    p_surface.add_argument("--grid", type=_int_in_range(9, _MAX_GRID),
                           default=_env("GRID", str(constants.DEFAULT_GRID)))
    p_surface.add_argument("--tol-fd", type=_positive_float,
                           default=_env("TOL_FD", str(constants.TOL_CURVATURE)))
    p_surface.add_argument("--out", default=_env("OUT", None))
    p_surface.add_argument("--format", choices=("csv", "json"), type=_one_of(("csv", "json")),
                           default=_env("FORMAT", "csv"))
    return parser


def _finish(reports: list[CheckReport], out=None, what="", write=None) -> int:
    """The tail of every command: print the check table, write ``out``
    through ``write`` if given, and judge the exit code from the reports."""
    print(report.format_table(reports))
    if out:
        try:
            write(out)
        except OSError as exc:
            print(f"error: cannot write {what}: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        print(f"{what} written to {out}")
    return EXIT_OK if report.all_pass(reports) else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    reports: list[CheckReport] = []
    for eps in _SIGNATURE_CHOICES[args.signature]:
        reports.extend(verify.run_verification(eps, seed=args.seed, tol_exact=args.tol_exact,
                                               self_test=args.self_test))
    return _finish(reports, args.out, "report", lambda path: report.write_report_file(
        path, reports, generated_by=f"nkflag {__version__}",
        signature=args.signature, seed=args.seed))


def _cmd_classify(args) -> int:
    reports: list[CheckReport] = []
    for eps in _SIGNATURE_CHOICES[args.signature]:
        print(f"signature: {signature_label(eps)}")
        print(f"  {'a':>12} {'b':>12} {'c':>12}  {'K':>4}  description")
        for fam in solve_families(eps):
            a, b, c = fam.amplitudes
            print(f"  {a:12.9f} {b:12.9f} {c:12.9f}  {fam.K:4.1f}  {fam.description}")
        reports.extend(classification_reports(eps, oracle=not args.no_oracle))
    return _finish(reports)


def _cmd_surface(args, parser: argparse.ArgumentParser) -> int:
    if args.id not in SURFACE_IDS:
        parser.error(f"--id must be one of {SURFACE_IDS}, got {args.id}")
    summary = surface_summary(args.id, args.grid, tol_fd=args.tol_fd)
    reports, columns = summary["reports"], summary["columns"]
    print(f"surface {args.id}: {summary['label']}")
    print(f"  signature            {signature_label(summary['signature'])}")
    print(f"  samples              {summary['samples']} ({summary['degenerate_points']} degenerate skipped)")
    print(f"  K mean / expected    {summary['K_mean']:.6f} / {summary['K_expected']}")

    def write(path):
        if args.format == "csv":
            return write_csv(path, args.id, columns)
        write_json(path, args.id, args.grid, reports, columns)

    return _finish(reports, args.out, f"{args.format} samples", write)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "classify":
        return _cmd_classify(args)
    if args.command == "surface":
        return _cmd_surface(args, parser)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
