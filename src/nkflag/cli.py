"""Command-line front end.

Three subcommands: ``verify`` runs the structural suites and writes a JSON
report, ``classify`` prints the solution-family tables, ``surface`` checks
one example immersion and exports its per-grid-point samples.  The
verdicts are :class:`~nkflag.report.CheckReport` rows built below this
module; every command ends by printing the shared check table and taking its
exit code from it.  The command line is the only configuration: no
environment variable sets a flag.  The tolerance flags may only tighten
their rows, never loosen them.  Exit codes are 0 = all checks passed,
1 = some check failed, 2 = usage error.
Human-readable output is a plain aligned table; machine output is JSON/CSV.
"""

import gc
import getopt
import sys
import types

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


def _int_in_range(low: int, high: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise ValueError(f"must be at most {high}, got {value}")
        return value
    return parse


def _tolerance(ceiling: float):
    """A tolerance flag: positive and at most the row's own tolerance, so a
    flag can only tighten what it judges."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"expected a number, got {text!r}") from None
        if not 0.0 < value <= ceiling:
            raise ValueError(f"must be positive and at most {ceiling:g}, got {text!r}")
        return value
    return parse


def _choice(*values):
    """A flag that takes one of ``values``, each spelled as ``str`` spells it."""
    by_text = {str(v): v for v in values}
    def parse(text: str):
        if text not in by_text:
            raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(by_text)})")
        return by_text[text]
    parse.metavar = "{" + ",".join(by_text) + "}"
    return parse


def _path(text: str) -> str:
    """A file path flag: any text but the empty one, which names no file."""
    if not text:
        raise ValueError("expected a file path, got ''")
    return text


_SWITCH = "switch"     # the parser of a flag without a value: True when given
_REQUIRED = object()   # the default of a flag that must be given

#: each command's flags, each with its value parser (or _SWITCH) and default
_COMMANDS = {
    "verify": {"signature": (_choice(*sorted(_SIGNATURE_CHOICES)), "both"),
               "seed": (_int_in_range(0), constants.DEFAULT_SEED),
               "tol-exact": (_tolerance(constants.TOL_EXACT), constants.TOL_EXACT),
               "out": (_path, None),
               "self-test": (_SWITCH, False)},
    "classify": {"signature": (_choice(*sorted(_SIGNATURE_CHOICES)), "both"),
                 "no-oracle": (_SWITCH, False)},
    "surface": {"id": (_choice(*SURFACE_IDS), _REQUIRED),
                "grid": (_int_in_range(9, _MAX_GRID), constants.DEFAULT_GRID),
                "tol-fd": (_tolerance(constants.TOL_CURVATURE), constants.TOL_CURVATURE),
                "out": (_path, None),
                "format": (_choice("csv", "json"), "csv")},
}


def _split(prog: str, argv: list[str], flags: dict, commands=()) -> tuple[dict, list[str]]:
    """The values of ``flags`` in ``argv`` (a repeated flag's last one) and the words
    after them: one of ``commands`` and its words, or none.  ``-h`` and ``--version``
    exit 0; a usage error prints the usage line and the reason, then exits 2."""
    words = {f: f"--{f}" if p is _SWITCH else
             f"--{f} {getattr(p, 'metavar', f.upper().replace('-', '_'))}"
             for f, (p, _) in flags.items()}
    usage = " ".join(["usage:", prog, "[-h]", *(w if flags[f][1] is _REQUIRED else f"[{w}]"
                                                for f, w in words.items())])
    usage += " {" + ",".join(commands) + "} ..." if commands else ""

    def fail(reason: str):
        print(f"{usage}\n{prog}: error: {reason}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    try:
        pairs, rest = getopt.getopt(argv, "h", ["help", *(f if p is _SWITCH else f + "="
                                                           for f, (p, _) in flags.items())])
    except getopt.GetoptError as exc:   # "option --seed requires argument"
        fail("argument " + exc.msg.removeprefix("option ").replace(" ", ": ", 1))
    values = {f: default for f, (_, default) in flags.items()}
    for opt, text in pairs:
        if opt in ("-h", "--help", "--version"):
            print(f"nkflag {__version__}" if opt == "--version" else "\n".join([usage, *(
                f"  {words[f]:38} " + ("required" if d is _REQUIRED else f"default: {d}")
                for f, (_, d) in flags.items())]))
            raise SystemExit(EXIT_OK)
        parse = flags[opt[2:]][0]
        try:
            values[opt[2:]] = (True if parse is _SWITCH else parse(text) if text[:2] != "--"
                               else fail(f"argument {opt}: expected one argument"))
        except ValueError as exc:
            fail(f"argument {opt}: {exc}")
    for flag in (f for f, v in values.items() if v is _REQUIRED):
        fail(f"argument --{flag}: required")
    if commands and (not rest or rest[0] not in commands):
        fail("argument command: " + (f"invalid choice: {rest[0]!r} (choose from "
                                     f"{', '.join(commands)})" if rest else "required"))
    if rest and not commands:
        fail(f"unrecognized arguments: {' '.join(rest)}")
    return values, rest


def _parse_args(argv: list[str]) -> types.SimpleNamespace:
    """argv as ``command`` plus one attribute per flag of the command."""
    _, (command, *rest) = _split("nkflag", argv, {"version": (_SWITCH, False)}, _COMMANDS)
    values, _ = _split(f"nkflag {command}", rest, _COMMANDS[command])
    return types.SimpleNamespace(command=command,
                                 **{f.replace("-", "_"): v for f, v in values.items()})


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


def _cmd_surface(args) -> int:
    summary = surface_summary(args.id, args.grid, tol_fd=args.tol_fd)
    reports, columns = summary["reports"], summary["columns"]
    print(f"surface {args.id}: {summary['label']}")
    print(f"  signature            {signature_label(summary['signature'])}")
    print(f"  samples              {summary['samples']} ({summary['degenerate_points']} degenerate skipped)")
    # rounded first, then + 0.0 turns a -0.0 into 0.0: a mean that scatters
    # below zero by round-off must not print as -0.000000
    k_mean = round(summary["K_mean"], 6) + 0.0
    print(f"  K mean / expected    {k_mean:.6f} / {summary['K_expected']}")

    def write(path):
        if args.format == "csv":
            return write_csv(path, args.id, columns)
        write_json(path, args.id, args.grid, reports, columns)

    return _finish(reports, args.out, f"{args.format} samples", write)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    return {"verify": _cmd_verify, "classify": _cmd_classify,
            "surface": _cmd_surface}[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
