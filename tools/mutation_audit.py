"""Mutation audit of the nkflag certificate: which numeric literals can change
without any certificate command noticing?

Usage (from the root of a checkout):

    python3 tools/mutation_audit.py

Each mutant changes one numeric literal of one module under ``src/nkflag``
(all but ``cli`` and ``__init__``): 0 becomes 1, any other literal x becomes
(-x).  The mutant is written to a temporary copy of ``src/``, never to the
checkout, and one fresh process runs the eight commands of the certificate
(``verify --signature both --self-test``, ``classify``, ``surface --id 1..6``)
through ``nkflag.cli.main``.  A mutant survives when every command exits 0;
a non-zero exit, an exception or the timeout (TIMEOUT seconds) kills it.
WORKERS mutants run at once.  The survivors are printed as
``module.py:line:col  literal -> mutant``, one per line.

Not part of the test suite: a full run is about 900 mutants, several minutes
on two workers.  Exit code 0 means the audit ran (survivors or not), 2 that
the unmutated tree already fails the certificate.
"""

import ast
import concurrent.futures
import io
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = ("classification", "constants", "kernels", "lie_structure", "matrix_core",
           "nk_geometry", "report", "surfaces", "verify")
WORKERS = 2
TIMEOUT = 120.0
CERTIFICATE = (["verify", "--signature", "both", "--self-test"], ["classify"],
               *(["surface", "--id", str(sid)] for sid in range(1, 7)))

# run in the child: every command's exit code, with its printed tables dropped
_CHILD = (
    "import contextlib, io, json, sys\n"
    "import nkflag.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    f"    codes = [nkflag.cli.main(list(c)) for c in {CERTIFICATE!r}]\n"
    "print(json.dumps(codes))\n"
)


def mutants(module: str):
    """(module, line, col, literal, replacement, mutated source) for each
    numeric literal of ``src/nkflag/<module>.py``, in source order."""
    source = (SRC / "nkflag" / f"{module}.py").read_text()
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.NUMBER:
            continue
        text, value = tok.string, ast.literal_eval(tok.string)
        new = repr(type(value)(1)) if value == 0 else f"(-{text})"
        (row, col), (end_row, end_col) = tok.start, tok.end
        lo, hi = starts[row - 1] + col, starts[end_row - 1] + end_col
        yield module, row, col, text, new, source[:lo] + new + source[hi:]


def run_certificate(src: pathlib.Path) -> bool:
    """True when every certificate command exits 0 on the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        out = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True,
                             text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return out.returncode == 0 and out.stdout.strip() == "[" + ", ".join(["0"] * 8) + "]"


def survives(mutant) -> bool:
    module, _row, _col, _text, _new, source = mutant
    with tempfile.TemporaryDirectory(prefix="nkflag_mutant_") as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        (src / "nkflag" / f"{module}.py").write_text(source)
        return run_certificate(src)


def main() -> int:
    todo = []
    for module in MODULES:
        for m in mutants(module):
            try:
                compile(m[-1], f"{module}.py", "exec")
            except SyntaxError:
                continue
            todo.append(m)
    if not run_certificate(SRC):
        print("the unmutated tree fails the certificate", file=sys.stderr)
        return 2

    survivors = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=WORKERS) as pool:
        futures = {pool.submit(survives, m): m for m in todo}
        for done, future in enumerate(concurrent.futures.as_completed(futures), 1):
            if future.result():
                survivors.append(futures[future])
            if done % 50 == 0 or done == len(todo):
                print(f"{done}/{len(todo)} mutants run, {len(survivors)} survive",
                      file=sys.stderr, flush=True)
    for module, row, col, text, new, _ in sorted(survivors, key=lambda m: m[:3]):
        print(f"{module}.py:{row}:{col}  {text} -> {new}")
    print(f"{len(survivors)} of {len(todo)} mutants survive the certificate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
