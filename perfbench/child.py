"""One benchmarked CLI invocation in a fresh interpreter.

Usage: python3 perfbench/child.py <src-dir> <record.json> <trace 0|1> <command-id> -- <nkflag argv...>

Imports ``nkflag.cli`` from <src-dir>, runs ``nkflag.cli.main(argv)`` once and
writes a JSON record with monotonic timestamps (comparable with the parent's
``time.monotonic()`` on Linux): when the import finished and when ``main``
started and returned.  With tracing on, the public functions listed in
``layers.TRACED`` are wrapped before ``main`` runs; the spans stay in memory
and are written with the record after ``main`` returns, outside the timed
region.  Nothing inside ``src/`` is modified.
"""

import json
import os
import sys
import time


def main() -> int:
    src, record_path, trace, command_id = sys.argv[1:5]
    if sys.argv[5] != "--":
        raise SystemExit("usage: child.py <src> <record> <trace> <command-id> -- <argv...>")
    argv = sys.argv[6:]
    sys.path.insert(0, src)
    import nkflag.cli

    imported = time.monotonic()
    expected = os.path.join(os.path.realpath(src), "nkflag")
    if os.path.dirname(os.path.realpath(nkflag.cli.__file__)) != expected:
        raise SystemExit(f"nkflag imported from {nkflag.cli.__file__}, not from {expected}")

    tracer = None
    if trace == "1":
        from layers import Tracer  # found next to this script

        tracer = Tracer()
        tracer.install()

    main_start = time.monotonic()
    try:
        rc = nkflag.cli.main(argv) if tracer is None else tracer.run_main(nkflag.cli.main, argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    main_end = time.monotonic()
    sys.stdout.flush()

    record = {
        "command_id": command_id,
        "rc": rc,
        "imported": imported,
        "main_start": main_start,
        "main_end": main_end,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counters"] = tracer.counters
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
