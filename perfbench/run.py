"""End-to-end and per-layer benchmark of the nkflag certificate CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload structure --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every command of a workload runs as a fresh ``nkflag.cli`` process, one at a
time (a closed loop with one client), imported from ``src/`` of the checkout
this file sits in.  A pass runs each of the workload's commands once; passes
repeat until the next one would overrun ``--seconds``.  Every invocation is
checked by ``gate.py``; a negative control (``verify --tol-exact 1e-300``)
runs before the timed passes and must be caught by the gate.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced and
traced, and it carries the per-layer metrics of ``layers.PER_LAYER``.  Exit
code 0 means every invocation passed the gate and the negative control
failed it; 1 means an output was wrong; 2 means the checkout is unusable.
"""

import argparse
import dataclasses
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from typing import Callable

import gate  # gate.py and layers.py sit next to this script
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: end-to-end metrics: name, unit
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
)

WORKLOADS = ("structure", "classify", "surfaces", "surface-fine")

#: a run, children included, ends within this many seconds of its start
RUN_LIMIT_S = 170.0

GRID = 41
FINE_GRID = 81


@dataclasses.dataclass(frozen=True)
class Command:
    """One CLI invocation: id, nkflag argv, export file name, output check."""

    id: str
    argv: tuple[str, ...]
    out: str | None
    check: Callable


def workload_commands(workload: str, seed: int) -> list[Command]:
    """The commands of one pass.  Only ``verify`` has random input, so the
    benchmark seed is passed to it alone."""
    if workload == "structure":
        return [Command("verify", ("verify", "--signature", "both", "--self-test",
                                   "--seed", str(seed), "--out", "{out}"),
                        "report.json", gate.check_verify)]
    if workload == "classify":
        return [Command("classify", ("classify",), None, gate.check_classify)]
    if workload == "surfaces":
        cmds = []
        for sid in range(1, 7):
            fmt = "csv" if sid <= 3 else "json"
            argv = ("surface", "--id", str(sid), "--out", "{out}")
            if fmt == "json":
                argv += ("--format", "json")
            cmds.append(Command(f"surface-{sid}", argv, f"surface-{sid}.{fmt}",
                                gate.check_surface_export(sid, fmt, GRID * GRID)))
        return cmds
    if workload == "surface-fine":
        return [Command(f"surface-{sid}-fine",
                        ("surface", "--id", str(sid), "--grid", str(FINE_GRID)),
                        None, gate.check_samples(FINE_GRID * FINE_GRID))
                for sid in (2, 5)]
    raise ValueError(f"unknown workload {workload!r}")


def negative_control(seed: int) -> Command:
    """An invocation that must fail the gate: an impossible exact tolerance."""
    return Command("negative-control",
                   ("verify", "--tol-exact", "1e-300", "--seed", str(seed), "--out", "{out}"),
                   "negative-control.json", gate.check_verify)


def run_child(cmd: Command, tmp: str, traced: bool, deadline: float) -> dict:
    """Run one command in a fresh interpreter and check its output."""
    out_path = os.path.join(tmp, cmd.out) if cmd.out else None
    record_path = os.path.join(tmp, f"{cmd.id}.record.json")
    stdout_path = os.path.join(tmp, f"{cmd.id}.stdout")
    for stale in (out_path, record_path):
        if stale and os.path.exists(stale):
            os.remove(stale)
    argv = [a.replace("{out}", out_path) if out_path else a for a in cmd.argv]
    child = [sys.executable, os.path.join(HERE, "child.py"), SRC, record_path,
             "1" if traced else "0", cmd.id, "--", *argv]
    with open(stdout_path, "w") as out, open(os.path.join(tmp, f"{cmd.id}.stderr"), "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(child, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(max(1.0, deadline - spawned), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        exited = time.monotonic()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    with open(stdout_path) as fh:
        stdout = fh.read()
    try:
        with open(record_path) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = None
    if record is None:
        error = f"no timing record (exit code {rc})"
    else:
        error = cmd.check(rc, stdout, out_path)
    op = {
        "id": cmd.id,
        "traced": traced,
        "wall_s": exited - spawned,
        "setup_s": record["imported"] - spawned if record else exited - spawned,
        "run_s": record["main_end"] - record["main_start"] if record else 0.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "export_bytes": os.path.getsize(out_path) if out_path and os.path.exists(out_path) else 0,
        "error": error,
    }
    if traced and record:
        op["record"] = record
    return op


def import_times(deadline: float) -> dict[str, float]:
    """Import metrics of one fresh ``python -X importtime`` child."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import nkflag.cli"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code, SRC],
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    return layers.parse_importtime(proc.stderr)


def measure(commands: list[Command], tmp: str, seconds: float, deadline: float,
            trace: bool) -> tuple[list[list[dict]], list[dict]]:
    """Run the commands round-robin, one pass after another, until the next
    command would overrun ``seconds``; the last pass may be partial.  With
    ``trace``, whole passes alternate untraced/traced, starting untraced, at
    least one of each, and every traced pass adds one import-time child."""
    passes: list[list[dict]] = []
    imports: list[dict] = []
    last: dict[str, float] = {}
    n = len(commands)
    start = time.monotonic()
    for i in itertools.count():
        cmd = commands[i % n]
        if i % n == 0:
            traced = trace and len(passes) % 2 == 1
            passes.append([])
        op = run_child(cmd, tmp, traced, deadline)
        passes[-1].append(op)
        last[cmd.id] = op["wall_s"]
        done = i + 1
        if traced and done % n == 0:
            imports.append(import_times(deadline))
        if done < n * (2 if trace else 1) or (trace and done % n):
            continue
        upcoming = sum(last.values()) if trace else last[commands[done % n].id]
        now = time.monotonic()
        if now - start + upcoming > seconds or now + upcoming > deadline:
            return passes, imports


def _median_sum(passes: list[list[dict]], key: str, combine=sum) -> float:
    """Each command's median over the passes, combined over the commands of
    a pass; with one command it is the median pass."""
    per_cmd = defaultdict(list)
    for ops in passes:
        for op in ops:
            per_cmd[op["id"]].append(op[key])
    return combine(statistics.median(v) for v in per_cmd.values())


def end_to_end(passes: list[list[dict]]) -> dict[str, float]:
    ops = [op for p in passes for op in p]
    return {
        "wall_s": _median_sum(passes, "wall_s"),
        "setup_s": _median_sum(passes, "setup_s"),
        "run_s": _median_sum(passes, "run_s"),
        "cpu_s": _median_sum(passes, "cpu_s"),
        "peak_rss_mb": _median_sum(passes, "peak_rss_mb", combine=max),
        "ok_share": sum(op["error"] is None for op in ops) / len(ops),
    }


def pass_distribution(passes: list[list[dict]], key: str) -> str:
    """Median and sample count of the sums over complete passes, plus the
    highest percentile with at least ten samples beyond it when that is above
    the median."""
    values = sorted(sum(op[key] for op in ops) for ops in passes
                    if len(ops) == len(passes[0]))
    n = len(values)
    text = f"median {statistics.median(values):.4f} over {n} passes"
    k = n - 10                          # order statistic with ten samples above
    if k > n / 2:
        text += f", p{100 * k // n} {values[k - 1]:.4f}"
    return text


def per_layer(passes: list[list[dict]], imports: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p[0]["traced"]]
    plain = [p for p in passes if not p[0]["traced"]]
    samples = [layers.pass_metrics([op["record"] for op in p if "record" in op],
                                   sum(op["export_bytes"] for op in p))
               for p in traced]
    metrics = layers.median_metrics(samples)
    metrics.update(layers.median_metrics(imports))
    untraced_run = _median_sum(plain, "run_s")
    traced_run = _median_sum(traced, "run_s")
    metrics["trace.run_s_untraced"] = untraced_run
    metrics["trace.run_s_traced"] = traced_run
    metrics["trace.overhead_share"] = traced_run / untraced_run - 1.0
    return {name: metrics[name] for name, _unit in layers.PER_LAYER}


def environment(seed: int) -> dict:
    """Versions, BLAS and thread settings as found, CPU count, commit, seed."""
    import nkflag.cli
    import numpy
    import scipy
    from nkflag.kernels import active_backend

    if os.path.dirname(os.path.realpath(nkflag.cli.__file__)) != os.path.realpath(
            os.path.join(SRC, "nkflag")):
        raise RuntimeError(f"nkflag imported from {nkflag.cli.__file__}, not from {SRC}")
    try:
        import numba  # noqa: F401
        numba_importable = True
    except ImportError:
        numba_importable = False
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: {f: deps.get(k, {}).get(f) for f in ("name", "version")}
                for k in ("blas", "lapack")}
    except (TypeError, AttributeError):  # numpy without mode="dicts"
        blas = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdin=subprocess.DEVNULL,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nkflag": nkflag.cli.__version__,
        "numba_importable": numba_importable,
        "active_backend": active_backend(),
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        # the control's child also writes the bytecode caches before timing
        control = run_child(negative_control(seed), tmp, False, deadline)
        env = environment(seed)
        passes, imports = measure(workload_commands(workload, seed), tmp, seconds, deadline, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ops = [op for p in passes for op in p]
    failures = [f"{op['id']}: {op['error']}" for op in ops if op["error"] is not None]
    untraced = [p for p in passes if not p[0]["traced"]]
    result = {
        "workload": workload,
        "environment": env,
        "negative_control_caught": control["error"] is not None,
        "negative_control_reason": control["error"],
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": end_to_end(untraced),
        "distribution": {k: pass_distribution(untraced, k)
                         for k in ("wall_s", "setup_s", "run_s", "cpu_s")},
        "per_layer": per_layer(passes, imports) if trace else None,
        "passes": [[{k: v for k, v in op.items() if k != "record"} for op in p] for p in passes],
        "elapsed_s": time.monotonic() - started,
    }
    result["correct"] = result["failed"] == 0 and result["negative_control_caught"]
    return result


def _print_human(result: dict) -> None:
    env = result["environment"]
    print(f"== workload {result['workload']}  (seed {env['seed']}, "
          f"{len(result['passes'])} passes, {result['elapsed_s']:.1f} s)")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"negative control caught: {result['negative_control_caught']} "
          f"({result['negative_control_reason']})")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed, "
          f"failed_share {result['failed'] / result['attempted']:.4f}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    units = dict(END_TO_END)
    for name, value in result["end_to_end"].items():
        extra = result["distribution"].get(name, "")
        print(f"  {name:<14} {value:12.6f} {units[name]:<6} {extra}")
    if result["per_layer"]:
        units = dict(layers.PER_LAYER)
        for name, value in result["per_layer"].items():
            print(f"  {name:<42} {value:16.6f} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")
    if not os.path.isfile(os.path.join(SRC, "nkflag", "cli.py")):
        print(f"error: no nkflag sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except (ImportError, RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    for result in results:
        _print_human(result)
        name = f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(out_dir, name), "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")

    key = "per_layer" if args.trace else "end_to_end"
    units = dict(layers.PER_LAYER if args.trace else END_TO_END)
    prefix = "" if len(results) == 1 else "{workload}."
    metrics = {prefix.format(**r) + name: {"value": value, "unit": units[name]}
               for r in results for name, value in r[key].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
