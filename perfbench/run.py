"""Benchmark of the tauchar CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload trace-q13 --seed 0 --seconds 25 --trace 0

Each round times one ``python -m tauchar.cli --help`` (start-up) and one
fresh ``python -m tauchar.cli <workload command> --no-timestamp`` process,
both with PYTHONPATH=src.  A round starts only when it should end within
--seconds, so a run is whole rounds, at least one.  The first output is
checked against the reference computations in ``oracles.py``; every other
output must be byte-identical to it.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: the
fastest wall time of the CLI process, its median peak resident set, and the
median start-up time.  --trace 1 follows each plain run with a traced run
(``tracer.py``) and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries the run's
metadata.  Exit status 2 means the checkout holds no tauchar sources.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, certified_check, parse

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# a child still running after this long is killed and counted as failed
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Proc:
    """One finished child process."""

    exit: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    stdout: str
    stderr: str


def run_child(argv: list) -> Proc:
    """Run argv from the checkout root; time it and read its rusage (wait4).

    wait4 gives this child's own peak RSS, where RUSAGE_CHILDREN would carry
    the largest child so far into every later measurement.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    err = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    try:
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Proc(
        exit=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        stdout=out.decode(),
        stderr=err[0].decode() if err else "",
    )


def src_lines() -> int:
    """Lines of hand-written source under src/ (the generated _ext.c excluded)."""
    total = 0
    for path in SRC.rglob("*"):
        if path.suffix in (".py", ".pyx", ".pxd") and path.is_file():
            with open(path, "rb") as f:
                total += sum(1 for _ in f)
    return total


def metric_units(kind: str) -> dict:
    """Metric name -> unit, for "end_to_end" or "per_layer" metrics."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "tauchar" / "cli.py").is_file():
        print(f"perfbench: no tauchar sources under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    cli = [sys.executable, "-m", "tauchar.cli"] + wl.argv(inputs) + ["--no-timestamp"]
    traced = [sys.executable, str(HERE / "tracer.py")] + cli[3:]
    help_cmd = [sys.executable, "-m", "tauchar.cli", "--help"]
    problems = []

    # start-up is timed once per round, so its samples span the whole run
    # rather than one moment of a shared host
    setup, plain, paired, attempted, failed = [], [], [], 0, 0
    t0 = time.perf_counter()
    last_round = 0.0
    while attempted == 0 or time.perf_counter() - t0 + last_round <= args.seconds:
        t_round = time.perf_counter()
        setup.append(run_child(help_cmd))
        p = run_child(cli)
        attempted += 1
        if p.exit != 0:
            failed += 1
            print(f"perfbench: exit {p.exit}: {p.stderr[-2000:]}", file=sys.stderr)
        else:
            plain.append(p)
        if args.trace and p.exit == 0:
            t = run_child(traced)
            attempted += 1
            report = json.loads(t.stdout) if t.exit == 0 else {"exit": t.exit}
            if report["exit"] != 0:
                failed += 1
                print(f"perfbench: traced exit {report['exit']}: {t.stderr[-2000:]}",
                      file=sys.stderr)
            else:
                paired.append((p, t, report))
        last_round = time.perf_counter() - t_round
    if any(p.exit != 0 or not p.stdout.startswith("usage: tauchar") for p in setup):
        problems.append("--help did not print the tauchar usage")
    if not plain or (args.trace and not paired):
        print("perfbench: every operation failed", file=sys.stderr)
        return 1

    # outputs under --no-timestamp are byte-identical, so check one in full
    first = plain[0].stdout
    if any(p.stdout != first for p in plain) or any(r["output"] != first for _, _, r in paired):
        problems.append("outputs differ between runs of the same command")
    out = parse(first)
    ref = {}
    problems += wl.check(inputs, out, ref)
    # the tolerance the CLI asked for; trace runs main_term_params' default
    tol = float(out.meta.get("tolerance", 1e-4))
    for _, _, report in paired:
        problems += certified_check(report["certified"], tol, ref)
    for msg in problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)

    med = statistics.median
    if args.trace:
        layers = {k: med([r["layers"][k] for _, _, r in paired]) for k in paired[0][2]["layers"]}
        # both terms from the traced process, so run-to-run drift cancels
        layers["cli.overhead_s"] = med([t.wall_s - r["library_s"] for _, t, r in paired])
        layers["cli.output_bytes"] = len(first.encode())
        layers["cli.cpu_s"] = med([p.cpu_s for p in plain])
        layers["tracing.overhead_s"] = med([t.wall_s - p.wall_s for p, t, _ in paired])
    else:
        layers = {
            # contention on the host only ever adds time: best of N
            "wall_s": min(p.wall_s for p in plain),
            "peak_rss_mb": med([p.rss_mb for p in plain]),
            "setup_s": med([p.wall_s for p in setup]),
        }
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(layers) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(layers) ^ set(units))} "
                         "disagree with BENCHMARK.json")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(layers.items())}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "command": wl.argv(inputs) + ["--no-timestamp"],
        "kernel_backend": out.meta.get("kernel_backend"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines(),
        "wall_s_samples": [p.wall_s for p in plain],
        "setup_s_samples": [p.wall_s for p in setup],
    }
    print(json.dumps({"meta": meta}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
