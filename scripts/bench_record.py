"""Record the wall time and peak resident set of the reference CLI commands.

    python3 scripts/bench_record.py BENCH_<n>.json [PARENT_TREE]

Every command in COMMANDS runs RUNS times, each time as a fresh
``python -m tauchar.cli <command> --no-timestamp`` process, from the root
of this checkout with its ``src`` first on PYTHONPATH and the rest of the
caller's environment.  The runs go in rounds of one run per command, so
drift of the host spreads over all of them.  The record keeps, per
command, the best (least) wall time and the least peak resident set of the
RUNS, the latter read by ``os.wait4``.  This script imports only the
standard library: Linux carries a parent's high-water mark into the
``ru_maxrss`` of a forked child, so a parent that had imported numpy would
set a floor under every reading.  The record also holds ``src_lines``,
counted as ``perfbench/run.py`` counts it.

With PARENT_TREE, the root of a second checkout (say ``git archive`` of
the parent commit, unpacked), every run of a command on this checkout is
paired with one on that tree, the two back to back and their order
alternating from pair to pair, so that drift of the host falls on both
alike.  The record then holds the tree's own rows and ``src_lines`` under
``parent``.

The output is one JSON object.  A command that exits non-zero is recorded
with its exit code, and the script then exits 1.
"""

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RUNS = 5

COMMANDS = [
    ["--help"],
    ["verify", "--all-q", "60", "--limit", "1e4"],
    ["verify", "--all-q", "60", "--limit", "1e6"],
    ["constants", "--all-q", "60"],
    ["trace", "--q", "13", "--max", "1e8"],
    ["rh-diagnostic", "--q", "19", "--max", "1e7"],
    ["near-curve", "--x", "1e8", "--y", "4170"],
    ["near-curve", "--x", "1e13", "--y", "3e6"],
    # x + y above 2^53: the trivial bound divides in int64
    ["near-curve", "--x", "1e16", "--y", "1e9"],
]


def tree_env(root: Path) -> dict:
    """The caller's environment with root's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_once(args: list, root: Path, env: dict) -> tuple:
    """(exit code, wall seconds, peak RSS in MB) of one fresh CLI process."""
    argv = [sys.executable, "-m", "tauchar.cli", *args]
    if args != ["--help"]:
        argv.append("--no-timestamp")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def src_lines(root: Path) -> int:
    """Lines of the .py, .pyx and .pxd files under root's src/."""
    return sum(
        len(path.read_bytes().splitlines(keepends=True))
        for path in (root / "src").rglob("*")
        if path.suffix in (".py", ".pyx", ".pxd") and path.is_file()
    )


def rows_of(samples: list) -> list:
    """One row per command: its exit code, least wall time and least peak RSS."""
    rows = []
    for args, runs in zip(COMMANDS, samples):
        codes = {code for code, _, _ in runs}
        rows.append({
            "command": " ".join(args),
            "exit": max(codes, key=abs),
            "wall_s": round(min(w for _, w, _ in runs), 4),
            "peak_rss_mb": round(min(r for _, _, r in runs), 1),
        })
    return rows


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print("usage: python3 scripts/bench_record.py BENCH_<n>.json [PARENT_TREE]",
              file=sys.stderr)
        return 2
    trees = [ROOT] + [Path(a).resolve() for a in argv[1:]]
    envs = [tree_env(root) for root in trees]
    samples = [[[] for _ in COMMANDS] for _ in trees]
    order = list(range(len(trees)))
    for _ in range(RUNS):
        for i, args in enumerate(COMMANDS):
            for t in order:
                samples[t][i].append(run_once(args, trees[t], envs[t]))
            order.reverse()
    rows = [rows_of(tree) for tree in samples]
    record = {
        "runs": RUNS,
        "statistic": f"least of {RUNS} fresh processes, wall time and peak RSS",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(ROOT),
        "commands": rows[0],
    }
    if len(trees) == 2:
        record["parent"] = {"src_lines": src_lines(trees[1]), "commands": rows[1]}
    with open(argv[0], "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    failed = any(row["exit"] for tree_rows in rows for row in tree_rows)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
