"""Record the wall time, peak resident set and standard output of the
reference CLI commands.

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
set a floor under every reading; so does ``hashlib`` (OpenSSL adds some
4 MB), which is imported only after the last run.  Each run's standard
output goes to a temporary file and is kept, and the record holds its
SHA-256 per command as ``stdout_sha256``, or the sorted list of the
distinct digests when the runs of a command disagree.  The record also holds ``src_lines``, counted
as ``perfbench/run.py`` counts it.

With PARENT_TREE, the root of a second checkout (say ``git archive`` of
the parent commit, unpacked), every run of a command on this checkout is
paired with one on that tree, the two back to back and their order
alternating from pair to pair, so that drift of the host falls on both
alike.  The record then holds the tree's own rows and ``src_lines`` under
``parent``.

The output is one JSON object.  A command that exits non-zero is recorded
with its exit code, and the script then exits 1.  It also exits 1, naming
the command on standard error, when the runs of one tree print different
bytes, or when the two trees do: under ``--no-timestamp`` a refactor must
leave every reference output byte-identical.
"""

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RUNS = 5

COMMANDS = [
    ["--help"],
    ["verify", "--all-q", "60", "--limit", "1e4"],
    ["verify", "--all-q", "60", "--limit", "1e6"],
    # the 17 dense convolutions with 1 dominate, each in its bound's width
    ["verify", "--all-q", "60", "--limit", "3e6"],
    ["constants", "--all-q", "60"],
    # 45 moduli: 20 log-branch and 12 sqrt-branch products
    ["constants", "--all-q", "200"],
    ["trace", "--q", "13", "--max", "1e8"],
    ["rh-diagnostic", "--q", "19", "--max", "1e7"],
    ["near-curve", "--x", "1e8", "--y", "4170"],
    ["near-curve", "--x", "1e13", "--y", "3e6"],
    # x + y above 2^53: the trivial bound divides in int64
    ["near-curve", "--x", "1e16", "--y", "1e9"],
    ["short-interval", "--x", "1e8", "--y", "4170"],
    ["constants", "--q", "3"],
    # q = 3's main term is x^(1/3): the one CLI path through the cube-root leaf
    ["trace", "--q", "3", "--max", "1e17"],
    # q = 23 walks the 4-full numbers over the primes to top^(1/4)
    ["trace", "--q", "23", "--max", "1e14"],
    # q = 7 walks the cube-full numbers over the primes to top^(1/3), and
    # A = E sums g(j) D(y // j^2) over j <= sqrt(y), g = mu * mu
    ["trace", "--q", "7", "--max", "1e12"],
    # the memory rows: the walk streams, so the peak is its primes, the D
    # and E tables to top^(2/5) and the g = mu * mu table to sqrt(top),
    # int16 here, the width the table builder's bound picks
    ["trace", "--q", "7", "--max", "1e13"],
    ["trace", "--q", "7", "--max", "1e14"],
    # q = +-3 (mod 8) sums over the cube-full numbers: A(y) = isqrt(y) for
    # q = 13, M(isqrt(y)) with M the Mertens function for q = 19
    ["trace", "--q", "13", "--max", "1e15"],
    ["rh-diagnostic", "--q", "19", "--max", "1e15"],
    # the seed-0 commands of perfbench's trace-q13, constants-q60 and
    # verify-q60 workloads, verbatim
    ["trace", "--q", "13", "--max", "10000000", "--prime-cutoff", "30000000"],
    ["constants", "--all-q", "60", "--prime-cutoff", "10000000", "--tolerance", "2e-4"],
    ["verify", "--all-q", "60", "--limit", "20000"],
    # the JSON writer; every row above is CSV
    ["constants", "--q", "13", "--format", "json"],
]


def tree_env(root: Path) -> dict:
    """The caller's environment with root's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_once(args: list, root: Path, env: dict) -> tuple:
    """(exit code, wall seconds, peak RSS in MB, stdout) of one fresh CLI
    process."""
    argv = [sys.executable, "-m", "tauchar.cli", *args]
    if args != ["--help"]:
        argv.append("--no-timestamp")
    # a file, not a pipe: a pipe nobody reads during wait4 would block the child
    with tempfile.TemporaryFile() as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        out.seek(0)
        stdout = out.read()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout


def src_lines(root: Path) -> int:
    """Lines of the .py, .pyx and .pxd files under root's src/."""
    return sum(
        len(path.read_bytes().splitlines(keepends=True))
        for path in (root / "src").rglob("*")
        if path.suffix in (".py", ".pyx", ".pxd") and path.is_file()
    )


def rows_of(samples: list) -> list:
    """One row per command: its exit code, least wall time, least peak RSS
    and stdout digest."""
    import hashlib

    rows = []
    for args, runs in zip(COMMANDS, samples):
        codes = {code for code, _, _, _ in runs}
        digests = sorted({hashlib.sha256(out).hexdigest() for _, _, _, out in runs})
        rows.append({
            "command": " ".join(args),
            "exit": max(codes, key=abs),
            "wall_s": round(min(w for _, w, _, _ in runs), 4),
            "peak_rss_mb": round(min(r for _, _, r, _ in runs), 1),
            "stdout_sha256": digests[0] if len(digests) == 1 else digests,
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
    for i, row in enumerate(rows[0]):
        digests = [tree_rows[i]["stdout_sha256"] for tree_rows in rows]
        if any(not isinstance(d, str) for d in digests):
            print(f"runs print different bytes: {row['command']}", file=sys.stderr)
            failed = True
        elif len(set(digests)) > 1:
            print(f"the trees print different bytes: {row['command']}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
