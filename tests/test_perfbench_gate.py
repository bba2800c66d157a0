"""The benchmark's own correctness gate, run in tier-1.

perfbench checks every constants-q60 output against mpmath enclosures that
do not import tauchar.  Running that check here means a bad enclosure fails
the test suite, not only a benchmark run.
"""

import sys
from pathlib import Path

import mpmath as mp
import pytest

from tauchar import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    # the oracles set mpmath's global precision on import; keep it local
    monkeypatch.syspath_prepend(str(PERFBENCH))
    saved = mp.mp.dps
    try:
        import workloads as wl

        with mp.workdps(30):
            yield wl
    finally:
        mp.mp.dps = saved
        for name in ("workloads", "oracles"):
            sys.modules.pop(name, None)


def test_constants_q60_passes_the_benchmark_check(workloads, capsys):
    inp = workloads.constants_inputs(0)
    code = cli.main(workloads.constants_argv(inp) + ["--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 0
    assert workloads.constants_check(inp, workloads.parse(out), {}) == []
