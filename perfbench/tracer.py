"""Run one tauchar CLI command in-process with a span around every public
library call, and print the spans' per-layer totals as one JSON object.

    PYTHONPATH=src python3 perfbench/tracer.py trace --q 13 --max 1e8 --no-timestamp

The spans are put on from outside: every public function of ``sieves``,
``_kernels``, ``summatory``, ``constants``, ``dirichlet``, ``curves`` and
``cli`` is replaced, in every tauchar module that holds it, by a wrapper that
records wall time, its parent span, and how far the resident set grew
above its size at entry.  A sampling thread reads the resident size every
2 ms, so a peak shorter than that between two samples can be missed;
tracemalloc would see every allocation but slows the numpy-heavy layers
about tenfold.  ``roots`` is left bare: its calls sit inside
``summatory`` and ``curves`` spans.  The CLI's standard output is captured
and returned in the JSON, so the caller can check it byte for byte.

Run each command in a fresh process: the constants functions are
``lru_cache``d, and a second call in one process would time a cache hit.
"""

import contextlib
import functools
import inspect
import io
import json
import os
import sys
import threading
import time

from tauchar import _kernels, cli, constants, curves, dirichlet, sieves, summatory

LAYER_MODULES = {
    "sieves": sieves,
    "_kernels": _kernels,
    "summatory": summatory,
    "constants": constants,
    "dirichlet": dirichlet,
    "curves": curves,
    "cli": cli,
}
MB = 2.0**20
PAGE = os.sysconf("SC_PAGE_SIZE")

# metric name -> span names; a span counts once, when no enclosing span
# belongs to the same group
GROUPS = {
    "sieves.table": {
        "sieves.divisor_count_sieve",
        "sieves.mobius_sieve",
        "sieves.liouville_sieve",
        "sieves.tau_char_sieve",
        "sieves.build_factor_sieve",
        "sieves.power_indicator_series",
        "sieves.ones_series",
        "sieves.identity_series",
        "_kernels.full_tables",
        "_kernels.spf_table",
    },
    "sieves.window": {"_kernels.factor_block"},
    "sieves.primes": {
        "sieves.primes_up_to",
        "sieves.segment_primes",
        "_kernels.primes_up_to",
    },
    "summatory.floor_sum": {
        "summatory.summatory_convolved",
        "_kernels.weighted_floor_sum",
    },
    "summatory.identity_scan": {
        "summatory.square_root_identity_scan",
        "summatory.cube_root_identity_scan",
        "summatory.fifth_power_identity_scan",
    },
    "constants.params": {"constants.main_term_params"},
    "constants.product": {
        "constants.log_factor_constants",
        "constants.sqrt_factor_at_half",
    },
    "constants.zeta": {"constants.zeta_real", "constants.zeta_prime_real"},
    "dirichlet.verify": {"dirichlet.verify_factorization"},
    "dirichlet.euler_expand": {"dirichlet.expand_euler_product"},
    "dirichlet.convolve": {"dirichlet.dirichlet_convolve"},
    "dirichlet.inverse": {"dirichlet.dirichlet_inverse"},
    "curves.scan": {"curves.range_scan", "curves.decompose_short_interval"},
    "curves.short_sum": {"curves.short_interval_sum"},
}


def resident_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm", "rb") as f:
        return int(f.read().split()[1]) * PAGE


class Tracer:
    """Spans kept in memory, one dict each, in the order they were opened."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss = resident_bytes()
            parent = self.stack[-1] if self.stack else None
            span = {
                "name": name,
                "parent": parent["id"] if parent else None,
                "id": len(self.spans),
                "base": rss,
                "peak": rss,
            }
            self.spans.append(span)
            self.stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["dur"] = time.perf_counter() - t0
                self._observe(resident_bytes())
                self.stack.pop()
            _annotate(span, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _observe(self, rss):
        for span in list(self.stack):
            if rss > span["peak"]:
                span["peak"] = rss

    def sample(self, stop, interval=0.002):
        """Raise the peak of every open span to the resident size, until stop is set."""
        while not stop.wait(interval):
            self._observe(resident_bytes())

    def install(self):
        originals = {}
        for prefix, mod in LAYER_MODULES.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                # defined here, or (for _kernels) in the backend it re-exports
                if not getattr(obj, "__module__", "").startswith(mod.__name__):
                    continue
                if id(obj) not in originals:
                    originals[id(obj)] = self.wrap(f"{prefix}.{attr}", obj)
        # rebind every reference, including names imported into other
        # modules; the kernel backend's calls to itself stay bare
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not name.startswith("tauchar") or name.startswith("tauchar._kernels."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and callable(obj):
                    setattr(mod, attr, originals[id(obj)])


def _annotate(span, args, result):
    """Counters read off a call's arguments and result."""
    name = span["name"]
    if name in GROUPS["sieves.table"] and "limit" in args:
        span["entries"] = int(args["limit"])
    elif name in GROUPS["sieves.primes"]:
        span["found"] = len(result)
    elif name == "dirichlet.verify_factorization":
        span["routes"] = len(result.routes)
    elif name in GROUPS["curves.scan"]:
        span["rows"] = len(result.rows)
        span["pairs"] = result.total_double
    elif name in ("constants.zeta_real", "constants.zeta_prime_real"):
        span["certified"] = [[result.value, result.error]]
        span["s"] = float(args["s"])
        span["tol"] = float(args.get("tol", 1e-12))
    elif name in GROUPS["constants.product"]:
        certs = result if isinstance(result, tuple) else (result,)
        span["certified"] = [[c.value, c.error] for c in certs]
        span["q"] = int(args["q"])


def _counted(spans, group):
    """Spans of the group that no span of the same group encloses.

    A group is a key of GROUPS or a module prefix such as "constants.".
    """
    names = GROUPS.get(group)
    member = names.__contains__ if names else lambda n: n.startswith(group)
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if not member(s["name"]):
            continue
        p = s["parent"]
        while p is not None and not member(by_id[p]["name"]):
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans) -> dict:
    """Per-layer totals from the spans of one run (0 for an unused layer)."""

    def secs(group):
        return sum(s["dur"] for s in _counted(spans, group))

    def peak_mb(group):
        return max(((s["peak"] - s["base"]) / MB for s in _counted(spans, group)),
                   default=0.0)

    def total(group, key):
        return sum(s.get(key, 0) for s in _counted(spans, group))

    certified = [e for s in spans for _, e in s.get("certified", ())]
    m = {
        "sieves.table_s": secs("sieves.table"),
        "sieves.table_entries": total("sieves.table", "entries"),
        "sieves.table_peak_mb": peak_mb("sieves.table"),
        "sieves.window_s": secs("sieves.window"),
        "sieves.primes_s": secs("sieves.primes"),
        "sieves.primes_found": total("sieves.primes", "found"),
        "summatory.floor_sum_s": secs("summatory.floor_sum"),
        "summatory.evaluations": len(_counted(spans, "summatory.floor_sum")),
        "summatory.identity_scan_s": secs("summatory.identity_scan"),
        "constants.params_s": secs("constants.params"),
        "constants.product_s": secs("constants.product"),
        "constants.zeta_s": secs("constants.zeta"),
        "constants.peak_alloc_mb": peak_mb("constants."),
        "constants.max_certified_error": max(certified, default=0.0),
        "dirichlet.verify_s": secs("dirichlet.verify"),
        "dirichlet.euler_expand_s": secs("dirichlet.euler_expand"),
        "dirichlet.convolve_s": secs("dirichlet.convolve"),
        "dirichlet.inverse_s": secs("dirichlet.inverse"),
        "dirichlet.routes_checked": total("dirichlet.verify", "routes"),
        "curves.scan_s": secs("curves.scan"),
        "curves.short_sum_s": secs("curves.short_sum"),
        "curves.rows": total("curves.scan", "rows"),
        "curves.pairs": total("curves.scan", "pairs"),
        "curves.peak_alloc_mb": peak_mb("curves.scan"),
    }
    m["curves.scan_self_s"] = m["curves.scan_s"] - m["curves.short_sum_s"]
    return m


def main(argv) -> int:
    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    stop = threading.Event()
    sampler = threading.Thread(target=tracer.sample, args=(stop,))
    sampler.start()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        stop.set()
        sampler.join()
    spans = tracer.spans
    root = next(s for s in spans if s["name"] == "cli.main")
    report = {
        "exit": code,
        "output": out.getvalue(),
        "library_s": sum(s["dur"] for s in spans if s["parent"] == root["id"]),
        "layers": layer_metrics(spans),
        "certified": [
            {k: s[k] for k in ("name", "certified", "s", "tol", "q") if k in s}
            for s in spans
            if "certified" in s
        ],
    }
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
