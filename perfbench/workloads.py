"""The four benchmark workloads: CLI inputs drawn from a seed, and checks of
the CLI's output against the reference computations in ``oracles``.

Seed 0 gives the commands listed in README.md.  Other seeds vary the inputs
only where the work stays level, so that the spread of a metric over seeds
measures the machine, not the inputs.
"""

import csv
import io
import random
from dataclasses import dataclass
from typing import Callable

import mpmath as mp

import oracles

# The two smallest +-11 (mod 24) primes: the half-line product's cost grows
# with q (at cutoff 3e7, q = 37 takes 0.19 s longer than q = 11 on a 1.3 s run)
TRACE_QS = (11, 13)
TRACE_PRIME_CUTOFF = 3 * 10**7
CONSTANTS_PRIME_CUTOFF = 10**7
# Every odd prime <= N for N in 59..60 is the same modulus set; N = 61 would
# add a fifth sqrt-branch product.
ALL_Q = (59, 60)


@dataclass(frozen=True)
class Output:
    """A parsed CSV report of the tauchar CLI."""

    meta: dict
    summary: dict
    rows: list


def parse(text: str) -> Output:
    meta, summary, body = {}, {}, []
    for line in text.splitlines(keepends=True):
        if line.startswith("# meta "):
            k, _, v = line[7:].rstrip("\n").partition("=")
            meta[k] = v
        elif line.startswith("# summary "):
            k, _, v = line[10:].rstrip("\n").partition("=")
            summary[k] = v
        else:
            body.append(line)
    return Output(meta, summary, list(csv.DictReader(io.StringIO("".join(body)))))


# ------------------------------------------------------------------ trace


def trace_inputs(seed: int) -> dict:
    if seed == 0:
        return {"q": 13, "max": 10**7}
    rng = random.Random(seed)
    # any max in [2^23, 2^24) gives the same checkpoints 2^10 .. 2^23
    return {"q": rng.choice(TRACE_QS), "max": rng.randint(2**23, 2**24 - 1)}


def trace_argv(inp: dict) -> list:
    return ["trace", "--q", str(inp["q"]), "--max", str(inp["max"]),
            "--prime-cutoff", str(TRACE_PRIME_CUTOFF)]


def trace_check(inp: dict, out: Output, ref: dict) -> list:
    problems = []
    xs = [2**k for k in range(10, inp["max"].bit_length()) if 2**k <= inp["max"]]
    got_xs = [int(r["x"]) for r in out.rows]
    if got_xs != xs:
        return [f"checkpoints {got_xs} != {xs}"]
    if "sums" not in ref:
        ref["sums"] = oracles.convolved_sums(inp["q"], xs)
    for row, want in zip(out.rows, ref["sums"]):
        if int(row["value"]) != want:
            problems.append(f"S({row['x']}) = {row['value']}, powerful-number sum {want}")
    return problems


# -------------------------------------------------------------- constants


def constants_inputs(seed: int) -> dict:
    return {"all_q": 60 if seed == 0 else random.Random(seed).choice(ALL_Q)}


def constants_argv(inp: dict) -> list:
    return ["constants", "--all-q", str(inp["all_q"]),
            "--prime-cutoff", str(CONSTANTS_PRIME_CUTOFF), "--tolerance", "2e-4"]


def _intersects(value: float, error: float, lo, hi) -> bool:
    return mp.mpf(value) - error <= hi and mp.mpf(value) + error >= lo


def product_refs(q: int, ref: dict) -> dict:
    """mpmath enclosures for modulus q, computed once per run."""
    if q not in ref:
        prod, deriv = oracles.euler_product(q)
        ref[q] = {"product": prod, "logderiv": deriv}
        if deriv is not None:  # log branch: zeta(q) * product, bracket
            z, dz = oracles.zeta(q), oracles.zeta(q, 1)
            ref[q]["leading"] = (z * prod[0], z * prod[1])
            base = -1 + q * dz / z
            ref[q]["bracket"] = (base + deriv[0], base + deriv[1])
        else:  # sqrt branch: zeta(q/2) * product
            z = oracles.zeta(mp.mpf(q) / 2)
            ref[q]["leading"] = (z * prod[0], z * prod[1])
    return ref[q]


def constants_check(inp: dict, out: Output, ref: dict) -> list:
    problems = []
    tol = float(out.meta["tolerance"])
    qs = oracles.odd_primes_up_to(inp["all_q"])
    if [int(r["q"]) for r in out.rows] != qs:
        return [f"moduli {[r['q'] for r in out.rows]} != odd primes <= {inp['all_q']}"]
    for row in out.rows:
        q = int(row["q"])
        branch, sub = oracles.classify(q)
        want = (branch, sub or "", str(oracles.first_exponent(q)), oracles.MAIN_KIND[branch])
        got = (row["branch"], row["sub_branch"], row["first_exponent"], row["main_kind"])
        if got != want:
            problems.append(f"q={q}: classified {got}, residues give {want}")
            continue
        if branch == "q_equals_3":
            if (row["leading_coefficient"], row["leading_error"]) != ("1", "0"):
                problems.append(f"q=3: leading coefficient {row['leading_coefficient']}")
            continue
        if branch == "pm5_mod24":
            if row["leading_coefficient"] or row["bracket_constant"]:
                problems.append(f"q={q}: a constant reported on the bound-only branch")
            continue
        r = product_refs(q, ref)
        checks = [("leading", row["leading_coefficient"], row["leading_error"], True)]
        if branch == "pm1_mod8":
            checks.append(("bracket", row["bracket_constant"], row["bracket_error"], False))
        for key, v, e, relative in checks:
            v, e = float(v), float(e)
            if not _intersects(v, e, *r[key]):
                problems.append(
                    f"q={q}: {key} {v} +- {e} misses mpmath [{r[key][0]}, {r[key][1]}]"
                )
            if (e / abs(v) if relative else e) > tol:
                problems.append(f"q={q}: {key} error {e} exceeds tolerance {tol}")
    return problems


def certified_check(spans: list, tol: float, ref: dict) -> list:
    """Check the Certified values the traced run saw inside constants.

    Zeta values must contain mpmath's at 30 digits, within their own
    tolerance.  Products must meet the mpmath enclosure, with relative error
    (logderiv: absolute) at most tol.
    """
    problems = []
    for s in spans:
        name = s["name"]
        if name in ("constants.zeta_real", "constants.zeta_prime_real"):
            (v, e), = s["certified"]
            exact = oracles.zeta(s["s"], 1 if name.endswith("prime_real") else 0)
            if not mp.mpf(v) - e <= exact <= mp.mpf(v) + e or e > s["tol"]:
                problems.append(f"{name}({s['s']}) = {v} +- {e}; mpmath {exact}")
            continue
        r = product_refs(s["q"], ref)
        keys = ["product", "logderiv"][: len(s["certified"])]
        for key, (v, e) in zip(keys, s["certified"]):
            if not _intersects(v, e, *r[key]):
                problems.append(f"{name}({s['q']}) {key} {v} +- {e} misses mpmath")
            if (e if key == "logderiv" else e / abs(v)) > tol:
                problems.append(f"{name}({s['q']}) {key} error {e} exceeds {tol}")
    return problems


# ----------------------------------------------------------------- verify


def verify_inputs(seed: int) -> dict:
    if seed == 0:
        return {"all_q": 60, "limit": 2 * 10**4}
    rng = random.Random(seed)
    return {"all_q": rng.choice(ALL_Q), "limit": rng.randint(2 * 10**4, 205 * 10**2)}


def verify_argv(inp: dict) -> list:
    return ["verify", "--all-q", str(inp["all_q"]), "--limit", str(inp["limit"])]


# identity scans and the modulus each reports in the q column
IDENTITY_ROWS = {"square_root_floor": "", "cube_root_floor": "3", "fifth_power_mobius_floor": "5"}


def verify_check(inp: dict, out: Output, ref: dict) -> list:
    problems = []
    want = list(IDENTITY_ROWS.items())
    for q in oracles.odd_primes_up_to(inp["all_q"]):
        want += [("route", str(q))] * oracles.route_count(q)
    got = [
        (r["check"] if r["check"] in IDENTITY_ROWS else "route", r["q"]) for r in out.rows
    ]
    if got != want:
        problems.append(f"{len(got)} rows {got} != {len(want)} expected by residue class")
    for r in out.rows:
        if r["ok"] != "true" or r["first_mismatch"] or int(r["limit"]) != inp["limit"]:
            problems.append(f"row not ok: {r}")
    if out.summary.get("all_pass") != "true" or int(out.summary["checks"]) != len(want):
        problems.append(f"summary {out.summary}")
    return problems


# ------------------------------------------------------------- near-curve


def near_curve_inputs(seed: int) -> dict:
    if seed == 0:
        return {"x": 10**13, "y": 3 * 10**6}
    # the window sieve's cost follows sqrt(x): +-1.5 % over this range
    return {"x": random.Random(seed).randint(10**13, 106 * 10**11), "y": 3 * 10**6}


def near_curve_argv(inp: dict) -> list:
    return ["near-curve", "--x", str(inp["x"]), "--y", str(inp["y"])]


def _root5_floor(num: int, den: int = 1) -> int:
    """Largest n >= 0 with n^5 * den <= num."""
    n = round((num / den) ** 0.2)
    while n**5 * den > num:
        n -= 1
    while (n + 1) ** 5 * den <= num:
        n += 1
    return n


def near_curve_check(inp: dict, out: Output, ref: dict) -> list:
    problems = []
    x, y = inp["x"], inp["y"]
    if "pairs" not in ref:
        ref["pairs"] = oracles.fifth_power_pairs(x, y)
        ref["trivial"] = oracles.divisor_summatory(x + y) - oracles.divisor_summatory(x)
    pairs = ref["pairs"]
    s = out.summary
    below = _root5_floor(16 * y * y, x)  # the scan starts above (16 y^2 / x)^(1/5)
    want = {
        "short_sum": sum(oracles.mobius(d) for d, _ in pairs),
        "total_double": len(pairs),
        "trivial_bound": ref["trivial"],
        "small_n_double": sum(1 for _, n in pairs if n <= below),
        "n_min": below + 1,
        "n_max": _root5_floor(2 * x),
    }
    for k, v in want.items():
        if int(s[k]) != v:
            problems.append(f"{k} = {s[k]}, expected {v}")
    n = want["n_min"]
    for row in out.rows:
        lo, hi = int(row["n_lo"]), int(row["n_hi"])
        if lo != n or hi < lo:
            problems.append(f"rows do not tile from n={n}: [{lo}, {hi}]")
            break
        count = oracles.near_curve_count(x, y, lo, hi)
        if int(row["near_curve_count"]) != count:
            problems.append(f"[{lo}, {hi}]: near_curve_count {row['near_curve_count']}, mpmath {count}")
        in_row = sum(1 for _, m in pairs if lo <= m <= hi)
        if int(row["window_double"]) != in_row:
            problems.append(f"[{lo}, {hi}]: window_double {row['window_double']}, pairs {in_row}")
        n = hi + 1
    if n != want["n_max"] + 1:
        problems.append(f"rows end at {n - 1}, n_max {want['n_max']}")
    return problems


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], dict]
    argv: Callable[[dict], list]
    check: Callable[[dict, Output, dict], list]


WORKLOADS = {
    "trace-q13": Workload(trace_inputs, trace_argv, trace_check),
    "constants-q60": Workload(constants_inputs, constants_argv, constants_check),
    "verify-q60": Workload(verify_inputs, verify_argv, verify_check),
    "near-curve-1e13": Workload(near_curve_inputs, near_curve_argv, near_curve_check),
}
