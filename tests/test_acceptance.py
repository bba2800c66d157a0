"""Acceptance gate: six checks, one printed verdict line each.

Every check computes its result first, prints
``ACCEPTANCE <k> <name>: PASS|FAIL (<detail>)`` and only then asserts, so
the verdict line survives in the report whichever way the check goes.
Reference values that cannot be reproduced are asserted as stated and
allowed to fail loudly rather than silently widened.
"""

import time
from fractions import Fraction
from math import isqrt

import mpmath as mp
import numpy as np

from tauchar.constants import Branch, SubBranch, classify, main_term_params
from tauchar.curves import (
    CurveConfig,
    ShortIntervalInstance,
    count_near_curve,
    decompose_short_interval,
    range_scan,
)
from tauchar.dirichlet import verify_factorization
from tauchar.roots import integer_nth_root
from tauchar.sieves import is_prime
from tauchar.summatory import (
    cube_root_identity_scan,
    fifth_power_identity_scan,
    square_root_identity_scan,
    trace,
)


def verdict(k: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_exact_identity_suite():
    t0 = time.perf_counter()
    limit = 10**5
    first_bad = {
        "square_root_floor": square_root_identity_scan(limit),
        "cube_root_floor": cube_root_identity_scan(limit),
        "fifth_power_mobius_floor": fifth_power_identity_scan(limit),
    }
    ok = all(v is None for v in first_bad.values())
    dt = time.perf_counter() - t0
    verdict(
        1,
        "exact-identity-suite",
        ok,
        f"every x <= {limit}, zero tolerance, {dt:.1f}s"
        + ("" if ok else f"; first mismatches {first_bad}"),
    )
    assert ok, first_bad


def test_criterion_2_factorization_routes():
    t0 = time.perf_counter()
    qs = [q for q in range(3, 61, 2) if is_prime(q)]
    failures = {}
    route_count = 0
    for q in qs:
        rep = verify_factorization(q, 10**4)
        route_count += len(rep.routes)
        if not rep.ok:
            failures[q] = rep.first_mismatch
    forms = {(classify(q).branch, classify(q).sub) for q in qs}
    needed = {
        (Branch.Q_EQUALS_3, None),
        (Branch.PM1_MOD8, SubBranch.PM7_MOD24),
        (Branch.PM1_MOD8, SubBranch.PM1_MOD24),
        (Branch.PM11_MOD24, None),
        (Branch.PM5_MOD24, SubBranch.Q_EQUALS_5),
        (Branch.PM5_MOD24, SubBranch.PM19_29_MOD120),
        (Branch.PM5_MOD24, SubBranch.PM43_53_MOD120),
    }
    missing = needed - forms
    ok = not failures and not missing
    dt = time.perf_counter() - t0
    verdict(
        2,
        "factorization-routes",
        ok,
        f"{len(qs)} moduli q <= 60 at limit 10^4, {route_count} routes, "
        f"{len(forms)} case forms, {dt:.1f}s"
        + ("" if ok else f"; failures {failures}, uncovered {missing}"),
    )
    assert not failures, failures
    assert not missing, missing


def test_criterion_3_example_constants():
    t0 = time.perf_counter()
    p7 = main_term_params(7)
    p23 = main_term_params(23)
    p13 = main_term_params(13)
    targets = [
        ("q7_leading", p7.leading_coefficient, 0.454),
        ("q7_bracket", p7.bracket_constant, 0.784),
        ("q23_leading", p23.leading_coefficient, 0.899),
        ("q23_bracket", p23.bracket_constant, -0.678),
        ("q13_leading", p13.leading_coefficient, 1.969),
    ]
    reports = []
    bad = []
    for name, cert, ref in targets:
        within = abs(cert.value - ref) <= 1e-3
        certified = cert.error <= 5e-4
        reports.append(
            f"{name}={cert.value:.6f}(err {cert.error:.1e}) vs {ref}"
        )
        if not (within and certified):
            bad.append(
                f"{name}: computed {cert.value:.6f} +- {cert.error:.1e}, "
                f"reference {ref}, |diff| {abs(cert.value - ref):.2e}"
            )
    ok = not bad
    dt = time.perf_counter() - t0
    verdict(
        3,
        "example-constants",
        ok,
        f"{len(targets) - len(bad)}/{len(targets)} within +-0.001 at "
        f"certified error <= 5e-4, default split, {dt:.1f}s"
        + ("" if ok else "; " + "; ".join(bad)),
    )
    assert ok, "; ".join(bad)


def test_criterion_4_branch_table():
    t0 = time.perf_counter()
    mism = []
    start_bad = []
    count = 0
    for q in range(3, 10**4, 2):
        if not is_prime(q):
            continue
        count += 1
        c = classify(q)
        # independent filter: residues only, no table search
        if q == 3:
            want = (Branch.Q_EQUALS_3, None)
        elif q % 24 in (7, 17):
            want = (Branch.PM1_MOD8, SubBranch.PM7_MOD24)
        elif q % 24 in (1, 23):
            want = (Branch.PM1_MOD8, SubBranch.PM1_MOD24)
        elif q % 24 in (11, 13):
            want = (Branch.PM11_MOD24, None)
        elif q == 5:
            want = (Branch.PM5_MOD24, SubBranch.Q_EQUALS_5)
        elif q % 120 in (19, 29, 91, 101):
            want = (Branch.PM5_MOD24, SubBranch.PM19_29_MOD120)
        else:
            want = (Branch.PM5_MOD24, SubBranch.PM43_53_MOD120)
        if (c.branch, c.sub) != want:
            mism.append(q)
        if c.sub is SubBranch.PM7_MOD24 and c.log_factor_start != 2:
            start_bad.append(q)
        if c.sub is SubBranch.PM1_MOD24 and not (4 <= c.log_factor_start < q):
            start_bad.append(q)
    dt = time.perf_counter() - t0
    ok = not mism and not start_bad and dt < 1.0
    verdict(
        4,
        "branch-table",
        ok,
        f"{count} odd primes q < 10^4 against the residue filter, "
        f"start-exponent constraints checked, {dt:.2f}s"
        + ("" if ok else f"; mismatches {mism[:5]}, bad starts {start_bad[:5]}"),
    )
    assert not mism, mism[:10]
    assert not start_bad, start_bad[:10]
    assert dt < 1.0, f"branch table took {dt:.2f}s"


def _oracle_count_quad(cfg: CurveConfig) -> int:
    """Independent recount at 40 digits (beyond quadruple precision)."""
    with mp.workdps(40):
        X = mp.sqrt(mp.mpf(cfg.X_sq.numerator) / cfg.X_sq.denominator)
        delta = mp.sqrt(mp.mpf(cfg.delta_sq.numerator) / cfg.delta_sq.denominator)
        s = mp.mpf(cfg.s.numerator) / cfg.s.denominator
        cnt = 0
        for n in range(cfg.N, 2 * cfg.N + 1):
            t = X * mp.power(n, -s)
            dist = abs(t - mp.nint(t))
            assert abs(dist - delta) > mp.mpf("1e-25"), (cfg, n)
            if dist < delta:
                cnt += 1
    return cnt


def _brute_double_count(x: int, y: int) -> int:
    """Every pair (d, n) with x < d^2 n^5 <= x + y, by direct walking."""
    total = 0
    n = 1
    while n**5 <= x + y:
        n5 = n**5
        d = isqrt(x // n5)
        while d * d * n5 <= x:
            d += 1
        while d * d * n5 <= x + y:
            total += 1
            d += 1
        n += 1
    return total


def test_criterion_5_near_curve_counts():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260822)
    count_bad = []
    for _ in range(100):
        N = max(1, int(10 ** rng.uniform(0.0, 4.0)))  # N <= 10^4
        X_sq = Fraction(int(rng.integers(1, 10**8)), int(rng.integers(1, 100)))
        two_s = int(rng.integers(1, 8))
        delta_sq = Fraction(int(rng.integers(1, 6250)), 10**5)  # delta in (0, 1/4)
        cfg = CurveConfig.from_exact(X_sq, Fraction(two_s, 2), N, delta_sq)
        got = count_near_curve(cfg)
        want = _oracle_count_quad(cfg)
        if got != want:
            count_bad.append((N, str(X_sq), two_s, str(delta_sq), got, want))
    window_bad = []
    for _ in range(20):
        x = int(rng.integers(10**4, 10**7 + 1))
        y = int(rng.integers(0, int(x**0.53)))
        rep = decompose_short_interval(ShortIntervalInstance(Fraction(x), Fraction(y)))
        pieces = rep.small_n_double + sum(r.window_double for r in rep.rows)
        brute = _brute_double_count(x, y)
        if not (rep.total_double == brute and pieces == brute):
            window_bad.append((x, y, rep.total_double, pieces, brute))
    ok = not count_bad and not window_bad
    dt = time.perf_counter() - t0
    verdict(
        5,
        "near-curve-counts",
        ok,
        f"100 randomized configs vs 40-digit oracle, 20 window "
        f"decompositions vs direct pair enumeration, {dt:.1f}s"
        + ("" if ok else f"; config fails {count_bad[:3]}, window fails {window_bad[:3]}"),
    )
    assert not count_bad, count_bad[:5]
    assert not window_bad, window_bad[:5]


def test_criterion_6_error_envelope_and_range_scan():
    t0 = time.perf_counter()
    # dyadic residual envelope for the sqrt-branch modulus 13
    cps = tuple(2**k for k in range(10, 24))
    tr = trace(13, cps)
    ratios = [
        abs(r) / (10.0 * float(x) ** (1.0 / 3.0 + 0.05))
        for r, x in zip(tr.residuals, cps)
    ]
    worst = max(ratios)
    worst_x = cps[ratios.index(worst)]
    env_ok = worst <= 1.0 and tr.kind == "sqrt"

    # full range scan at the widest admissible window
    x = 10**8
    y = integer_nth_root(x**19, 36) // 4
    rep = range_scan(ShortIntervalInstance(Fraction(x), Fraction(y)))
    tiled = (
        rep.rows[0].n_lo == rep.n_min
        and rep.rows[-1].n_hi == rep.n_max
        and all(b.n_lo == a.n_hi + 1 for a, b in zip(rep.rows, rep.rows[1:]))
    )
    guards = all(
        16 * rep.y**2 < Fraction(r.n_lo) ** 5 * rep.x
        and r.window_double <= r.near_curve_count
        for r in rep.rows
    )
    accounted = rep.small_n_double + sum(r.window_double for r in rep.rows) == (
        rep.total_double
    )
    scan_ok = (
        tiled and guards and accounted and rep.y_within_19_36 and abs(rep.short_sum) <= rep.total_double
    )
    ok = env_ok and scan_ok
    dt = time.perf_counter() - t0
    verdict(
        6,
        "error-envelope-and-range-scan",
        ok,
        f"envelope worst ratio {worst:.3f} at x={worst_x} over dyadic "
        f"[2^10, 2^23]; scan x=10^8 y={y}: {len(rep.rows)} windows, "
        f"tiled={tiled}, guards={guards}, {dt:.1f}s",
    )
    assert env_ok, f"worst envelope ratio {worst:.3f} at x={worst_x}"
    assert tiled and guards and accounted, (tiled, guards, accounted)
    assert rep.y_within_19_36
    assert abs(rep.short_sum) <= rep.total_double
