"""Exact summatory evaluation against brute-force double sums, the three
root-floor identities, and the trace/diagnostic report structure."""

from fractions import Fraction
from math import isqrt, log

import numpy as np
import pytest

from tauchar import constants, summatory
from tauchar.arith import is_prime
from tauchar.constants import Branch, classify
from tauchar.errors import ArgumentError, ClassificationError, OverflowHardError
from tauchar.powerful import powerful_walk, prime_list
from tauchar.roots import floor_root_grid, integer_nth_root
from tauchar.sieves import (
    LegendreChar,
    liouville_sieve,
    mobius_sieve,
    powerful_terms,
    tau_char_sieve,
)
from tauchar.summatory import (
    MAX_EXACT_X,
    _checkpoint_sums,
    cube_root_identity_scan,
    default_alphas,
    default_checkpoints,
    divisor_summatory,
    fifth_power_identity_scan,
    rh_diagnostic,
    rh_growth,
    square_root_identity_scan,
    subexp_decay,
    summatory_convolved,
    trace,
)


def brute_tau(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def brute_summatory(q: int, x: int) -> int:
    # per-n divisor walk; shares nothing with the floor-sum kernel
    char = LegendreChar(q)
    total = 0
    for n in range(1, x + 1):
        for d in range(1, n + 1):
            if n % d == 0:
                total += char(brute_tau(d))
    return total


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 19])
def test_summatory_matches_double_sum(q):
    for x in (1, 2, 10, 47, 120):
        assert summatory_convolved(q, x) == brute_summatory(q, x)


def weighted_floor_sum(values: np.ndarray, x: int) -> int:
    """Sum of values[d] * (x // d) over 1 <= d <= min(x, len(values) - 1).

    ``values`` is indexed by d (entry 0 ignored).  Accumulated in int64
    chunks; the result is returned as an exact Python int.  The magnitude is
    bounded by x * H_x which stays far below 2^63 for x <= 1e9.
    """
    chunk = 1 << 22
    top = min(x, len(values) - 1)
    total = 0
    for lo in range(1, top + 1, chunk):
        hi = min(lo + chunk, top + 1)
        d = np.arange(lo, hi, dtype=np.int64)
        total += int(np.dot(values[lo:hi].astype(np.int64), x // d))
    return total


def test_weighted_floor_sum_against_brute_force():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(1, 4000))
        values = rng.integers(-1, 2, size=n + 1).astype(np.int8)
        values[0] = 0
        for x in (1, n // 2 + 1, n, 2 * n):
            brute = sum(int(values[d]) * (x // d) for d in range(1, min(x, n) + 1))
            assert weighted_floor_sum(values, x) == brute


def test_weighted_floor_sum_wide_values():
    values = np.array([0, 3, -7, 5, 11], dtype=np.int64)
    for x in (1, 4, 100):
        brute = sum(int(values[d]) * (x // d) for d in range(1, min(x, 4) + 1))
        assert weighted_floor_sum(values, x) == brute


def sieve_route(q: int, cps) -> tuple[int, ...]:
    # S(x) as weighted floor sums over one character table: shares nothing
    # with the powerful-number route
    table = tau_char_sieve(LegendreChar(q), cps[-1]).values
    return tuple(weighted_floor_sum(table, x) for x in cps)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23])
def test_powerful_route_matches_sieve_route(q):
    cps = tuple(2**k for k in range(10, 21))
    assert _checkpoint_sums(q, cps) == sieve_route(q, cps)


@pytest.mark.parametrize("q", [7, 13])
def test_powerful_route_matches_sieve_route_at_2_23(q):
    cps = tuple(2**k for k in range(10, 24))
    assert _checkpoint_sums(q, cps) == sieve_route(q, cps)


def materialised_route(q: int, cps) -> tuple[int, ...]:
    # the +-3 (mod 8) sums from sorted int64 arrays of every powerful n <= top:
    # one cumsum, then one searchsorted per checkpoint
    top = cps[-1]
    w, convolve_d = summatory._local_weights(q, top.bit_length() + 1)
    assert not convolve_d
    n, wn = powerful_terms(w, top, prime_list(isqrt(top)))
    prefix = np.cumsum(wn)
    return tuple(int(prefix[e - 1]) for e in np.searchsorted(n, cps, side="right"))


PM3_MOD8_BELOW_120 = [q for q in range(3, 120) if is_prime(q) and q % 8 in (3, 5)]


@pytest.mark.parametrize("q", PM3_MOD8_BELOW_120)
def test_streamed_route_matches_materialised_route(q):
    for k in (23, 30):
        cps = tuple(2**e for e in range(10, k + 1))
        assert _checkpoint_sums(q, cps) == materialised_route(q, cps), k


def _block_edges(q: int, top: int) -> list[int]:
    """First and last leaf n p^2 of every block of the walk to top."""
    w, _ = summatory._local_weights(q, top.bit_length() + 1)
    primes = prime_list(isqrt(top))
    edges = []
    for n, _, c, k in powerful_walk(w, top, primes):
        if c < k:
            edges += [n * primes[c] ** 2, n * primes[k - 1] ** 2]
    return edges


@pytest.mark.parametrize("q", [11, 13, 19])
def test_streamed_route_on_random_checkpoints(q):
    # checkpoints on, just below and just above the ends of the leaf blocks,
    # where the streamed route splits a block between two checkpoints
    rng = np.random.default_rng(q)
    for trial in range(12):
        top = int(rng.integers(2**12, 2**24))
        edges = _block_edges(q, top)
        picks = rng.choice(edges, size=min(len(edges), 8), replace=False)
        pool = {top} | {int(e) + d for e in picks for d in (-1, 0, 1)}
        pool |= {int(v) for v in rng.integers(1, top, size=8)}
        pool = sorted(v for v in pool if 1 <= v <= top)
        size = 1 if trial < 3 else int(rng.integers(2, len(pool) + 1))
        cps = tuple(sorted(rng.choice(pool, size=size, replace=False).tolist()))
        assert _checkpoint_sums(q, cps) == materialised_route(q, cps), cps


def test_powerful_route_above_the_table_budget():
    # q = 3: S(x) = floor(x^(1/3)); q = 5: the Mobius fifth-root identity
    assert summatory_convolved(3, 10**12, limit=10**12) == 10**4
    x = 10**10
    top = isqrt(x)
    d = np.arange(1, top + 1, dtype=np.int64)
    mu = mobius_sieve(top).values[1:]
    expect = int(np.dot(mu, floor_root_grid(x // (d * d), 5)))
    assert summatory_convolved(5, x, limit=x) == expect


def test_divisor_summatory_matches_divisor_walk():
    tau = np.zeros(3001, dtype=np.int64)
    for d in range(1, 3001):
        tau[d::d] += 1
    walk = np.cumsum(tau)
    assert [divisor_summatory(y) for y in range(3001)] == walk.tolist()
    # sqrt(y) past one int64 chunk: the same hyperbola sum in Python ints
    for y in (2**32 + 12345, 3 * 10**10):
        r = isqrt(y)
        assert divisor_summatory(y) == 2 * sum(y // i for i in range(1, r + 1)) - r * r
    with pytest.raises(ArgumentError):
        divisor_summatory(-1)


def test_int64_guard_rejects_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the int64 guard")

    monkeypatch.setattr(summatory, "prime_list", no_work)
    monkeypatch.setattr(constants, "main_term_params", no_work)
    big = MAX_EXACT_X + 1
    with pytest.raises(OverflowHardError):
        divisor_summatory(big)
    with pytest.raises(OverflowHardError):
        summatory_convolved(7, big, limit=2**60)
    with pytest.raises(OverflowHardError):
        trace(13, (1024, big), limit=2**60)
    with pytest.raises(OverflowHardError):
        rh_diagnostic(19, (1024, big), limit=2**60)


def test_mertens_known_values():
    m = np.cumsum(mobius_sieve(10**4).values)
    assert [int(m[x]) for x in (1, 10, 100, 1000, 10000)] == [1, -1, 1, 2, -23]


def test_liouville_summatory_known_values():
    s = np.cumsum(liouville_sieve(100).values)
    assert [int(s[x]) for x in (1, 10, 100)] == [1, 0, -2]


def test_summatory_accepts_shared_table():
    # one character table serves the sieve route at every x it covers
    table = tau_char_sieve(LegendreChar(7), 500).values
    for x in (1, 63, 500):
        assert weighted_floor_sum(table, x) == summatory_convolved(7, x)


def test_summatory_domain_guards():
    with pytest.raises(ArgumentError):
        summatory_convolved(7, 0)
    with pytest.raises(ArgumentError):
        summatory_convolved(7, 2000, limit=1000)


def test_cube_root_identity_pointwise():
    for x in (1, 7, 8, 26, 27, 1000, 4913):
        assert summatory_convolved(3, x) == integer_nth_root(x, 3)


def test_fifth_power_identity_pointwise():
    mu = mobius_sieve(200).values
    for x in (1, 31, 32, 243, 1024, 9999):
        expect = sum(
            int(mu[d]) * integer_nth_root(x // (d * d), 5)
            for d in range(1, isqrt(x) + 1)
            if mu[d]
        )
        assert summatory_convolved(5, x) == expect


def grid_fifth_power_mobius_sums(limit: int) -> np.ndarray:
    """sum_{d <= sqrt(x)} mu(d) floor((x/d^2)^(1/5)) at x = 0..limit, one
    integer-root grid over every x per squarefree d."""
    x = np.arange(0, limit + 1, dtype=np.int64)
    out = np.zeros(limit + 1, dtype=np.int64)
    mu = mobius_sieve(isqrt(limit)).values
    for d in range(1, isqrt(limit) + 1):
        if mu[d]:
            out[d * d :] += mu[d] * floor_root_grid(x[d * d :] // (d * d), 5)
    return out


def test_fifth_power_jump_points_match_root_grid():
    for limit in (1, 31, 32, 10**5):
        got = summatory._fifth_power_mobius_sums(limit)
        assert np.array_equal(got, grid_fifth_power_mobius_sums(limit)), limit


def test_identity_scans_hold_to_ten_thousand():
    assert square_root_identity_scan(10000) is None
    assert cube_root_identity_scan(10000) is None
    assert fifth_power_identity_scan(10000) is None


def test_identity_scan_reports_the_first_mismatch():
    # entry 0 stands for no x and is never compared
    expect = np.array([9, 1, 2, 3, 4])
    assert summatory._first_mismatch(np.array([0, 1, 2, 3, 4]), expect) is None
    assert summatory._first_mismatch(np.array([0, 0, 2, 0, 4]), expect) == 1
    assert summatory._first_mismatch(np.array([0, 1, 2, 0, 0]), expect) == 3


def test_default_checkpoints_doubling():
    cps = default_checkpoints(10**5)
    assert cps[0] == 1024
    assert all(b == 2 * a for a, b in zip(cps, cps[1:]))
    assert cps[-1] <= 10**5 < 2 * cps[-1]
    with pytest.raises(ArgumentError):
        default_checkpoints(1000)


def test_default_alphas_by_branch():
    theta = 131.0 / 416.0
    c7 = classify(7)
    assert default_alphas(c7) == (max(1.0 / c7.log_factor_start, theta) + 0.05,)
    c23 = classify(23)
    assert default_alphas(c23) == (max(1.0 / c23.log_factor_start, theta) + 0.05,)
    assert default_alphas(classify(13)) == (1.0 / 3.0 + 0.05,)
    assert default_alphas(classify(3)) == (1.0 / 3.0,)
    assert default_alphas(classify(19)) == (0.5,)


def test_trace_exact_cube_branch():
    cps = (1024, 2048, 4096)
    tr = trace(3, cps)
    assert tr.kind == "exact_cuberoot"
    assert tr.checkpoints == cps
    assert tr.values == tuple(integer_nth_root(x, 3) for x in cps)
    for x, v, r in zip(cps, tr.values, tr.residuals):
        assert abs(r - (v - float(x) ** (1.0 / 3.0))) < 1e-9
        # a perfect cube can land a few ulps above zero in float arithmetic
        assert -1.0 < r <= 1e-12
    assert len(tr.normalized) == len(tr.alphas) == 1
    assert len(tr.normalized[0]) == len(cps)


def test_trace_log_branch_structure():
    cps = (1024, 4096, 16384)
    tr = trace(7, cps, alphas=(0.55, 0.4))
    assert tr.kind == "log"
    assert tr.alphas == (0.55, 0.4)
    assert len(tr.normalized) == 2
    for r, (lo, hi), e in zip(tr.residuals, tr.residual_intervals, tr.main_errors):
        assert lo == pytest.approx(r - e)
        assert hi == pytest.approx(r + e)
    for j, x in enumerate(cps):
        assert tr.normalized[0][j] == pytest.approx(tr.residuals[j] / x**0.55)
    assert tr.values == tuple(summatory_convolved(7, x) for x in cps)


def test_trace_residual_intervals_round_outward():
    # S(x) is exact and the main term lies in main -+ main_error, so the
    # float residual interval must hold the exact difference
    tr = trace(13, (1024, 4096, 2**23))
    for v, m, e, (lo, hi) in zip(
        tr.values, tr.main_values, tr.main_errors, tr.residual_intervals
    ):
        assert Fraction(lo) <= v - (Fraction(m) + Fraction(e))
        assert v - (Fraction(m) - Fraction(e)) <= Fraction(hi)


def test_fitted_exponent_is_the_exact_least_squares_slope():
    # the centred form sum (x - mx)(y - my) / sum (x - mx)^2 in rationals
    for q, cps in ((13, default_checkpoints(2**22)), (7, (1024, 5000, 77777))):
        tr = trace(q, cps)
        pts = [
            (Fraction(log(float(x))), Fraction(log(abs(r))))
            for x, r in zip(tr.checkpoints, tr.residuals)
            if r != 0.0
        ]
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        num = sum((x - mx) * (y - my) for x, y in pts)
        den = sum((x - mx) ** 2 for x, _ in pts)
        assert tr.fitted_exponent == float(num / den)
    # one point, or two at one float abscissa, fix no slope
    assert summatory._slope([(1.0, 2.0)]) is None
    assert summatory._slope([(1.0, 2.0), (1.0, 3.0)]) is None


def test_trace_progress_callback():
    calls = []
    trace(3, (1024, 2048), progress=lambda s, d, t: calls.append((s, d, t)))
    assert calls[0] == ("sieve", 1, 1)
    assert calls[1:] == [("checkpoint", 1, 2), ("checkpoint", 2, 2)]


def test_trace_checkpoint_validation():
    with pytest.raises(ArgumentError):
        trace(3, ())
    with pytest.raises(ArgumentError):
        trace(3, (2048, 1024))
    with pytest.raises(ArgumentError):
        trace(3, (50, 1024))  # below the asymptotic floor
    with pytest.raises(ArgumentError):
        trace(3, (1024,), alphas=(1.5,))
    with pytest.raises(ArgumentError):
        trace(3, (1024,), alphas=(0.0,))
    with pytest.raises(ArgumentError):
        trace(3, (1024,), alphas=(0.5, float("nan")))


def test_rh_diagnostic_structure():
    cps = (1024, 4096)
    d = rh_diagnostic(19, cps)
    assert d.q == 19
    assert d.values == tuple(summatory_convolved(19, x) for x in cps)
    assert all(r >= 0 and np.isfinite(r) for r in d.ratio_unconditional)
    assert all(r >= 0 and np.isfinite(r) for r in d.ratio_conditional)
    for v, x, ru in zip(d.values, cps, d.ratio_unconditional):
        expect = abs(v) / (x**0.5 * subexp_decay(x**0.25, d.c))
        assert ru == pytest.approx(expect)


def test_rh_diagnostic_wrong_branch():
    with pytest.raises(ClassificationError):
        rh_diagnostic(7, (1024,))
    with pytest.raises(ClassificationError):
        rh_diagnostic(3, (1024,))


def test_rh_diagnostic_parameter_guards():
    with pytest.raises(ArgumentError):
        rh_diagnostic(19, (1024,), eps=0.3)
    with pytest.raises(ArgumentError):
        rh_diagnostic(19, (1024,), c=0.0)
    with pytest.raises(ArgumentError):
        rh_diagnostic(19, (1024,), c=float("nan"))
    with pytest.raises(ArgumentError):
        rh_diagnostic(19, (1024,), c=float("inf"))
    # exp(-c ...) underflows to 0.0 at every checkpoint
    with pytest.raises(ArgumentError, match="x=1024"):
        rh_diagnostic(19, (1024, 2048), c=1e6)


def test_envelope_shapes():
    with pytest.raises(ArgumentError):
        subexp_decay(2.0, 0.2)
    with pytest.raises(ArgumentError):
        rh_growth(2.0, 0.01)
    with pytest.raises(ArgumentError):
        rh_growth(100.0, 0.5)
    assert 0 < subexp_decay(100.0, 0.2) < 1
    assert rh_growth(10.0**4, 0.01) > rh_growth(10.0**3, 0.01) > 1.0


def test_branch_coverage_of_diagnostic_domain():
    # the diagnostic exists exactly where no main term does
    for q in (19, 29, 43, 53):
        assert classify(q).branch is Branch.PM5_MOD24
