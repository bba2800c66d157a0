"""Coefficient algebra against brute-force oracles, the factorization
routes for every structural branch, and the three root-floor identity
scans."""

from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from test_summatory import floor_root_grid

from tauchar import _kernels, cases, dirichlet
from tauchar.constants import LocalFactor, local_factor
from tauchar.dirichlet import (
    cube_root_identity_scan,
    Tables,
    dirichlet_convolve,
    expand_euler_product,
    fifth_power_identity_scan,
    square_root_identity_scan,
    verify_factorization,
)
from tauchar.errors import ArgumentError, ClassificationError, OverflowHardError
from tauchar.sieves import (
    CoeffSeries,
    divisor_count_sieve,
    is_prime,
    liouville_sieve,
    mobius_sieve,
    ones_series,
    power_indicator_series,
    tau_char_sieve,
)


def coeff_series(values) -> CoeffSeries:
    """The series of the integers indexed 0..limit (entry 0 ignored); a
    value outside int64 raises OverflowHardError rather than wrapping."""
    vals = [int(v) for v in values]
    if not all(-(2**63) <= v < 2**63 for v in vals):
        raise OverflowHardError("a coefficient does not fit in signed 64 bits")
    arr = np.array(vals, dtype=np.int64)
    arr[0] = 0
    return CoeffSeries(len(arr) - 1, arr)


def brute_convolve(a: CoeffSeries, b: CoeffSeries) -> list[int]:
    n = a.limit
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            out[m] += a[d] * b[m // d]
    return out


def random_series(rng, limit, lo=-5, hi=6) -> CoeffSeries:
    vals = rng.integers(lo, hi, size=limit + 1)
    vals[0] = 0
    return coeff_series(vals)


def test_convolution_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_series(rng, 200)
        b = random_series(rng, 200)
        got = dirichlet_convolve(a, b)
        expect = brute_convolve(a, b)
        assert all(got[n] == expect[n] for n in range(1, 201))


def test_convolution_ring_laws():
    rng = np.random.default_rng(3)
    a = random_series(rng, 150)
    b = random_series(rng, 150)
    c = random_series(rng, 150)
    ab = dirichlet_convolve(a, b)
    ba = dirichlet_convolve(b, a)
    assert ab == ba
    assert dirichlet_convolve(ab, c) == dirichlet_convolve(a, dirichlet_convolve(b, c))
    e = coeff_series([0, 1] + [0] * 149)
    assert dirichlet_convolve(a, e) == a


def test_convolution_requires_equal_limits():
    rng = np.random.default_rng(4)
    with pytest.raises(ArgumentError):
        dirichlet_convolve(random_series(rng, 100), random_series(rng, 101))


def test_convolution_overflow_guard():
    big = np.zeros(101, dtype=np.int64)
    big[1] = 1
    big[2] = 2**62
    s = coeff_series(big)
    with pytest.raises(OverflowHardError):
        dirichlet_convolve(s, s)


def test_convolution_overflow_guard_sees_int64_min():
    # np.abs(-2**63) is -2**63: a guard built on it passes, and a(2) b(2)
    # wraps at n = 4
    a = coeff_series([0, 1, -(2**63), 0, 0])
    b = coeff_series([0, 1, 3, 0, 0])
    with pytest.raises(OverflowHardError):
        dirichlet_convolve(a, b)
    with pytest.raises(OverflowHardError):
        dirichlet_convolve(b, a)


def loop_convolve(a: CoeffSeries, b: CoeffSeries) -> CoeffSeries:
    """The per-d route: one strided update for every nonzero a(d)."""
    n = a.limit
    out = np.zeros(n + 1, dtype=np.int64)
    for d in np.nonzero(a.values)[0].tolist():
        out[d::d] += a.values[d] * b.values[1 : n // d + 1]
    return CoeffSeries(n, out)


def loop_inverse(a: CoeffSeries) -> CoeffSeries:
    """The recursion b(m) = -a(1) sum_{d | m, d > 1} a(d) b(m/d) in Python
    ints, checked into int64 at the end."""
    n = a.limit
    a1 = a[1]
    av = [int(v) for v in a.values]
    nz = [k for k in range(2, n + 1) if av[k]]
    b = [0] * (n + 1)
    b[1] = a1
    acc = [0] * (n + 1)  # sum_{d | m, d > 1} a(d) b(m/d)
    for m in range(1, n + 1):
        if m > 1:
            b[m] = -a1 * acc[m]
        if b[m]:
            for k in nz:
                if k > n // m:
                    break
                acc[k * m] += av[k] * b[m]
    return coeff_series(b)


def series_kinds(rng, n, lead):
    """A dense, a sparse and an indicator series on 1..n with a(1) = lead."""
    dense = rng.integers(-5, 6, size=n + 1)
    sparse = rng.integers(-3, 4, size=n + 1) * (rng.random(n + 1) < 0.02)
    indicator = np.array(power_indicator_series(2 + n % 3, n).values)
    out = []
    for v in (dense, sparse, indicator):
        v = np.array(v, dtype=np.int64)
        v[1] = lead
        out.append(coeff_series(v))
    return out


# n = 1, 2, 3 and r^2 - 1, r^2, r^2 + r around the split r = isqrt(n)
SPLIT_EDGES = [1, 2, 3, 48, 49, 56, 9999, 10000, 10100]


@pytest.mark.parametrize("n", SPLIT_EDGES)
def test_split_convolution_matches_loop_at_split_edges(n):
    rng = np.random.default_rng(n)
    for lead in (0, 1, -1):
        kinds = series_kinds(rng, n, lead)
        for a in kinds:
            for b in kinds:
                assert dirichlet_convolve(a, b) == loop_convolve(a, b)


def test_split_convolution_matches_loop_at_random_limits():
    rng = np.random.default_rng(8)
    for n in rng.integers(1, 2 * 10**4, size=8).tolist():
        kinds = series_kinds(rng, n, int(rng.integers(-1, 2)))
        for a in kinds:
            for b in kinds:
                assert dirichlet_convolve(a, b) == loop_convolve(a, b), n


def sparse_kinds(n):
    """The sides a loop over the support serves: q-th power indicators,
    Euler expansions, mu(sqrt n) at the squares, and the identity e."""
    out = [power_indicator_series(q, n) for q in (2, 3, 5)]
    out += [expand_euler_product(local_factor(q), n) for q in (7, 11, 19)]
    out.append(expand_euler_product(local_factor(43, combined=True), n))
    m = np.arange(1, isqrt(n) + 1)
    mu_sq = np.zeros(n + 1, dtype=np.int64)
    mu_sq[m * m] = mobius_sieve(isqrt(n)).values[1:]
    out.append(coeff_series(mu_sq))
    out.append(coeff_series([0, 1] + [0] * (n - 1)))
    return out


def dense_kinds(rng, n):
    """tau, 1, a tau character and a random series on 1..n."""
    return [divisor_count_sieve(n), ones_series(n), tau_char_sieve(7, n),
            random_series(rng, n)]


def test_support_loop_matches_loop_both_ways(monkeypatch):
    # a sparse side against a dense one, in both argument orders, at the
    # split edges and on seeded random limits; the per-d loop is the oracle
    rng = np.random.default_rng(11)
    limits = SPLIT_EDGES + rng.integers(1, 5 * 10**4, size=4).tolist()
    real, looped = dirichlet._add_multiple, []

    def spy(out, sl, v, x):
        # a strided update over every k at some d > isqrt(n) is the loop
        if sl.step == sl.start and sl.stop is None and sl.start ** 2 > len(out) - 1:
            looped.append(len(out) - 1)
        real(out, sl, v, x)

    monkeypatch.setattr(dirichlet, "_add_multiple", spy)
    for n in limits:
        dense = dense_kinds(rng, n)
        for a in sparse_kinds(n):
            for b in dense:
                want = loop_convolve(a, b)
                assert dirichlet_convolve(a, b) == want, n
                assert dirichlet_convolve(b, a) == want, n
    assert set(looped) >= {10000, 10100}


def inverse_power_limits():
    """SPLIT_EDGES, r^k - 1, r^k and r^k + 1 for r = 2..5 and seeded random n."""
    rng = np.random.default_rng(9)
    edges = {r**k + d for r in (2, 3, 4, 5) for k in (2, 3) for d in (-1, 0, 1)}
    return SPLIT_EDGES + sorted(edges) + rng.integers(1, 2 * 10**4, size=4).tolist()


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_inverse_power_matches_loop(r):
    # the closed-form table, mu(n^(1/r)) at the r-th powers, against the
    # recursion that inverts the indicator term by term
    for n in inverse_power_limits():
        inv = Tables(n).inverse_power(r)
        assert inv.values.dtype == np.int8, n
        assert inv == loop_inverse(power_indicator_series(r, n)), n


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_inverse_power_is_two_sided(r):
    for n in inverse_power_limits():
        tables = Tables(n)
        inv, ind = tables.inverse_power(r), tables.power(r)
        e = coeff_series([0, 1] + [0] * (n - 1))
        assert dirichlet_convolve(inv, ind) == e, n
        assert dirichlet_convolve(ind, inv) == e, n


def test_convolution_guard_falls_back_to_the_exact_bound(monkeypatch):
    # the a-priori bound 2^31 * 2^31 * 5 is above int64, so the exact bound
    # is computed; it is (a * a)(4) = 2^62, which fits, and the convolution
    # is returned.  With b(2) = 2^32 the exact bound is 2^63, which does not.
    bounds, real = [], dirichlet._exact_bound

    def spy(a, b):
        bounds.append(real(a, b))
        return bounds[-1]

    monkeypatch.setattr(dirichlet, "_exact_bound", spy)
    a = coeff_series([0, 1, 2**31, 0, 0])
    aa = dirichlet_convolve(a, a)
    assert aa == coeff_series(brute_convolve(a, a))
    assert aa[4] == 2**62
    b = coeff_series([0, 1, 2**32, 0, 0])
    with pytest.raises(OverflowHardError):
        dirichlet_convolve(a, b)
    assert bounds == [2**62, 2**63]


def test_verify_inverts_without_the_exact_bound(monkeypatch):
    # verify divides by zeta(2s) and zeta(4s) through 0/+-1 tables, whose
    # convolutions the a-priori bound admits
    def refuse(a, b):
        raise AssertionError("exact overflow bound computed")

    monkeypatch.setattr(dirichlet, "_exact_bound", refuse)
    for q in (5, 19, 43):
        assert verify_factorization(q, 10**4).ok, q


def truncated_product(a, b, order: int) -> list[int]:
    """Coefficients of u^0..u^order in the product of two power series."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def fraction_long_division(num, den, order: int) -> list[Fraction]:
    """num / den to u^order in exact rationals, for any den[0] != 0."""
    out: list[Fraction] = []
    for k in range(order + 1):
        acc = Fraction(num[k] if k < len(num) else 0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def test_power_series_division_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = [1] + rng.integers(-4, 5, size=11).tolist()
        b = [1] + rng.integers(-4, 5, size=11).tolist()
        ab = truncated_product(a, b, 11)
        assert LocalFactor("ab", tuple(ab), tuple(b)).coeffs(11) == tuple(a)


def test_local_factor_coeffs_match_fraction_division():
    rng = np.random.default_rng(7)
    for _ in range(20):
        num = [1] + rng.integers(-4, 5, size=int(rng.integers(0, 15))).tolist()
        den = [1] + rng.integers(-4, 5, size=int(rng.integers(0, 9))).tolist()
        lf = LocalFactor("random", tuple(num), tuple(den))
        assert list(lf.coeffs(30)) == fraction_long_division(num, den, 30)
    checked = 0
    for q in range(3, 2000, 2):
        if not is_prime(q):
            continue
        for combined in (False, True):
            try:
                lf = local_factor(q, combined)
            except ClassificationError:
                continue
            got = lf.coeffs(60)
            assert all(type(c) is int for c in got), lf.name
            assert list(got) == fraction_long_division(
                lf.numerator, lf.denominator, 60
            ), lf.name
            checked += 1
    assert checked > 300


def test_local_factor_needs_unit_constant_terms():
    for num, den in (((2,), (2,)), ((1, 1), (2, 1)), ((1,), (-1, 1)),
                     ((1,), ()), ((0, 1), (1,)), ((), (1,))):
        with pytest.raises(ArgumentError):
            LocalFactor("bad", num, den)


def test_log_branch_factor_q7_closed_form():
    # chi mod 7 steps give 1 - 2u^2 + 2u^3 - 2u^4 + u^6
    lf = local_factor(7)
    assert lf.numerator == (1, 0, -2, 2, -2, 0, 1)
    assert lf.denominator == (1,)


def test_local_factor_residue_guards():
    # q = 3 and q = 5 have no local factor; the combined factor is +-5 mod 24 only
    for q, combined in ((3, False), (5, False), (7, True), (11, True), (3, True)):
        with pytest.raises(ClassificationError):
            local_factor(q, combined)
    assert local_factor(19).name == "pm19_29_mod120[q=19]"
    assert local_factor(43).name == "pm43_53_mod120[q=43]"
    assert local_factor(43, combined=True).name == "pm5_mod24_raw[q=43]"


@pytest.mark.parametrize("q,m", [(11, 2), (19, 3), (19, 5), (43, 4), (43, 5)])
def test_local_factor_checks_low_order_terms(q, m, monkeypatch):
    # each closed form holds only for its low-order t[m]; a corrupt one must
    # fail hard, in classify or in local_factor, never build a factor
    step_coeffs = cases._step_coeffs

    def corrupt(q_, sign):
        t = step_coeffs(q_, sign)
        t[m] += 1
        return t

    monkeypatch.setattr(cases, "_step_coeffs", corrupt)
    with pytest.raises(ArgumentError):
        local_factor(q)


@pytest.mark.parametrize("q", [19, 29, 101, 149, 211])
def test_combined_factor_splits_against_u4_family(q):
    # the +-19/+-29 mod 120 factor absorbs a (1 - u^4): raw * (1-u^4) == split
    order = 24
    raw = local_factor(q, combined=True).coeffs(order)
    split = local_factor(q).coeffs(order)
    assert split[:5] == (1, 0, 0, 0, 0)
    assert truncated_product(raw, [1, 0, 0, 0, -1], order) == list(split)


@pytest.mark.parametrize("q", [43, 53, 67, 163, 173, 197])
def test_combined_factor_splits_against_inverse_u4_family(q):
    # the +-43/+-53 mod 120 factor sheds a (1 - u^4): split * (1-u^4) == raw
    order = 24
    raw = local_factor(q, combined=True).coeffs(order)
    split = local_factor(q).coeffs(order)
    assert split[:6] == (1, 0, 0, 0, 0, 0)
    assert truncated_product(split, [1, 0, 0, 0, -1], order) == list(raw)


def brute_multiplicative_value(n, coeff_fn):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out *= coeff_fn(p, e)
        p += 1
    if m > 1:
        out *= coeff_fn(m, 1)
    return out


def test_euler_expansion_is_multiplicative():
    lf = local_factor(7)
    n = 5000
    series = expand_euler_product(lf, n)

    def coeff(p, e):
        c = lf.coeffs(e)
        return c[e] if e < len(c) else 0

    for m in range(1, n + 1):
        assert series[m] == brute_multiplicative_value(m, coeff), m


def test_euler_expansion_prime_powers():
    lf = local_factor(11)
    series = expand_euler_product(lf, 3**7)
    c = lf.coeffs(7)
    for e in range(0, 8):
        expect = c[e] if e < len(c) else 0
        if 3**e <= 3**7:
            assert series[3**e] == expect


def _local_factors_below_60():
    for q in range(7, 60, 2):
        if is_prime(q):
            yield local_factor(q)
            if q % 24 in (5, 19):
                yield local_factor(q, combined=True)


def test_euler_expansion_by_the_walk_equals_the_sieve():
    # every factor local_factor returns has no u^1 term, so the expansion
    # runs the powerful walk; the block kernel is the second route
    rng = np.random.default_rng(12)
    limits = [1, 2, 3, 4, 8, 9, 16, 17, 255, 256, 3000, 10**5]
    limits += [int(n) for n in rng.integers(5, 10**5, size=4)]
    factors = list(_local_factors_below_60())
    assert len(factors) == 18
    for lf in factors:
        for n in limits:
            c = lf.coeffs(max(1, n.bit_length() - 1))
            assert c[1] == 0
            walked = expand_euler_product(lf, n)
            sieved = CoeffSeries(n, _kernels.full_tables(n, c))
            assert walked == sieved, (lf.name, n)


def test_euler_expansion_overflow_guard():
    # 30 = 2 * 3 * 5 has three distinct primes, and (2^40)^3 > 2^63 - 1; a
    # single prime's value 2^40 still fits, so limit 5 expands
    lf = LocalFactor("wide", (1, 2**40), (1,))
    with pytest.raises(OverflowHardError):
        expand_euler_product(lf, 30)
    assert expand_euler_product(lf, 5)[5] == 2**40


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 19, 23, 29, 43, 47, 53])
def test_factorization_routes_pass(q):
    rep = verify_factorization(q, 3000)
    assert rep.ok, (q, [(r.name, r.first_mismatch) for r in rep.routes if not r.ok])
    assert rep.first_mismatch is None
    assert len(rep.routes) >= 1


# (q, route name) for every odd prime q <= 60, 67 and 101; verify's CSV is
# built from these names
ROUTE_NAMES = [
    (3, "conv(tau_char, 1) == cube_indicator"),
    (3, "tau_char == conv(cube_indicator, mobius)"),
    (5, "conv(tau_char, 1) == conv(fifth_power_indicator, inverse(square_indicator))"),
    (7, "conv(tau_char, 1) == conv(log_branch_coeffs, tau)"),
    (11, "conv(tau_char, 1) == conv(sqrt_branch_coeffs, square_indicator)"),
    (13, "conv(tau_char, 1) == conv(sqrt_branch_coeffs, square_indicator)"),
    (17, "conv(tau_char, 1) == conv(log_branch_coeffs, tau)"),
    (19, "conv(tau_char, 1) == conv(raw_coeffs, inverse(square_indicator))"),
    (19, "conv(tau_char, 1) == conv(u5_coeffs, fourth_power_indicator, inverse(square_indicator))"),
    (23, "conv(tau_char, 1) == conv(log_branch_coeffs, tau)"),
    (29, "conv(tau_char, 1) == conv(raw_coeffs, inverse(square_indicator))"),
    (29, "conv(tau_char, 1) == conv(u5_coeffs, fourth_power_indicator, inverse(square_indicator))"),
    (31, "conv(tau_char, 1) == conv(log_branch_coeffs, tau)"),
    (37, "conv(tau_char, 1) == conv(sqrt_branch_coeffs, square_indicator)"),
    (41, "conv(tau_char, 1) == conv(log_branch_coeffs, tau)"),
    (43, "conv(tau_char, 1) == conv(raw_coeffs, inverse(square_indicator))"),
    (43, "conv(tau_char, 1) == "
         "conv(u6_coeffs, inverse(fourth_power_indicator), inverse(square_indicator))"),
    (47, "conv(tau_char, 1) == conv(log_branch_coeffs, tau)"),
    (53, "conv(tau_char, 1) == conv(raw_coeffs, inverse(square_indicator))"),
    (53, "conv(tau_char, 1) == "
         "conv(u6_coeffs, inverse(fourth_power_indicator), inverse(square_indicator))"),
    (59, "conv(tau_char, 1) == conv(sqrt_branch_coeffs, square_indicator)"),
    (67, "conv(tau_char, 1) == conv(raw_coeffs, inverse(square_indicator))"),
    (67, "conv(tau_char, 1) == "
         "conv(u6_coeffs, inverse(fourth_power_indicator), inverse(square_indicator))"),
    (101, "conv(tau_char, 1) == conv(raw_coeffs, inverse(square_indicator))"),
    (101, "conv(tau_char, 1) == conv(u5_coeffs, fourth_power_indicator, inverse(square_indicator))"),
]


def test_route_names_are_pinned():
    qs = [q for q in range(3, 61, 2) if is_prime(q)] + [67, 101]
    got = []
    for q in qs:
        rep = verify_factorization(q, 500)
        assert rep.ok, q
        got += [(q, r.name) for r in rep.routes]
    assert got == ROUTE_NAMES


def test_tables_must_match_the_limit():
    with pytest.raises(ArgumentError):
        verify_factorization(7, 100, dirichlet.Tables(99))
    with pytest.raises(ArgumentError):
        cube_root_identity_scan(100, dirichlet.Tables(101))


def test_q3_has_two_routes():
    rep = verify_factorization(3, 1000)
    assert len(rep.routes) == 2
    assert rep.ok


def test_mod120_branches_carry_extra_route():
    # +-19/+-29 and +-43/+-53 mod 120 verify both the combined factor and the
    # finer split, so at least two routes appear
    for q in (19, 29, 43, 53):
        rep = verify_factorization(q, 1500)
        assert len(rep.routes) >= 2
        assert rep.ok


def test_factorization_at_a_million():
    # the deepest chain, two inverses and a three-way convolution, at a size
    # where one numpy call per coefficient would show as seconds
    assert verify_factorization(43, 10**6).ok


def test_factorization_detects_poisoned_table():
    # a corrupted character value must surface as a first_mismatch
    q = 7
    direct = tau_char_sieve(q, 400)
    vals = np.array(direct.values, copy=True)
    vals[101] = -vals[101]
    poisoned = coeff_series(vals)
    good = dirichlet_convolve(direct, ones_series(400))
    bad = dirichlet_convolve(poisoned, ones_series(400))
    miss = good.first_mismatch(bad)
    assert miss == 101


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
        jumps = np.zeros(limit + 1, dtype=np.int64)
        for n, w in dirichlet._fifth_power_jumps(limit).items():
            jumps[n] += w
        expect = grid_fifth_power_mobius_sums(limit)
        assert np.array_equal(np.cumsum(jumps), expect), limit


def test_identity_scans_hold_to_ten_thousand():
    assert square_root_identity_scan(10000) is None
    assert cube_root_identity_scan(10000) is None
    assert fifth_power_identity_scan(10000) is None


def root_grid_sums(k: int):
    return lambda limit: floor_root_grid(np.arange(limit + 1, dtype=np.int64), k)


# each scan, the table it sieves, and the prefix sums its identity claims
SCANS = {
    "square": (square_root_identity_scan, "liouville_sieve",
               liouville_sieve, root_grid_sums(2)),
    "cube": (cube_root_identity_scan, "tau_char_sieve",
             lambda limit: tau_char_sieve(3, limit), root_grid_sums(3)),
    "fifth": (fifth_power_identity_scan, "tau_char_sieve",
              lambda limit: tau_char_sieve(5, limit), grid_fifth_power_mobius_sums),
}


@pytest.mark.parametrize("kind", SCANS)
def test_identity_scan_reports_the_first_corrupted_coefficient(kind, monkeypatch):
    # one wrong a(n) moves (a * 1)(n) first, so the coefficient comparison
    # and the prefix-sum oracle must both first fail at x = n
    scan, name, table, oracle = SCANS[kind]
    limit = 3000
    true, expect = table(limit), oracle(limit)
    rng = np.random.default_rng(17)
    for n in (1, 2, int(rng.integers(3, limit)), limit):
        vals = true.values.copy()
        vals[n] = 1 - vals[n]
        bad = CoeffSeries(limit, vals)
        monkeypatch.setattr(dirichlet, name, lambda *args: bad)
        assert scan(limit) == n, (kind, n)
        s = np.cumsum(dirichlet_convolve(bad, ones_series(limit)).values)
        assert int(np.flatnonzero(s[1:] != expect[1:])[0]) + 1 == n, (kind, n)
