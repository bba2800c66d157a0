"""Sieve tables and the kernels behind them against brute-force oracles."""

import argparse
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from tauchar import (
    _kernels,
    arith,
    cli,
    constants,
    curves,
    dirichlet,
    powerful,
    sieves,
    summatory,
)
from tauchar.dirichlet import dirichlet_convolve
from tauchar.errors import ArgumentError, OverflowHardError, ResourceLimitError
from tauchar.powerful import prime_list
from tauchar.sieves import (
    CoeffSeries,
    MAX_SIEVE_ENTRIES,
    check_budget,
    divisor_count_sieve,
    is_prime,
    liouville_sieve,
    mobius_sieve,
    multiplicative_series,
    ones_series,
    power_indicator_series,
    tau_char_sieve,
)
from tauchar.sieves import _jacobi

N = 3000


def brute_tau(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def brute_exponents(n, primes):
    """Exponents of n's prime factors, by trial division by the primes <= sqrt(n)."""
    out, m = [], n
    for p in primes:
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append(e)
    return out + [1] if m > 1 else out


def brute_mu(n):
    if n == 1:
        return 1
    m, out, p = n, 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def brute_omega_parity(n):
    count, m, p = 0, n, 2
    while p * p <= m:
        while m % p == 0:
            m //= p
            count += 1
        p += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


def euler_criterion(a, q):
    # (a/q) = a^((q-1)/2) mod q, mapped to {-1, 0, 1}
    r = pow(a % q, (q - 1) // 2, q)
    return r - q if r > 1 else r


def test_divisor_count_sieve_matches_brute_force():
    tau = divisor_count_sieve(N)
    for n in range(1, N + 1):
        assert tau[n] == brute_tau(n), n


def test_mobius_sieve_matches_brute_force():
    mu = mobius_sieve(N)
    for n in range(1, N + 1):
        assert mu[n] == brute_mu(n), n


def test_liouville_sieve_matches_brute_force():
    lv = liouville_sieve(N)
    for n in range(1, N + 1):
        assert lv[n] == brute_omega_parity(n), n


def test_power_indicator_series():
    for r in range(2, 8):
        ar = power_indicator_series(r, 10**4)
        powers = {k**r for k in range(1, 101)}
        for n in range(1, 10**4 + 1):
            assert ar[n] == (1 if n in powers else 0), (r, n)
    with pytest.raises(ArgumentError):
        power_indicator_series(1, 100)


def test_ones_and_identity_series():
    ones = ones_series(50)
    e = CoeffSeries(50, np.array([0, 1] + [0] * 49, dtype=np.int64))
    assert all(ones[n] == 1 for n in range(1, 51))
    assert dirichlet_convolve(ones, e) == ones


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 23, 199])
def test_legendre_table_against_euler_criterion(q):
    # _jacobi reduces a mod q itself: negative a and a >= q included
    for a in range(-2 * q, 3 * q):
        assert _jacobi(a, q) == euler_criterion(a, q), (q, a)


def test_legendre_table_against_jacobi_all_small_q():
    for q in range(3, 200, 2):
        if not is_prime(q):
            continue
        for a in range(q):
            assert euler_criterion(a, q) == _jacobi(a, q), (q, a)


def test_tau_char_sieve_rejects_non_prime_and_even():
    for bad in (1, 2, 4, 9, 15, 91):
        with pytest.raises(ArgumentError, match="modulus must be an odd prime"):
            tau_char_sieve(bad, 100)


def test_legendre_symbol_is_multiplicative():
    rng = np.random.default_rng(5)
    for q in (7, 13, 31):
        for _ in range(200):
            a, b = map(int, rng.integers(1, 10**6, size=2))
            assert _jacobi(a * b, q) == _jacobi(a, q) * _jacobi(b, q)


def test_tau_char_sieve_matches_pointwise_definition():
    for q in (3, 5, 7, 11, 13):
        series = tau_char_sieve(q, N)
        tau = divisor_count_sieve(N)
        for n in range(1, N + 1):
            assert series[n] == euler_criterion(tau[n], q), (q, n)


def test_tau_char_lookup_equals_the_kernel_route():
    # tau_char_sieve reads (t / q) at t = tau(n); the block kernel builds the
    # multiplicative table with chi(e + 1) at p^e.  Limits 1, 2, r^2 - 1,
    # r^2 and r^2 + r at r = 100, and three seeded random limits
    rng = np.random.default_rng(23)
    limits = [1, 2, 9999, 10000, 10100] + rng.integers(3, 10**5, size=3).tolist()
    qs = [q for q in range(3, 100, 2) if is_prime(q)]
    for limit in limits:
        tau = divisor_count_sieve(limit)
        for q in qs:
            c = [_jacobi(e + 1, q) for e in range(max(2, limit.bit_length()))]
            kernel = multiplicative_series(limit, c)
            assert tau_char_sieve(q, limit) == kernel, (q, limit)
            assert tau_char_sieve(q, limit, tau) == kernel, (q, limit)


def test_tau_char_rejects_a_divisor_count_of_another_limit():
    with pytest.raises(ArgumentError):
        tau_char_sieve(7, 100, divisor_count_sieve(99))


def test_tau_char_is_multiplicative_on_coprime_pairs():
    rng = np.random.default_rng(17)
    series = tau_char_sieve(7, 10**6)
    checked = 0
    while checked < 300:
        a, b = map(int, rng.integers(2, 1000, size=2))
        if np.gcd(a, b) != 1:
            continue
        assert series[a * b] == series[a] * series[b]
        checked += 1


def brute_primes(limit):
    return [n for n in range(2, limit + 1) if all(n % d for d in range(2, isqrt(n) + 1))]


def test_prime_list_against_brute_force():
    limits = list(range(301)) + [10**5]
    limits += [p * p + d for p in brute_primes(99) for d in (-1, 0, 1)]
    for limit in limits:
        assert powerful.prime_list(limit) == brute_primes(limit), limit
    with pytest.raises(ResourceLimitError):
        powerful.prime_list(MAX_SIEVE_ENTRIES + 1)


def test_every_prime_consumer_draws_from_prime_list(monkeypatch):
    # the walk, the tables, the near-curve window, the certified Euler
    # products and the --all-q moduli share one sieve; no other is left,
    # and the walk alone decides how far its primes go
    assert not hasattr(_kernels, "primes_up_to")
    assert not hasattr(sieves, "primes_up_to")
    assert not hasattr(constants, "_primes_to")
    assert not hasattr(sieves, "prime_list")
    assert not hasattr(summatory, "prime_list")
    owners = (constants, curves, _kernels.pyback)
    for mod in owners:
        assert mod.prime_list is powerful.prime_list, mod.__name__
    asked = []

    def spy(limit):
        asked.append(limit)
        return prime_list(limit)

    # the walk and cli look it up in powerful
    for mod in owners + (powerful,):
        monkeypatch.setattr(mod, "prime_list", spy)
    _kernels.full_tables(1000, TAU_C)
    # on q = +-3 (mod 8) the walk visits the cube-full numbers: the primes
    # to the cube root of 10^4
    summatory.summatory_convolved(13, 10**4)
    # local_factor(13) vanishes at u^2 and not at u^3: the walk needs the
    # primes to the cube root of 2000 only
    dirichlet.expand_euler_product(dirichlet.local_factor(13), 2000)
    curves.short_interval_sum(curves.ShortIntervalInstance(10**8, 4170))
    constants._rung.cache_clear()
    constants._rung(Fraction(3, 2), 100)
    moduli = cli._moduli(argparse.Namespace(q=None, all_q=60))
    assert moduli == brute_primes(60)[1:]
    assert asked == [
        isqrt(1000), 21, 12, isqrt(isqrt(10**8 + 4170)), 100, 60
    ]


# per-exponent values c[e] = f(p^e) of the three base functions
TAU_C = list(range(1, 41))
MU_C = [1, -1] + [0] * 39
LIOU_C = [(-1) ** e for e in range(41)]
BRUTE = ((TAU_C, brute_tau), (MU_C, brute_mu), (LIOU_C, brute_omega_parity))


def test_factor_block_against_brute_force():
    lo, hi = 1, 400
    primes = prime_list(30)
    for c, brute in BRUTE:
        out = _kernels.factor_block(lo, hi, primes, c)
        for n in range(lo, hi):
            assert out[n - lo] == brute(n), (c[:3], n)


def test_factor_block_random_windows():
    rng = np.random.default_rng(9)
    small = brute_primes(1000)
    for _ in range(12):
        lo = int(rng.integers(1, 10**6))
        hi = lo + int(rng.integers(1, 3000))
        primes = prime_list(isqrt(hi) + 1)
        exps = [brute_exponents(n, small) for n in range(lo, hi)]
        for c, _ in BRUTE:
            out = _kernels.factor_block(lo, hi, primes, c)
            want = [int(np.prod([c[e] for e in es])) for es in exps]
            assert [int(v) for v in out] == want, (c[:3], lo, hi)


def test_factor_block_tau_character_at_offset_1e12():
    # c[e] = chi(e + 1) gives (tau(n) / q) without a divisor-count table
    lo, hi = 10**12, 10**12 + 64
    primes = prime_list(isqrt(hi))
    # trial division by the prime list, itself checked against brute force
    taus = [
        int(np.prod([e + 1 for e in brute_exponents(n, primes)]))
        for n in range(lo, hi)
    ]
    for q in (5, 7, 13):
        c = [_jacobi(e + 1, q) for e in range(hi.bit_length())]
        out = _kernels.factor_block(lo, hi, primes, c)
        assert out.dtype == np.int8
        assert [int(v) for v in out] == [euler_criterion(t, q) for t in taus], q


def test_factor_block_rejects_short_coefficients():
    with pytest.raises(ValueError):
        _kernels.factor_block(1, 1025, prime_list(32), TAU_C[:10])
    with pytest.raises(ValueError):
        _kernels.factor_block(1, 100, prime_list(10), [2] + TAU_C[1:])


@pytest.mark.parametrize("tail", [1024, 777])
def test_full_tables_across_segment_sizes(tail):
    # a full block and a short tail against one block over the range
    limit = _kernels.DEFAULT_SEGMENT + tail
    primes = prime_list(isqrt(limit))
    for c, _ in BRUTE:
        table = _kernels.full_tables(limit, c)
        assert table[0] == 0
        single = _kernels.factor_block(1, limit + 1, primes, c)
        assert np.array_equal(table[1:], single)


def test_multiplicative_series_rejects_short_or_unnormalised_c():
    # the kernel's own check would raise a bare ValueError
    for limit, c in ((1, [1]), (1024, TAU_C[:10]), (100, [2] + TAU_C[1:])):
        with pytest.raises(ArgumentError):
            multiplicative_series(limit, c)
    assert multiplicative_series(1, [1, 5])[1] == 1
    assert multiplicative_series(1023, TAU_C[:10]) == divisor_count_sieve(1023)


def test_multiplicative_series_equals_full_tables_on_both_routes():
    # c[1] = 0 scatters the powerful walk, c[1] != 0 runs the block kernel;
    # either way the table is the kernel's, entry for entry
    rng = np.random.default_rng(21)
    for limit in (1, 2, 3, 4, 255, 256, 3000):
        width = max(2, limit.bit_length())
        for first in (0, 0, 0, 1, -1, int(rng.integers(2, 5))):
            c = [1, first] + rng.integers(-4, 5, size=width - 2).tolist()
            want = CoeffSeries(limit, _kernels.full_tables(limit, c))
            assert multiplicative_series(limit, c) == want, (limit, c)


def test_budget_errors():
    with pytest.raises(ResourceLimitError):
        check_budget(MAX_SIEVE_ENTRIES + 1)
    with pytest.raises(ResourceLimitError):
        tau_char_sieve(5, MAX_SIEVE_ENTRIES + 1)


def test_helpers_have_one_definition():
    # primality, the Jacobi symbol and the budget live in the numpy-free
    # arith module; sieves re-exports the very same objects
    for name in ("MAX_SIEVE_ENTRIES", "_jacobi", "check_budget", "is_prime"):
        assert getattr(sieves, name) is getattr(arith, name)


def test_powerful_walk_lists_the_powerful_numbers(monkeypatch):
    # w = 1 from the square on: the indicator of the powerful numbers
    top = N
    w = [1, 0] + [1] * top.bit_length()
    n, wn = zip(*powerful.powerful_walk(w, top)[1])
    primes = prime_list(isqrt(top))
    factored = [brute_exponents(m, primes) for m in range(1, top + 1)]
    want = [m for m, es in enumerate(factored, 1) if all(e >= 2 for e in es)]
    assert sorted(n) == want
    assert list(wn) == [1] * len(want)
    # summatory and the one table builder share this one walk
    assert summatory.powerful_walk is sieves.powerful_walk is powerful.powerful_walk
    real, tops = powerful.powerful_walk, []

    def spy(w, top):
        tops.append(top)
        return real(w, top)

    monkeypatch.setattr(sieves, "powerful_walk", spy)
    monkeypatch.setattr(summatory, "powerful_walk", spy)
    power_indicator_series(2, 100)
    dirichlet.expand_euler_product(dirichlet.local_factor(7), 200)
    summatory.summatory_convolved(7, 300)
    mobius_sieve(400)  # c[1] != 0: the block kernel, no walk
    assert tops == [100, 200, 300]


def test_powerful_walk_depth_follows_the_first_nonzero_weight():
    # the primes go to top^(1/e) for the least e >= 2 with w[e] != 0, and
    # the walk still lists every n with w(n) != 0
    top = 5000
    primes = prime_list(top)
    factored = [brute_exponents(m, primes) for m in range(1, top + 1)]
    for depth, root in ((2, 70), (3, 17), (4, 8), (5, 5), (13, 1)):
        w = [1, 0] + [0] * (depth - 2) + [1] * (top.bit_length() - depth + 1)
        got, nodes = powerful.powerful_walk(w, top)
        assert got == prime_list(root), depth
        want = [m for m, es in enumerate(factored, 1) if all(e >= depth for e in es)]
        assert sorted(n for n, _ in nodes) == want, depth
    assert powerful.powerful_walk([1, 0], 3)[0] == []


def test_powerful_walk_refuses_weights_off_the_powerful_numbers():
    # w[1] != 0 would silently drop every n with a prime to the first power
    for bad in ([1, 1] + [1] * 9, [2, 0] + [1] * 9, [1, 0, 1]):
        with pytest.raises(ArgumentError):
            powerful.powerful_walk(bad, 1000)


def test_multiplicative_series_refuses_int64_overflow_before_any_work(monkeypatch):
    # 6 = 2 * 3 and 10 = 2 * 5 would take (2^32)^2 = 2^64, which wraps to 0
    # in the block kernel, and so would 36 = 2^2 3^2 on the walk, where a
    # wide row would reach numpy's bare OverflowError.  Either way the
    # largest |f(n)| to the limit refuses the row first
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the int64 guard")

    monkeypatch.setattr(_kernels, "full_tables", no_work)
    monkeypatch.setattr(sieves, "powerful_walk", no_work)
    for limit, c in ((10, [1, 2**32, 1, 1]), (36, [1, 0, 2**32, 1, 1, 1]),
                     (10, [1, 0, 1, -(2**63)])):
        with pytest.raises(OverflowHardError):
            multiplicative_series(limit, c)
    monkeypatch.undo()
    # one prime's value 2^40 still fits: below 6 no n has two primes, and
    # below 36 no n has two squares
    assert multiplicative_series(5, [1, 2**40, 1])[5] == 2**40
    assert multiplicative_series(10, [1, 0, 2**31, 1])[4] == 2**31
    assert multiplicative_series(35, [1, 0, 2**32, 1, 1, 1])[9] == 2**32


def test_table_width_is_the_narrowest_that_holds_the_bound():
    # the width holds the largest |f(n)| to the limit, which some n with
    # non-increasing exponents on the first primes takes: tau(n) <= 127
    # below 83160 = 2^3 3^3 5 7 11, where tau = 128, and tau(n) <= 768 to
    # MAX_SIEVE_ENTRIES.  Each table equals the convolution 1 * 1
    widths = ((31, np.int8), (2310, np.int8), (83159, np.int8), (83160, np.int16),
              (2**21, np.int16))
    for limit, dtype in widths:
        tau = divisor_count_sieve(limit)
        assert tau.values.dtype == dtype, limit
        ones = ones_series(limit)
        assert tau == dirichlet_convolve(ones, ones), limit
    assert _kernels.table_dtype(TAU_C, MAX_SIEVE_ENTRIES) == np.int16
    # g = mu * mu has |g| <= 2^omega: 2^6 at 510509, 2^7 at 510510 =
    # 2*3*5*7*11*13*17; mu itself stays int8
    for limit, dtype in ((510509, np.int8), (510510, np.int16)):
        mu = mobius_sieve(limit)
        g = multiplicative_series(limit, [1, -2, 1] + [0] * limit.bit_length())
        assert (mu.values.dtype, g.values.dtype) == (np.int8, dtype), limit
        assert g == dirichlet_convolve(mu, mu), limit


def test_factor_block_width_follows_its_largest_n():
    # a block is bounded by hi - 1 alone, wherever it starts; a row that
    # could pass int64 is refused before any work
    primes = prime_list(300)
    for lo, hi, dtype in ((83100, 83160, np.int8), (83100, 83161, np.int16),
                          (83160, 83161, np.int16)):
        out = _kernels.factor_block(lo, hi, primes, TAU_C)
        assert out.dtype == dtype, (lo, hi)
        want = [np.prod([e + 1 for e in brute_exponents(n, primes)]) for n in range(lo, hi)]
        assert out.tolist() == want
    mu = _kernels.factor_block(10**12, 10**12 + 64, prime_list(10**6), MU_C)
    assert mu.dtype == np.int8
    # n = 1 alone is int8 however large c[1]: it has no prime to take it
    assert _kernels.factor_block(1, 2, [], [1, 300]).tolist() == [1]
    assert multiplicative_series(1, [1, 300]).values.dtype == np.int8
    with pytest.raises(OverflowHardError, match="could overflow int64 below 10"):
        _kernels.factor_block(6, 11, primes, [1, 2**32, 1, 1])


def test_coeff_series_prefix_and_mismatch():
    a = CoeffSeries(4, np.array([0, 1, -1, 0, 2], dtype=np.int64))
    b = CoeffSeries(4, np.array([0, 1, -1, 1, 2], dtype=np.int64))
    assert a.first_mismatch(b) == 3
    assert a.first_mismatch(a) is None


def test_coeff_series_rejects_wrong_shapes():
    with pytest.raises(ArgumentError):
        CoeffSeries(3, np.zeros(3, dtype=np.int64))  # needs limit + 1 entries
    with pytest.raises(ArgumentError):
        CoeffSeries(0, np.zeros(1, dtype=np.int64))
    # any signed integer width, and no other kind
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        assert CoeffSeries(3, np.arange(4, dtype=dtype))[3] == 3
    for dtype in (np.uint8, np.float64, object):
        with pytest.raises(ArgumentError):
            CoeffSeries(3, np.zeros(4, dtype=dtype))
