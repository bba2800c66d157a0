"""Exact summatory evaluation against brute-force double sums, the three
root-floor identities, and the trace/diagnostic report structure."""

import random
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate, chain
from math import isqrt, log

import numpy as np
import pytest

from tauchar import constants, powerful, sieves, summatory
from tauchar._kernels import divisor_window
from tauchar._kernels.pyback import _D_CHUNK, _floats_exact, _quotient_sum
from tauchar.arith import is_prime
from tauchar.constants import Branch, classify
from tauchar.dirichlet import dirichlet_convolve
from tauchar.errors import (
    ArgumentError,
    ClassificationError,
    OverflowHardError,
    ResourceLimitError,
)
from tauchar.powerful import powerful_walk, prime_list
from tauchar.roots import integer_nth_root
from tauchar.sieves import (
    CoeffSeries,
    _jacobi,
    liouville_sieve,
    mobius_sieve,
    ones_series,
    tau_char_sieve,
)
from tauchar.summatory import (
    MAX_EXACT_X,
    _checkpoint_sums,
    default_alphas,
    default_checkpoints,
    divisor_summatory,
    rh_diagnostic,
    rh_growth,
    subexp_decay,
    summatory_convolved,
    trace,
)


def brute_tau(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def brute_summatory(q: int, x: int) -> int:
    # per-n divisor walk; shares nothing with the floor-sum kernel
    total = 0
    for n in range(1, x + 1):
        for d in range(1, n + 1):
            if n % d == 0:
                total += _jacobi(brute_tau(d), q)
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
    table = tau_char_sieve(q, cps[-1]).values
    return tuple(weighted_floor_sum(table, x) for x in cps)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23])
def test_powerful_route_matches_sieve_route(q):
    cps = tuple(2**k for k in range(10, 21))
    assert _checkpoint_sums(q, cps) == sieve_route(q, cps)


@pytest.mark.parametrize("q", [7, 13])
def test_powerful_route_matches_sieve_route_at_2_23(q):
    cps = tuple(2**k for k in range(10, 24))
    assert _checkpoint_sums(q, cps) == sieve_route(q, cps)


def f_weights(q: int, top: int) -> list[int]:
    # f(p^e) = sum_{k <= e+1} (k/q) from Jacobi symbols alone
    return list(accumulate(_jacobi(k, q) for k in range(1, top.bit_length() + 2)))


@lru_cache(maxsize=1)
def walk_terms(w: tuple, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The walk of w to top as int64 arrays (n, w(n)) sorted by n: the
    materialised routes' terms, whose n are where their sums step; kept
    for the one call after, which samples checkpoints from them."""
    terms = chain.from_iterable(powerful_walk(w, top)[1])
    n, wn = np.fromiter(terms, dtype=np.int64).reshape(-1, 2).T
    order = np.argsort(n)
    return n[order], wn[order]


def materialised_route(q: int, cps) -> tuple[int, ...]:
    # the +-3 (mod 8) sums of f itself over the powerful n <= top, from
    # sorted int64 arrays of the walk of f: one cumsum, then one
    # searchsorted per checkpoint
    top = cps[-1]
    f = f_weights(q, top)
    assert f[1] == 0
    n, wn = walk_terms(tuple(f), top)
    prefix = np.cumsum(wn)
    return tuple(int(prefix[e - 1]) for e in np.searchsorted(n, cps, side="right"))


PM3_MOD8_BELOW_120 = [q for q in range(3, 120) if is_prime(q) and q % 8 in (3, 5)]


@pytest.mark.parametrize("q", PM3_MOD8_BELOW_120)
def test_streamed_route_matches_materialised_route(q):
    # s = f(p^2) = (3/q) is 0 for q = 3, -1 for q = 5, 19, ... and 1 for
    # q = 11, 13, ...: every A of the cube-full sum
    for k in (23, 30):
        cps = tuple(2**e for e in range(10, k + 1))
        assert _checkpoint_sums(q, cps) == materialised_route(q, cps), k


@pytest.mark.parametrize("q", [11, 13, 19])
def test_streamed_route_on_random_checkpoints(q):
    # checkpoints on, just below and just above the powerful n of the walk
    # of f, where the materialised route's sums step
    rng = np.random.default_rng(q)
    for trial in range(12):
        top = int(rng.integers(2**12, 2**24))
        edges = walk_terms(tuple(f_weights(q, top)), top)[0]
        picks = rng.choice(edges, size=min(len(edges), 8), replace=False)
        pool = {top} | {int(e) + d for e in picks for d in (-1, 0, 1)}
        pool |= {int(v) for v in rng.integers(1, top, size=8)}
        pool = sorted(v for v in pool if 1 <= v <= top)
        size = 1 if trial < 3 else int(rng.integers(2, len(pool) + 1))
        cps = tuple(sorted(rng.choice(pool, size=size, replace=False).tolist()))
        assert _checkpoint_sums(q, cps) == materialised_route(q, cps), cps


@pytest.mark.parametrize("q", [13, 19])
def test_cube_full_route_on_random_checkpoints_to_2_40(q):
    # A(y) = isqrt(y) for q = 13 and M(isqrt(y)) for q = 19, against some
    # 2.3 million powerful n, at seeded checkpoints up to 2^40: powerful n
    # of the walk of f and their neighbours, and uniform ones
    rng = random.Random(q)
    top = 2**40
    pool = {top} | {rng.randrange(2**20, top) for _ in range(6)}
    steps = walk_terms(tuple(f_weights(q, top)), top)[0].tolist()
    pool |= {e + d for e in rng.sample(steps, 4) for d in (-1, 0, 1)}
    cps = tuple(sorted(pool))
    assert _checkpoint_sums(q, cps) == materialised_route(q, cps), cps


def test_walk_lists_primes_only_as_deep_as_the_weights_reach(monkeypatch):
    # H vanishes at p and p^2: the cube root for q = 13, q = 3 and q = 7,
    # and the fourth root for q = 23, where H vanishes at p^3 too
    asked, real = [], powerful.prime_list

    def spy(limit):
        asked.append(limit)
        return real(limit)

    monkeypatch.setattr(powerful, "prime_list", spy)
    top = 10**10
    for q in (13, 23, 3, 7):
        _checkpoint_sums(q, (top,))
    assert asked == [integer_nth_root(top, e) for e in (3, 4, 3, 3)]


@pytest.mark.parametrize("q", [23, 47])
def test_fourth_root_walk_on_random_checkpoints(q):
    # q = +-1 (mod 24) walks the 4-full numbers over the primes to
    # top^(1/4); the sieve route sums one character table, here the int8
    # block-kernel table with chi(e + 1) at p^e, at seeded checkpoints up
    # to ~2^26, on every prefix of them
    rng = np.random.default_rng(q)
    top = int(rng.integers(2**25, 2**26))
    row = [_jacobi(e + 1, q) for e in range(top.bit_length())]
    table = sieves.multiplicative_series(top, row).values
    picks = {int(2 ** rng.uniform(10, 25)) for _ in range(6)}
    cps = tuple(sorted(picks | {top}))
    want = tuple(weighted_floor_sum(table, x) for x in cps)
    for end in range(1, len(cps) + 1):
        assert _checkpoint_sums(q, cps[:end]) == want[:end], cps[:end]


def h_weights(q: int, top: int) -> list[int]:
    # h = f * tau^{-1} on q = +-1 (mod 8): the local series F(u)(1-u)^2
    f = [0, 0] + f_weights(q, top)
    return [f[e] - 2 * f[e - 1] + f[e - 2] for e in range(2, len(f))]


def materialised_pm1_route(q: int, cps) -> tuple[int, ...]:
    # the +-1 (mod 8) sums of h(n) D(x/n) over the powerful n <= top from
    # sorted int64 arrays of the walk of h, one masked pass per checkpoint:
    # D from a table to sqrt(top), and from divisor_window above it
    top = cps[-1]
    n, wn = walk_terms(tuple(h_weights(q, top)), top)
    y_small = isqrt(top)
    d_small = np.cumsum(sieves.divisor_count_sieve(y_small).values)
    values = []
    for x, end in zip(cps, np.searchsorted(n, cps, side="right")):
        y, wy = x // n[:end], wn[:end]
        near = y <= y_small
        value = sum((wy[near] * d_small[y[near]]).tolist())
        for yd, wd in zip(y[~near].tolist(), wy[~near].tolist()):
            value += wd * divisor_window(0, yd)
        values.append(value)
    return tuple(values)


@pytest.mark.parametrize(
    "q,chunk,bits", [(7, 3, 22), (7, 4099, 36), (17, 1000, 36), (23, 7, 36), (47, 7, 36)]
)
def test_streamed_pm1_route_matches_materialised_route(q, chunk, bits, monkeypatch):
    # A = E for q = 7 and 17, where h(p^2) = -2, and A = D for q = 23 and
    # 47, where h vanishes at p^2 and p^3, against h D over every powerful
    # n; at seeded checkpoints up to ~2^36 on, just below and just above
    # the n where the materialised sums step, with E's chunks of j so small
    # that they split its sums
    monkeypatch.setattr(summatory, "_E_CHUNK", chunk)
    rng = random.Random(q * chunk)
    top = rng.randrange(2 ** (bits - 1), 2**bits)
    n = walk_terms(tuple(h_weights(q, top)), top)[0]
    edges = n[n > 2**10].tolist()
    pool = {top} | {e + d for e in rng.sample(edges, 4) for d in (-1, 0, 1)}
    pool |= {rng.randrange(2**10, top) for _ in range(4)}
    cps = tuple(sorted(pool))
    assert _checkpoint_sums(q, cps) == materialised_pm1_route(q, cps), cps


def e_prefix(top: int) -> list[int]:
    # E(y) for y = 0..top: the cumsum of e = mu^2 * mu^2 by one Dirichlet
    # convolution of the squared Mobius table
    mu2 = CoeffSeries(top, np.abs(mobius_sieve(top).values).astype(np.int64))
    return [0] + np.cumsum(dirichlet_convolve(mu2, mu2).values[1:]).tolist()


def test_e_matches_the_cumsum_of_mu2_mu2(monkeypatch):
    # E(y) above its table is sum_{j <= sqrt y} g(j) D(y // j^2): with the
    # tables cut at 50 and 16 j per chunk, the Python j-sum with D memoised
    # above the table and the split int64 chunks all run.  Every y to 2^13,
    # and seeded y to 2^20 with the top itself
    top = 2**20
    want = e_prefix(top)
    monkeypatch.setattr(summatory, "_E_CHUNK", 16)
    E = summatory._divisor_parts(-2, 50, top)
    rng = random.Random(20)
    ys = [*range(2**13 + 1), *(rng.randrange(2**13, top) for _ in range(2000)), top]
    assert [E(y) for y in ys] == [want[y] for y in ys]


def test_e_guard_refuses_products_past_int64(monkeypatch):
    # a chunk sums g(j) D(y // j^2) in int64, so it is refused once max|g|
    # = 2^5 (2310 = 2 3 5 7 11 is the last primorial to sqrt top) times
    # D(reach), the largest D it reads, times _E_CHUNK reaches 2^63, and
    # summed exactly just below that
    top = 2**24
    reach = integer_nth_root(top**2, 5)
    big = 2**5 * divisor_summatory(reach)
    monkeypatch.setattr(summatory, "_E_CHUNK", (2**63 - 1) // big)
    E = summatory._divisor_parts(-2, reach, top)
    want = e_prefix(2**20)
    ys = [reach + 1, 2**16 + 1, 2**20]
    assert [E(y) for y in ys] == [want[y] for y in ys]
    monkeypatch.setattr(summatory, "_E_CHUNK", (2**63 - 1) // big + 1)
    with pytest.raises(OverflowHardError):
        summatory._divisor_parts(-2, reach, top)


def test_mu_mu_budget_refuses_before_any_work(monkeypatch):
    # on q = +-7 (mod 24) g is listed to sqrt(x), so x past (1e8 + 1)^2 - 1
    # is refused by the table budget before any prime, walk or constant
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(summatory, "powerful_walk", no_work)
    monkeypatch.setattr(powerful, "prime_list", no_work)
    monkeypatch.setattr(constants, "main_term_params", no_work)
    edge = (sieves.MAX_SIEVE_ENTRIES + 1) ** 2
    assert summatory._validate_x(edge - 1, edge, 7) == edge - 1
    with pytest.raises(ResourceLimitError, match="mu \\* mu list"):
        summatory._validate_x(edge, edge, 17)
    with pytest.raises(ResourceLimitError, match="MAX_SIEVE_ENTRIES"):
        summatory_convolved(7, 2 * 10**16, limit=10**17)
    with pytest.raises(ResourceLimitError, match="mu \\* mu list"):
        trace(31, (1024, 2 * 10**16), limit=10**17)


def test_walk_reports_progress_before_the_checkpoints():
    # the cube-full walk of q = 13 to 2^40 has 18773 nodes, more than
    # _PROGRESS_NODES: it reports as it runs, and once as it ends, when
    # every checkpoint is done
    calls = []
    _checkpoint_sums(13, (2**20, 2**40), lambda *a: calls.append(a))
    step, nodes = summatory._PROGRESS_NODES, 18773
    walk = [("walk", step * (i + 1), None) for i in range(nodes // step)]
    assert walk and calls == [("sieve", 1, 1), *walk, ("walk", nodes, nodes)]


def test_max_exact_x_refusal_names_the_route():
    # q = +-3 (mod 8) sums in Python ints and holds no int64; only the +-1
    # branch, through D, could overflow past MAX_EXACT_X
    big = MAX_EXACT_X + 1
    messages = {}
    for q in (13, 7):
        with pytest.raises(OverflowHardError, match="MAX_EXACT_X = 2\\^57") as info:
            summatory_convolved(q, big, limit=2**60)
        messages[q] = str(info.value)
    assert "overflow" not in messages[13] and "+-3 (mod 8)" in messages[13]
    assert "could overflow int64" in messages[7]


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


def hyperbola_sum(y: int) -> int:
    """D(y) by the hyperbola method in Python ints."""
    r = isqrt(y)
    return 2 * sum(y // i for i in range(1, r + 1)) - r * r


def test_divisor_window_routes_agree_with_python_ints():
    # the float64 pass, the int64 pass and Python ints on seeded (a, b):
    # a = 0, wide and narrow windows, and ends across a chunk of i
    rng = random.Random(53)
    c = _D_CHUNK
    cases = [(0, 0), (0, 1), (3, 3), (0, c * c - 1), (c * c - 1, (c + 1) ** 2)]
    for _ in range(40):
        b = rng.randrange(10 ** rng.randint(1, 10))
        a = rng.choice((0, rng.randrange(b + 1), max(0, b - rng.randrange(10**4))))
        cases.append((a, b))
    for a, b in cases:
        ra, rb = isqrt(a), isqrt(b)
        want = hyperbola_sum(b) - hyperbola_sum(a)
        assert divisor_window(a, b) == want, (a, b)
        for floats in (True, False):
            got = 2 * _quotient_sum(a, b, floats) - rb * rb + ra * ra
            assert got == want, (a, b, floats)
    with pytest.raises(ValueError):
        divisor_window(5, 4)


def tau_by_trial(n: int, bound: int) -> int:
    """tau(n) for n whose cofactor after trial division up to bound is 1 or
    a prime."""
    t = 1
    for p in prime_list(bound):
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        t *= e + 1
    assert n == 1 or is_prime(n)
    return t * (2 if n > 1 else 1)


def test_divisor_window_float_route_ends_at_2_53():
    def below(t):
        # the largest b with b + isqrt(b) <= t
        b = t
        while b + isqrt(b) > t:
            b = t - isqrt(b)
        return b

    ends = [below(2**53 + k) for k in (-1, 0, 1)]
    assert [b + isqrt(b) - 2**53 for b in ends] == [-1, 0, 1]
    assert [_floats_exact(b) for b in ends] == [True, False, False]
    # the largest b the float pass takes: a = 0, whose first chunk sums to
    # ~12 b, against the int64 pass; then D(b) - D(b - 1) = tau(b) there
    # (b = 2 * 13217 * 340742950739) and above 2^53 (3 * 107 * 28059810762433)
    b = ends[0]
    assert _quotient_sum(0, b, True) == _quotient_sum(0, b, False)
    for b in (ends[0], 2**53 + 1):
        assert divisor_window(b - 1, b) == tau_by_trial(b, 2 * 10**4), b


def test_int64_guard_rejects_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the int64 guard")

    monkeypatch.setattr(summatory, "powerful_walk", no_work)
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


def test_mertens_recursion_matches_the_mobius_cumsum():
    # z = 0 included: M(0) = 0
    m = np.cumsum(mobius_sieve(10**6).values).tolist()
    assert [summatory._mertens(z, {}) for z in range(2001)] == m[:2001]
    assert summatory._mertens(10**6, {}) == m[10**6]


def test_mertens_recursion_at_powers_of_ten():
    memo = {}
    got = [summatory._mertens(10**k, memo) for k in range(9)]
    assert got == [1, -1, 1, 2, -23, -48, 212, 1037, 1928]


def test_liouville_summatory_known_values():
    s = np.cumsum(liouville_sieve(100).values)
    assert [int(s[x]) for x in (1, 10, 100)] == [1, 0, -2]


def test_summatory_accepts_shared_table():
    # one character table serves the sieve route at every x it covers
    table = tau_char_sieve(7, 500).values
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


def floor_root_grid(vals: np.ndarray, k: int) -> np.ndarray:
    """Elementwise floor(v**(1/k)) for an int64 array of nonnegative values:
    the prefix-sum oracle of the identity scans.

    Float seed plus a bounded integer correction sweep; every comparison is
    in exact int64, so the result is exact as long as r**k stays in range
    (callers keep v below ~9e18 so r**k <= v + small slack fits).
    """
    if k < 1:
        raise ArgumentError(f"root order must be >= 1, got {k}")
    vals = np.asarray(vals, dtype=np.int64)
    if vals.size and int(vals.min()) < 0:
        raise ArgumentError("integer root of negative value")
    if k == 1:
        return vals.copy()
    r = np.floor(vals.astype(np.float64) ** (1.0 / k)).astype(np.int64)
    r = np.maximum(r, 0)
    for _ in range(6):
        over = r**k > vals
        if over.any():
            r = np.where(over, r - 1, r)
        under = (r + 1) ** k <= vals
        if under.any():
            r = np.where(under, r + 1, r)
        if not (over.any() or under.any()):
            return r
    raise ArgumentError("root correction did not settle; values out of range")


def test_grid_matches_scalar():
    vals = np.arange(0, 20000, dtype=np.int64)
    for k in (1, 2, 3, 5):
        grid = floor_root_grid(vals, k)
        # spot-check a stratified sample against the scalar routine
        for v in list(range(0, 50)) + [31, 32, 33, 242, 243, 244, 19999]:
            assert grid[v] == integer_nth_root(v, k), (k, v)
        assert np.all(grid**k <= vals)
        assert np.all((grid + 1) ** k > vals)


def test_grid_rejects_negative():
    with pytest.raises(ArgumentError):
        floor_root_grid(np.array([-1], dtype=np.int64), 2)


def test_default_checkpoints_doubling():
    cps = default_checkpoints(10**5)
    assert cps[0] == 1024
    assert all(b == 2 * a for a, b in zip(cps, cps[1:]))
    assert cps[-1] <= 10**5 < 2 * cps[-1]
    with pytest.raises(ArgumentError):
        default_checkpoints(1000)
    # no schedule given: trace and rh_diagnostic both check the default one
    assert trace(13, limit=10**5).checkpoints == cps
    assert rh_diagnostic(19, limit=10**5).checkpoints == cps


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
    # q = 3 walks the 12 cubes up to 2048
    assert calls == [("sieve", 1, 1), ("walk", 12, 12)]


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
