"""Self-tests of the benchmark's reference computations at small sizes.

Each oracle is compared with a brute-force divisor walk.  Run with

    python3 perfbench/test_oracles.py      (or: python3 -m pytest perfbench)
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def tau(n):
    return len(divisors(n))


def brute_mobius(n, _memo={1: 1}):
    """mu from sum_{d | n} mu(d) = [n == 1]."""
    if n not in _memo:
        _memo[n] = -sum(brute_mobius(d) for d in divisors(n)[:-1])
    return _memo[n]


def test_mobius_matches_inversion():
    assert [oracles.mobius(n) for n in range(1, 400)] == [
        brute_mobius(n) for n in range(1, 400)
    ]


def test_powerful_sum_matches_divisor_walk():
    top = 3000
    for q in (3, 5, 11, 13, 19, 37):  # every one is +-3 mod 8
        f = [0] * (top + 1)
        for n in range(1, top + 1):
            f[n] = sum(oracles.legendre(tau(d), q) for d in divisors(n))
        xs = [1, 2, 7, 64, 100, 999, 1024, 2047, top]
        want = [sum(f[1 : x + 1]) for x in xs]
        assert oracles.convolved_sums(q, xs) == want, q


def test_powerful_sum_q3_is_the_cube_root_floor():
    xs = [10**k for k in range(1, 8)] + [26, 27, 28, 63, 64, 65]
    cube_root_floor = [max(r for r in range(300) if r**3 <= x) for x in xs]
    assert oracles.convolved_sums(3, xs) == cube_root_floor


def test_hyperbola_matches_divisor_walk():
    running, checked = 0, {}
    for k in range(1, 2501):
        running += tau(k)
        checked[k] = running
    for y in (1, 2, 3, 10, 99, 100, 101, 1000, 2024, 2500):
        assert oracles.divisor_summatory(y) == checked[y], y
    assert oracles.divisor_summatory(0) == 0


def test_mobius_pair_sum_matches_divisor_walk():
    """sum_{x < m <= x+y} c(m), c(m) = sum_{d^2 n^5 = m} mu(d), by walking
    the divisors of each m."""
    for x, y in ((1, 3000), (50, 1000), (1000, 2000), (4000, 321)):
        short, pairs = 0, 0
        for m in range(x + 1, x + y + 1):
            for n in divisors(m):
                r, ok = divmod(m, n**5)
                d = int(round(r**0.5))
                if ok == 0 and r and d * d == r:
                    short += brute_mobius(d)
                    pairs += 1
        got = oracles.fifth_power_pairs(x, y)
        assert len(got) == pairs, (x, y)
        assert sum(oracles.mobius(d) for d, _ in got) == short, (x, y)


def test_local_factor_regenerates_the_tau_character():
    """L(u) / ((1 - u^q)(1 -+ u)) has coefficients chi(e + 1) = chi(tau(p^e))."""
    for q in (7, 11, 13, 17, 23, 29):
        sign = -1 if q % 8 in (1, 7) else 1
        series = oracles.local_coeffs(q, sign) + [0] * (3 * q)
        for e in range(1, len(series)):  # divide by (1 + sign*u)
            series[e] -= sign * series[e - 1]
        for e in range(q, len(series)):  # divide by (1 - u^q)
            series[e] += series[e - q]
        assert series == [oracles.legendre(e + 1, q) for e in range(len(series))], q


def test_product_enclosures_nest_as_the_cutoff_grows():
    """A coarse enclosure must contain a finer one's centre, for both the
    log-branch and the half-line tails."""
    for q in (7, 13, 23):
        fine = oracles.euler_product(q, P=5000)
        for P in (100, 1000):
            coarse = oracles.euler_product(q, P=P)
            for wide, narrow in zip(coarse, fine):
                if wide is None:  # the sqrt branch has no log-derivative
                    continue
                (lo, hi), (flo, fhi) = wide, narrow
                assert lo <= (flo + fhi) / 2 <= hi, (q, P)
                assert fhi - flo < hi - lo, (q, P)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok {t.__name__}")
