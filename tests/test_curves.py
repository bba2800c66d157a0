"""Near-curve counting against a high-precision oracle, the short-interval
endpoint identity against the convolution route, and the scan invariants."""

import random
from fractions import Fraction
from math import isqrt

import mpmath as mp
import numpy as np
import pytest

from tauchar import _kernels, curves
from tauchar._kernels import divisor_window
from tauchar.curves import (
    BoundShapes,
    CurveConfig,
    ShortIntervalInstance,
    _near_integer_sq,
    bound_shapes,
    count_near_curve,
    range_scan,
    short_interval_sum,
)
from tauchar.errors import ArgumentError, OverflowHardError
from tauchar.powerful import prime_list
from tauchar.roots import integer_nth_root
from tauchar.sieves import mobius_sieve
from tauchar.summatory import summatory_convolved


def oracle_count(X_sq: Fraction, s: Fraction, N: int, delta_sq: Fraction) -> int:
    """Recount at 80 digits, refusing configs that sit on the threshold."""
    with mp.workdps(80):
        X = mp.sqrt(mp.mpf(X_sq.numerator) / X_sq.denominator)
        delta = mp.sqrt(mp.mpf(delta_sq.numerator) / delta_sq.denominator)
        cnt = 0
        for n in range(N, 2 * N + 1):
            t = X * mp.power(n, -mp.mpf(s.numerator) / s.denominator)
            dist = abs(t - mp.nint(t))
            assert abs(dist - delta) > mp.mpf("1e-40"), "oracle tie; bad config"
            if dist < delta:
                cnt += 1
    return cnt


def fraction_near_integer_sq(u: Fraction, delta_sq: Fraction) -> bool:
    """The near-integer predicate in Fraction arithmetic: sqrt(u) lies
    strictly within sqrt(delta_sq) of an integer.

    For k in {floor(sqrt(u)), floor(sqrt(u)) + 1} (one of which is nearest):
    (sqrt(u) - k)^2 < dsq  iff  2k sqrt(u) > u + k^2 - dsq, and when the
    right side is nonnegative both sides square to 4k^2 u > (u + k^2 - dsq)^2.
    """
    k0 = isqrt(u.numerator // u.denominator)
    for k in (k0, k0 + 1):
        rhs = u + k * k - delta_sq
        if rhs < 0:
            return True
        if k and 4 * k * k * u > rhs * rhs:
            return True
    return False


def near(u: Fraction, delta_sq: Fraction) -> bool:
    """The integer predicate on u = A/M and delta^2 = P/Q."""
    return _near_integer_sq(
        u.numerator, u.denominator, delta_sq.numerator, delta_sq.denominator
    )


def hyperbola_sum(y: int) -> int:
    """D(y) = sum_{n <= y} tau(n) by the hyperbola method in Python ints."""
    r = isqrt(y)
    return 2 * sum(y // i for i in range(1, r + 1)) - r * r


def random_exact_config(rng) -> CurveConfig:
    N = int(rng.integers(1, 200))
    X_sq = Fraction(int(rng.integers(1, 10**6)), int(rng.integers(1, 50)))
    two_s = int(rng.integers(1, 8))
    delta_sq = Fraction(int(rng.integers(1, 500)), 10**4)
    if delta_sq >= Fraction(1, 16):
        delta_sq = Fraction(1, 17)
    return CurveConfig(X_sq, Fraction(two_s, 2), N, delta_sq)


def test_exact_count_matches_high_precision_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        cfg = random_exact_config(rng)
        got = count_near_curve(cfg)
        assert got == oracle_count(cfg.X_sq, cfg.s, cfg.N, cfg.delta_sq)
    # X^2 to 2^80 and N to 400: X/n^s spans many integers across the window
    # and the cross-multiplied predicate runs on integers of up to ~190 bits
    big = random.Random(8)
    for _ in range(12):
        N = big.randrange(1, 400)
        X_sq = Fraction(big.randrange(1, 2**80), big.randrange(1, 64))
        s = Fraction(big.randrange(1, 6), 2)
        delta_sq = Fraction(big.randrange(1, 600), 10**4)
        got = count_near_curve(CurveConfig(X_sq, s, N, delta_sq))
        assert got == oracle_count(X_sq, s, N, delta_sq), (X_sq, s, N, delta_sq)


def test_integer_point_on_curve_is_counted():
    # 32 / 4^(5/2) = 1 exactly, so n = 4 is a hit at any positive threshold
    cfg = CurveConfig(1024, Fraction(5, 2), 4, Fraction(1, 100))
    assert count_near_curve(cfg) == 1
    tiny = CurveConfig(1024, Fraction(5, 2), 4, Fraction(1, 10**12))
    assert count_near_curve(tiny) == 1


def test_vanishing_threshold_counts_only_exact_hits():
    cfg = CurveConfig(7, Fraction(5, 2), 4, Fraction(1, 10**12))
    assert count_near_curve(cfg) == 0


def test_exact_route_decides_the_same_tie():
    # X / 1^1 = 3.125 sits exactly delta = 0.125 from its nearest integer;
    # strict inequality: distance == delta is NOT near
    cfg = CurveConfig(
        Fraction(3125, 10**3) ** 2, Fraction(1), 1, Fraction(125, 10**3) ** 2
    )
    assert count_near_curve(cfg) == 0


def test_near_predicate_spot_values():
    assert near(Fraction(4), Fraction(1, 10**6))
    # sqrt(2) is 0.4142... from its nearest integer
    assert not near(Fraction(2), Fraction(81, 10000))
    assert near(Fraction(2), Fraction(18, 100))
    # values below 1/4 are within 1/2 of zero, threshold permitting
    assert near(Fraction(1, 100), Fraction(1, 50))


def test_integer_predicate_matches_fraction_oracle():
    rng = random.Random(20)
    for _ in range(3000):
        u = Fraction(rng.randrange(10**9), rng.randrange(1, 10**4))
        dsq = Fraction(rng.randrange(1, 10**4), rng.randrange(16 * 10**4 + 1, 10**6))
        # unreduced, as the scan passes them: M = L m^5 shares factors with A
        c, e = rng.randrange(1, 60), rng.randrange(1, 60)
        got = _near_integer_sq(
            c * u.numerator, c * u.denominator, e * dsq.numerator, e * dsq.denominator
        )
        assert got == fraction_near_integer_sq(u, dsq), (u, dsq)
    # ties: sqrt(u) = k +- delta sits exactly delta from k, which is not near;
    # at k = 0 the right side u + k^2 - delta^2 is 0
    for _ in range(300):
        delta = Fraction(rng.randrange(1, 10**3), rng.randrange(4 * 10**3 + 1, 10**5))
        for k in (0, 1, rng.randrange(2, 10**6)):
            for t in (k + delta, k - delta):
                if t < 0:
                    continue
                u, dsq = t * t, delta * delta
                assert not near(u, dsq) and not fraction_near_integer_sq(u, dsq)
                assert near(u, dsq + Fraction(1, 10**40))


def test_config_validation():
    with pytest.raises(ArgumentError):
        CurveConfig(1, Fraction(1), 0, Fraction(1, 100))
    with pytest.raises(ArgumentError):
        CurveConfig(1, Fraction(1), 1, Fraction(9, 100))
    with pytest.raises(ArgumentError):
        CurveConfig(1, Fraction(1), 1, 0)
    with pytest.raises(ArgumentError):
        CurveConfig(-1, Fraction(1), 1, Fraction(1, 100))
    with pytest.raises(ArgumentError):
        CurveConfig(1, Fraction(0), 1, Fraction(1, 100))
    with pytest.raises(ArgumentError):
        CurveConfig(4, Fraction(1), 1, Fraction(1, 16))
    # 2s must be an integer, or u = X^2/n^(2s) is not rational
    with pytest.raises(ArgumentError):
        CurveConfig(4, Fraction(1, 3), 2, Fraction(1, 100))


def test_short_interval_matches_convolution_route():
    for x, y in ((10**4, 10**3), (5000, 0), (1, 1), (99999, 7)):
        inst = ShortIntervalInstance(Fraction(x), Fraction(y))
        direct = summatory_convolved(5, x + y) - summatory_convolved(5, x)
        assert short_interval_sum(inst) == direct


def test_short_interval_additive_in_windows():
    x, y1, y2 = Fraction(12345), Fraction(678), Fraction(910)
    a = short_interval_sum(ShortIntervalInstance(x, y1))
    b = short_interval_sum(ShortIntervalInstance(x + y1, y2))
    c = short_interval_sum(ShortIntervalInstance(x, y1 + y2))
    assert a + b == c


def test_short_interval_fractional_endpoints():
    # only integers are counted, so half-open fractional windows reduce to
    # their integer floors
    x, y = Fraction(1999, 2), Fraction(101, 2)
    inst = ShortIntervalInstance(x, y)
    lo = (x).numerator // (x).denominator
    hi = (x + y).numerator // (x + y).denominator
    direct = summatory_convolved(5, hi) - summatory_convolved(5, lo)
    assert short_interval_sum(inst) == direct



def endpoint_identity(t: int, mu: list) -> int:
    # the fifth-power convolution summed over 1..t, by the floor identity
    # sum_{d <= sqrt(t)} mu(d) floor((t/d^2)^(1/5))
    return sum(
        mu[d] * integer_nth_root(t // (d * d), 5)
        for d in range(1, isqrt(t) + 1)
        if mu[d]
    )


def test_short_interval_matches_endpoint_identity():
    # the pair route against the endpoint identity at both ends, on random
    # integer and rational windows with x + y <= 1e9
    mu = mobius_sieve(isqrt(10**9)).values.tolist()
    rng = np.random.default_rng(20)
    cases = []
    for k in range(220):
        x = int(10 ** rng.uniform(0, 9))
        y = int(min(x, 10**9 - x) * rng.random() ** 3)
        if k % 2:
            den = int(rng.integers(2, 60))
            x = Fraction(x * den + int(rng.integers(den)), den)
            y = Fraction(y * den + int(rng.integers(den)), den)
            y = min(y, x, 10**9 - x)
        cases.append((Fraction(x), Fraction(y)))
    for x in (1, 2, 32, 33, 999, 1024, 10**6, Fraction(10**8 + 1, 3)):
        cases += [(Fraction(x), Fraction(0)), (Fraction(x), Fraction(x))]
    for x, y in cases:
        lo = x.numerator // x.denominator
        hi = (x + y).numerator // (x + y).denominator
        want = endpoint_identity(hi, mu) - endpoint_identity(lo, mu)
        assert short_interval_sum(ShortIntervalInstance(x, y)) == want, (x, y)


def test_short_interval_matches_powerful_number_route():
    x, y = 10**12, 10**6
    inst = ShortIntervalInstance(Fraction(x), Fraction(y))
    direct = summatory_convolved(5, x + y, limit=x + y) - summatory_convolved(
        5, x, limit=x
    )
    assert short_interval_sum(inst) == direct

def test_instance_validation_and_exact_flags():
    with pytest.raises(ArgumentError):
        ShortIntervalInstance(Fraction(0), Fraction(0))
    with pytest.raises(ArgumentError):
        ShortIntervalInstance(Fraction(10), Fraction(-1))
    with pytest.raises(ArgumentError):
        ShortIntervalInstance(Fraction(10), Fraction(11))
    with pytest.raises(ArgumentError):
        ShortIntervalInstance(Fraction(10), Fraction(1), Fraction(1, 3))
    # x = 2^20: the 11/20-power threshold at c3 = 1/4 is exactly 512
    assert ShortIntervalInstance(Fraction(2**20), Fraction(512)).y_within_11_20
    assert not ShortIntervalInstance(Fraction(2**20), Fraction(513)).y_within_11_20
    # x = 2^36: the 19/36-power threshold at c3 = 1/4 is exactly 2^17
    assert ShortIntervalInstance(Fraction(2**36), Fraction(2**17)).y_within_19_36
    assert not ShortIntervalInstance(Fraction(2**36), Fraction(2**17 + 1)).y_within_19_36


def brute_pair_total(x: int, y: int) -> int:
    # every (d, n) with x < d^2 n^5 <= x + y, by direct enumeration
    total = 0
    n = 1
    while n**5 <= x + y:
        d = 1
        while d * d * n**5 <= x + y:
            if d * d * n**5 > x:
                total += 1
            d += 1
        n += 1
    return total


@pytest.mark.parametrize(
    "x, y",
    [(1, 1), (100, 37), (Fraction(1999, 2), Fraction(101, 2)), (10**6, 999),
     (10**12, 3000), (10**13, 0)],
)
def test_tau_window_sum_matches_factor_block(x, y):
    x, y = Fraction(x), Fraction(y)
    lo, hi = x.numerator // x.denominator + 1, (x + y).numerator // (x + y).denominator
    want = 0
    if hi >= lo:
        c = range(1, hi.bit_length() + 2)  # tau(p^e) = e + 1
        tau = _kernels.factor_block(lo, hi + 1, prime_list(isqrt(hi)), c)
        want = int(np.sum(tau, dtype=np.int64))
    assert divisor_window(lo - 1, hi) == want
    # the scan's trivial bound floors x and x + y itself: x = A/L with L > 1
    # at (1999/2, 101/2)
    assert range_scan(ShortIntervalInstance(x, y)).trivial_bound == want
    if hi <= 10**6:
        walk = sum(
            2 * sum(1 for d in range(1, isqrt(n) + 1) if n % d == 0)
            - (isqrt(n) ** 2 == n)
            for n in range(lo, hi + 1)
        )
        assert divisor_window(lo - 1, hi) == walk


def test_scan_double_count_matches_enumeration():
    for x, y in ((10**5, 300), (10**4, 150), (2048, 100)):
        rep = range_scan(ShortIntervalInstance(Fraction(x), Fraction(y)))
        assert rep.total_double == brute_pair_total(x, y)


def test_scan_tiling_and_invariants():
    inst = ShortIntervalInstance(Fraction(10**7), Fraction(3000))
    rep = range_scan(inst)
    assert rep.rows[0].n_lo == rep.n_min
    assert rep.rows[-1].n_hi == rep.n_max
    for a, b in zip(rep.rows, rep.rows[1:]):
        assert b.n_lo == a.n_hi + 1
    for row in rep.rows:
        assert row.n_lo <= row.n_hi
        assert row.window_base <= row.n_lo <= row.n_hi < 2 * row.window_base
        assert row.delta_sq == inst.y**2 / (Fraction(row.n_lo) ** 5 * inst.x)
        assert row.window_double <= row.near_curve_count
    assert rep.small_n_double + sum(r.window_double for r in rep.rows) == (
        rep.total_double
    )
    assert abs(rep.short_sum) <= rep.total_double
    assert abs(rep.short_sum) <= rep.trivial_bound
    assert rep == range_scan(inst)


def test_scan_near_counts_match_oracle():
    x, y = 10**5, 300
    rep = range_scan(ShortIntervalInstance(Fraction(x), Fraction(y)))
    with mp.workdps(60):
        for row in rep.rows:
            delta = mp.sqrt(mp.mpf(row.delta_sq.numerator) / row.delta_sq.denominator)
            cnt = 0
            for m in range(row.n_lo, row.n_hi + 1):
                t = mp.sqrt(mp.mpf(x) / m**5)
                if abs(t - mp.nint(t)) < delta:
                    cnt += 1
            assert cnt == row.near_curve_count


def test_scan_matches_fraction_oracle_at_fractional_endpoints():
    # x = A/L and x + y = B/L with L > 1: pairs and near counts, row by row,
    # against the scan's predicate and floors in Fraction arithmetic
    rng = random.Random(21)
    for _ in range(8):
        q, r = rng.randrange(2, 1000), rng.randrange(2, 100)
        x = rng.randrange(10**4, 10**9) + Fraction(rng.randrange(1, q), q)
        y = rng.randrange(10**3) + Fraction(rng.randrange(1, r), r)
        rep = range_scan(ShortIntervalInstance(x, y))
        lo, hi = int(x), int(x + y)
        assert rep.trivial_bound == hyperbola_sum(hi) - hyperbola_sum(lo)

        def pairs(m):
            m5 = Fraction(m) ** 5
            return isqrt(int((x + y) / m5)) - isqrt(int(x / m5))

        assert rep.small_n_double == sum(pairs(m) for m in range(1, rep.n_min))
        for row in rep.rows:
            assert row.delta_sq == y**2 / (Fraction(row.n_lo) ** 5 * x)
            ms = range(row.n_lo, row.n_hi + 1)
            assert row.window_double == sum(pairs(m) for m in ms)
            assert row.near_curve_count == sum(
                fraction_near_integer_sq(x / Fraction(m) ** 5, row.delta_sq)
                for m in ms
            )


def test_scan_zero_window():
    rep = range_scan(ShortIntervalInstance(Fraction(10**6), Fraction(0)))
    assert rep.short_sum == 0
    assert rep.total_double == 0
    assert all(r.near_curve_count == 0 for r in rep.rows)


def test_range_scan_adds_shapes_and_assembled_bound():
    inst = ShortIntervalInstance(Fraction(10**7), Fraction(3000))
    rep = range_scan(inst)
    assert rep.assembled_bound is not None and rep.assembled_bound > 0
    for row in rep.rows:
        assert row.shape in (
            "fifth_derivative",
            "filaseta_trifonov",
            "first_derivative",
        )
        assert row.shape_value > 0
        assert row.ratio == pytest.approx(row.near_curve_count / row.shape_value)
        if row.shape == "filaseta_trifonov":
            assert row.ft_condition_ok is not None
        else:
            assert row.ft_condition_ok is None


def test_bound_shapes_fields():
    bs = bound_shapes(16, 10**7, 3000)
    assert isinstance(bs, BoundShapes)
    # the first-derivative spacing parameter falls by 2^3.5 across the window
    assert bs.lambda1_at_base / bs.lambda1_at_top == pytest.approx(2.0**3.5)
    assert bs.fifth_derivative > 0
    assert bs.filaseta_trifonov > 0
    assert bs.first_derivative > 1
    dsq = Fraction(3000) ** 2 / (Fraction(16) ** 5 * 10**7)
    assert bs.delta == pytest.approx(float(dsq) ** 0.5)
    assert bs.ft_condition_ok == (Fraction(16) ** 4 * dsq <= Fraction(1, 16))
    assert bs.ft_domain_ok == (Fraction(16) ** 10 <= Fraction(10**7) ** 2)


def test_bound_shapes_range_split():
    x = 10**6
    # 2 x^(1/10) sits just below 8; 2 x^(1/6) is exactly 20
    assert bound_shapes(7, x, 10).applicable == "fifth_derivative"
    assert bound_shapes(8, x, 10).applicable == "filaseta_trifonov"
    assert bound_shapes(20, x, 10).applicable == "filaseta_trifonov"
    assert bound_shapes(21, x, 10).applicable == "first_derivative"


def test_scan_rejects_oversized_window():
    # y exceeding the threshold guard for the smallest scanned n cannot
    # happen by construction; widen y beyond x instead and expect rejection
    with pytest.raises(ArgumentError):
        ShortIntervalInstance(Fraction(100), Fraction(101))


def test_scan_refuses_x_above_max_exact_x_before_the_sums(monkeypatch):
    # D(x + y) for the trivial bound is asked first, so x + y > 2^57 is
    # refused before the pair counts and the short sum
    def no_work(inst):
        raise AssertionError("short_interval_sum ran before the refusal")

    monkeypatch.setattr(curves, "short_interval_sum", no_work)
    with pytest.raises(OverflowHardError):
        curves.range_scan(ShortIntervalInstance(10**26, 10**9))
