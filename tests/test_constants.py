"""Certified arithmetic and the branch constants, checked against closed
forms, against mpmath, against the brute-force float prime products, and
against themselves at moved split points."""

import hashlib
import math
import random
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, partial

import mpmath as mp
import numpy as np
import pytest
from mpmath import iv

from tauchar import cases, constants
from tauchar.arith import _jacobi, is_prime
from tauchar.cases import _step_coeffs
from tauchar.constants import (
    EULER_GAMMA_LITERAL,
    GAMMA,
    Branch,
    Certified,
    SubBranch,
    classify,
    log_factor_constants,
    main_term,
    main_term_params,
    sqrt_factor_at_half,
    zeta_prime_real,
    zeta_real,
)
from tauchar.errors import ArgumentError, ClassificationError, PrecisionError, TaucharError
from tauchar.powerful import prime_list

# ------------------------------------------------------------------
# The bridge between the package's fixed-point enclosures and mpmath.iv,
# for the oracle routes below: to iv exactly, from iv rounded outward,
# and the precision the oracle intervals run at.

FRAC = constants._FRAC


@contextmanager
def _precision():
    """Run a block at PRECISION_BITS and restore the caller's iv.prec."""
    saved = iv.prec
    iv.prec = constants.PRECISION_BITS
    try:
        yield
    finally:
        iv.prec = saved


def _iv(x: Fraction):
    """Enclosure of an exact rational.  Call inside _precision()."""
    return iv.mpf(x.numerator) / x.denominator


def _fx_iv(x):
    """The mpmath.iv interval of a fixed-point enclosure, exactly."""
    return iv.make_mpf(
        (mp.libmp.from_man_exp(x[0], -FRAC), mp.libmp.from_man_exp(x[1], -FRAC))
    )


def _fx_of(interval):
    """Fixed-point enclosure of an mpmath.iv interval, rounded outward."""
    a, b = interval._mpi_
    return (
        mp.libmp.to_int(mp.libmp.mpf_shift(a, FRAC), "f"),
        mp.libmp.to_int(mp.libmp.mpf_shift(b, FRAC), "c"),
    )


def test_zeta_closed_forms():
    z2 = zeta_real(2.0)
    assert abs(z2.value - math.pi**2 / 6) <= z2.error
    assert z2.error <= 1e-12
    z4 = zeta_real(4.0)
    assert abs(z4.value - math.pi**4 / 90) <= z4.error


def test_zeta_large_argument_bracket():
    z = zeta_real(20.0)
    assert 1.0 < z.value < 1.0 + 2.0**-19


def test_zeta_prime_values():
    zp20 = zeta_prime_real(20.0)
    lead = -math.log(2.0) / 2.0**20
    assert zp20.value < 0
    assert abs(zp20.value - lead) < 0.1 * abs(lead)
    assert abs(zeta_prime_real(7.0).value) < abs(zeta_prime_real(5.0).value)


def test_zeta_argument_guards(monkeypatch):
    with pytest.raises(ArgumentError):
        zeta_real(1.05)
    with pytest.raises(ArgumentError):
        zeta_real(2.0, tol=0.0)
    # s is taken exactly: the float 1.2 is 5404319552844595/2^52, whose
    # denominator is above 12, so it is refused before any plan or sum
    def no_sum(*args):
        raise AssertionError("summed")

    monkeypatch.setattr(constants, "_em_plan", no_sum)
    for fn in (zeta_real, zeta_prime_real):
        for s in (1.2, Fraction(20, 13), 2 + 2.0**-40):
            with pytest.raises(ArgumentError, match="denominator"):
                fn(s)
        with pytest.raises(ArgumentError, match="finite"):
            fn(math.inf)


def test_zeta_unreachable_tolerance_reports_achievable():
    with pytest.raises(PrecisionError) as info:
        zeta_real(Fraction(6, 5), tol=1e-30)
    assert info.value.achievable > 1e-30


def test_certified_interval_containment():
    # worst-case propagation must contain the true result for any pair of
    # representatives drawn from the operand intervals
    rng = np.random.default_rng(11)
    for _ in range(300):
        av, ae = rng.normal(), abs(rng.normal()) * 0.1
        bv, be = rng.normal(), abs(rng.normal()) * 0.1
        a, b = Certified(av, ae), Certified(bv, be)
        at = av + ae * rng.uniform(-1, 1)
        bt = bv + be * rng.uniform(-1, 1)
        for op in ("add", "sub", "mul"):
            got = {"add": a + b, "sub": a - b, "mul": a * b}[op]
            true = {"add": at + bt, "sub": at - bt, "mul": at * bt}[op]
            lo, hi = got.bounds
            assert lo <= true <= hi, (op, av, ae, bv, be)
        if abs(bv) > be + 0.05:
            got = a / b
            lo, hi = got.bounds
            assert lo <= at / bt <= hi


def test_certified_division_through_zero_rejected():
    with pytest.raises(PrecisionError):
        Certified(1.0, 0.0) / Certified(0.05, 0.1)


def test_certified_validation_and_helpers():
    with pytest.raises(ArgumentError):
        Certified(1.0, -1e-9)
    assert Certified(2.5).error == 0.0
    c = Certified(1.0, 1e-6)
    s = c.scale(-3.0)
    assert s.value == -3.0
    assert s.error >= 3e-6


def test_gamma_literal_consistency():
    assert GAMMA.value == float(EULER_GAMMA_LITERAL)
    assert abs(GAMMA.value - 0.5772156649015329) < 1e-15
    assert 0 < GAMMA.error < 1e-15


def test_classify_special_cases():
    c3 = classify(3)
    assert c3.branch is Branch.Q_EQUALS_3
    c5 = classify(5)
    assert c5.branch is Branch.PM5_MOD24
    assert c5.sub is SubBranch.Q_EQUALS_5
    assert c5.sqrt_factor_start == 2


@pytest.mark.parametrize("q", [7, 17, 31, 41])
def test_classify_log_branch_early_start(q):
    c = classify(q)
    assert c.branch is Branch.PM1_MOD8
    assert c.sub is SubBranch.PM7_MOD24
    assert c.log_factor_start == 2


@pytest.mark.parametrize("q", [23, 47, 73, 97])
def test_classify_log_branch_late_start(q):
    c = classify(q)
    assert c.branch is Branch.PM1_MOD8
    assert c.sub is SubBranch.PM1_MOD24
    assert 4 <= c.log_factor_start < q


@pytest.mark.parametrize("q", [11, 13, 37, 59, 61])
def test_classify_sqrt_branch(q):
    c = classify(q)
    assert c.branch is Branch.PM11_MOD24
    assert c.sub is None
    assert c.sqrt_factor_start == 3
    assert c.log_factor_start is None


@pytest.mark.parametrize(
    "q,sub",
    [
        (19, SubBranch.PM19_29_MOD120),
        (29, SubBranch.PM19_29_MOD120),
        (101, SubBranch.PM19_29_MOD120),
        (149, SubBranch.PM19_29_MOD120),
        (43, SubBranch.PM43_53_MOD120),
        (53, SubBranch.PM43_53_MOD120),
        (67, SubBranch.PM43_53_MOD120),
        (173, SubBranch.PM43_53_MOD120),
    ],
)
def test_classify_bound_only_subbranches(q, sub):
    c = classify(q)
    assert c.branch is Branch.PM5_MOD24
    assert c.sub is sub
    assert c.sqrt_factor_start == 2


@pytest.mark.parametrize("q", [1, 2, 4, 9, 15, 121])
def test_classify_rejects_non_odd_prime(q):
    with pytest.raises(ClassificationError):
        classify(q)


def test_classify_covers_all_odd_primes_below_2000():
    # classify raises internally if a found start exponent contradicts the
    # residue constraints, so a clean pass is itself the assertion
    seen = set()
    for q in range(3, 2000, 2):
        if not is_prime(q):
            continue
        seen.add(classify(q).branch)
    assert seen == set(Branch)


def test_case_names_have_one_definition():
    # the residue classes live in the mpmath-free cases module; constants
    # re-exports the very same objects
    for name in ("Branch", "SubBranch", "CaseClass", "classify", "LocalFactor",
                 "local_factor", "THETA_UPPER", "X_FLOOR"):
        assert getattr(constants, name) is getattr(cases, name)


def test_step_coeffs_match_jacobi_below_2000():
    # t[m] = chi(m+1) +- chi(m) against the reciprocity-law symbol, for both
    # signs; t[0] and t[1] are unused and zero
    for q in range(3, 2000, 2):
        if not is_prime(q):
            continue
        chi = [_jacobi(m, q) for m in range(q + 1)]
        for sign in (1, -1):
            t = _step_coeffs(q, sign)
            assert all(type(c) is int for c in t) and len(t) == q
            want = [0, 0] + [chi[m + 1] + sign * chi[m] for m in range(2, q)]
            assert t == want, (q, sign)


def test_log_constants_stable_under_doubled_cutoff(monkeypatch):
    # the explicit product stops at the split EXPLICIT_PRIME_LIMIT
    monkeypatch.setattr(constants, "EXPLICIT_PRIME_LIMIT", 100)
    a1, b1 = log_factor_constants.__wrapped__(7, tol=1e-3)
    monkeypatch.setattr(constants, "EXPLICIT_PRIME_LIMIT", 200)
    a2, b2 = log_factor_constants.__wrapped__(7, tol=1e-3)
    assert abs(a1.value - a2.value) <= a1.error + a2.error
    assert abs(b1.value - b2.value) <= b1.error + b2.error


def test_log_constants_wrong_branch_rejected():
    with pytest.raises(ClassificationError):
        log_factor_constants(13)
    with pytest.raises(ClassificationError):
        log_factor_constants(5)


def test_log_constants_unreachable_tolerance():
    with pytest.raises(PrecisionError) as info:
        log_factor_constants(7, tol=1e-30)
    assert info.value.achievable > 1e-30


def test_sqrt_factor_stable_under_doubled_cutoff(monkeypatch):
    monkeypatch.setattr(constants, "EXPLICIT_PRIME_LIMIT", 100)
    a = sqrt_factor_at_half.__wrapped__(13, tol=2e-3)
    monkeypatch.setattr(constants, "EXPLICIT_PRIME_LIMIT", 200)
    b = sqrt_factor_at_half.__wrapped__(13, tol=2e-3)
    assert abs(a.value - b.value) <= a.error + b.error


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0])
def test_non_positive_tolerance_rejected(tol):
    for fn, q in ((main_term_params, 7), (log_factor_constants, 7),
                  (sqrt_factor_at_half, 13), (main_term_params, 3)):
        with pytest.raises(ArgumentError, match="tolerance must be positive"):
            fn(q, tol=tol)


def test_infinite_tolerance_rejected():
    # a tolerance of inf gates nothing, and JSON output cannot carry it
    for fn, arg in ((main_term_params, 7), (log_factor_constants, 7),
                    (sqrt_factor_at_half, 13), (zeta_real, 3.0),
                    (zeta_prime_real, 3.0)):
        with pytest.raises(ArgumentError, match="positive and finite"):
            fn(arg, tol=math.inf)


def test_sqrt_factor_wrong_branch_rejected():
    with pytest.raises(ClassificationError):
        sqrt_factor_at_half(7)


def test_sqrt_factor_unreachable_tolerance():
    with pytest.raises(PrecisionError):
        sqrt_factor_at_half(13, tol=1e-30)


def test_main_term_params_passes_sqrt_tolerance_through():
    # a 1e-30 request cannot be met and must say so, with the half-line
    # product's own achieved error, rather than return a weaker bound
    got = sqrt_factor_at_half(13, tol=1e-3)
    with pytest.raises(PrecisionError) as exc:
        main_term_params(13, tol=1e-30)
    assert exc.value.achievable == got.error / got.value > 1e-30


def test_main_term_exact_cube_root():
    mt = main_term(3, 10.0**6)
    assert mt.kind == "exact_cuberoot"
    assert abs(mt.value - 100.0) <= mt.error
    assert mt.error < 1e-10


def test_main_term_bound_only_branch():
    mt = main_term(5, 10.0**6)
    assert mt.kind == "upper_bound_only"
    assert mt.value == 0.0


def test_main_term_log_branch_shape():
    params = main_term_params(7, tol=1e-3)
    lead = params.leading_coefficient
    brk = params.bracket_constant
    x = 10.0**6
    mt = main_term(7, x, params=params)
    assert mt.kind == "log"
    expect = x * lead.value * (math.log(x) + 2 * GAMMA.value + brk.value)
    assert abs(mt.value - expect) < 1e-6 * abs(expect)
    assert mt.error < 1e-2 * abs(mt.value)


def test_main_term_sqrt_branch_shape():
    params = main_term_params(13, tol=2e-3)
    x = 10.0**6
    mt = main_term(13, x, params=params)
    assert mt.kind == "sqrt"
    assert abs(mt.value - math.sqrt(x) * params.leading_coefficient.value) < 1e-9 * mt.value


def test_main_term_domain_floor():
    with pytest.raises(ArgumentError):
        main_term(7, 10.0)


def test_bracket_constant_only_on_log_branch():
    p13 = main_term_params(13, tol=2e-3)
    assert p13.bracket_constant is None
    p5 = main_term_params(5)
    assert p5.leading_coefficient is None
    assert p5.bracket_constant is None


def test_q3_leading_coefficient_is_exactly_one():
    lead = main_term_params(3).leading_coefficient
    assert (lead.value, lead.error) == (1.0, 0.0)


def test_certified_bounds_round_outward():
    # the float endpoints must contain the exact interval [v - e, v + e]
    cases = [(1.0, 1e-17), (1.0, 0.0), (-3.5, 2.0**-80), (0.1, 1e-300), (1e300, 1.0)]
    for v, e in cases:
        lo, hi = Certified(v, e).bounds
        assert Fraction(lo) <= Fraction(v) - Fraction(e)
        assert Fraction(hi) >= Fraction(v) + Fraction(e)
    assert Certified(1.0, 1e-17).bounds == (
        math.nextafter(1.0, 0.0),
        math.nextafter(1.0, 2.0),
    )
    # the float pair itself stays an enclosure of a computed interval
    c = Certified(1.0, 0.0) / Certified(3.0, 0.0)
    assert Fraction(c.value) - Fraction(c.error) <= Fraction(1, 3)
    assert Fraction(1, 3) <= Fraction(c.value) + Fraction(c.error)


# ------------------------------------------------------------------
# The brute-force float route the accelerated products replaced: a sum
# of float logarithms over every prime to the cutoff, a prime-tail bound
# from pi(t) < 1.26 t/log t, and a 2-ulp-per-operation rounding charge.

_ULP = 2.0**-52
_R2 = 2.0 * _ULP
_EXPONENT_CAP = 100
_EXPONENT_CAP_REMAINDER = 1e-29


def _prime_tail_power(P, a):
    return 1.26 * a / ((a - 1.0) * math.log(P)) * P ** (1.0 - a)


def _prime_tail_power_log(P, a):
    return 1.26 * a / (a - 1.0) * P ** (1.0 - a)


def float_route_log(q, P):
    """(product, err), (logderiv, err) over the primes p <= P."""
    c = classify(q).log_factor_start
    tail_log_product = 8.0 * _prime_tail_power(P, float(c))
    tail_logderiv = 4.2 * (c + 1) * _prime_tail_power_log(P, float(c))
    steps = _step_coeffs(q, -1)[: _EXPONENT_CAP + 1]
    coeffs = [(m, int(steps[m])) for m in np.flatnonzero(steps).tolist()]
    p = np.asarray(prime_list(P), dtype=np.float64)
    factor = np.ones_like(p)
    deriv_num = np.zeros_like(p)
    for m, t in coeffs:
        pw = p ** (-float(m))
        factor += t * pw
        deriv_num += (m * t) * pw
    log_prod = math.fsum(np.log(factor).tolist())
    deriv_terms = np.log(p) * deriv_num / factor
    logderiv = -math.fsum(deriv_terms.tolist())
    per_term = (len(coeffs) + 6) * _R2
    rounding_logs = per_term * len(p) + _EXPONENT_CAP_REMAINDER
    rounding_deriv = (
        per_term * float(np.sum(np.abs(deriv_terms))) + per_term * len(p) * 1e-2
    )
    product = math.exp(log_prod)
    err_product = (
        product * (math.exp(tail_log_product + rounding_logs) - 1.0) + product * _R2
    )
    err_logderiv = tail_logderiv + rounding_deriv + abs(logderiv) * _R2
    return (product, err_product), (logderiv, err_logderiv)


def float_route_sqrt(q, P):
    """(product, err) of the half-line product over the primes p <= P."""
    tail = 2.29 * _prime_tail_power(P, 1.5)
    steps = _step_coeffs(q, +1)[: _EXPONENT_CAP + 1]
    coeffs = [(m, int(steps[m])) for m in np.flatnonzero(steps).tolist()]
    p = np.asarray(prime_list(P), dtype=np.float64)
    rt = p ** (-0.5)
    factor = np.ones_like(p)
    for m, t in coeffs:
        factor += t * rt**m
    log_prod = math.fsum(np.log(factor).tolist())
    rounding = (len(coeffs) + 6) * _R2 * len(p) + _EXPONENT_CAP_REMAINDER
    value = math.exp(log_prod)
    return value, value * (math.exp(tail + rounding) - 1.0) + value * _R2


def branch_moduli(branch, below):
    return [
        q for q in range(7, below, 2) if is_prime(q) and classify(q).branch is branch
    ]


def meets(c, value, error):
    return abs(c.value - value) <= c.error + error


@pytest.mark.parametrize("q", branch_moduli(Branch.PM1_MOD8, 61))
def test_log_constants_meet_float_route(q):
    product, logderiv = log_factor_constants(q, tol=1e-3)
    old_product, old_logderiv = float_route_log(q, 10**5)
    assert meets(product, *old_product)
    assert meets(logderiv, *old_logderiv)


@pytest.mark.parametrize("q", branch_moduli(Branch.PM11_MOD24, 61))
def test_sqrt_factor_meets_float_route(q):
    product = sqrt_factor_at_half(q, tol=1e-3)
    assert meets(product, *float_route_sqrt(q, 10**5))


def test_products_agree_across_explicit_splits(monkeypatch):
    # the split point moves the work between explicit primes and zeta
    # factors; both enclosures must hold the same number, tightly
    P0 = constants.EXPLICIT_PRIME_LIMIT
    runs = []
    for limit in (P0, 10 * P0):
        monkeypatch.setattr(constants, "EXPLICIT_PRIME_LIMIT", limit)
        got = {}
        for q in branch_moduli(Branch.PM1_MOD8, 200):
            got[q] = log_factor_constants.__wrapped__(q)
        for q in branch_moduli(Branch.PM11_MOD24, 200):
            got[q] = (sqrt_factor_at_half.__wrapped__(q),)
        runs.append(got)
    for q, small in runs[0].items():
        for a, b in zip(small, runs[1][q]):
            assert meets(a, b.value, b.error), q
            for c in (a, b):
                assert c.error <= 1e-15 * abs(c.value), q


ZETA_POINTS = [Fraction(6, 5), 1.5, 2, 3.5, 5.5, 7, 23, 29.5]


def encloses(c, x, slack):
    a, b = (mp.make_mpf(e) for e in _fx_iv(c.fx)._mpi_)
    return a - slack <= x <= b + slack


@pytest.mark.parametrize("s", ZETA_POINTS, ids=str)
def test_zeta_against_mpmath(s):
    with mp.workdps(50):
        x = mp.mpf(Fraction(s).numerator) / Fraction(s).denominator
        ref = mp.zeta(x), mp.zeta(x, derivative=1)
        for c, x in zip((zeta_real(s), zeta_prime_real(s)), ref):
            assert encloses(c, x, mp.mpf(10) ** -48), (s, c, x)
            assert mp.mpf(c.value) - c.error <= x <= mp.mpf(c.value) + c.error
            assert c.error <= 4 * math.ulp(c.value)


def test_euler_maclaurin_remainder_is_an_enclosure():
    # few terms and few corrections: the remainder bound carries the
    # enclosure, and it must still hold the true value, on both routes
    with mp.workdps(50):
        for sigma in (Fraction(3, 2), Fraction(6, 5), Fraction(7)):
            with _precision():
                power = partial(constants._inv_power, sigma=sigma)
                routes = (
                    (_fx_iv(constants._zeta_sums(sigma, 8, 2, power)),
                     _fx_iv(constants._dzeta_sums(sigma, 8, 2, power))),
                    _euler_maclaurin(sigma, 8, 2),
                )
            for z, dz in routes:
                want = (mp.zeta(sigma), mp.zeta(sigma, derivative=1))
                for got, x in zip((z, dz), want):
                    c = Certified._of(_fx_of(got))
                    assert encloses(c, x, 0)
                    assert c.error < 1e-2


# ------------------------------------------------------------------
# The per-sigma zeta route the ladder replaced: one interval
# Euler-Maclaurin sum per sigma, with Bernoulli terms, rising factorials
# and harmonic sums carried as intervals term by term, and its own powers
# and logarithms of every n and p.


@lru_cache(maxsize=None)
def _bernoulli_ratios() -> tuple:
    """B_2j/(2j)! for j = 1.._EM_MAX_TERMS as Fractions, from the
    recurrence c_m = -sum_{k<m} c_k/(m+1-k)! for B_m/m!."""
    n = 2 * constants._EM_MAX_TERMS
    fact = [1]
    for i in range(1, n + 2):
        fact.append(fact[-1] * i)
    c = [Fraction(1), Fraction(-1, 2)]
    for m in range(2, n + 1):
        odd = m % 2
        c.append(Fraction(0) if odd else -sum(c[k] / fact[m + 1 - k] for k in range(m)))
    return tuple(c[2 * j] for j in range(1, constants._EM_MAX_TERMS + 1))


@lru_cache(maxsize=None)
def _bernoulli_terms() -> tuple:
    """Enclosures of B_2j/(2j)!.  Call inside _precision()."""
    return tuple(map(_iv, _bernoulli_ratios()))


def _inv_power(n: int, sigma: Fraction):
    """Interval n^-sigma: exact integer powers and one square root when
    2 sigma is an integer, exp(-sigma log n) otherwise.  Call inside
    _precision()."""
    if (2 * sigma).denominator == 1:
        k, half = divmod(int(2 * sigma), 2)
        x = iv.mpf(n**k)
        if half:
            x *= iv.sqrt(n)
        return 1 / x
    return iv.exp(-_iv(sigma) * iv.log(n))


def _euler_maclaurin(sigma: Fraction, N: int, M: int):
    """Enclosures of (zeta(sigma), zeta'(sigma)) from the terms n < N, M
    Bernoulli corrections at N and the remainder bound.  Call inside
    _precision()."""
    s = _iv(sigma)
    zeta, zeta_log = iv.mpf(1), iv.mpf(0)  # sums of n^-s and of log(n) n^-s
    for n in range(2, N):
        term = _inv_power(n, sigma)
        zeta += term
        zeta_log += term * iv.log(n)
    log_n = iv.log(N)
    f_n = _inv_power(N, sigma)
    s1 = s - 1
    zeta += N * f_n / s1 + f_n / 2
    zeta_log += N * f_n * (log_n / s1 + 1 / s1**2) + f_n * log_n / 2
    # (sigma)_{2j-1}, sum_{i<2j-1} 1/(sigma+i) and N^(-sigma-2j+1), for j = 1
    rising, harmonic, power = s, 1 / s, f_n / N
    for j, ratio in enumerate(_bernoulli_terms()[:M], start=1):
        term = ratio * rising * power
        zeta += term
        zeta_log += term * (log_n - harmonic)
        a, b = s + (2 * j - 1), s + 2 * j
        rising *= a * b
        harmonic += 1 / a + 1 / b
        power /= N * N
    if not log_n > harmonic:
        raise ArgumentError(f"log {N} is below the harmonic sum of zeta({sigma})")
    last = s + 2 * M
    scale = 2 * _iv(Fraction(2 * M + 1, 2 * M)) / (2 * iv.pi) ** (2 * M + 1)
    remainder = scale * rising / last * power * N
    unit = iv.mpf([-1, 1])
    zeta += remainder * unit
    zeta_log += remainder * (log_n - harmonic + 1 / last) * unit
    return zeta, -zeta_log


@lru_cache(maxsize=None)
def _zeta_pair(sigma: Fraction):
    """(zeta(sigma), zeta'(sigma)) enclosures, cached by exact sigma."""
    with _precision():
        return _euler_maclaurin(sigma, *constants._em_plan(float(sigma)))


@lru_cache(maxsize=None)
def _log_zeta_rough(sigma: Fraction, P: int):
    """log zeta_P(sigma) and its sigma-derivative, zeta_P being zeta with
    the Euler factors of p <= P removed."""
    with _precision():
        z, dz = _zeta_pair(sigma)
        factor, deriv = z, dz / z
        for p in prime_list(P):
            w = _inv_power(p, sigma)
            factor *= 1 - w
            deriv += iv.log(p) * w / (1 - w)
        return iv.log(factor), deriv


def _width(x):
    a, b = (mp.make_mpf(e) for e in x._mpi_)
    return b - a


def _meet(x, y):
    (a, b), (c, d) = ((mp.make_mpf(e) for e in z._mpi_) for z in (x, y))
    return a <= d and c <= b


@pytest.mark.parametrize(
    "s,ks", [(Fraction(1, 2), range(3, 50)), (Fraction(1), range(2, 18))]
)
def test_ladder_meets_per_sigma_route(s, ks):
    # zeta, zeta', log zeta_P and its derivative at every sigma = k s must
    # meet the old route's enclosures and be no wider than them beyond rounding
    P = constants.EXPLICIT_PRIME_LIMIT
    slack = mp.mpf(2) ** -180
    with mp.workdps(80):
        for k in ks:
            sigma = k * s
            got = (constants._zeta_at(sigma), constants._dzeta_at(sigma),
                   constants._rung(sigma, P), constants._rung_slope(sigma, P))
            old = _zeta_pair(sigma) + _log_zeta_rough(sigma, P)
            for new, ref in zip(map(_fx_iv, got), old):
                assert _meet(new, ref), (sigma, new, ref)
                assert _width(new) <= _width(ref) + slack, (sigma, new, ref)


_CONSTANT_CACHES = (main_term_params, log_factor_constants, sqrt_factor_at_half,
                    constants._rung, constants._rung_slope, constants._zeta_at,
                    constants._dzeta_at, constants._em_plan)


def _branch_constants(params):
    """The certified constants main_term_params(q) built: the leading
    coefficient, the bracket constant and the branch product, read from
    the cache it filled at the default tolerance."""
    q, branch = params.q, params.case.branch
    products = (log_factor_constants(q, 1e-4) if branch is Branch.PM1_MOD8 else
                (sqrt_factor_at_half(q, 1e-4),) if branch is Branch.PM11_MOD24 else ())
    consts = (params.leading_coefficient, params.bracket_constant, *products)
    return [c for c in consts if c is not None]


def test_constants_do_not_depend_on_modulus_order():
    # a rung depends on sigma and P alone, so every constant is the same
    # interval whichever modulus reaches a sigma first
    moduli = prime_list(60)[1:]
    runs = []
    for order in (moduli, moduli[::-1]):
        for cache in _CONSTANT_CACHES:
            cache.cache_clear()
        params = {q: main_term_params(q) for q in order}
        runs.append({q: [c.fx for c in _branch_constants(p)] for q, p in params.items()})
    assert runs[0] == runs[1]


def _work(moduli):
    """(zeta sums, zeta' sums, rung slopes) that main_term_params makes over
    moduli from cold caches: each is one miss of its cache."""
    for cache in _CONSTANT_CACHES:
        cache.cache_clear()
    params = [main_term_params(q) for q in moduli]
    misses = tuple(c.cache_info().misses for c in
                   (constants._zeta_at, constants._dzeta_at, constants._rung_slope))
    return misses, params


def test_constants_compute_only_what_their_branch_reads():
    # q = 13 is on the sqrt branch: its rungs and zeta(13/2) are values
    # alone, and zeta(13) is a rung already
    assert _work([13])[0] == (45, 0, 0)
    # the 16 moduli of constants --all-q 60: slopes only for the six on the
    # log branch, zeta(q) only there too
    assert _work(prime_list(60)[1:])[0] == (51, 20, 16)
    # a plan is a function of sigma alone: one per distinct sigma, 51 here,
    # and 15 for q = 7, whose value and slope halves share every sigma
    assert constants._em_plan.cache_info().misses == 51
    _work([7])
    assert constants._em_plan.cache_info().misses == 15


def test_certified_constants_are_pinned():
    # every enclosure of main_term_params over the odd primes to 200, or its
    # refusal, hashed: a change of any end by one unit of 2^-F shows here
    for cache in _CONSTANT_CACHES:
        cache.cache_clear()
    lines = []
    for q in prime_list(200)[1:]:
        try:
            p = main_term_params(q)
        except TaucharError as e:
            lines.append(f"{q} {type(e).__name__}: {e}")
            continue
        ends = (c.fx if c is not None else None
                for c in (p.leading_coefficient, p.bracket_constant))
        lines.append(f"{q} {p.case.branch.name} " + " ".join(map(str, ends)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "bcda3775883c886f8405b7d2cdb991f1dd5dcf70ecf3e5c77525c652f03ee929"


def test_zeta_q_is_summed_on_the_log_branch_only():
    # 1000003 = 19 (mod 24) has no main-term constant, so no zeta value is
    # summed, least of all zeta(1000003)
    work, (params,) = _work([1000003])
    assert work == (0, 0, 0)
    assert params.leading_coefficient is None and params.bracket_constant is None
    # zeta(13) is a rung of q = 13's half-line product, so q = 59 stands for
    # the sqrt branch: its rungs stop below 59, and it reads zeta(59/2) alone
    for q, branch_reads in ((7, True), (59, False), (3, False), (5, False)):
        _work([q])
        hits = constants._zeta_at.cache_info().hits
        constants._zeta_at(Fraction(q))
        assert (constants._zeta_at.cache_info().hits > hits) is branch_reads, q


def _em_plan_per_n(sigma: float):
    """The planner before its logarithms were hoisted: the log-rising and
    harmonic sums rebuilt for every N."""
    log, pi = math.log, math.pi
    for N in constants._EM_LADDER:
        log_rising = harmonic = 0.0
        for M in range(1, constants._EM_MAX_TERMS + 1):
            for i in (2 * M - 2, 2 * M - 1):
                log_rising += log(sigma + i)
                harmonic += 1.0 / (sigma + i)
            if harmonic + 1.0 / (sigma + 2 * M) >= log(N):
                break
            remainder = (
                log(4.0) - (2 * M + 1) * log(2 * pi) + log_rising
                - (sigma + 2 * M) * log(N) + log(log(N))
            )
            if remainder <= log(constants._EM_TARGET):
                return N, M
    raise ArgumentError(f"no Euler-Maclaurin plan for zeta({sigma})")


def test_em_plan_matches_per_n_planner():
    # the bisecting planner against the scan over every M: the half-integers
    # the half-line rungs reach, a 0.01-step grid, and the zeta test points
    sigmas = (
        [k / 2 for k in range(3, 241)]
        + [1.1 + k / 100 for k in range(1, 5891)]
        + [float(s) for s in ZETA_POINTS]
    )
    for sigma in sigmas:
        assert constants._em_plan(sigma) == _em_plan_per_n(sigma), sigma


def test_bernoulli_numerators_match_fraction_recurrence():
    D, e = constants._bernoulli_numerators()
    ratios = _bernoulli_ratios()
    assert D == math.lcm(*(r.denominator for r in ratios))
    assert [Fraction(x, D) for x in e] == list(ratios)


# ------------------------------------------------------------------
# The fixed-point kernels against exact Fractions: every result encloses
# the exact range of the operation over its operands, and is at most two
# units of 2^-F wider than that range.

ONE = constants._ONE


def _ends(x):
    return Fraction(x[0], ONE), Fraction(x[1], ONE)


def _random_enclosure(rng, positive=False):
    """An enclosure that is tiny (a few units of 2^-F), near 1 or huge
    (around 2^300), of either sign unless positive."""
    scale = rng.choice([2, ONE, ONE << 300])
    lo = rng.randrange(0 if positive else -scale, scale)
    if positive:
        lo += 1
    return lo, lo + rng.randrange(0, scale // 2 + 2)


def _encloses_tightly(got, lo, hi, ulps=2):
    a, b = got
    return a <= lo * ONE and hi * ONE <= b and (b - a) <= (hi - lo) * ONE + ulps


def test_fixed_point_kernels_enclose_exact_results():
    rng = random.Random(20)
    for _ in range(3000):
        x, y = _random_enclosure(rng), _random_enclosure(rng)
        k = rng.choice([-1, 1]) * rng.randrange(0, 2**rng.choice([3, 70, 400]))
        (a, b), (c, d) = _ends(x), _ends(y)
        assert constants._fx_add(x, y) == (x[0] + y[0], x[1] + y[1])
        ends = (a * c, a * d, b * c, b * d)
        assert _encloses_tightly(constants._fx_mul(x, y), min(ends), max(ends))
        assert _encloses_tightly(constants._fx_scale(k, x), *sorted((k * a, k * b)), 0)
        pos = _random_enclosure(rng, positive=True)
        c, d = _ends(pos)
        ends = (a / c, a / d, b / c, b / d)
        assert _encloses_tightly(constants._fx_div(x, pos), min(ends), max(ends))
        num, den = x[0] * k, rng.randrange(1, 2**rng.choice([3, 70, 400]))
        got = constants._fx(num, den)
        assert _encloses_tightly(got, Fraction(num, den), Fraction(num, den), 1)
    with pytest.raises(ArgumentError):
        constants._fx_div((ONE, ONE), (0, ONE))


def test_fixed_point_powers_are_tightest():
    # n^-a/b 2^F lies in [lo, hi] with hi - lo <= 1, checked by b-th powers,
    # and the ends meet only at an exact power
    rng = random.Random(21)
    for _ in range(600):
        b = rng.choice([1, 2, 3, 4, 5, 6, 12])
        n, sigma = rng.randrange(2, 10**4), Fraction(rng.randrange(0, 120), b)
        lo, hi = constants._inv_power(n, sigma)
        a, b = sigma.numerator, sigma.denominator
        assert 0 <= lo and hi - lo <= 1, (n, sigma)
        assert lo**b * n**a <= ONE**b <= hi**b * n**a, (n, sigma)
        assert (lo == hi) == (lo**b * n**a == ONE**b), (n, sigma)
    assert constants._inv_power(2**12, Fraction(1, 12)) == (ONE // 2, ONE // 2)
    lo, hi = constants._inv_power(3, Fraction(6, 5))
    with mp.workdps(80):
        exact = mp.mpf(3) ** (mp.mpf(-6) / 5) * ONE
    assert lo <= exact <= hi and hi - lo <= 1


def test_fixed_point_conversions():
    # the bridge the oracle routes use
    rng = random.Random(22)
    for _ in range(300):
        x = _random_enclosure(rng)
        # to mpmath.iv and back is exact
        assert _fx_of(_fx_iv(x)) == x
    with _precision():
        for v in (iv.pi, -iv.pi / 3, iv.mpf(2) ** -300, -(iv.mpf(2) ** 300) / 7):
            lo, hi = _fx_of(v)
            a, b = (Fraction(*mp.libmp.to_rational(e)) for e in v._mpi_)
            assert _encloses_tightly((lo, hi), a, b)


def _factor_coeffs(q):
    t = list(constants.local_factor(q).numerator)
    while t[-1] == 0:
        t.pop()
    return t


def _series_mul(a, b, K):
    out = [0] * (K + 1)
    for i, x in enumerate(a[: K + 1]):
        if x:
            for j, y in enumerate(b[: K + 1 - i]):
                out[i + j] += x * y
    return out


def _one_minus_power(k, e, K):
    """(1 - u^k)^e for an integer e >= 0, truncated after u^K."""
    out = [0] * (K + 1)
    for j in range(K // k + 1):
        out[j * k] = (-1) ** j * math.comb(e, j)
    return out


@pytest.mark.parametrize(
    "branch,s", [(Branch.PM1_MOD8, Fraction(1)), (Branch.PM11_MOD24, Fraction(1, 2))]
)
def test_factor_exponents_identity(branch, s):
    # L * prod_{b_k > 0} (1 - u^k)^b_k == prod_{b_k < 0} (1 - u^k)^-b_k
    # mod u^(K+1): positive powers only, so no series division
    for q in branch_moduli(branch, 200):
        t = _factor_coeffs(q)
        K = constants._truncation_order(
            len(t) - 1, constants._root_radius(t), s, constants.EXPLICIT_PRIME_LIMIT
        )
        b = constants._factor_exponents(t, K)
        assert len(b) == K + 1 and b[0] == 0
        left, right = t[: K + 1] + [0] * (K + 1 - len(t)), [1] + [0] * K
        for k in range(1, K + 1):
            if b[k] > 0:
                left = _series_mul(left, _one_minus_power(k, b[k], K), K)
            elif b[k] < 0:
                right = _series_mul(right, _one_minus_power(k, -b[k], K), K)
        assert left == right, q


def _factor_exponents_by_division(t, K):
    """b_0..b_K by integer series division: b_k is the u^k coefficient left
    once the factors (1 - u^j)^(b_j), j < k, have multiplied L."""
    c = (list(t) + [0] * (K + 1))[: K + 1]
    b = [0] * (K + 1)
    for k in range(1, K + 1):
        b[k] = bk = c[k]
        if bk == 0:
            continue
        # (1 - u^k)^bk = sum_j w_j u^(jk), w_j = (-1)^j binom(bk, j)
        w = [1]
        for j in range(1, K // k + 1):
            w.append(w[-1] * (j - 1 - bk) // j)
        for n in range(K, k - 1, -1):
            c[n] += sum(w[j] * c[n - j * k] for j in range(1, n // k + 1))
    return b


def test_factor_exponents_equal_series_division():
    # the power sums and the Moebius inversion against series division, for
    # equality, on every product factor below 200 and the worst admissible one
    qs = [q for q in prime_list(200) if q % 8 in (1, 7) or q % 24 in (11, 13)]
    factors = [_factor_coeffs(q) for q in qs] + [[1] + [-2] * 10]
    assert len(factors) == 33
    for t in factors:
        for K in (10, 45, 60, 90):
            want = _factor_exponents_by_division(t, K)
            assert constants._factor_exponents(t, K) == want, (t, K)


def test_root_radius_is_a_root_bound():
    # Cauchy's bound must hold for every factor the coefficient bound
    # |t[m]| <= 2 admits; 1 - 2u - ... - 2u^D has a root just above 1/3
    worst = [1] + [-2] * 10
    rho = constants._root_radius(worst)
    assert min(abs(np.roots(worst[::-1]))) >= rho
    D = len(worst) - 1
    b = constants._factor_exponents(worst, 60)
    for k in range(1, 61):
        assert abs(b[k]) <= D * rho**-k / (k * (1 - rho)), k
    for branch in (Branch.PM1_MOD8, Branch.PM11_MOD24):
        for q in branch_moduli(branch, 200):
            t = _factor_coeffs(q)
            assert max(abs(c) for c in t[1:]) <= 2
            assert min(abs(np.roots(t[::-1]))) >= constants._root_radius(t), q


# ------------------------------------------------------------------
# The fixed-point leaves against mpmath at 480 bits: every enclosure must
# contain the value, and be at most a few units of 2^-F wide.

LEAF_BITS = 480


def _contains(x, v, units=3):
    """x encloses the mpf v, and is at most ``units`` units of 2^-F wider
    than the rounding of v needs."""
    lo, hi = (mp.ldexp(mp.mpf(e), -FRAC) for e in x)
    return lo <= v <= hi and x[1] - x[0] <= units


def _log_inputs():
    rng = random.Random(23)
    ends = [ONE, 2 * ONE, 1 << (FRAC + 57), ONE + (ONE >> 200), ONE - (ONE >> 200),
            1, 3, (1 << (2 * FRAC)) - 1]
    ends += [1 << (FRAC + k) for k in range(-FRAC, 300, 37)]
    ends += [rng.randrange(1, ONE << rng.choice([1, 40, 300])) for _ in range(200)]
    return ends


def test_log_leaf_against_mpmath():
    with mp.workprec(LEAF_BITS):
        for a in _log_inputs():
            want = mp.log(mp.ldexp(mp.mpf(a), -FRAC))
            assert _contains(constants._fx_log((a, a)), want, 2), a
        # the upper end of a wide enclosure comes from the slope bound
        rng = random.Random(24)
        for _ in range(100):
            a = rng.randrange(1, ONE << 40)
            b = a + rng.randrange(0, a >> rng.choice([0, 20, 100, 200]) or 1)
            lo, hi = constants._fx_log((a, b))
            lo_want, hi_want = (mp.log(mp.ldexp(mp.mpf(e), -FRAC)) for e in (a, b))
            assert mp.ldexp(lo, -FRAC) <= lo_want and hi_want <= mp.ldexp(hi, -FRAC)
            assert hi - lo <= (b - a) * ONE // a + 4
    with pytest.raises(ArgumentError):
        constants._fx_log((0, ONE))


def test_log_int_against_mpmath():
    ns = list(range(1, 300)) + prime_list(1000)
    ns += [2**57, 2**57 - 1, 10**18, 3**40, 2**200 + 1]
    with mp.workprec(LEAF_BITS):
        for n in ns:
            assert _contains(constants._log_int(n), mp.log(n), 2), n
    assert constants._log_int(2) == constants._fx_log((2 * ONE, 2 * ONE))


def test_exp_leaf_against_mpmath():
    rng = random.Random(25)
    xs = [0, 1, -1, ONE, -ONE, 2 * ONE, 57 * ONE, -57 * ONE, 1 << 20, -(1 << 20),
          ONE >> 200, -(ONE >> 200), -150 * ONE, -200 * ONE, 300 * ONE,
          constants._LOG2[0] >> constants._GUARD]
    xs += [rng.randrange(-300 * ONE, 300 * ONE) for _ in range(200)]
    with mp.workprec(LEAF_BITS):
        for a in xs:
            want = mp.exp(mp.ldexp(mp.mpf(a), -FRAC))
            lo, hi = constants._fx_exp((a, a))
            assert mp.ldexp(lo, -FRAC) <= want <= mp.ldexp(hi, -FRAC), a
            # a few units, or a relative 2^-200 of a large result
            assert hi - lo <= 3 + (hi >> 200), a
        # tiny results keep a true lower end of 0 or more
        lo, hi = constants._fx_exp((-300 * ONE, -300 * ONE))
        assert 0 <= lo <= hi <= 2
        a, b = -ONE, ONE // 3
        lo, hi = constants._fx_exp((a, b))
        assert mp.ldexp(lo, -FRAC) <= mp.exp(-1) and mp.exp(mp.mpf(b) / ONE) <= mp.ldexp(hi, -FRAC)


def test_inv_power_off_the_half_integers_against_mpmath():
    rng = random.Random(26)
    with mp.workprec(LEAF_BITS):
        for _ in range(100):
            n = rng.randrange(2, 10**6)
            sigma = Fraction(rng.randrange(1, 200), rng.choice([3, 5, 7, 12]))
            if (2 * sigma).denominator == 1:
                continue
            want = mp.power(n, -mp.mpf(sigma.numerator) / sigma.denominator)
            assert _contains(constants._inv_power(n, sigma), want, 4), (n, sigma)


def test_sqrt_and_cube_root_leaves():
    rng = random.Random(27)
    with mp.workprec(LEAF_BITS):
        for _ in range(100):
            a = rng.randrange(0, ONE << rng.choice([1, 60, 300]))
            lo, hi = constants._fx_sqrt((a, a))
            assert lo * lo <= a * ONE <= hi * hi and hi - lo <= 1
        cubes = [r**3 for r in (1, 2, 10, 100, 12345, 2**19)]
        others = [55, 57, 1000001, 2**57, 2**57 - 1, 10**18 + 3]
        for x in cubes + others:
            r, r1 = constants._fx_cbrt(x, 1)
            assert r1 == r + 1 and r**3 <= x << 3 * FRAC < (r + 1) ** 3, x
            assert _contains((r, r1), mp.cbrt(x), 1)
        # floats are taken exactly: 15.625 = 2.5^3, and 1e300 makes a root
        # argument past the float range
        for x in (15.625, 1e300, 64.5):
            n, d = x.as_integer_ratio()
            r, _ = constants._fx_cbrt(n, d)
            assert r**3 * d <= n << 3 * FRAC < (r + 1) ** 3 * d, x
        assert constants._fx_cbrt(*(15.625).as_integer_ratio())[0] == 5 * ONE // 2


def test_tabulated_constants_against_mpmath():
    with mp.workprec(LEAF_BITS):
        pi_lower = Fraction(constants.PI_LOWER_LITERAL)
        assert mp.mpf(pi_lower.numerator) / pi_lower.denominator < mp.pi
        assert mp.pi - mp.mpf(pi_lower.numerator) / pi_lower.denominator < mp.mpf(10) ** -30
        assert _contains(GAMMA.fx, +mp.euler, 2 * 10**-30 * ONE)
        assert _contains(constants._LOG2, mp.log(2) * mp.ldexp(1, constants._GUARD), 400)


# ------------------------------------------------------------------
# Certified's float conversions, pinned to the mpmath roundings they
# replaced: value to nearest, error the worst end distance plus one ulp,
# rounded up, and bounds rounded outward.

libmp = mp.libmp


def _libmp_floats(x):
    """(value, error, bounds) of an enclosure, computed by mpmath.libmp."""
    a, b = (libmp.from_man_exp(e, -FRAC) for e in x)
    value = libmp.to_float(libmp.mpf_shift(libmp.mpf_add(a, b), -1), rnd="n")
    v = libmp.from_float(value)
    if a == b == v:
        error = 0.0
    else:
        above, below = libmp.mpf_sub(b, v), libmp.mpf_sub(v, a)
        worst = above if libmp.mpf_cmp(above, below) >= 0 else below
        margin = math.ulp(abs(value) + libmp.to_float(worst, rnd="c"))
        error = libmp.to_float(libmp.mpf_add(worst, libmp.from_float(margin)), rnd="c")
    return value, error, (libmp.to_float(a, rnd="f"), libmp.to_float(b, rnd="c"))


def test_certified_float_conversions_match_libmp():
    rng = random.Random(30)
    samples = [_random_enclosure(rng) for _ in range(1500)]
    for _ in range(500):
        v = rng.choice([-1, 1]) * rng.uniform(0, 2.0 ** rng.randrange(-60, 120))
        a = Fraction(v) * ONE
        assert a.denominator == 1
        a = int(a)
        u = int(Fraction(math.ulp(v)) * ONE)
        # an exact float, a tie between two floats, and a float plus a few units
        samples += [(a, a), (a, a + u), (a - rng.randrange(0, 9), a + rng.randrange(0, 9))]
    for x in samples:
        c = Certified._of(x)
        assert (c.value, c.error, c.bounds) == _libmp_floats(x), x
