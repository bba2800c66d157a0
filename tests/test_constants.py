"""Certified arithmetic and the branch constants, checked against closed
forms, against mpmath, against the brute-force float prime products, and
against themselves at moved split points."""

import math
import random
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
from tauchar.errors import ArgumentError, ClassificationError, PrecisionError
from tauchar.sieves import primes_up_to


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


def test_zeta_argument_guards():
    with pytest.raises(ArgumentError):
        zeta_real(1.05)
    with pytest.raises(ArgumentError):
        zeta_real(2.0, tol=0.0)


def test_zeta_unreachable_tolerance_reports_achievable():
    with pytest.raises(PrecisionError) as info:
        zeta_real(1.2, tol=1e-30)
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
    assert Certified.exact(2.5).error == 0.0
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


def test_interval_precision_is_restored():
    saved = iv.prec
    try:
        iv.prec = 77
        zeta_real(2.5)
        zeta_prime_real(3.0)
        log_factor_constants.__wrapped__(7)
        sqrt_factor_at_half.__wrapped__(11)
        main_term(7, 10.0**6)
        Certified(1.0, 1e-3) / Certified(3.0, 0.0)
        with pytest.raises(PrecisionError):
            log_factor_constants.__wrapped__(7, tol=1e-30)
        assert iv.prec == 77
    finally:
        iv.prec = saved


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
    p = np.asarray(primes_up_to(P), dtype=np.float64)
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
    p = primes_up_to(P).astype(np.float64)
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


ZETA_POINTS = [1.2, 1.5, 2, 3.5, 5.5, 7, 23, 29.5]


def encloses(c, x, slack):
    a, b = (mp.make_mpf(e) for e in c.interval._mpi_)
    return a - slack <= x <= b + slack


@pytest.mark.parametrize("s", ZETA_POINTS)
def test_zeta_against_mpmath(s):
    with mp.workdps(50):
        ref = mp.zeta(s), mp.zeta(s, derivative=1)
        for c, x in zip((zeta_real(s), zeta_prime_real(s)), ref):
            assert encloses(c, x, mp.mpf(10) ** -48), (s, c, x)
            assert mp.mpf(c.value) - c.error <= x <= mp.mpf(c.value) + c.error
            assert c.error <= 4 * math.ulp(c.value)


def test_euler_maclaurin_remainder_is_an_enclosure():
    # few terms and few corrections: the remainder bound carries the
    # enclosure, and it must still hold the true value, on both routes
    with mp.workdps(50):
        for sigma in (Fraction(3, 2), Fraction(6, 5), Fraction(7)):
            with constants._precision():
                power = partial(constants._inv_power, sigma=sigma)
                routes = (
                    tuple(map(constants._fx_iv, constants._zeta_sums(sigma, 8, 2, power))),
                    _euler_maclaurin(sigma, 8, 2),
                )
            for z, dz in routes:
                want = (mp.zeta(sigma), mp.zeta(sigma, derivative=1))
                for got, x in zip((z, dz), want):
                    c = Certified._of(got)
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
    return tuple(map(constants._iv, _bernoulli_ratios()))


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
    return iv.exp(-constants._iv(sigma) * iv.log(n))


def _euler_maclaurin(sigma: Fraction, N: int, M: int):
    """Enclosures of (zeta(sigma), zeta'(sigma)) from the terms n < N, M
    Bernoulli corrections at N and the remainder bound.  Call inside
    _precision()."""
    _iv = constants._iv
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
    with constants._precision():
        return _euler_maclaurin(sigma, *constants._em_plan(float(sigma)))


@lru_cache(maxsize=None)
def _log_zeta_rough(sigma: Fraction, P: int):
    """log zeta_P(sigma) and its sigma-derivative, zeta_P being zeta with
    the Euler factors of p <= P removed."""
    with constants._precision():
        z, dz = _zeta_pair(sigma)
        factor, deriv = z, dz / z
        for p in constants._primes_to(P):
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
    # zeta, zeta', log zeta_P and its derivative on every rung must meet the
    # old route's enclosures and be no wider than them beyond rounding
    P = constants.EXPLICIT_PRIME_LIMIT
    ladder = constants._ZetaLadder(s, P)
    ladder.extend(max(ks))
    slack = mp.mpf(2) ** -180
    with mp.workdps(80):
        for k in ks:
            sigma = k * s
            assert ladder.plans[k] == constants._em_plan(float(sigma))
            old = _zeta_pair(sigma) + _log_zeta_rough(sigma, P)
            for new, ref in zip(ladder.rungs[k], old):
                assert _meet(new, ref), (sigma, new, ref)
                assert _width(new) <= _width(ref) + slack, (sigma, new, ref)
    assert all(ladder.rungs[k] is None for k in range(1, min(ks)))


def test_ladder_does_not_depend_on_extension_order():
    # a ladder grown in two steps holds the very intervals of one grown at once
    s, P = Fraction(1, 2), constants.EXPLICIT_PRIME_LIMIT
    grown, fresh = constants._ZetaLadder(s, P), constants._ZetaLadder(s, P)
    grown.extend(16)
    grown.extend(49)
    fresh.extend(49)
    assert grown.plans == fresh.plans
    assert len(grown.rungs) == len(fresh.rungs) == 50
    for a, b in zip(grown.rungs, fresh.rungs):
        if a is None:
            assert b is None
            continue
        assert [x._mpi_ for x in a] == [x._mpi_ for x in b]


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
    sigmas = [k / 2 for k in range(3, 121)] + [float(s) for s in ZETA_POINTS]
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
    # n^-m/2 2^F lies in [lo, hi] with hi - lo <= 1, checked by squaring
    rng = random.Random(21)
    for _ in range(400):
        n, m = rng.randrange(2, 10**4), rng.randrange(0, 120)
        lo, hi = constants._inv_power(n, Fraction(m, 2))
        assert 0 <= lo and hi - lo <= 1, (n, m)
        assert lo * lo * n**m <= ONE * ONE <= hi * hi * n**m, (n, m)
    lo, hi = constants._inv_power(3, Fraction(6, 5))
    with mp.workdps(80):
        exact = mp.mpf(3) ** mp.mpf("-1.2") * ONE
    assert lo <= exact <= hi and hi - lo <= 2**40


def test_fixed_point_conversions():
    rng = random.Random(22)
    for _ in range(300):
        x = _random_enclosure(rng)
        # to mpmath.iv and back is exact
        assert constants._fx_of(constants._fx_iv(x)) == x
    with constants._precision():
        for v in (iv.pi, -iv.pi / 3, iv.mpf(2) ** -300, -(iv.mpf(2) ** 300) / 7):
            lo, hi = constants._fx_of(v)
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
