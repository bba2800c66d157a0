"""Certified arithmetic and the branch constants, checked against closed
forms and against themselves at doubled cutoffs."""

import math

import numpy as np
import pytest

from tauchar.constants import (
    EULER_GAMMA,
    EULER_GAMMA_LITERAL,
    GAMMA,
    Branch,
    Certified,
    SubBranch,
    _step_coeffs,
    classify,
    log_factor_constants,
    main_term,
    main_term_params,
    sqrt_factor_at_half,
    zeta_prime_real,
    zeta_real,
)
from tauchar.errors import ArgumentError, ClassificationError, PrecisionError
from tauchar.sieves import _jacobi, is_prime


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
    assert c.within(1.0005, 1e-3)
    assert not c.within(1.01, 1e-3)
    s = c.scale(-3.0)
    assert s.value == -3.0
    assert s.error >= 3e-6


def test_gamma_literal_consistency():
    assert EULER_GAMMA == float(EULER_GAMMA_LITERAL)
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


def test_step_coeffs_match_jacobi_below_2000():
    # t[m] = chi(m+1) +- chi(m) against the reciprocity-law symbol, for both
    # signs; t[0] and t[1] are unused and zero
    for q in range(3, 2000, 2):
        if not is_prime(q):
            continue
        chi = [_jacobi(m, q) for m in range(q + 1)]
        for sign in (1, -1):
            t = _step_coeffs(q, sign)
            assert t.dtype == np.int64 and len(t) == q
            want = [0, 0] + [chi[m + 1] + sign * chi[m] for m in range(2, q)]
            assert t.tolist() == want, (q, sign)


def test_log_constants_stable_under_doubled_cutoff():
    a1, b1 = log_factor_constants(7, prime_cutoff=10**5, tol=1e-3)
    a2, b2 = log_factor_constants(7, prime_cutoff=2 * 10**5, tol=1e-3)
    assert abs(a1.value - a2.value) <= a1.error + a2.error
    assert abs(b1.value - b2.value) <= b1.error + b2.error


def test_log_constants_wrong_branch_rejected():
    with pytest.raises(ClassificationError):
        log_factor_constants(13)
    with pytest.raises(ClassificationError):
        log_factor_constants(5)


def test_log_constants_unreachable_tolerance():
    with pytest.raises(PrecisionError) as info:
        log_factor_constants(7, prime_cutoff=100, tol=1e-12)
    assert info.value.achievable > 1e-12


def test_sqrt_factor_stable_under_doubled_cutoff():
    a = sqrt_factor_at_half(13, prime_cutoff=10**6, tol=2e-3)
    b = sqrt_factor_at_half(13, prime_cutoff=2 * 10**6, tol=2e-3)
    assert abs(a.value - b.value) <= a.error + b.error


def test_sqrt_factor_wrong_branch_rejected():
    with pytest.raises(ClassificationError):
        sqrt_factor_at_half(7)


def test_sqrt_factor_unreachable_tolerance():
    with pytest.raises(PrecisionError):
        sqrt_factor_at_half(13, prime_cutoff=100, tol=1e-9)


def test_main_term_params_passes_sqrt_tolerance_through():
    # the half-line tail at cutoff 1e7 is about 1.7e-4: a 1e-5 request
    # cannot be met and must say so rather than return the weaker bound
    with pytest.raises(PrecisionError) as exc:
        main_term_params(13, prime_cutoff=10**7, tol=1e-5)
    assert 1e-4 < exc.value.achievable < 2e-4


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
    params = main_term_params(7, prime_cutoff=10**5, tol=1e-3)
    lead = params.leading_coefficient
    brk = params.bracket_constant
    x = 10.0**6
    mt = main_term(7, x, params=params)
    assert mt.kind == "log"
    expect = x * lead.value * (math.log(x) + 2 * GAMMA.value + brk.value)
    assert abs(mt.value - expect) < 1e-6 * abs(expect)
    assert mt.error < 1e-2 * abs(mt.value)


def test_main_term_sqrt_branch_shape():
    params = main_term_params(13, prime_cutoff=10**6, tol=2e-3)
    x = 10.0**6
    mt = main_term(13, x, params=params)
    assert mt.kind == "sqrt"
    assert abs(mt.value - math.sqrt(x) * params.leading_coefficient.value) < 1e-9 * mt.value


def test_main_term_domain_floor():
    with pytest.raises(ArgumentError):
        main_term(7, 10.0)


def test_bracket_constant_only_on_log_branch():
    p13 = main_term_params(13, prime_cutoff=10**6, tol=2e-3)
    assert p13.bracket_constant is None
    p5 = main_term_params(5)
    assert p5.leading_coefficient is None
    assert p5.bracket_constant is None
