"""Exact Dirichlet-coefficient algebra and the factorization verifier.

Identities in play, writing chi for the Legendre symbol mod q, u for p^(-s),
t[m] = chi(m+1) + chi(m), and star for Dirichlet convolution.  The Dirichlet
series of the tau character factors over primes, and clearing zeta factors
leaves one of five local Euler factors, selected by the residue class of q:

* q = +-1 (mod 8):   series = zeta(qs) * zeta(s) * prod_p (1 + sum_{m>=2}
  {chi(m+1) - chi(m)} u^m); first nonzero exponent is 2 exactly when
  q = +-7 (mod 24), else >= 4.
* q = +-3 (mod 8):   series = zeta(qs) * zeta(2s) / zeta(s) * prod_p
  (1 + sum_{m>=2} t[m] u^m); the sum starts at m=3 for q = +-11 (mod 24)
  and at m=2 (with t[2] = -2) for q = +-5 (mod 24).
* q = +-5 (mod 24) combined: clearing zeta(s) * zeta(2s) entirely gives the
  raw factor (1 - 2u^2 + sum_{m>=4} t[m] u^m) / (1 - u^2)^2, which further
  splits mod 120: for q = +-19, +-29 it equals a fourth-power zeta factor
  times a series starting at u^5; for q = +-43, +-53 it equals a series
  starting at u^6 divided by that fourth-power factor.

The factors live in ``cases``: ``classify`` decides the residue class,
and ``local_factor`` returns the factor it selects as an integer rational
function of u.  ``verify_factorization`` dispatches on the same
classification and expands each factor by integer long division.  Every
such factor has no u^1 term, so its expansion lives on the powerful
numbers, and ``expand_euler_product`` hands it to
``sieves.multiplicative_series``, which lists them by the powerful walk
instead of sieving every n.
"""

from math import isqrt
from typing import NamedTuple

import numpy as np

from .cases import Branch, LocalFactor, SubBranch, classify, local_factor
from .errors import ArgumentError, NotInvertibleError, OverflowHardError
from .sieves import (
    CoeffSeries,
    check_budget,
    divisor_count_sieve,
    is_prime,
    mobius_sieve,
    multiplicative_series,
    ones_series,
    power_indicator_series,
    tau_char_sieve,
)

_INT64_MAX = 2**63 - 1


def _abs_max(v: np.ndarray) -> int:
    """Largest |v[i]| as a Python int; np.abs would wrap INT64_MIN."""
    return max(-int(v.min()), int(v.max()))


def _split_convolve(av: np.ndarray, bv: np.ndarray, n: int, dtype) -> np.ndarray:
    """sum_{d k = m} av[d] bv[k] for m = 0..n, in dtype, split at isqrt(n)."""
    r = isqrt(n)
    out = np.zeros(n + 1, dtype=dtype)
    for d in (np.flatnonzero(av[1 : r + 1]) + 1).tolist():
        out[d::d] += av[d] * bv[1 : n // d + 1]
    for k in (np.flatnonzero(bv[1 : n // (r + 1) + 1]) + 1).tolist():
        hi = n // k
        out[(r + 1) * k : hi * k + 1 : k] += bv[k] * av[r + 1 : hi + 1]
    return out


def _exact_bound(a: CoeffSeries, b: CoeffSeries) -> int:
    """max over m of sum_{d k = m} |a(d) b(k)|, in Python ints: the largest
    partial sum any int64 convolution of a and b can reach."""
    return int(
        _split_convolve(
            np.abs(a.values.astype(object)), np.abs(b.values.astype(object)),
            a.limit, object,
        ).max()
    )


def dirichlet_convolve(a: CoeffSeries, b: CoeffSeries) -> CoeffSeries:
    """(a * b)(n) = sum over d | n of a(d) b(n/d), exactly, up to the limit.

    The pairs d k <= n split at r = isqrt(n), as in the hyperbola method:
    for d <= r one strided update adds a(d) b(k) over every k, and for
    d > r (so k <= n // (r + 1) <= r) one strided update adds b(k) a(d)
    over every d.  That is O(n log n) work in at most 2 r numpy calls.

    Overflow guard: tau(n) < 2 sqrt(n) terms of size max|a| max|b| bound
    every partial sum a priori.  Only when that bound exceeds int64 is the
    exact bound, the largest sum of |a(d) b(k)|, computed in Python ints
    before the convolution is refused.
    """
    if a.limit != b.limit:
        raise ArgumentError(
            f"series limits differ: {a.limit} != {b.limit}"
        )
    n = a.limit
    max_a = _abs_max(a.values)
    max_b = _abs_max(b.values)
    if max_a * max_b * (2 * isqrt(n) + 1) > _INT64_MAX:
        bound = _exact_bound(a, b)
        if bound > _INT64_MAX:
            raise OverflowHardError(
                "convolution could exceed signed 64-bit range "
                f"(a sum of |a(d) b(k)| reaches {bound})"
            )
    return CoeffSeries(n, _split_convolve(a.values, b.values, n, np.int64))


def dirichlet_inverse(a: CoeffSeries) -> CoeffSeries:
    """The convolution inverse of a, requiring a(1) in {+1, -1}.

    Newton iteration b <- b - b * (a * b - e).  If b is right up to N, the
    error E = a * b - e vanishes on [1, N], so a * (b - b * E) = e - E * E
    is right below (N + 1)^2.  From b = a(1) e, right up to 1, the steps
    reach 3, 15, 255, 65535, ..., so O(log log n) steps of two truncated
    convolutions reach the limit.  Every value comes out of a convolution
    with the int64 guard of dirichlet_convolve, so a result that does not
    fit raises OverflowHardError instead of wrapping.
    """
    n = a.limit
    a1 = a[1]
    if a1 not in (-1, 1):
        raise NotInvertibleError(
            f"series with leading value {a1} has no integer convolution inverse"
        )
    b = np.zeros(n + 1, dtype=np.int64)
    b[1] = a1
    good = 1
    while good < n:
        good = min(n, (good + 1) ** 2 - 1)
        a_good = CoeffSeries(good, a.values[: good + 1])
        b_good = CoeffSeries(good, b[: good + 1])
        err = dirichlet_convolve(a_good, b_good).values.copy()
        err[1] -= 1  # a * b - e
        b[: good + 1] -= dirichlet_convolve(CoeffSeries(good, err), b_good).values
    return CoeffSeries(n, b)


def _omega_max(limit: int) -> int:
    """Largest k with p_1 p_2 ... p_k <= limit: the most distinct prime
    factors any n <= limit has."""
    k, primorial, p = 0, 1, 2
    while primorial * p <= limit:
        primorial *= p
        k += 1
        p += 1
        while not is_prime(p):
            p += 1
    return k


def expand_euler_product(local: LocalFactor, limit: int) -> CoeffSeries:
    """Multiplicative extension of a local Euler factor to n = 1..limit.

    values[n] = product over p^e || n of the factor's u^e coefficient.  A
    value is a product of at most omega_max(limit) coefficients, so the
    int64 check is made on that bound before any work.  Every factor
    local_factor returns has no u^1 term, so ``multiplicative_series``
    lists its support by the powerful walk.
    """
    c = local.coeffs(max(1, limit.bit_length() - 1))
    if max(map(abs, c)) ** _omega_max(limit) > _INT64_MAX:
        raise OverflowHardError(
            f"euler product expansion of {local.name} could overflow int64 "
            f"below {limit}"
        )
    return multiplicative_series(limit, c, "euler product expansion")


class RouteCheck(NamedTuple):
    """One verified identity: the route description and where it first fails."""

    name: str
    ok: bool
    first_mismatch: int | None


class FactorizationReport(NamedTuple):
    q: int
    limit: int
    routes: tuple[RouteCheck, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.routes)

    @property
    def first_mismatch(self) -> int | None:
        hits = [r.first_mismatch for r in self.routes if r.first_mismatch is not None]
        return min(hits) if hits else None


def verify_factorization(q: int, limit: int) -> FactorizationReport:
    """Check the Euler-factor identities for modulus q coefficient by coefficient.

    The direct side is always the sieve of the tau character convolved with
    the constant 1.  The candidate side rebuilds the same coefficients from
    the expanded Euler products that classify(q) selects.  A mismatch is a
    mathematical finding reported with the smallest offending index, not an
    exception.
    """
    case = classify(q)  # validates q odd prime
    check_budget(limit, "factorization check")
    tau_char = tau_char_sieve(q, limit)
    direct = dirichlet_convolve(tau_char, ones_series(limit))
    a_q = power_indicator_series(q, limit)

    def route(name: str, expected: CoeffSeries, *series: CoeffSeries) -> RouteCheck:
        got = series[0]
        for s in series[1:]:
            got = dirichlet_convolve(got, s)
        miss = expected.first_mismatch(got)
        return RouteCheck(name=name, ok=miss is None, first_mismatch=miss)

    def euler(combined: bool = False) -> CoeffSeries:
        return expand_euler_product(local_factor(q, combined), limit)

    lhs = "conv(tau_char, 1) == "
    if case.branch is Branch.Q_EQUALS_3:
        # the whole series collapses to the cube indicator
        routes = [
            route(lhs + "cube_indicator", direct, a_q),
            route("tau_char == conv(cube_indicator, mobius)",
                  tau_char, a_q, mobius_sieve(limit)),
        ]
    elif case.branch is Branch.PM1_MOD8:
        routes = [route(lhs + "conv(log_branch_coeffs, tau)",
                        direct, a_q, euler(), divisor_count_sieve(limit))]
    elif case.branch is Branch.PM11_MOD24:
        routes = [route(lhs + "conv(sqrt_branch_coeffs, square_indicator)",
                        direct, a_q, euler(), power_indicator_series(2, limit))]
    else:  # q = +-5 (mod 24)
        inv_sq = dirichlet_inverse(power_indicator_series(2, limit))
        if case.sub is SubBranch.Q_EQUALS_5:
            routes = [route(
                lhs + "conv(fifth_power_indicator, inverse(square_indicator))",
                direct, a_q, inv_sq)]
        else:
            fourth = power_indicator_series(4, limit)
            routes = [route(lhs + "conv(raw_coeffs, inverse(square_indicator))",
                            direct, a_q, euler(combined=True), inv_sq)]
            if case.sub is SubBranch.PM19_29_MOD120:
                routes.append(route(
                    lhs + "conv(u5_coeffs, fourth_power_indicator, "
                    "inverse(square_indicator))",
                    direct, a_q, euler(), fourth, inv_sq))
            else:
                routes.append(route(
                    lhs + "conv(u6_coeffs, inverse(fourth_power_indicator), "
                    "inverse(square_indicator))",
                    direct, a_q, euler(), dirichlet_inverse(fourth), inv_sq))
    return FactorizationReport(q=q, limit=limit, routes=tuple(routes))
