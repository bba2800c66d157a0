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
instead of sieving every n.  The routes that divide by zeta(2s) or
zeta(4s) convolve with the inverse of a power indicator, 1/zeta(rs),
whose local factor 1 - u^r is a polynomial too, so the same builder
lists it.

The three root-floor identity scans live here too: each compares a * 1
with the jumps of an identity's right side, coefficient by coefficient,
as the routes compare their two sides.  One verify run hands the scans
and every modulus one ``Tables`` store, so tau, 1, each power indicator,
each inverse and each tau character convolved with 1 is built once; the
cube and fifth-power scans share tauchar_3 * 1 and tauchar_5 * 1 with the
q = 3 and q = 5 routes.
"""

from math import isqrt
from typing import NamedTuple

import numpy as np

from . import _kernels
from .cases import Branch, LocalFactor, SubBranch, classify, local_factor
from .errors import ArgumentError
from .roots import integer_nth_root
from .sieves import (
    CoeffSeries,
    check_budget,
    divisor_count_sieve,
    liouville_sieve,
    mobius_sieve,
    multiplicative_series,
    ones_series,
    power_indicator_series,
    tau_char_sieve,
)


def _abs_max(v: np.ndarray) -> int:
    """Largest |v[i]| as a Python int; np.abs would wrap INT64_MIN."""
    return max(-int(v.min()), int(v.max()))


# The cost of one numpy call, in element updates: a strided multiply-add
# over m elements takes about as long as _CALL + m element updates.
_CALL = 1000


def _add_multiple(out: np.ndarray, sl: slice, v, x: np.ndarray) -> None:
    """out[sl] += v * x, with the product taken in out's dtype; v = +-1
    adds or subtracts x without a temporary."""
    if v == 1:
        out[sl] += x
    elif v == -1:
        out[sl] -= x
    else:
        out[sl] += np.multiply(x, v, dtype=out.dtype)


def _split_convolve(av: np.ndarray, bv: np.ndarray, n: int, dtype) -> np.ndarray:
    """sum_{d k = m} av[d] bv[k] for m = 0..n, in dtype.

    Convolution is symmetric, so av is taken to be the side with fewer
    nonzeros in [1, r], r = isqrt(n).  Its support d <= r takes one strided
    update per d, over every k.  The pairs with d > r, where k <= n // (r+1),
    take whichever costs less by a count of numpy calls and element
    updates: one update per nonzero bv[k] over every d > r (the hyperbola
    split), or one per nonzero av[d] with d > r over every k (a loop over
    av's support, for an av as sparse as a power indicator or an Euler
    expansion).  A nonzero count of av above r decides whether to list
    that support at all.
    """
    r = isqrt(n)
    out = np.zeros(n + 1, dtype=dtype)
    lo_a = np.flatnonzero(av[1 : r + 1]) + 1
    lo_b = np.flatnonzero(bv[1 : r + 1]) + 1
    if len(lo_b) < len(lo_a):
        av, bv, lo_a, lo_b = bv, av, lo_b, lo_a
    ks = lo_b[lo_b <= n // (r + 1)]
    split_cost = int((_CALL - r + n // ks).sum())
    ds = lo_a
    if np.count_nonzero(av[r + 1 :]) * _CALL < split_cost:
        hi_a = np.flatnonzero(av[r + 1 :]) + r + 1
        if int((_CALL + n // hi_a).sum()) < split_cost:
            ds, ks = np.concatenate((lo_a, hi_a)), ks[:0]
    for d in ds.tolist():
        _add_multiple(out, slice(d, None, d), av[d], bv[1 : n // d + 1])
    for k in ks.tolist():
        hi = n // k
        _add_multiple(out, slice((r + 1) * k, hi * k + 1, k), bv[k], av[r + 1 : hi + 1])
    return out


def _exact_bound(a: CoeffSeries, b: CoeffSeries) -> int:
    """max over m of sum_{d k = m} |a(d) b(k)|, in Python ints: the largest
    partial sum any convolution of a and b can reach."""
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
    When one side is as sparse as a power indicator or an Euler
    expansion, a loop over its whole support costs less, and a cost model
    on the support sizes takes it (``_split_convolve``).

    Width: tau(n) < 2 sqrt(n) terms of size max|a| max|b| bound every
    partial sum a priori, and the values accumulate in the width
    ``_kernels.width`` picks for that bound.  Only above int64 is the exact
    bound, the largest sum of |a(d) b(k)|, computed in Python ints and
    used instead, or the convolution refused.
    """
    if a.limit != b.limit:
        raise ArgumentError(
            f"series limits differ: {a.limit} != {b.limit}"
        )
    n = a.limit
    bound = _abs_max(a.values) * _abs_max(b.values) * (2 * isqrt(n) + 1)
    if bound >= 2**63:
        bound = _exact_bound(a, b)
    dtype = _kernels.width(bound, "convolution could exceed signed 64-bit range "
                           f"(a sum of |a(d) b(k)| reaches {bound})")
    return CoeffSeries(n, _split_convolve(a.values, b.values, n, dtype))


def expand_euler_product(local: LocalFactor, limit: int) -> CoeffSeries:
    """Multiplicative extension of a local Euler factor to n = 1..limit.

    values[n] = product over p^e || n of the factor's u^e coefficient, by
    ``multiplicative_series``, which refuses rows that could pass int64.
    Every local_factor has no u^1 term, so that is the powerful walk.
    """
    c = local.coeffs(max(1, limit.bit_length() - 1))
    return multiplicative_series(limit, c, "euler product expansion")


class Tables:
    """The series of one verify run at one limit, each built on first use.

    tau, 1, the power indicators, their inverses, and each tau character
    and its convolution with 1.  Every character is read off the one tau;
    tau, the indicators and the inverses are ``multiplicative_series`` tables.
    The identity scans and every modulus's routes draw on one store, so a
    run builds each of these once, and the store goes when the run drops
    it.  ``release(q)`` drops the series of modulus q (its character, that
    convolved with 1, and the q-th power indicator), which no other
    modulus reads.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self._kept = {}

    def _get(self, key, build) -> CoeffSeries:
        series = self._kept.get(key)
        if series is None:
            series = self._kept[key] = build()
        return series

    def tau(self) -> CoeffSeries:
        return self._get("tau", lambda: divisor_count_sieve(self.limit))

    def ones(self) -> CoeffSeries:
        return self._get("ones", lambda: ones_series(self.limit))

    def power(self, r: int) -> CoeffSeries:
        """The indicator of the perfect r-th powers."""
        return self._get(("power", r), lambda: power_indicator_series(r, self.limit))

    def inverse_power(self, r: int) -> CoeffSeries:
        """The convolution inverse of the r-th power indicator: mu(n^(1/r))
        at the r-th powers and 0 elsewhere, the coefficients of
        1/zeta(rs).  Its local factor is 1 - u^r, so it is the
        multiplicative table with c[r] = -1 and every other c[e >= 1] = 0,
        which the powerful walk lists as int8."""
        c = [(e == 0) - (e == r) for e in range(max(2, self.limit.bit_length()))]
        return self._get(
            ("inverse_power", r), lambda: multiplicative_series(self.limit, c)
        )

    def char(self, q: int) -> CoeffSeries:
        """The tau character mod q."""
        return self._get(("char", q), lambda: tau_char_sieve(q, self.limit, self.tau()))

    def char_star_one(self, q: int) -> CoeffSeries:
        """The tau character mod q convolved with 1."""
        return self._get(
            ("char_star_one", q), lambda: dirichlet_convolve(self.char(q), self.ones())
        )

    def release(self, q: int) -> None:
        for key in (("char", q), ("char_star_one", q), ("power", q)):
            self._kept.pop(key, None)


def _tables(limit: int, tables: Tables | None) -> Tables:
    """``tables``, checked against the limit, or a store of one's own."""
    if tables is None:
        return Tables(limit)
    if tables.limit != limit:
        raise ArgumentError(f"tables at limit {tables.limit} given for limit {limit}")
    return tables


def square_root_identity_scan(limit: int, tables: Tables | None = None) -> int | None:
    """First x <= limit where the Liouville convolution sum differs from
    floor(sqrt(x)); None when the identity holds everywhere.

    The partial sums agree up to x exactly when their terms do, so this
    checks (lambda * 1)(n) against the store's square indicator for every
    n <= limit.  ``tables``, when given, is the store of a run at this limit.
    """
    check_budget(limit, "identity scan")
    tables = _tables(limit, tables)
    star_one = dirichlet_convolve(liouville_sieve(limit), tables.ones())
    return star_one.first_mismatch(tables.power(2))


def cube_root_identity_scan(limit: int, tables: Tables | None = None) -> int | None:
    """First x <= limit where the q=3 convolution sum differs from
    floor(x^(1/3)); None when the identity holds everywhere.

    The partial sums agree up to x exactly when their terms do, so this
    checks (tauchar_3 * 1)(n) against the store's cube indicator for every
    n <= limit.  ``tables``, when given, is the store of a run at this
    limit, and the q = 3 routes then reuse both tables.
    """
    check_budget(limit, "identity scan")
    tables = _tables(limit, tables)
    return tables.char_star_one(3).first_mismatch(tables.power(3))


def _fifth_power_jumps(limit: int) -> dict[int, int]:
    """The jumps of sum_{d <= sqrt(x)} mu(d) floor((x/d^2)^(1/5)) up to
    limit.  The sum counts the pairs d^2 m^5 <= x weighted by mu(d), and
    for squarefree d each n is d^2 m^5 at most once, so it jumps by mu(d)
    at n = d^2 m^5."""
    mu = mobius_sieve(isqrt(limit)).values.tolist()
    return {
        d * d * m**5: mu[d]
        for m in range(1, integer_nth_root(limit, 5) + 1)
        for d in range(1, isqrt(limit // m**5) + 1)
        if mu[d]
    }


def fifth_power_identity_scan(limit: int, tables: Tables | None = None) -> int | None:
    """First x <= limit where the q=5 convolution sum differs from
    sum_{d <= sqrt(x)} mu(d) floor((x/d^2)^(1/5)); None when none differs.

    The partial sums agree up to x exactly when their terms do, so this
    checks (tauchar_5 * 1)(n) = sum_{d^2 m^5 = n} mu(d) for every
    n <= limit.  The left side is the character table, the right the
    Mobius sieve, so the two share no table.  Tests check the summed
    jumps against the integer-root form, one floor((x/d^2)^(1/5)) grid per
    squarefree d.  ``tables``, when given, is the store of a run at this
    limit, and the q = 5 route then reuses its tauchar_5 * 1.
    """
    check_budget(limit, "identity scan")
    jumps = _fifth_power_jumps(limit)
    values = np.zeros(limit + 1, dtype=np.int8)
    values[list(jumps)] = list(jumps.values())
    star_one = _tables(limit, tables).char_star_one(5)
    return star_one.first_mismatch(CoeffSeries(limit, values))


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


def verify_factorization(
    q: int, limit: int, tables: Tables | None = None
) -> FactorizationReport:
    """Check the Euler-factor identities for modulus q coefficient by coefficient.

    The direct side is always the tau character convolved with the
    constant 1.  The candidate side rebuilds the same coefficients from
    the expanded Euler products that classify(q) selects.  A mismatch is a
    mathematical finding reported with the smallest offending index, not an
    exception.  ``tables``, when given, is the store of a run at this
    limit: the check takes its shared series from it and releases the
    series of q when done.
    """
    case = classify(q)  # validates q odd prime
    check_budget(limit, "factorization check")
    tables = _tables(limit, tables)
    direct = tables.char_star_one(q)
    a_q = tables.power(q)

    def route(name: str, expected: CoeffSeries, got: CoeffSeries) -> RouteCheck:
        miss = expected.first_mismatch(got)
        return RouteCheck(name=name, ok=miss is None, first_mismatch=miss)

    def euler(*series: CoeffSeries, combined: bool = False) -> CoeffSeries:
        """The expanded Euler factor convolved with each series in turn;
        only ``got`` holds the expansion, so it goes after the first step."""
        got = expand_euler_product(local_factor(q, combined), limit)
        for s in series:
            got = dirichlet_convolve(got, s)
        return got

    lhs = "conv(tau_char, 1) == "
    if case.branch is Branch.Q_EQUALS_3:
        # the whole series collapses to the cube indicator
        routes = [
            route(lhs + "cube_indicator", direct, a_q),
            route("tau_char == conv(cube_indicator, mobius)",
                  tables.char(q), dirichlet_convolve(a_q, mobius_sieve(limit))),
        ]
    elif case.branch is Branch.PM1_MOD8:
        routes = [route(lhs + "conv(log_branch_coeffs, tau)",
                        direct, euler(a_q, tables.tau()))]
    elif case.branch is Branch.PM11_MOD24:
        routes = [route(lhs + "conv(sqrt_branch_coeffs, square_indicator)",
                        direct, euler(a_q, tables.power(2)))]
    else:  # q = +-5 (mod 24)
        inv_sq = tables.inverse_power(2)
        if case.sub is SubBranch.Q_EQUALS_5:
            routes = [route(
                lhs + "conv(fifth_power_indicator, inverse(square_indicator))",
                direct, dirichlet_convolve(a_q, inv_sq))]
        else:
            routes = [route(lhs + "conv(raw_coeffs, inverse(square_indicator))",
                            direct, euler(a_q, inv_sq, combined=True))]
            if case.sub is SubBranch.PM19_29_MOD120:
                routes.append(route(
                    lhs + "conv(u5_coeffs, fourth_power_indicator, "
                    "inverse(square_indicator))",
                    direct, euler(a_q, tables.power(4), inv_sq)))
            else:
                routes.append(route(
                    lhs + "conv(u6_coeffs, inverse(fourth_power_indicator), "
                    "inverse(square_indicator))",
                    direct, euler(a_q, tables.inverse_power(4), inv_sq)))
    tables.release(q)
    return FactorizationReport(q=q, limit=limit, routes=tuple(routes))
