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

Every factor is held as an exact rational function in u and expanded with
Fraction arithmetic; surfaced coefficients must come out integral, and a
non-integer coefficient is treated as a transcription error (hard failure),
never rounded.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import (
    ArgumentError,
    ClassificationError,
    NotInvertibleError,
    OverflowHardError,
)
from .sieves import (
    CoeffSeries,
    LegendreChar,
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


@dataclass(frozen=True)
class FormalPowerSeries:
    """Truncated power series with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of u^k, 0 <= k <= order.  All arithmetic
    is exact up to the (common) truncation order.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 0 or len(self.coeffs) != self.order + 1:
            raise ArgumentError("coefficient count must equal order + 1")

    @classmethod
    def from_ints(cls, ints, order: int | None = None) -> "FormalPowerSeries":
        vals = [Fraction(v) for v in ints]
        if order is None:
            order = len(vals) - 1
        vals = (vals + [Fraction(0)] * (order + 1))[: order + 1]
        return cls(order, tuple(vals))

    def __mul__(self, other: "FormalPowerSeries") -> "FormalPowerSeries":
        order = min(self.order, other.order)
        out = [Fraction(0)] * (order + 1)
        for i, ci in enumerate(self.coeffs[: order + 1]):
            if not ci:
                continue
            for j in range(0, order + 1 - i):
                cj = other.coeffs[j]
                if cj:
                    out[i + j] += ci * cj
        return FormalPowerSeries(order, tuple(out))

    def divide(self, den: "FormalPowerSeries") -> "FormalPowerSeries":
        """Exact long division self / den; den must be a unit (den(0) != 0)."""
        if den.coeffs[0] == 0:
            raise ArgumentError("division requires a unit series (nonzero at u^0)")
        order = min(self.order, den.order)
        inv0 = 1 / den.coeffs[0]
        out: list[Fraction] = []
        for k in range(order + 1):
            acc = self.coeffs[k]
            for j in range(1, min(k, den.order) + 1):
                dj = den.coeffs[j]
                if dj:
                    acc -= dj * out[k - j]
            out.append(acc * inv0)
        return FormalPowerSeries(order, tuple(out))

    def integer_coeffs(self) -> tuple[int, ...]:
        """Coefficients as ints; any non-integer entry is a hard failure."""
        out = []
        for k, c in enumerate(self.coeffs):
            if c.denominator != 1:
                raise ArgumentError(
                    f"coefficient of u^{k} is non-integral ({c}); "
                    "the closed form guarantees integrality, so this is a "
                    "transcription error"
                )
            out.append(int(c))
        return tuple(out)


class Family(str, Enum):
    """Which cleared-zeta Euler factor to build, keyed by residue class of q."""

    PM1_MOD8 = "pm1_mod8"  # cofactor of zeta(qs) zeta(s)
    PM11_MOD24 = "pm11_mod24"  # cofactor of zeta(qs) zeta(2s) / zeta(s)
    PM19_29_MOD120 = "pm19_29_mod120"  # starts at u^5; pairs with 4th powers
    PM43_53_MOD120 = "pm43_53_mod120"  # starts at u^6; pairs with inverse 4th powers
    PM5_MOD24_RAW = "pm5_mod24_raw"  # combined +-5 mod 24 factor, before mod-120 split


@dataclass(frozen=True)
class LocalFactor:
    """Euler factor at a prime p, as an exact rational function of u = p^(-s).

    ``numerator`` / ``denominator`` are integer polynomial coefficients in u,
    constant term first.  Every factor in scope is the same at every prime.
    """

    name: str
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self):
        if not self.denominator or self.denominator[0] == 0:
            raise ArgumentError("denominator must be a unit polynomial")
        c0 = Fraction(self.numerator[0] if self.numerator else 0, self.denominator[0])
        if c0 != 1:
            raise ArgumentError(
                f"local factor {self.name!r} has constant term {c0}, expected 1"
            )

    def coeffs(self, max_exp: int) -> tuple[int, ...]:
        """Integer series coefficients of u^0..u^max_exp."""
        return _expand_rational(self.numerator, self.denominator, max_exp)


@lru_cache(maxsize=None)
def _expand_rational(num: tuple[int, ...], den: tuple[int, ...], order: int):
    fnum = FormalPowerSeries.from_ints(num, order)
    fden = FormalPowerSeries.from_ints(den, order)
    return fnum.divide(fden).integer_coeffs()


def _char_step_sums(char: LegendreChar, sign: int) -> list[int]:
    """t[m] = chi(m+1) + sign*chi(m) for m = 0..q-1 (entries 0, 1 unused)."""
    tab = char.table
    q = char.q
    t = [0] * q
    for m in range(2, q):
        t[m] = int(tab[(m + 1) % q]) + sign * int(tab[m])
    return t


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return out


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        if va:
            for j, vb in enumerate(b):
                out[i + j] += va * vb
    return out


def local_factor(q: int, family: Family | str) -> LocalFactor:
    """The family's Euler factor for modulus q, as an exact rational function.

    Raises ClassificationError when q lies outside the family's residue class.
    """
    family = Family(family)
    char = LegendreChar(q)

    if family is Family.PM1_MOD8:
        if q % 8 not in (1, 7):
            raise ClassificationError(f"q={q} is not +-1 mod 8")
        t = _char_step_sums(char, -1)
        num = [1, 0] + t[2:]
        return LocalFactor(f"{family.value}[q={q}]", tuple(num), (1,))

    if family is Family.PM11_MOD24:
        if q % 24 not in (11, 13):
            raise ClassificationError(f"q={q} is not +-11 mod 24")
        t = _char_step_sums(char, +1)
        if t[2] != 0:
            raise ArgumentError(f"q={q}: expected vanishing u^2 term, got {t[2]}")
        num = [1, 0] + t[2:]
        return LocalFactor(f"{family.value}[q={q}]", tuple(num), (1,))

    if q % 24 not in (5, 19):
        raise ClassificationError(f"q={q} is not +-5 mod 24 (family {family.value})")
    t = _char_step_sums(char, +1)
    if t[2] != -2 or (q > 3 and len(t) > 3 and t[3] != 0):
        raise ArgumentError(f"q={q}: unexpected low-order terms t2={t[2]}, t3={t[3]}")

    if family is Family.PM5_MOD24_RAW:
        # (1 - 2u^2 + sum_{m>=4} t[m] u^m) / (1 - u^2)^2
        num = [1, 0, -2, 0] + t[4:]
        return LocalFactor(f"{family.value}[q={q}]", tuple(num), (1, 0, -2, 0, 1))

    tail = [0] * 6 + t[6:]  # sum_{m >= 6} t[m] u^m

    if family is Family.PM19_29_MOD120:
        if q % 120 not in (19, 29, 91, 101):
            raise ClassificationError(f"q={q} is not +-19 or +-29 mod 120")
        if t[4] != 2 or t[5] != 2:
            raise ArgumentError(f"q={q}: expected t4=t5=2, got {t[4]}, {t[5]}")
        # 1 + 2(u^5+u^6+u^7)/(1-u^2) + (1+u^2)/(1-u^2) * tail
        num = _poly_add(
            _poly_add([1, 0, -1], [0, 0, 0, 0, 0, 2, 2, 2]),
            _poly_mul([1, 0, 1], tail),
        )
        return LocalFactor(f"{family.value}[q={q}]", tuple(num), (1, 0, -1))

    if family is Family.PM43_53_MOD120:
        if q % 120 not in (43, 53, 67, 77):
            raise ClassificationError(f"q={q} is not +-43 or +-53 mod 120")
        if t[4] != 0 or t[5] != 0:
            raise ArgumentError(f"q={q}: expected t4=t5=0, got {t[4]}, {t[5]}")
        # 1 + (-u^6(2-u^2) + tail) / ((1-u^2)^3 (1+u^2)); the numerator
        # simplifies to den + (-2u^6+u^8) + tail = 1 - 2u^2 + tail
        den = [1, 0, -2, 0, 0, 0, 2, 0, -1]
        num = _poly_add([1, 0, -2], tail)
        return LocalFactor(f"{family.value}[q={q}]", tuple(num), tuple(den))

    raise ArgumentError(f"unhandled family {family}")  # pragma: no cover


def _abs_max(v: np.ndarray) -> int:
    """Largest |v[i]| as a Python int; np.abs would wrap INT64_MIN."""
    return max(-int(v.min()), int(v.max()))


def dirichlet_convolve(a: CoeffSeries, b: CoeffSeries) -> CoeffSeries:
    """(a * b)(n) = sum over d | n of a(d) b(n/d), exactly, up to the limit.

    The pairs d k <= n split at r = isqrt(n), as in the hyperbola method:
    for d <= r one strided update adds a(d) b(k) over every k, and for
    d > r (so k <= n // (r + 1) <= r) one strided update adds b(k) a(d)
    over every d.  That is O(n log n) work in at most 2 r numpy calls.
    """
    if a.limit != b.limit:
        raise ArgumentError(
            f"series limits differ: {a.limit} != {b.limit}"
        )
    n = a.limit
    # a-priori overflow bound: tau(n) < 2 sqrt(n) terms of size maxA*maxB
    max_a = _abs_max(a.values)
    max_b = _abs_max(b.values)
    if max_a * max_b * (2 * isqrt(n) + 1) > _INT64_MAX:
        raise OverflowHardError(
            "convolution could exceed signed 64-bit range "
            f"(bound {max_a} * {max_b} * tau)"
        )
    r = isqrt(n)
    out = np.zeros(n + 1, dtype=np.int64)
    av = a.values
    bv = b.values
    for d in (np.flatnonzero(av[1 : r + 1]) + 1).tolist():
        out[d::d] += av[d] * bv[1 : n // d + 1]
    for k in (np.flatnonzero(bv[1 : n // (r + 1) + 1]) + 1).tolist():
        hi = n // k
        out[(r + 1) * k : hi * k + 1 : k] += bv[k] * av[r + 1 : hi + 1]
    return CoeffSeries(n, out)


def dirichlet_inverse(a: CoeffSeries) -> CoeffSeries:
    """The convolution inverse of a, requiring a(1) in {+1, -1}.

    Newton iteration b <- b - b * (a * b - e).  If b is right up to N, the
    error E = a * b - e vanishes on [1, N], so a * (b - b * E) = e - E * E
    is right below (N + 1)^2.  From b = a(1) e, right up to 1, the steps
    reach 3, 15, 255, 65535, ..., so O(log log n) steps of two truncated
    convolutions reach the limit.  Every value comes out of a convolution
    with the int64 guard of dirichlet_convolve, so a result that might not
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
    int64 check is made on that bound before any work.
    """
    if limit < 1:
        raise ArgumentError(f"limit must be >= 1, got {limit}")
    c = local.coeffs(limit.bit_length() - 1)
    if max(map(abs, c)) ** _omega_max(limit) > _INT64_MAX:
        raise OverflowHardError(
            f"euler product expansion of {local.name} could overflow int64 "
            f"below {limit}"
        )
    return multiplicative_series(limit, c, "euler product expansion")


@dataclass(frozen=True)
class RouteCheck:
    """One verified identity: the route description and where it first fails."""

    name: str
    ok: bool
    first_mismatch: int | None


@dataclass(frozen=True)
class FactorizationReport:
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


def _route(name: str, expected: CoeffSeries, got: CoeffSeries) -> RouteCheck:
    miss = expected.first_mismatch(got)
    return RouteCheck(name=name, ok=miss is None, first_mismatch=miss)


def verify_factorization(q: int, limit: int) -> FactorizationReport:
    """Check the Euler-factor identities for modulus q coefficient by coefficient.

    The direct side is always the sieve of the tau character convolved with
    the constant 1.  The candidate side rebuilds the same coefficients from
    the residue-class-appropriate expanded Euler products.  A mismatch is a
    mathematical finding reported with the smallest offending index, not an
    exception.
    """
    char = LegendreChar(q)  # validates q odd prime
    check_budget(limit, "factorization check")
    direct = dirichlet_convolve(tau_char_sieve(char, limit), ones_series(limit))
    routes: list[RouteCheck] = []

    def chain(*series: CoeffSeries) -> CoeffSeries:
        acc = series[0]
        for s in series[1:]:
            acc = dirichlet_convolve(acc, s)
        return acc

    a_q = power_indicator_series(q, limit) if q >= 2 else None
    if q == 3:
        # the whole series collapses to the cube indicator
        routes.append(_route("conv(tau_char, 1) == cube_indicator", direct,
                             power_indicator_series(3, limit)))
        routes.append(
            _route(
                "tau_char == conv(cube_indicator, mobius)",
                tau_char_sieve(char, limit),
                chain(power_indicator_series(3, limit),
                      mobius_sieve(limit)),
            )
        )
    elif q % 8 in (1, 7):
        g = chain(a_q, expand_euler_product(local_factor(q, Family.PM1_MOD8), limit))
        tau = divisor_count_sieve(limit)
        routes.append(
            _route(
                "conv(tau_char, 1) == conv(log_branch_coeffs, tau)",
                direct,
                dirichlet_convolve(g, tau),
            )
        )
    elif q % 24 in (11, 13):
        h = chain(a_q, expand_euler_product(local_factor(q, Family.PM11_MOD24), limit))
        routes.append(
            _route(
                "conv(tau_char, 1) == conv(sqrt_branch_coeffs, square_indicator)",
                direct,
                dirichlet_convolve(h, power_indicator_series(2, limit)),
            )
        )
    else:
        # q = +-5 mod 24
        inv_sq = dirichlet_inverse(power_indicator_series(2, limit))
        if q == 5:
            routes.append(
                _route(
                    "conv(tau_char, 1) == conv(fifth_power_indicator, inverse(square_indicator))",
                    direct,
                    dirichlet_convolve(power_indicator_series(5, limit), inv_sq),
                )
            )
        else:
            raw = chain(
                a_q,
                expand_euler_product(local_factor(q, Family.PM5_MOD24_RAW), limit),
            )
            routes.append(
                _route(
                    "conv(tau_char, 1) == conv(raw_coeffs, inverse(square_indicator))",
                    direct,
                    dirichlet_convolve(raw, inv_sq),
                )
            )
            if q % 120 in (19, 29, 91, 101):
                ell = chain(
                    a_q,
                    expand_euler_product(
                        local_factor(q, Family.PM19_29_MOD120), limit
                    ),
                )
                routes.append(
                    _route(
                        "conv(tau_char, 1) == "
                        "conv(u5_coeffs, fourth_power_indicator, inverse(square_indicator))",
                        direct,
                        chain(ell, power_indicator_series(4, limit), inv_sq),
                    )
                )
            else:
                nu = chain(
                    a_q,
                    expand_euler_product(
                        local_factor(q, Family.PM43_53_MOD120), limit
                    ),
                )
                routes.append(
                    _route(
                        "conv(tau_char, 1) == "
                        "conv(u6_coeffs, inverse(fourth_power_indicator), inverse(square_indicator))",
                        direct,
                        chain(
                            nu,
                            dirichlet_inverse(power_indicator_series(4, limit)),
                            inv_sq,
                        ),
                    )
                )
    return FactorizationReport(q=q, limit=limit, routes=tuple(routes))
