"""Certified evaluation of main-term constants.

The residue classes and the local Euler factors they select live in the
mpmath-free ``cases``; this module re-exports them, so
``constants.classify`` and ``constants.local_factor`` are the same objects.

Every numeric constant leaves this module as a ``Certified`` value, an
``mpmath.iv`` interval computed at ``PRECISION_BITS`` with outward rounding.
Interval arithmetic encloses every rounding, so no accuracy of the platform
libm is assumed.  The per-integer and per-prime loops run on fixed-point
enclosures instead: a pair of Python ints (lo, hi) stands for the interval
[lo 2^-F, hi 2^-F], F = _FRAC = PRECISION_BITS + 32, and mpmath.iv is left
for the leaves (log n, pi, exp and log of a whole sum or product, and
n^-sigma when 2 sigma is not an integer).  They rest on one rounding fact.

* Directed rounding.  For an integer z, floor(z 2^-F) = z >> F and
  ceil(z 2^-F) = -((-z) >> F); for integers u and v > 0 the quotient
  rounds by floor division; and for a real y >= 0, floor(sqrt(y)) =
  isqrt(floor(y)).  The exact sum, product or quotient (divisor > 0) of two
  intervals is the hull of the results at their endpoints, so rounding the
  least of those down and the greatest up gives an interval that contains
  it.  By induction, every fixed-point result encloses the exact real, and
  each rounding widens it by at most 2^-F.  When 2 sigma = m is an integer,
  n^-sigma 2^F = sqrt(2^2F / n^m) is rounded this way from integers alone,
  to the tightest enclosure.  Conversions to mpmath.iv are exact
  (from_man_exp), and conversions from it round outward.

The analytic remainders rest on three stated results.

* Euler-Maclaurin summation.  For f(x) = x^-sigma and f(x) = x^-sigma log x
  and integers N, M >= 1,
  sum_{n>=N} f(n) = int_N^oo f + f(N)/2 - sum_{j<=M} B_2j/(2j)! f^(2j-1)(N) + R
  with |R| <= 2 zeta(2M+1)/(2 pi)^(2M+1) int_N^oo |f^(2M+1)|, because the
  periodic Bernoulli function obeys |P_n(x)|/n! <= 2 zeta(n)/(2 pi)^n.  The
  derivative f^(2M+1) keeps one sign on [N, oo) (for the log weight this
  needs log N >= sum_{i<=2M} 1/(sigma+i), which is checked), so the integral
  is |f^(2M)(N)|, and zeta(2M+1) <= (2M+1)/(2M).  The Bernoulli numbers are
  exact: B_2j/(2j)! = (-1)^(j-1) T_j / ((2j-1)! 4^j (4^j - 1)), with T_j the
  integer tangent numbers (tan x = sum_j T_j x^(2j-1)/(2j-1)!).  This gives
  zeta(sigma) and zeta'(sigma).  Every term of the tail is an exact rational
  times the one enclosure of N^-sigma: with
  P_M(sigma) = sum_{j<=M} B_2j/(2j)! (sigma)_{2j-1} N^(1-2j),
    sum_{n>=N} n^-sigma = N^-sigma (N/(sigma-1) + 1/2 + P_M(sigma)) + R,
  and since d/dsigma (sigma)_i = (sigma)_i H_i(sigma), where
  H_i(sigma) = sum_{i'<i} 1/(sigma+i'),
    sum_{n>=N} log(n) n^-sigma
      = N^-sigma (log N (N/(sigma-1) + 1/2 + P_M) + N/(sigma-1)^2 - P_M') + R'.
* Cauchy's root bound.  The local factor L(u) = 1 + sum_m t[m] u^m reversed
  is monic, so every root of L has |u| >= rho = 1/(1 + max|t[m]|), and
  rho = 1/3 because |t[m]| <= 2.
* The exponent factorisation (H. Cohen, High precision computation of
  Hardy-Littlewood constants, 1998; P. Moree, Manuscripta Math. 101, 2000).
  There are unique integers b_k with L(u) = prod_{k>=1} (1 - u^k)^(-b_k).
  With D = deg L, the coefficients a_d of log L obey |a_d| <= D rho^-d / d,
  and k b_k = sum_{d|k} mu(k/d) d a_d, so |b_k| <= D rho^-k / (k (1 - rho)).
  For 0 <= u < rho (so u < 1/2) and K >= 1, the truncation
  R_K(u) = L(u) prod_{k<=K} (1 - u^k)^(b_k) therefore satisfies
  |log R_K(u)| <= D/(1 - rho) (u/rho)^(K+1) / (1 - u/rho),
  and |u (log R_K)'(u)| obeys the same bound divided by 1 - u^(K+1).

Summed over primes, the last result splits each Euler product as

  log prod_p L(p^-s) = sum_{p<=P} log L(p^-s) + sum_{k<=K} b_k log zeta_P(ks) + E,

where zeta_P(sigma) = zeta(sigma) prod_{p<=P} (1 - p^-sigma) and |E| is the
bound above summed over every integer n > P, then compared with an integral.
The s-derivative splits the same way.  So the primes up to 100 and a few
dozen zeta values replace any prime sieve.  The zeta values come from one
ladder per split (s, P), shared by every modulus that uses the split: rung k
holds log zeta_P(ks) and its sigma-derivative, built on the zeta values of
_zeta_at, which are cached by sigma: a sigma on both ladders, or asked for
by zeta_real, is summed once.  log n is taken once per integer, and a
modulus that needs a larger K extends the ladder in place.  Tolerances stay
gates: a result whose certified error exceeds the tolerance raises
PrecisionError carrying the achieved bound instead of returning quietly.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import isqrt, lcm, log, pi, ulp

from mpmath import iv, libmp

from .arith import is_prime
from .cases import (  # all re-exported as constants.<name>
    THETA_UPPER,
    X_FLOOR,
    Branch,
    CaseClass,
    LocalFactor,
    SubBranch,
    classify,
    local_factor,
)
from .errors import ArgumentError, ClassificationError, PrecisionError

# working precision of every interval computation; iv.prec is set to it only
# inside _precision() and restored on the way out
PRECISION_BITS = 192

# Euler-Mascheroni constant, 30 decimal digits (standard tabulated value,
# within 1e-30 of the constant)
EULER_GAMMA_LITERAL = "0.577215664901532860606512090082"

# the split point P of every Euler product: the primes p <= P are taken
# explicitly, and past P the zeta factors take over
EXPLICIT_PRIME_LIMIT = 100

# what the analytic remainders aim for: the Euler-Maclaurin remainder of a
# zeta value, and the truncated-exponent tail of the log of a product
_EM_TARGET = 2.0**-150
_TAIL_TARGET = 2.0**-75
_EM_LADDER = (8, 12, 16, 24, 32, 48, 64, 96, 128)
_EM_MAX_TERMS = 40


@contextmanager
def _precision():
    """Run a block at PRECISION_BITS and restore the caller's iv.prec."""
    saved = iv.prec
    iv.prec = PRECISION_BITS
    try:
        yield
    finally:
        iv.prec = saved


def _iv(x: Fraction):
    """Enclosure of an exact rational."""
    return iv.mpf(x.numerator) / x.denominator


# fraction bits of the fixed-point enclosures (lo, hi) = [lo, hi] 2^-_FRAC;
# the 32 bits above PRECISION_BITS absorb the roundings of a loop's sums
_FRAC = PRECISION_BITS + 32
_ONE = 1 << _FRAC


def _fx(num: int, den: int = 1) -> tuple[int, int]:
    """Fixed-point enclosure of the rational num/den, den > 0."""
    q, r = divmod(num << _FRAC, den)
    return q, q + (r != 0)


def _fx_add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """The exact enclosure of the sum of two enclosures."""
    return x[0] + y[0], x[1] + y[1]


def _fx_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Enclosure of the product of two enclosures."""
    (a, b), (c, d) = x, y
    if a >= 0 and c >= 0:
        lo, hi = a * c, b * d
    else:
        ends = (a * c, a * d, b * c, b * d)
        lo, hi = min(ends), max(ends)
    return lo >> _FRAC, -(-hi >> _FRAC)


def _fx_div(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Enclosure of x / y for an enclosure y of positive numbers."""
    (a, b), (c, d) = x, y
    if not c > 0:
        raise ArgumentError("fixed-point division needs a positive divisor")
    a, b = a << _FRAC, b << _FRAC
    return a // (d if a >= 0 else c), -(-b // (c if b >= 0 else d))


def _fx_scale(k: int, x: tuple[int, int]) -> tuple[int, int]:
    """The exact enclosure of k x for an integer k."""
    a, b = x
    return (k * a, k * b) if k >= 0 else (k * b, k * a)


def _fx_iv(x: tuple[int, int]):
    """The mpmath.iv interval of a fixed-point enclosure, exactly."""
    return iv.make_mpf(
        (libmp.from_man_exp(x[0], -_FRAC), libmp.from_man_exp(x[1], -_FRAC))
    )


def _fx_of(interval) -> tuple[int, int]:
    """Fixed-point enclosure of an mpmath.iv interval, rounded outward."""
    a, b = interval._mpi_
    return (
        libmp.to_int(libmp.mpf_shift(a, _FRAC), "f"),
        libmp.to_int(libmp.mpf_shift(b, _FRAC), "c"),
    )


class Certified:
    """A real number enclosed in an outward-rounded ``mpmath.iv`` interval.

    ``Certified(value, error)`` holds [value - error, value + error] exactly.
    ``value`` is the float nearest the midpoint.  ``error`` is 0 when the
    interval is that float alone.  Otherwise it is the distance from
    ``value`` to the far end of the interval plus one ulp of their sum, so
    value -+ error still brackets the interval when evaluated in double
    arithmetic.  Arithmetic runs on the intervals at PRECISION_BITS.
    """

    __slots__ = ("interval",)

    def __init__(self, value: float, error: float = 0.0):
        if not (error >= 0.0):
            raise ArgumentError(f"error bound must be >= 0, got {error}")
        v, e = libmp.from_float(float(value)), libmp.from_float(float(error))
        self.interval = iv.make_mpf((libmp.mpf_sub(v, e), libmp.mpf_add(v, e)))

    @classmethod
    def _of(cls, interval) -> "Certified":
        c = cls.__new__(cls)
        c.interval = interval
        return c

    @staticmethod
    def exact(v: int | float) -> "Certified":
        """A float, or an integer of up to PRECISION_BITS bits, held exactly."""
        with _precision():
            return Certified._of(iv.mpf(v))

    @property
    def value(self) -> float:
        a, b = self.interval._mpi_
        return libmp.to_float(libmp.mpf_shift(libmp.mpf_add(a, b), -1), rnd="n")

    @property
    def error(self) -> float:
        a, b = self.interval._mpi_
        value = self.value
        v = libmp.from_float(value)
        if a == b == v:
            return 0.0
        above, below = libmp.mpf_sub(b, v), libmp.mpf_sub(v, a)
        worst = above if libmp.mpf_cmp(above, below) >= 0 else below
        margin = ulp(abs(value) + libmp.to_float(worst, rnd="c"))
        return libmp.to_float(libmp.mpf_add(worst, libmp.from_float(margin)), rnd="c")

    @property
    def bounds(self) -> tuple[float, float]:
        """Float endpoints, rounded outward."""
        a, b = self.interval._mpi_
        return libmp.to_float(a, rnd="f"), libmp.to_float(b, rnd="c")

    def __add__(self, o: "Certified") -> "Certified":
        with _precision():
            return Certified._of(self.interval + o.interval)

    def __sub__(self, o: "Certified") -> "Certified":
        with _precision():
            return Certified._of(self.interval - o.interval)

    def __mul__(self, o: "Certified") -> "Certified":
        with _precision():
            return Certified._of(self.interval * o.interval)

    def __truediv__(self, o: "Certified") -> "Certified":
        if 0 in o.interval:
            raise PrecisionError(
                "division by an interval containing zero",
                achievable=float("inf"),
            )
        with _precision():
            return Certified._of(self.interval / o.interval)

    def scale(self, k: float) -> "Certified":
        """Multiply by a float treated as exact."""
        return self * Certified.exact(k)

    def __repr__(self) -> str:
        return f"Certified({self.value!r}, {self.error!r})"


with _precision():
    GAMMA = Certified._of(
        iv.mpf(EULER_GAMMA_LITERAL) + iv.mpf("1e-30") * iv.mpf([-1, 1])
    )


@lru_cache(maxsize=None)
def _bernoulli_numerators() -> tuple[int, tuple[int, ...]]:
    """(D, e) with B_2j/(2j)! = e[j-1]/D for j = 1.._EM_MAX_TERMS, D the
    least common denominator.

    B_2j/(2j)! = (-1)^(j-1) T_j / ((2j-1)! 4^j (4^j - 1)), and the tangent
    numbers T_j come from the all-integer recurrence of R. P. Brent and
    D. Harvey (Fast computation of Bernoulli, tangent and secant numbers,
    2011): start from T_k = (k-1)!, then for k = 2, 3, ... replace
    T_j by (j-k) T_(j-1) + (j-k+2) T_j for j = k, k+1, ...
    """
    n = _EM_MAX_TERMS
    T = [0, 1]
    for k in range(2, n + 1):
        T.append((k - 1) * T[-1])
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    ratios, fact = [], 1  # fact = (2j - 1)!
    for j in range(1, n + 1):
        ratios.append(Fraction((-1) ** (j - 1) * T[j], fact * 4**j * (4**j - 1)))
        fact *= 2 * j * (2 * j + 1)
    D = lcm(*(r.denominator for r in ratios))
    return D, tuple(r.numerator * (D // r.denominator) for r in ratios)


def _inv_power(n: int, sigma: Fraction) -> tuple[int, int]:
    """Fixed-point enclosure of n^-sigma.  When m = 2 sigma is an integer it
    is the tightest one, sqrt(2^2F / n^m) rounded by integer division and
    isqrt; otherwise it is exp(-sigma log n) in mpmath.iv."""
    if sigma.denominator <= 2:
        m = sigma.numerator * (2 // sigma.denominator)
        if m % 2 == 0:
            return _fx(1, n ** (m // 2))
        x, y = n**m, _ONE << _FRAC
        lo = isqrt(y // x)
        return lo, lo + (lo * lo * x != y)
    with _precision():
        return _fx_of(iv.exp(-_iv(sigma) * _fx_iv(_log_int(n))))


@lru_cache(maxsize=None)
def _log_int(n: int) -> tuple[int, int]:
    """Fixed-point enclosure of log n, taken once per integer."""
    with _precision():
        return _fx_of(iv.log(n))


@lru_cache(maxsize=None)
def _em_plan(sigma: float) -> tuple[int, int]:
    """The first (N, M) on the ladder whose Euler-Maclaurin remainder, as a
    float estimate, meets _EM_TARGET; the remainder actually added to the
    enclosure is recomputed in exact arithmetic.  Cached: _zeta_at and the
    ladders both ask for it."""
    # prefix sums over i < 2M of log(sigma + i) and 1/(sigma + i), added in
    # the order of i, so every float is the one the estimate always used
    log_rising, harmonic, lr, h = [], [], 0.0, 0.0
    for i in range(2 * _EM_MAX_TERMS):
        lr += log(sigma + i)
        h += 1.0 / (sigma + i)
        if i % 2:
            log_rising.append(lr)
            harmonic.append(h)
    log_4, log_2pi, log_target = log(4.0), log(2 * pi), log(_EM_TARGET)
    for N in _EM_LADDER:
        log_N = log(N)
        log_log_N = log(log_N)
        for M in range(1, _EM_MAX_TERMS + 1):
            if harmonic[M - 1] + 1.0 / (sigma + 2 * M) >= log_N:
                break
            remainder = (
                log_4 - (2 * M + 1) * log_2pi + log_rising[M - 1]
                - (sigma + 2 * M) * log_N + log_log_N
            )
            if remainder <= log_target:
                return N, M
    raise ArgumentError(f"no Euler-Maclaurin plan for zeta({sigma})")


def _em_tail(sigma: Fraction, N: int, M: int, f_N, log_N):
    """Fixed-point enclosures of sum_{n>=N} n^-sigma and
    sum_{n>=N} log(n) n^-sigma from the enclosures f_N of N^-sigma and
    log_N of log N, by the Euler-Maclaurin identity of the module docstring
    with M Bernoulli corrections.

    Every part is an exact rational times N^-sigma.  With sigma = a/b and
    g = bN, (sigma)_i N^-i = r_i / g^i where r_i = prod_{i'<i} (a + i'b),
    and (sigma)_i H_i(sigma) N^-i = b r'_i / g^i where r'_i is the
    a-derivative of r_i.  So P_M and P_M' are integers over D g^(2M-1),
    summed by Horner's rule in g^2, and only the final quotients round.
    """
    a, b = sigma.numerator, sigma.denominator
    D, e = _bernoulli_numerators()
    g = b * N
    rise, drise = a, 1  # r_1, r'_1
    p_num = dp_num = 0  # D g^(2M-1) P_M and D g^(2M-1) P_M' / b
    for i in range(1, 2 * M):
        if i % 2:  # i = 2j - 1
            p_num = p_num * g * g + e[i // 2] * rise
            dp_num = dp_num * g * g + e[i // 2] * drise
        f = a + i * b
        rise, drise = rise * f, drise * f + rise
    # now r_2M and r'_2M: H_2M(sigma) = b r'_2M / r_2M
    den = D * g ** (2 * M - 1)
    a1 = a - b  # b (sigma - 1) > 0
    # A = N/(sigma - 1) + 1/2 + P_M and B = N/(sigma - 1)^2 - P_M'
    A = _fx(2 * N * b * den + a1 * den + 2 * a1 * p_num, 2 * a1 * den)
    B = _fx(N * b * b * den - b * a1 * a1 * dp_num, a1 * a1 * den)
    last = a + 2 * M * b
    # log N > H_(2M+1)(sigma) = (b r'_2M last + b r_2M) / (r_2M last)
    if not log_N[0] * rise * last > (b * drise * last + b * rise) << _FRAC:
        raise ArgumentError(f"log {N} is below the harmonic sum of zeta({sigma})")
    # |f^(2M)(N)| = (sigma)_2M N^(-sigma-2M), times log N - H_2M for the log
    # weight; 2 zeta(2M+1) <= 2 (2M+1)/(2M); only upper bounds are needed
    with _precision():  # (2 pi)^-(2M+1) <= m 2^ex, the upper end of an interval
        _, m, ex, _ = ((2 * iv.pi) ** -(2 * M + 1))._mpi_[1]
    num = f_N[1] * (2 * M + 1) * rise * m
    remainder = -(-num // (M * g ** (2 * M) << -ex))
    harmonic_lo = (b * drise << _FRAC) // rise
    log_remainder = -(-remainder * (log_N[1] - harmonic_lo) >> _FRAC)
    tail = _fx_mul(f_N, A)
    log_tail = _fx_mul(f_N, _fx_add(_fx_mul(A, log_N), B))
    return (
        (tail[0] - remainder, tail[1] + remainder),
        (log_tail[0] - log_remainder, log_tail[1] + log_remainder),
    )


def _zeta_sums(sigma: Fraction, N: int, M: int, power):
    """Fixed-point enclosures of (zeta(sigma), zeta'(sigma)) from the terms
    n < N and the tail at N, where power(n) encloses n^-sigma.  The products
    log(n) n^-sigma are summed exactly at scale 2^-2F and rounded once."""
    lo = hi = _ONE  # sum of n^-sigma
    log_lo = log_hi = 0  # sum of log(n) n^-sigma, at scale 2^-2F
    for n in range(2, N):
        t_lo, t_hi = power(n)
        g_lo, g_hi = _log_int(n)
        lo += t_lo
        hi += t_hi
        log_lo += t_lo * g_lo
        log_hi += t_hi * g_hi
    tail, log_tail = _em_tail(sigma, N, M, power(N), _log_int(N))
    zeta = lo + tail[0], hi + tail[1]
    dzeta = (-log_hi >> _FRAC) - log_tail[1], -(log_lo >> _FRAC) - log_tail[0]
    return zeta, dzeta


@lru_cache(maxsize=None)
def _zeta_at(sigma: Fraction):
    """Fixed-point (zeta(sigma), zeta'(sigma)) enclosures, cached by exact
    sigma; every zeta value of the module is summed here."""
    N, M = _em_plan(float(sigma))
    return _zeta_sums(sigma, N, M, lambda n: _inv_power(n, sigma))


def _check_tolerance(tol: float) -> None:
    if not tol > 0:
        raise ArgumentError(f"tolerance must be positive, got {tol}")


def _series_argument(s: float, tol: float) -> Fraction:
    if not s > 1.1:
        raise ArgumentError(f"series argument must exceed 1.1, got {s}")
    _check_tolerance(tol)
    return Fraction(float(s))


def _gate(achieved: float, tol: float, what: str) -> None:
    if not achieved <= tol:
        raise PrecisionError(
            f"{what} is certified to {achieved:.3e}, above the tolerance {tol:.3e}",
            achievable=achieved,
        )


def zeta_real(s: float, tol: float = 1e-12) -> Certified:
    """zeta(s) for real s > 1.1 with certified absolute error <= tol."""
    c = Certified._of(_fx_iv(_zeta_at(_series_argument(s, tol))[0]))
    _gate(c.error, tol, f"zeta({s})")
    return c


def zeta_prime_real(s: float, tol: float = 1e-12) -> Certified:
    """zeta'(s) = -sum log(n) n^{-s} for real s > 1.1, certified as zeta_real."""
    c = Certified._of(_fx_iv(_zeta_at(_series_argument(s, tol))[1]))
    _gate(c.error, tol, f"zeta'({s})")
    return c


@lru_cache(maxsize=None)
def _primes_to(P: int) -> tuple[int, ...]:
    return tuple(p for p in range(2, P + 1) if is_prime(p))


class _ZetaLadder:
    """Zeta data at sigma = k s, k = 1, 2, ..., for one split (s, P).

    ``rungs[k]`` encloses (zeta(sigma), zeta'(sigma), log zeta_P(sigma),
    d/dsigma log zeta_P(sigma)), and ``plans[k]`` is its _em_plan (N, M);
    both are None where sigma <= 1.  zeta and zeta' are _zeta_at(sigma),
    and the Euler factors of the primes p <= P come off in fixed point, so
    a rung depends on sigma and P alone: ``extend`` adds rungs and never
    touches the earlier ones, and the rungs do not depend on the order in
    which moduli ask for them.
    """

    def __init__(self, s: Fraction, P: int):
        self.s, self.primes = s, _primes_to(P)
        self.plans: list = [None]
        self.rungs: list = [None]

    def extend(self, K: int) -> None:
        """Add the rungs up to K."""
        for k in range(len(self.rungs), K + 1):
            sigma = k * self.s
            if sigma <= 1:
                self.plans.append(None)
                self.rungs.append(None)
                continue
            zeta, dzeta = _zeta_at(sigma)
            factor = zeta
            lo = hi = 0  # sum of log(p) w/(1 - w), w = p^-sigma, at scale 2^-2F
            for p in self.primes:
                w_lo, w_hi = _inv_power(p, sigma)
                factor = _fx_mul(factor, (_ONE - w_hi, _ONE - w_lo))
                g_lo, g_hi = _log_int(p)
                # w/(1 - w) increases with w
                lo += g_lo * ((w_lo << _FRAC) // (_ONE - w_lo))
                hi += g_hi * -(-(w_hi << _FRAC) // (_ONE - w_hi))
            ratio = _fx_div(dzeta, zeta)
            deriv = ratio[0] + (lo >> _FRAC), ratio[1] - (-hi >> _FRAC)
            with _precision():
                log_factor = iv.log(_fx_iv(factor))
            self.plans.append(_em_plan(float(sigma)))
            self.rungs.append(
                (_fx_iv(zeta), _fx_iv(dzeta), log_factor, _fx_iv(deriv))
            )


@lru_cache(maxsize=None)
def _ladder(s: Fraction, P: int) -> _ZetaLadder:
    """The one zeta ladder of the split (s, P), shared by every modulus."""
    return _ZetaLadder(s, P)


def _root_radius(t: list[int]) -> Fraction:
    """Cauchy's bound: no root u of 1 + sum_{m>=1} t[m] u^m has |u| below
    1/(1 + max|t[m]|)."""
    return Fraction(1, 1 + max(abs(c) for c in t[1:]))


def _factor_exponents(t: list[int], K: int) -> list[int]:
    """b_0..b_K (b_0 = 0) with L(u) prod_{k<=K} (1 - u^k)^(b_k) = 1 + O(u^(K+1))
    for L = sum_m t[m] u^m, t[0] = 1, by integer series division: b_k is the
    u^k coefficient left once the factors below k are applied."""
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


def _truncation_order(D: int, rho: Fraction, s: Fraction, P: int) -> int:
    """The least K whose derivative tail bound (the larger of the two, as
    log P > 1), in floats, meets _TAIL_TARGET."""
    r, rho = float(P) ** -float(s), float(rho)
    for K in count(2):
        sig = float(s) * (K + 1)
        if sig <= 1.0:
            continue
        lead = D / ((1 - rho) * (1 - r / rho)) * (r / rho) ** (K + 1) * P / (sig - 1)
        if lead * (log(P) + 1 / (sig - 1)) / (1 - r ** (K + 1)) <= _TAIL_TARGET:
            return K


def _tail_bounds(D: int, rho: Fraction, s: Fraction, P: int, K: int):
    """Bounds on |E| and |dE/ds| for the split at P and K: the bounds of the
    module docstring at u = n^-s, summed over n > P against the integrals of
    x^-sigma and x^-sigma log x from P, sigma = s (K+1).  Call inside
    _precision()."""
    r, rho_iv, sig = _fx_iv(_inv_power(P, s)), _iv(rho), _iv(s * (K + 1))
    lead = D / ((1 - rho_iv) * (1 - r / rho_iv)) * _iv(1 / rho) ** (K + 1)
    lead *= P * _fx_iv(_inv_power(P, s * (K + 1)))
    tail = lead / (sig - 1)
    log_P = _fx_iv(_log_int(P))
    dtail = lead / (1 - r ** (K + 1)) * (log_P / (sig - 1) + 1 / (sig - 1) ** 2)
    return tail, dtail


def _explicit_factors(t: list[int], s: Fraction, P: int):
    """Fixed-point enclosures of sum_{p<=P} log L(p^-s) and of its
    s-derivative, -sum log p u L'(u)/L(u).

    With s = 1/d and e = ceil(D/d), p^e L(p^-s) = sum_{r<d} A_r p^(-r/d) for
    exact integers A_r, and likewise for u L'(u), so each prime costs a few
    fixed-point operations and the product needs one logarithm.
    """
    d, D = s.denominator, len(t) - 1
    e = -(-D // d)
    prod, deriv = (_ONE, _ONE), (0, 0)
    for p in _primes_to(P):
        val = slope = (0, 0)  # p^e L(p^-s) and p^e u L'(u)
        for r in range(d):
            ms = range(r, D + 1, d)
            a = a1 = 0
            for m in ms:
                a, a1 = a * p + t[m], a1 * p + m * t[m]
            w = _inv_power(p, Fraction(r, d))
            c = p ** (e + 1 - len(ms))
            val = _fx_add(val, _fx_scale(a * c, w))
            slope = _fx_add(slope, _fx_scale(a1 * c, w))
        if not val[0] > 0:
            raise ArgumentError(
                f"local factor not positive at p={p}; coefficients corrupt"
            )
        prod = _fx_mul(prod, _fx_div(val, _fx(p**e)))
        term = _fx_mul(_log_int(p), _fx_div(slope, val))
        deriv = deriv[0] - term[1], deriv[1] - term[0]
    with _precision():
        return _fx_of(iv.log(_fx_iv(prod))), deriv


def _euler_product(q: int, s: Fraction, P: int):
    """Enclosures of log prod_p L(p^-s) and its s-derivative for the local
    factor L of q, split at P as in the module docstring."""
    t = list(local_factor(q).numerator)
    while t[-1] == 0:
        t.pop()
    D, rho = len(t) - 1, _root_radius(t)
    if not P > (1 / rho) ** s.denominator:  # p^-s < rho for p > P, s = 1/d
        raise ArgumentError(f"split point {P} leaves p^-s above the root bound")
    K = _truncation_order(D, rho, s, P)
    b = _factor_exponents(t, K)
    ladder = _ladder(s, P)
    ladder.extend(K)
    log_prod, deriv = _explicit_factors(t, s, P)
    for k in range(1, K + 1):
        if not b[k]:
            continue
        if k * s <= 1:
            raise ArgumentError(f"q={q}: exponent b_{k} = {b[k]} at a zeta pole")
        _, _, lz, dlz = ladder.rungs[k]
        log_prod = _fx_add(log_prod, _fx_scale(b[k], _fx_of(lz)))
        deriv = _fx_add(deriv, _fx_scale(b[k] * k, _fx_of(dlz)))
    with _precision():
        tail, dtail = _tail_bounds(D, rho, s, P, K)
        unit = iv.mpf([-1, 1])
        return _fx_iv(log_prod) + tail * unit, _fx_iv(deriv) + dtail * unit


@lru_cache(maxsize=32)
def log_factor_constants(q: int, tol: float = 1e-4) -> tuple[Certified, Certified]:
    """Product at 1 and its log-derivative for the log branch.

    Returns (product, logderiv) where
    product  = prod_p (1 + sum_m t[m] p^{-m}),
    logderiv = -sum_p log p * (sum_m m t[m] p^{-m}) / (1 + sum_m t[m] p^{-m}),
    the s-derivative of log prod_p L(p^-s) at s = 1, with
    t[m] = chi(m+1) - chi(m) supported on m in [start, q).  ``tol`` bounds
    the product's relative and the logderiv's absolute error.
    """
    _check_tolerance(tol)
    case = classify(q)
    if case.branch is not Branch.PM1_MOD8:
        raise ClassificationError(
            f"q={q} is in branch {case.branch.value}, which has no log-branch product"
        )
    log_prod, deriv = _euler_product(q, Fraction(1), EXPLICIT_PRIME_LIMIT)
    with _precision():
        product = Certified._of(iv.exp(log_prod))
    logderiv = Certified._of(deriv)
    _gate(product.error / product.value, tol, f"q={q}: the product at 1")
    _gate(logderiv.error, tol, f"q={q}: its log-derivative")
    return product, logderiv


@lru_cache(maxsize=32)
def sqrt_factor_at_half(q: int, tol: float = 2e-4) -> Certified:
    """The sqrt-branch product at the half-line:
    prod_p (1 + sum_m t[m] p^{-m/2}) with t[m] = chi(m+1) + chi(m), m >= 3,
    to relative error ``tol``.
    """
    _check_tolerance(tol)
    case = classify(q)
    if case.branch is not Branch.PM11_MOD24:
        raise ClassificationError(
            f"q={q} is in branch {case.branch.value}, which has no sqrt-branch product"
        )
    log_prod, _ = _euler_product(q, Fraction(1, 2), EXPLICIT_PRIME_LIMIT)
    with _precision():
        product = Certified._of(iv.exp(log_prod))
    _gate(product.error / product.value, tol, f"q={q}: the half-line product")
    return product


@dataclass(frozen=True)
class MainTermParams:
    """Certified constants feeding the branch main term for modulus q.

    Fields not applicable to the branch are None.
    """

    q: int
    case: CaseClass
    zeta_q: Certified
    zeta_prime_q: Certified | None
    product_at_one: Certified | None
    logderiv_at_one: Certified | None
    zeta_half_q: Certified | None
    sqrt_product_half: Certified | None

    @property
    def leading_coefficient(self) -> Certified | None:
        """zeta(q) * product(1) on the log branch; zeta(q/2) * sqrt-product
        on the sqrt branch; None otherwise."""
        if self.case.branch is Branch.PM1_MOD8:
            return self.zeta_q * self.product_at_one
        if self.case.branch is Branch.PM11_MOD24:
            return self.zeta_half_q * self.sqrt_product_half
        return None

    @property
    def bracket_constant(self) -> Certified | None:
        """-1 + q zeta'(q)/zeta(q) + logderiv, the x-coefficient bracket
        without its log x + 2 gamma part (log branch only)."""
        if self.case.branch is not Branch.PM1_MOD8:
            return None
        ratio = self.zeta_prime_q / self.zeta_q
        return ratio.scale(float(self.q)) + self.logderiv_at_one + Certified.exact(-1.0)


@lru_cache(maxsize=32)
def main_term_params(q: int, tol: float = 1e-4) -> MainTermParams:
    """Assemble every certified constant the branch main term needs.

    The branch product comes first, so an unmet ``tol`` reports the
    product's own achieved error."""
    _check_tolerance(tol)
    case = classify(q)
    zpq = None
    p1 = ld1 = None
    zhq = rhalf = None
    if case.branch is Branch.PM1_MOD8:
        p1, ld1 = log_factor_constants(q, tol)
        zpq = zeta_prime_real(float(q), min(tol, 1e-12))
    elif case.branch is Branch.PM11_MOD24:
        rhalf = sqrt_factor_at_half(q, tol)
        zhq = zeta_real(q / 2.0, min(tol, 1e-12))
    zq = zeta_real(float(q), min(tol, 1e-12))
    return MainTermParams(
        q=q,
        case=case,
        zeta_q=zq,
        zeta_prime_q=zpq,
        product_at_one=p1,
        logderiv_at_one=ld1,
        zeta_half_q=zhq,
        sqrt_product_half=rhalf,
    )


@dataclass(frozen=True)
class MainTerm:
    value: float
    error: float
    kind: str  # "log" | "sqrt" | "exact_cuberoot" | "upper_bound_only"


def main_term(q: int, x: int | float, params: MainTermParams | None = None) -> MainTerm:
    """Branch-appropriate main term at x (an integer or a float, taken exactly).

    log branch:   x * C * (log x + 2 gamma + bracket), C = zeta(q) product(1)
    sqrt branch:  sqrt(x) * zeta(q/2) * sqrt-product(1/2)
    q = 3:        x^(1/3) exactly (the sum is the cube-root floor)
    +-5 mod 24:   0 with kind "upper_bound_only" (only upper bounds exist)
    """
    if x < X_FLOOR:
        raise ArgumentError(f"x must be >= e^4 = {X_FLOOR:.3f}, got {x}")
    if params is None:
        params = main_term_params(q)
    case = params.case
    if case.branch is Branch.PM5_MOD24:
        return MainTerm(0.0, 0.0, "upper_bound_only")
    X = Certified.exact(x)
    with _precision():
        log_x = Certified._of(iv.log(X.interval))
        if case.branch is Branch.Q_EQUALS_3:
            total, kind = Certified._of(iv.exp(log_x.interval / 3)), "exact_cuberoot"
        elif case.branch is Branch.PM1_MOD8:
            bracket = log_x + GAMMA.scale(2.0) + params.bracket_constant
            total, kind = params.leading_coefficient * bracket * X, "log"
        else:
            root = Certified._of(iv.sqrt(X.interval))
            total, kind = params.leading_coefficient * root, "sqrt"
    return MainTerm(total.value, total.error, kind)
