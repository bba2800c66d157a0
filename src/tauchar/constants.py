"""Certified evaluation of main-term constants.

The residue classes and the local Euler factors they select live in
``cases``; this module re-exports them, so ``constants.classify`` and
``constants.local_factor`` are the same objects.  ``main_term_params``
reads the class once and builds only the constants its branch's main term
reads; the two branch products, at s = 1 and s = 1/2, share one body.

Every numeric constant leaves this module as a ``Certified`` value, a
fixed-point enclosure: a pair of Python ints (lo, hi) stands for the
interval [lo 2^-F, hi 2^-F], F = _FRAC = PRECISION_BITS + 32, lo rounded
down and hi up.  No floating-point operation enters an enclosure, so no
accuracy of the platform libm is assumed, and no arbitrary-precision
library is needed.  The arithmetic rests on one rounding fact.

* Directed rounding.  For an integer z, floor(z 2^-F) = z >> F and
  ceil(z 2^-F) = -((-z) >> F); for integers u and v > 0 the quotient
  rounds by floor division; and for a real y >= 0 and k >= 1,
  floor(y^(1/k)) = floor(floor(y)^(1/k)), so roots.integer_nth_root rounds
  roots.  The exact sum, product or quotient (divisor > 0) of two intervals
  is the hull of the results at their endpoints, so rounding the least of
  those down and the greatest up gives an interval that contains it.  By
  induction, every fixed-point result encloses the exact real, and each
  rounding widens it by at most 2^-F.  So one leaf, _fx_root, gives the
  tightest enclosure of every power and root from integers alone:
  y^(1/k) 2^F lies in [r, r + 1], or [r, r] when r^k = y 2^kF, for
  r = integer_nth_root(floor(y 2^kF), k).  At sigma = a/b, n^-sigma is the
  leaf at y = n^-a, k = b: a floor division at b = 1, isqrt at b = 2.

The leaves are series summed at the wider scale 2^-W, W = F + 32, with
every term rounded down, then rounded outward to 2^-F.  A term reached
through i floor steps is at most 2i units of 2^-W short, and a series
stops when its running term rounds to 0, so the computed sum, the sum of
those shortfalls and the stated tail bound enclose the value.  Two
truncation bounds are used, and two tabulated constants.

* Logarithm.  For y > 0 write y = 2^k m with m in [1/sqrt 2, sqrt 2),
  so log y = k log 2 + 2 atanh(z) with z = (m - 1)/(m + 1),
  |z| <= 3 - 2 sqrt 2 < 0.172, and log 2 = 2 atanh(1/3).  For |z| < 1,
  atanh(z) = sum_i z^(2i+1)/(2i+1), and the tail after n terms is at most
  |z|^(2n+1) / ((2n+1)(1 - z^2)).  The upper end of an enclosure costs
  no second series: log b - log a <= (b - a)/a for 0 < a <= b.
* Exponential.  exp(x) = 2^k exp(r) with k = floor(x / log 2), so
  0 <= r < 1 (k log 2 is taken from the enclosure of log 2, with r
  rounded outward); by Taylor's theorem with the Lagrange remainder,
  exp(r) = sum_{i<n} r^i/i! + e^xi r^n/n! for some 0 <= xi <= r, so the
  tail after n terms is at most e r^n/n!.
* pi is at least PI_LOWER_LITERAL, its standard tabulated expansion
  truncated after 30 decimals; the Euler-Mascheroni constant lies within
  1e-30 of EULER_GAMMA_LITERAL.

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
dozen zeta values replace any prime sieve.  Only the k with b_k != 0 are
computed, each as a value and a sigma-derivative cached apart: _zeta_at and
_dzeta_at hold zeta(sigma) and zeta'(sigma), cached by sigma; _rung holds
log zeta_P(sigma), built on _zeta_at, and _rung_slope its derivative, built
on both, cached by (sigma, P).  So a sigma reached by two moduli or both
splits, or asked for by zeta_real, is summed once, each half by its own
sequence of operations whichever caller asks first, and no derivative is
summed for a caller that reads values alone: only log_factor_constants
(the log branch, q = +-1 mod 8) and zeta_prime_real read them, while
sqrt_factor_at_half, zeta_real and the half-line rungs take values.  log n
is taken once per integer, and the (N, M) plan once per sigma.  Tolerances
stay gates: a result whose certified error exceeds the tolerance raises
PrecisionError carrying the achieved bound instead of returning quietly.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import ceil, inf, isfinite, lcm, log, nextafter, pi, sqrt, ulp
from typing import NamedTuple

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
from .powerful import prime_list
from .roots import integer_nth_root

# the precision the enclosures are kept to; the fixed-point scale below
# carries 32 more bits to absorb the roundings of a loop's sums
PRECISION_BITS = 192

# Euler-Mascheroni constant, 30 decimal digits (standard tabulated value,
# within 1e-30 of the constant)
EULER_GAMMA_LITERAL = "0.577215664901532860606512090082"

# pi, its standard tabulated expansion truncated after 30 decimals, so below pi
PI_LOWER_LITERAL = "3.141592653589793238462643383279"

# the split point P of every Euler product: the primes p <= P are taken
# explicitly, and past P the zeta factors take over
EXPLICIT_PRIME_LIMIT = 100

# what the analytic remainders aim for: the Euler-Maclaurin remainder of a
# zeta value, and the truncated-exponent tail of the log of a product
_EM_TARGET = 2.0**-150
_TAIL_TARGET = 2.0**-75
_EM_LADDER = (8, 12, 16, 24, 32, 48, 64, 96, 128)
_EM_MAX_TERMS = 40

# the largest denominator of an exact argument of zeta_real and zeta_prime_real
_MAX_DENOMINATOR = 12

# fraction bits of the fixed-point enclosures (lo, hi) = [lo, hi] 2^-_FRAC,
# and the _GUARD more bits at which the atanh and exp series are summed
_FRAC = PRECISION_BITS + 32
_ONE = 1 << _FRAC
_GUARD = 32
_WIDE = _FRAC + _GUARD


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


def _atanh(z: int) -> tuple[int, int]:
    """Enclosure at 2^-_WIDE of atanh over [z, z + 1] 2^-_WIDE, for
    0 <= z <= 2^_WIDE / 2.  Every term rounds down and is under 2 units
    short; with z^2 <= 1/4 the tail is under 2 units, and the slope of
    atanh, 1/(1 - z^2) <= 4/3, covers the last 1 unit of z in 2 more."""
    z2 = z * z >> _WIDE
    total, t, n = 0, z, 0
    while t:
        total += t // (2 * n + 1)
        t = t * z2 >> _WIDE
        n += 1
    return total, total + 2 * n + 4


# log 2 = 2 atanh(1/3), at 2^-_WIDE
_LOG2 = _fx_scale(2, _atanh((1 << _WIDE) // 3))


def _fx_log(x: tuple[int, int]) -> tuple[int, int]:
    """Enclosure of log x for an enclosure x of positive numbers."""
    a, b = x
    if not a > 0:
        raise ArgumentError("fixed-point logarithm needs a positive argument")
    c = 1 << (a.bit_length() - 1)
    if a * a >= c * c << 1:  # so that m = a / c lies in [1/sqrt 2, sqrt 2)
        c <<= 1
    lo, hi = _atanh((abs(a - c) << _WIDE) // (a + c))
    if a < c:
        lo, hi = -hi, -lo
    l2 = _fx_scale(c.bit_length() - 1 - _FRAC, _LOG2)  # a 2^-F = m 2^k
    lo, hi = l2[0] + 2 * lo, l2[1] + 2 * hi
    hi += -(-((b - a) << _WIDE) // a)  # log b - log a <= (b - a)/a
    return lo >> _GUARD, -(-hi >> _GUARD)


def _exp_taylor(r: int) -> tuple[int, int]:
    """Enclosure at 2^-_WIDE of exp(r 2^-_WIDE) for 0 <= r < 2^_WIDE.
    The term after i steps is at most 2i units short, so the first n terms
    lose under n^2 units, and the tail is at most e (2n) < 6n units."""
    total, t, n = 0, 1 << _WIDE, 0
    while t:
        total += t
        n += 1
        t = (t * r >> _WIDE) // n
    return total, total + n * (n + 5)


def _fx_exp(x: tuple[int, int]) -> tuple[int, int]:
    """Enclosure of exp x for an enclosure x."""
    ends = []
    for side, a in enumerate(x):
        a <<= _GUARD
        k = a // _LOG2[1 if a >= 0 else 0]  # so r = a - k log 2 >= 0
        l2 = _fx_scale(k, _LOG2)
        e = _exp_taylor(a - l2[1 - side])[side]
        shift = k - _GUARD  # exp(a) = 2^k exp(r)
        if shift >= 0:
            ends.append(e << shift)
        else:
            ends.append(e >> -shift if side == 0 else -(-e >> -shift))
    return ends[0], ends[1]


def _fx_root(num: int, den: int, k: int) -> tuple[int, int]:
    """The tightest enclosure of (num/den)^(1/k) for num >= 0, den > 0 and
    k >= 1: [r, r + 1], or [r, r] when r^k den = num 2^kF, with
    r = floor((num/den)^(1/k) 2^F)."""
    y = num << k * _FRAC
    r = integer_nth_root(y // den, k)
    return r, r + (r**k * den != y)


def _fx_sqrt(x: tuple[int, int]) -> tuple[int, int]:
    """Enclosure of sqrt x for an enclosure x >= 0, the root leaf at each end."""
    return _fx_root(x[0], _ONE, 2)[0], _fx_root(x[1], _ONE, 2)[1]


def _fx_cbrt(num: int, den: int) -> tuple[int, int]:
    """Enclosure of (num/den)^(1/3) for num >= 0, den > 0: [r, r + 1] with
    r the root leaf's lower end, one unit wide even at a perfect cube."""
    r = _fx_root(num, den, 3)[0]
    return r, r + 1


def _ratio(v: int | float) -> tuple[int, int]:
    """The exact numerator and denominator of an int or a finite float."""
    if not isinstance(v, int):
        v = float(v)
        if not isfinite(v):
            raise ArgumentError(f"a certified value must be finite, got {v}")
    return v.as_integer_ratio()


def _float_down(num: int, den: int) -> float:
    """The greatest float <= num/den, den > 0."""
    f = num / den  # correctly rounded
    a, b = f.as_integer_ratio()
    return nextafter(f, -inf) if a * den > num * b else f


def _float_up(num: int, den: int) -> float:
    """The least float >= num/den, den > 0."""
    f = num / den
    a, b = f.as_integer_ratio()
    return nextafter(f, inf) if a * den < num * b else f


class Certified:
    """A real number enclosed in a fixed-point interval [lo, hi] 2^-F.

    ``Certified(value, error)`` holds [value - error, value + error], exactly
    when 2^-F holds both ends and rounded outward otherwise.  ``value`` is
    the float nearest the midpoint.  ``error`` is 0 when the interval is
    that float alone.  Otherwise it is the distance from ``value`` to the
    far end of the interval plus one ulp of their sum, rounded up, so
    value -+ error still brackets the interval when evaluated in double
    arithmetic.  Arithmetic runs on the enclosures.
    """

    __slots__ = ("fx",)

    def __init__(self, value: int | float, error: float = 0.0):
        if not (error >= 0.0):
            raise ArgumentError(f"error bound must be >= 0, got {error}")
        (n, d), (m, e) = _ratio(value), _ratio(error)
        self.fx = _fx(n * e - m * d, d * e)[0], _fx(n * e + m * d, d * e)[1]

    @classmethod
    def _of(cls, fx: tuple[int, int]) -> "Certified":
        c = cls.__new__(cls)
        c.fx = fx
        return c

    @property
    def value(self) -> float:
        lo, hi = self.fx
        return (lo + hi) / (_ONE << 1)  # correctly rounded

    @property
    def error(self) -> float:
        value = self.value
        n, d = value.as_integer_ratio()
        # the ends and the value over the common denominator d 2^F
        lo, hi, v, den = self.fx[0] * d, self.fx[1] * d, n << _FRAC, d << _FRAC
        if lo == hi == v:
            return 0.0
        worst = max(hi - v, v - lo)
        margin, margin_den = ulp(abs(value) + _float_up(worst, den)).as_integer_ratio()
        return _float_up(worst * margin_den + margin * den, den * margin_den)

    @property
    def bounds(self) -> tuple[float, float]:
        """Float endpoints, rounded outward."""
        lo, hi = self.fx
        return _float_down(lo, _ONE), _float_up(hi, _ONE)

    def __add__(self, o: "Certified") -> "Certified":
        return Certified._of(_fx_add(self.fx, o.fx))

    def __sub__(self, o: "Certified") -> "Certified":
        return Certified._of(_fx_add(self.fx, _fx_scale(-1, o.fx)))

    def __mul__(self, o: "Certified") -> "Certified":
        return Certified._of(_fx_mul(self.fx, o.fx))

    def __truediv__(self, o: "Certified") -> "Certified":
        lo, hi = o.fx
        if lo <= 0 <= hi:
            raise PrecisionError(
                "division by an interval containing zero",
                achievable=float("inf"),
            )
        if hi < 0:  # x / y = (-x) / (-y)
            return Certified._of(_fx_div(_fx_scale(-1, self.fx), (-hi, -lo)))
        return Certified._of(_fx_div(self.fx, o.fx))

    def scale(self, k: float) -> "Certified":
        """Multiply by a float treated as exact."""
        return self * Certified(k)

    def __repr__(self) -> str:
        return f"Certified({self.value!r}, {self.error!r})"


_GAMMA_LITERAL, _GAMMA_SLACK = Fraction(EULER_GAMMA_LITERAL), Fraction(1, 10**30)
GAMMA = Certified._of(
    (
        _fx(*(_GAMMA_LITERAL - _GAMMA_SLACK).as_integer_ratio())[0],
        _fx(*(_GAMMA_LITERAL + _GAMMA_SLACK).as_integer_ratio())[1],
    )
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


def _power(sigma: Fraction):
    """The function n -> tightest fixed-point enclosure of n^-sigma for a
    rational sigma = a/b >= 0, with a and b read once: the root leaf of
    1/n^a at order b."""
    a, b = sigma.numerator, sigma.denominator
    return lambda n: _fx_root(1, n**a, b)


def _inv_power(n: int, sigma: Fraction) -> tuple[int, int]:
    """The tightest fixed-point enclosure of n^-sigma, by _power."""
    return _power(sigma)(n)


@lru_cache(maxsize=1 << 12)
def _log_int(n: int) -> tuple[int, int]:
    """Fixed-point enclosure of log n, taken once per integer in a bounded
    cache."""
    return _fx_log((n << _FRAC, n << _FRAC))


@lru_cache(maxsize=None)
def _em_plan(sigma: float) -> tuple[int, int]:
    """The first (N, M) on the ladder, N before M, whose Euler-Maclaurin
    remainder, as a float estimate, meets _EM_TARGET, with M taken only
    while the harmonic test of the log weight holds; the remainder actually
    added to the enclosure is recomputed in exact arithmetic.

    The estimate is rem(M) = log 4 - (2M+1) log 2pi + sum_{i<2M} log(sigma+i)
    - (sigma+2M) log N + log log N, so rem(M+1) - rem(M) =
    log((sigma+2M)(sigma+2M+1)) - 2 log(2 pi N) rises with M: rem is convex,
    least at the first M with (sigma+2M)(sigma+2M+1) >= (2 pi N)^2, and one
    estimate there decides whether N can meet the target.  The first M that
    does lies where rem falls, and is bisected; so is the last M the
    harmonic test admits, a running sum of positive terms, which rises in
    floats too.  Every comparison is one a scan over M makes, on the same
    float; the two could part only where rounding swapped two adjacent
    estimates that both lie within rounding of the target.
    """
    # prefix sums over i < 2M of log(sigma + i), and the running sum of
    # 1/(sigma + i) through i = 2M, added in the order of i as the scan did
    log_rising, harmonic, lr, h = [], [], 0.0, 0.0
    for i in range(2 * _EM_MAX_TERMS):
        lr += log(sigma + i)
        h += 1.0 / (sigma + i)
        if i % 2:
            log_rising.append(lr)
            harmonic.append(h + 1.0 / (sigma + (i + 1)))
    log_4, log_2pi, log_target = log(4.0), log(2 * pi), log(_EM_TARGET)

    def meets(M: int) -> bool:
        return (
            log_4 - (2 * M + 1) * log_2pi + log_rising[M - 1]
            - (sigma + 2 * M) * log_N + log_log_N
        ) <= log_target

    for N in _EM_LADDER:
        log_N = log(N)
        log_log_N = log(log_N)
        c = 2 * pi * N  # x (x + 1) >= c^2 for x >= (sqrt(1 + 4c^2) - 1)/2
        least = max(1, ceil(((sqrt(1 + 4 * c * c) - 1) / 2 - sigma) / 2))
        hi = min(least, bisect_left(harmonic, log_N))
        if hi >= 1 and meets(hi):
            return N, 1 + bisect_left(range(1, hi), True, key=meets)
    raise ArgumentError(f"no Euler-Maclaurin plan for zeta({sigma})")


_PI_LOWER = Fraction(PI_LOWER_LITERAL)


@lru_cache(maxsize=None)
def _pi_powers(k: int) -> tuple[int, int]:
    """(d^k, (2c)^k), so (2 pi)^-k <= d^k / (2c)^k for the lower bound c/d
    of pi; a few thousand bits each, cached by k = 2M + 1."""
    return _PI_LOWER.denominator**k, (2 * _PI_LOWER.numerator) ** k


def _em_tail(sigma: Fraction, N: int, M: int, f_N, log_N=None):
    """Fixed-point enclosure of sum_{n>=N} n^-sigma from the enclosure f_N
    of N^-sigma, or, given the enclosure log_N of log N, of
    sum_{n>=N} log(n) n^-sigma, by the Euler-Maclaurin identity of the
    module docstring with M Bernoulli corrections.

    Every part is an exact rational times N^-sigma.  With sigma = a/b and
    g = bN, (sigma)_i N^-i = r_i / g^i where r_i = prod_{i'<i} (a + i'b),
    and (sigma)_i H_i(sigma) N^-i = b r'_i / g^i where r'_i is the
    a-derivative of r_i.  So P_M and P_M' are integers over D g^(2M-1),
    summed by Horner's rule in g^2, and only the final quotients round.
    The derivatives r'_i and P_M' are carried for the log weight alone.
    """
    a, b = sigma.numerator, sigma.denominator
    slope = log_N is not None
    D, e = _bernoulli_numerators()
    g = b * N
    rise, drise = a, 1  # r_1, r'_1
    p_num = dp_num = 0  # D g^(2M-1) P_M and D g^(2M-1) P_M' / b
    for i in range(1, 2 * M):
        if i % 2:  # i = 2j - 1
            p_num = p_num * g * g + e[i // 2] * rise
            if slope:
                dp_num = dp_num * g * g + e[i // 2] * drise
        f = a + i * b
        if slope:
            drise = drise * f + rise
        rise *= f
    # now r_2M and r'_2M: H_2M(sigma) = b r'_2M / r_2M
    den = D * g ** (2 * M - 1)
    a1 = a - b  # b (sigma - 1) > 0
    # A = N/(sigma - 1) + 1/2 + P_M
    A = _fx(2 * N * b * den + a1 * den + 2 * a1 * p_num, 2 * a1 * den)
    # |f^(2M)(N)| = (sigma)_2M N^(-sigma-2M), times log N - H_2M for the log
    # weight; 2 zeta(2M+1) <= 2 (2M+1)/(2M); only upper bounds are needed,
    # and (2 pi)^-(2M+1) <= (d / 2c)^(2M+1) for the lower bound c/d of pi
    d_k, c_k = _pi_powers(2 * M + 1)
    num = f_N[1] * (2 * M + 1) * rise * d_k
    remainder = -(-num // (M * g ** (2 * M) * c_k))
    if not slope:
        tail = _fx_mul(f_N, A)
        return tail[0] - remainder, tail[1] + remainder
    # B = N/(sigma - 1)^2 - P_M'
    B = _fx(N * b * b * den - b * a1 * a1 * dp_num, a1 * a1 * den)
    last = a + 2 * M * b
    # log N > H_(2M+1)(sigma) = (b r'_2M last + b r_2M) / (r_2M last)
    if not log_N[0] * rise * last > (b * drise * last + b * rise) << _FRAC:
        raise ArgumentError(f"log {N} is below the harmonic sum of zeta({sigma})")
    harmonic_lo = (b * drise << _FRAC) // rise
    log_remainder = -(-remainder * (log_N[1] - harmonic_lo) >> _FRAC)
    log_tail = _fx_mul(f_N, _fx_add(_fx_mul(A, log_N), B))
    return log_tail[0] - log_remainder, log_tail[1] + log_remainder


def _zeta_sums(sigma: Fraction, N: int, M: int, power):
    """Fixed-point enclosure of zeta(sigma) from the terms n < N and the
    tail at N, where power(n) encloses n^-sigma."""
    lo = hi = _ONE
    for n in range(2, N):
        t_lo, t_hi = power(n)
        lo += t_lo
        hi += t_hi
    tail = _em_tail(sigma, N, M, power(N))
    return lo + tail[0], hi + tail[1]


def _dzeta_sums(sigma: Fraction, N: int, M: int, power):
    """Fixed-point enclosure of zeta'(sigma) = -sum log(n) n^-sigma, as
    _zeta_sums; the products log(n) n^-sigma are summed exactly at scale
    2^-2F and rounded once."""
    lo = hi = 0
    for n in range(2, N):
        t_lo, t_hi = power(n)
        g_lo, g_hi = _log_int(n)
        lo += t_lo * g_lo
        hi += t_hi * g_hi
    tail = _em_tail(sigma, N, M, power(N), _log_int(N))
    return (-hi >> _FRAC) - tail[1], -(lo >> _FRAC) - tail[0]


@lru_cache(maxsize=None)
def _zeta_at(sigma: Fraction) -> tuple[int, int]:
    """Fixed-point zeta(sigma), cached by exact sigma; every zeta value of
    the module is summed here."""
    return _zeta_sums(sigma, *_em_plan(float(sigma)), _power(sigma))


@lru_cache(maxsize=None)
def _dzeta_at(sigma: Fraction) -> tuple[int, int]:
    """Fixed-point zeta'(sigma), cached by exact sigma, on the plan of
    _zeta_at."""
    return _dzeta_sums(sigma, *_em_plan(float(sigma)), _power(sigma))


def _check_tolerance(tol: float) -> None:
    if not 0 < tol < inf:
        raise ArgumentError(f"tolerance must be positive and finite, got {tol}")


def _series_argument(s: int | float | Fraction, tol: float) -> Fraction:
    if not 1.1 < s < inf:
        raise ArgumentError(f"series argument must exceed 1.1 and be finite, got {s}")
    _check_tolerance(tol)
    sigma = Fraction(s)
    if sigma.denominator > _MAX_DENOMINATOR:
        raise ArgumentError(f"series argument {s} = {sigma}: denominator > {_MAX_DENOMINATOR}")
    return sigma


def _gate(achieved: float, tol: float, what: str) -> None:
    if not achieved <= tol:
        raise PrecisionError(
            f"{what} is certified to {achieved:.3e}, above the tolerance {tol:.3e}",
            achievable=achieved,
        )


def zeta_real(s: int | float | Fraction, tol: float = 1e-12) -> Certified:
    """zeta(s) for s > 1.1, taken exactly, to certified absolute error <= tol;
    ArgumentError, before any work, when s has a denominator above 12."""
    c = Certified._of(_zeta_at(_series_argument(s, tol)))
    _gate(c.error, tol, f"zeta({s})")
    return c


def zeta_prime_real(s: int | float | Fraction, tol: float = 1e-12) -> Certified:
    """zeta'(s) = -sum log(n) n^{-s} for s > 1.1, taken as by zeta_real."""
    c = Certified._of(_dzeta_at(_series_argument(s, tol)))
    _gate(c.error, tol, f"zeta'({s})")
    return c


@lru_cache(maxsize=None)
def _rung(sigma: Fraction, P: int) -> tuple[int, int]:
    """Fixed-point enclosure of log zeta_P(sigma),
    zeta_P(sigma) = zeta(sigma) prod_{p<=P} (1 - p^-sigma), for sigma > 1.

    Built on _zeta_at(sigma), with the Euler factors of the primes p <= P
    taken off in fixed point, so a rung depends on sigma and P alone and
    is cached by them: every modulus and split that reaches a sigma shares
    it, whichever asks first.
    """
    power = _power(sigma)
    factor = _zeta_at(sigma)
    for p in prime_list(P):
        w_lo, w_hi = power(p)
        factor = _fx_mul(factor, (_ONE - w_hi, _ONE - w_lo))
    return _fx_log(factor)


@lru_cache(maxsize=None)
def _rung_slope(sigma: Fraction, P: int) -> tuple[int, int]:
    """Fixed-point enclosure of d/dsigma log zeta_P(sigma), the slope of
    _rung(sigma, P): zeta'(sigma)/zeta(sigma) + sum_{p<=P} log(p) w/(1 - w),
    w = p^-sigma, cached as _rung."""
    power = _power(sigma)
    lo = hi = 0  # sum of log(p) w/(1 - w), at scale 2^-2F
    for p in prime_list(P):
        w_lo, w_hi = power(p)
        g_lo, g_hi = _log_int(p)
        # w/(1 - w) increases with w
        lo += g_lo * ((w_lo << _FRAC) // (_ONE - w_lo))
        hi += g_hi * -(-(w_hi << _FRAC) // (_ONE - w_hi))
    ratio = _fx_div(_dzeta_at(sigma), _zeta_at(sigma))
    return ratio[0] + (lo >> _FRAC), ratio[1] - (-hi >> _FRAC)


def _root_radius(t: list[int]) -> Fraction:
    """Cauchy's bound: no root u of 1 + sum_{m>=1} t[m] u^m has |u| below
    1/(1 + max|t[m]|)."""
    return Fraction(1, 1 + max(abs(c) for c in t[1:]))


def _factor_exponents(t: list[int], K: int) -> list[int]:
    """b_0..b_K (b_0 = 0) with L(u) prod_{k<=K} (1 - u^k)^(b_k) = 1 + O(u^(K+1))
    for L = sum_m t[m] u^m, t[0] = 1.

    The power sums s_n = n a_n of log L = sum_n a_n u^n come from Newton's
    identities, u L'(u) = L(u) sum_n s_n u^n, that is
    s_n = n t[n] - sum_{0<j<n} s_j t[n-j]; then k b_k = sum_{d|k} mu(k/d) s_d,
    the formula of the module docstring, and the division by k is exact.
    """
    D = len(t) - 1
    t = (list(t) + [0] * (K + 1))[: K + 1]
    s = [0] * (K + 1)
    for n in range(1, K + 1):
        s[n] = n * t[n] - sum(s[j] * t[n - j] for j in range(max(1, n - D), n))
    mu = [0, 1] + [0] * (K - 1)
    for d in range(1, K + 1):
        for k in range(2 * d, K + 1, d):
            mu[k] -= mu[d]
    kb = [0] * (K + 1)
    for d in range(1, K + 1):
        for k in range(d, K + 1, d):
            kb[k] += mu[k // d] * s[d]
    return [0] + [kb[k] // k for k in range(1, K + 1)]


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


def _tail_bounds(D: int, rho: Fraction, s: Fraction, P: int, K: int, slope: bool):
    """Upper bounds, at 2^-F, on |E| and, with slope, |dE/ds| (None
    otherwise) for the split at P and K:
    the bounds of the module docstring at u = n^-s, summed over n > P
    against the integrals of x^-sigma and x^-sigma log x from P,
    sigma = s (K+1).  With r = P^-s and w = r^(K+1) = P^-sigma,
      lead = D/(1 - rho) (1/rho)^(K+1) P w / (1 - r/rho),
      |E| <= lead / (sigma - 1),
      |dE/ds| <= lead / (1 - w) (log P / (sigma - 1) + 1 / (sigma - 1)^2).
    """
    rn, rd = rho.numerator, rho.denominator
    r, w = _inv_power(P, s), _inv_power(P, s * (K + 1))
    # D rd/(rd - rn) (rd/rn)^(K+1) P w rn/(rn - rd r), as one quotient
    num = _fx_scale(D * P * rd ** (K + 2), w)
    den = _fx_scale((rd - rn) * rn**K, _fx_add(_fx(rn), _fx_scale(-rd, r)))
    lead = _fx_div(num, den)
    sig = s * (K + 1) - 1  # sigma - 1 = a/b
    a, b = sig.numerator, sig.denominator
    tail = _fx_div(_fx_scale(b, lead), _fx(a))
    if not slope:
        return tail[1], None
    # log P/(sigma - 1) + 1/(sigma - 1)^2 = b (a log P + b) / a^2
    factor = _fx_div(_fx_scale(b, _fx_add(_fx_scale(a, _log_int(P)), _fx(b))), _fx(a * a))
    dtail = _fx_div(_fx_mul(lead, factor), (_ONE - w[1], _ONE - w[0]))
    return tail[1], dtail[1]


@lru_cache(maxsize=None)
def _root_powers(p: int, d: int) -> tuple[tuple[int, int], ...]:
    """Enclosures of p^(-r/d) for r < d, which the explicit product of every
    modulus split at the same s = 1/d asks for again."""
    return tuple(_inv_power(p, Fraction(r, d)) for r in range(d))


def _explicit_factors(t: list[int], s: Fraction, P: int, slope: bool):
    """Fixed-point enclosures of sum_{p<=P} log L(p^-s) and, with slope, of
    its s-derivative, -sum log p u L'(u)/L(u) (None otherwise).

    With s = 1/d and e = ceil(D/d), p^e L(p^-s) = sum_{r<d} A_r p^(-r/d) for
    exact integers A_r, and likewise for u L'(u), so each prime costs a few
    fixed-point operations and the product needs one logarithm.
    """
    d, D = s.denominator, len(t) - 1
    e = -(-D // d)
    prod, deriv = (_ONE, _ONE), (0, 0)
    for p in prime_list(P):
        val = val1 = (0, 0)  # p^e L(p^-s) and p^e u L'(u)
        for r, w in enumerate(_root_powers(p, d)):
            ms = range(r, D + 1, d)
            c = p ** (e + 1 - len(ms))
            a = 0
            for m in ms:
                a = a * p + t[m]
            val = _fx_add(val, _fx_scale(a * c, w))
            if slope:
                a = 0
                for m in ms:
                    a = a * p + m * t[m]
                val1 = _fx_add(val1, _fx_scale(a * c, w))
        if not val[0] > 0:
            raise ArgumentError(
                f"local factor not positive at p={p}; coefficients corrupt"
            )
        prod = _fx_mul(prod, _fx_div(val, _fx(p**e)))
        if slope:
            term = _fx_mul(_log_int(p), _fx_div(val1, val))
            deriv = deriv[0] - term[1], deriv[1] - term[0]
    return _fx_log(prod), deriv if slope else None


def _euler_product(t, s: Fraction, P: int, slope: bool = False):
    """Enclosures of log prod_p L(p^-s) and, with slope, of its
    s-derivative (None otherwise) for the local polynomial
    L(u) = sum_m t[m] u^m, t[0] = 1, split at P as in the module docstring."""
    t = list(t)
    while t[-1] == 0:
        t.pop()
    D, rho = len(t) - 1, _root_radius(t)
    if not P > (1 / rho) ** s.denominator:  # p^-s < rho for p > P, s = 1/d
        raise ArgumentError(f"split point {P} leaves p^-s above the root bound")
    K = _truncation_order(D, rho, s, P)
    b = _factor_exponents(t, K)
    log_prod, deriv = _explicit_factors(t, s, P, slope)
    for k in range(1, K + 1):
        if not b[k]:
            continue
        if k * s <= 1:
            raise ArgumentError(f"exponent b_{k} = {b[k]} at a zeta pole")
        log_prod = _fx_add(log_prod, _fx_scale(b[k], _rung(k * s, P)))
        if slope:
            deriv = _fx_add(deriv, _fx_scale(b[k] * k, _rung_slope(k * s, P)))
    tail, dtail = _tail_bounds(D, rho, s, P, K, slope)
    log_prod = log_prod[0] - tail, log_prod[1] + tail
    if slope:
        deriv = deriv[0] - dtail, deriv[1] + dtail
    return log_prod, deriv


def _branch_product(q: int, branch: Branch, s: Fraction, tol: float, what: str):
    """prod_p L(p^-s) for the local factor L of q in ``branch``, to relative
    error ``tol``, and the enclosure of the s-derivative of its log at
    s = 1, on the log branch (None at s = 1/2)."""
    _check_tolerance(tol)
    case = classify(q)
    if case.branch is not branch:
        raise ClassificationError(
            f"q={q} is in branch {case.branch.value}, which has no {what}"
        )
    try:
        log_prod, deriv = _euler_product(
            local_factor(q).numerator, s, EXPLICIT_PRIME_LIMIT, slope=s == 1
        )
    except ArgumentError as e:
        raise ArgumentError(f"q={q}: {e}") from None
    product = Certified._of(_fx_exp(log_prod))
    _gate(product.error / product.value, tol, f"q={q}: the {what}")
    return product, deriv


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
    what = "log-branch product at 1"
    product, deriv = _branch_product(q, Branch.PM1_MOD8, Fraction(1), tol, what)
    logderiv = Certified._of(deriv)
    _gate(logderiv.error, tol, f"q={q}: its log-derivative")
    return product, logderiv


@lru_cache(maxsize=32)
def sqrt_factor_at_half(q: int, tol: float = 1e-4) -> Certified:
    """The sqrt-branch product at the half-line:
    prod_p (1 + sum_m t[m] p^{-m/2}) with t[m] = chi(m+1) + chi(m), m >= 3,
    to relative error ``tol``.
    """
    what = "sqrt-branch product at 1/2"
    return _branch_product(q, Branch.PM11_MOD24, Fraction(1, 2), tol, what)[0]


class MainTermParams(NamedTuple):
    """The certified constants of the branch main term for modulus q:
    ``leading_coefficient`` is zeta(q) product(1) on the log branch,
    zeta(q/2) sqrt-product(1/2) on the sqrt branch, exactly 1 at q = 3,
    whose main term is x^(1/3), and None on +-5 (mod 24);
    ``bracket_constant``, -1 + q zeta'(q)/zeta(q) + logderiv, the x log x
    bracket without its log x + 2 gamma part, is None off the log branch.
    """

    q: int
    case: CaseClass
    leading_coefficient: Certified | None
    bracket_constant: Certified | None


@lru_cache(maxsize=32)
def main_term_params(q: int, tol: float = 1e-4) -> MainTermParams:
    """Assemble every certified constant the branch main term needs.

    The branch product comes first, so an unmet ``tol`` reports the
    product's own achieved error."""
    _check_tolerance(tol)
    case = classify(q)
    lead = bracket = None
    if case.branch is Branch.PM1_MOD8:
        product, logderiv = log_factor_constants(q, tol)
        zpq = zeta_prime_real(float(q), min(tol, 1e-12))
        zq = zeta_real(float(q), min(tol, 1e-12))
        lead = zq * product
        bracket = (zpq / zq).scale(float(q)) + logderiv + Certified(-1.0)
    elif case.branch is Branch.PM11_MOD24:
        product = sqrt_factor_at_half(q, tol)
        lead = zeta_real(q / 2.0, min(tol, 1e-12)) * product
    elif case.branch is Branch.Q_EQUALS_3:
        lead = Certified(1)
    return MainTermParams(q, case, lead, bracket)


class MainTerm(NamedTuple):
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
    X = Certified(x)
    if case.branch is Branch.Q_EQUALS_3:
        total, kind = Certified._of(_fx_cbrt(*_ratio(x))), "exact_cuberoot"
    elif case.branch is Branch.PM1_MOD8:
        log_x = Certified._of(_fx_log(X.fx))
        bracket = log_x + GAMMA.scale(2.0) + params.bracket_constant
        total, kind = params.leading_coefficient * bracket * X, "log"
    else:
        root = Certified._of(_fx_sqrt(X.fx))
        total, kind = params.leading_coefficient * root, "sqrt"
    return MainTerm(total.value, total.error, kind)
