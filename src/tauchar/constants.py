"""Residue-class classification, the local Euler factors it selects, and
certified evaluation of main-term constants.

``classify`` is the one place that reads q mod 8, 24 and 120.  Every other
decision that depends on the residue class of q, including which local
Euler factor ``local_factor`` returns, dispatches on its ``CaseClass``.  The
factors are integer rational functions of u = p^(-s) whose denominators
have constant term 1, so they expand by integer long division.

Every numeric constant leaves this module as a ``Certified`` value: a float
plus a rigorous absolute error bound combining an analytic tail estimate with
a (generous, explicit) rounding allowance.  Tails are certified with
elementary integral comparison and the prime-counting bound
pi(t) < 1.26 t / log t (valid for t >= 17), so no result depends on unproven
estimates.  Tolerances that cannot be met at the configured cutoffs raise
PrecisionError carrying the achievable bound instead of silently degrading.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import exp, fsum, log

import numpy as np

from .errors import ArgumentError, ClassificationError, PrecisionError
from .sieves import LegendreChar, is_prime, primes_up_to

# one binary ulp at magnitude 1; every float operation below is charged
# 2 ulps of relative rounding against the running error bound
_ULP = 2.0**-52
_R2 = 2.0 * _ULP

# Euler-Mascheroni constant, 30 decimal digits (standard tabulated value;
# the float carries it to full double precision)
EULER_GAMMA_LITERAL = "0.577215664901532860606512090082"
EULER_GAMMA = float(EULER_GAMMA_LITERAL)

# best published upper bound for the divisor-problem exponent
THETA_UPPER = Fraction(131, 416)

MAX_ZETA_TERMS = 10**8
MAX_PRIME_CUTOFF = 4 * 10**8


@dataclass(frozen=True)
class Certified:
    """A float with a rigorous absolute error bound.

    Arithmetic propagates worst-case interval bounds and adds a 2-ulp
    relative rounding charge per operation, so composite quantities stay
    certified without interval libraries.
    """

    value: float
    error: float

    def __post_init__(self):
        if not (self.error >= 0.0):
            raise ArgumentError(f"error bound must be >= 0, got {self.error}")

    @staticmethod
    def exact(v: float) -> "Certified":
        return Certified(float(v), 0.0)

    def _charge(self, v: float, e: float) -> "Certified":
        return Certified(v, e + abs(v) * _R2)

    def __add__(self, o: "Certified") -> "Certified":
        return self._charge(self.value + o.value, self.error + o.error)

    def __sub__(self, o: "Certified") -> "Certified":
        return self._charge(self.value - o.value, self.error + o.error)

    def __mul__(self, o: "Certified") -> "Certified":
        e = (
            abs(self.value) * o.error
            + abs(o.value) * self.error
            + self.error * o.error
        )
        return self._charge(self.value * o.value, e)

    def __truediv__(self, o: "Certified") -> "Certified":
        if o.error >= abs(o.value):
            raise PrecisionError(
                "division by an interval containing zero",
                achievable=float("inf"),
            )
        v = self.value / o.value
        e = (self.error + abs(v) * o.error) / (abs(o.value) - o.error)
        return self._charge(v, e)

    def scale(self, k: float) -> "Certified":
        """Multiply by a float treated as exact (small k from formulas)."""
        return self._charge(self.value * k, abs(k) * self.error)

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.value - self.error, self.value + self.error)

    def within(self, target: float, slack: float) -> bool:
        return abs(self.value - target) <= slack


GAMMA = Certified(EULER_GAMMA, 3e-16)  # literal truncation + representation


class Branch(str, Enum):
    """Top-level residue-class cases for the summatory asymptotics."""

    Q_EQUALS_3 = "q_equals_3"  # sum collapses to the cube-root floor, exactly
    PM1_MOD8 = "pm1_mod8"  # x log x scale main term
    PM11_MOD24 = "pm11_mod24"  # sqrt(x) scale main term
    PM5_MOD24 = "pm5_mod24"  # upper bounds only; no main term


class SubBranch(str, Enum):
    PM7_MOD24 = "pm7_mod24"  # log-branch, first exponent = 2
    PM1_MOD24 = "pm1_mod24"  # log-branch, first exponent >= 4
    Q_EQUALS_5 = "q_equals_5"  # fifth-power indicator case
    PM19_29_MOD120 = "pm19_29_mod120"
    PM43_53_MOD120 = "pm43_53_mod120"


@dataclass(frozen=True)
class CaseClass:
    """Residue classification of an odd prime modulus and its start exponents.

    ``log_factor_start`` is the smallest exponent with nonzero coefficient in
    the log-branch local factor (present iff branch PM1_MOD8);
    ``sqrt_factor_start`` is the analogue for the plus-signed factor, present
    iff q = +-3 mod 8.
    """

    q: int
    branch: Branch
    sub: SubBranch | None
    log_factor_start: int | None
    sqrt_factor_start: int | None


def _step_coeffs(q: int, sign: int) -> np.ndarray:
    """t[m] = chi(m+1) + sign*chi(m) for m = 0..q-1 as int64, with the unused
    t[0] and t[1] set to 0 (chi the Legendre symbol mod q)."""
    chi = LegendreChar(q).table.astype(np.int64)
    t = np.concatenate((chi[1:], chi[:1])) + sign * chi
    t[:2] = 0
    return t


def classify(q: int) -> CaseClass:
    """Case data for an odd prime modulus q.

    q = 3 and q = 5 are designated special cases (exact cube-root identity
    and the fifth-power indicator case).  Start exponents are found by
    search and then checked against the known residue constraints, which
    are treated as assertions, not definitions.
    """
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ClassificationError(f"q must be an odd prime, got {q}")
    r8 = q % 8
    r24 = q % 24
    log_branch = r8 in (1, 7)
    nonzero = np.flatnonzero(_step_coeffs(q, -1 if log_branch else +1))
    if len(nonzero) == 0:
        raise ClassificationError(
            f"no nonzero step coefficient for modulus {q}; table corrupt"
        )
    start = int(nonzero[0])
    if q == 3:
        return CaseClass(3, Branch.Q_EQUALS_3, None, None, start)
    if log_branch:
        if r24 in (7, 17):
            sub = SubBranch.PM7_MOD24
            if start != 2:
                raise ClassificationError(
                    f"q={q}: start exponent {start} contradicts residue class"
                )
        else:
            sub = SubBranch.PM1_MOD24
            if not (4 <= start < q):
                raise ClassificationError(
                    f"q={q}: start exponent {start} outside [4, q)"
                )
        return CaseClass(q, Branch.PM1_MOD8, sub, start, None)
    if r24 in (11, 13):
        if start != 3:
            raise ClassificationError(
                f"q={q}: start exponent {start}, expected 3"
            )
        return CaseClass(q, Branch.PM11_MOD24, None, None, start)
    # q = +-5 mod 24
    if start != 2:
        raise ClassificationError(f"q={q}: start exponent {start}, expected 2")
    if q == 5:
        sub = SubBranch.Q_EQUALS_5
    elif q % 120 in (19, 29, 91, 101):
        sub = SubBranch.PM19_29_MOD120
    elif q % 120 in (43, 53, 67, 77):
        sub = SubBranch.PM43_53_MOD120
    else:  # pragma: no cover - impossible for primes (residue shares factor 5)
        raise ClassificationError(f"q={q}: residue mod 120 shares a factor with 120")
    return CaseClass(q, Branch.PM5_MOD24, sub, None, start)


@dataclass(frozen=True)
class LocalFactor:
    """Euler factor at a prime p, as a rational function of u = p^(-s).

    ``numerator`` / ``denominator`` are integer polynomial coefficients in u,
    constant term first; both constant terms are 1.  Every factor in scope
    is the same at every prime.
    """

    name: str
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self):
        if not self.denominator or self.denominator[0] != 1:
            raise ArgumentError(
                f"local factor {self.name!r} needs a denominator with constant term 1"
            )
        if not self.numerator or self.numerator[0] != 1:
            raise ArgumentError(
                f"local factor {self.name!r} needs a numerator with constant term 1"
            )

    def coeffs(self, max_exp: int) -> tuple[int, ...]:
        """Integer series coefficients of u^0..u^max_exp, by long division:
        out[k] = num[k] - sum_{j>=1} den[j] out[k-j], exact since den[0] = 1."""
        num, den = self.numerator, self.denominator
        out: list[int] = []
        for k in range(max_exp + 1):
            acc = num[k] if k < len(num) else 0
            for j in range(1, min(k, len(den) - 1) + 1):
                acc -= den[j] * out[k - j]
            out.append(acc)
        return tuple(out)


def local_factor(q: int, combined: bool = False) -> LocalFactor:
    """The local Euler factor that classify(q) selects.

    With base = 1 + sum_{m>=2} t[m] u^m, t[m] = chi(m+1) -+ chi(m) (minus on
    the log branch, plus elsewhere), the factors are:

    * q = +-1 (mod 8): base, the cofactor of zeta(qs) zeta(s);
    * q = +-11 (mod 24): base, the cofactor of zeta(qs) zeta(2s) / zeta(s);
    * q = +-5 (mod 24), combined=True: base / (1 - u^2)^2, left once
      zeta(s) zeta(2s) is cleared entirely;
    * q = +-19, +-29 (mod 120): base (1 + u^2) / (1 - u^2), the combined
      factor times (1 - u^4), a series starting at u^5;
    * q = +-43, +-53 (mod 120): base / ((1 - u^2)^3 (1 + u^2)), the combined
      factor over (1 - u^4), a series starting at u^6.

    q = 3 and q = 5 have no local factor, and combined=True needs
    q = +-5 (mod 24); both raise ClassificationError.  The low-order t[m]
    each closed form relies on are checked, and a mismatch is a hard failure.
    """
    case = classify(q)
    t = _step_coeffs(q, -1 if case.branch is Branch.PM1_MOD8 else +1)
    base = t.copy()
    base[0] = 1
    if combined:
        if case.branch is not Branch.PM5_MOD24:
            raise ClassificationError(
                f"q={q} is in branch {case.branch.value}, which has no "
                "combined +-5 (mod 24) factor"
            )
        kind, num, den, low = "pm5_mod24_raw", base, (1, 0, -2, 0, 1), (-2, 0)
    elif case.branch is Branch.PM1_MOD8:
        kind, num, den, low = case.branch.value, base, (1,), ()
    elif case.branch is Branch.PM11_MOD24:
        kind, num, den, low = case.branch.value, base, (1,), (0,)
    elif case.sub is SubBranch.PM19_29_MOD120:
        num = np.convolve(base, [1, 0, 1])
        kind, den, low = case.sub.value, (1, 0, -1), (-2, 0, 2, 2)
    elif case.sub is SubBranch.PM43_53_MOD120:
        den = (1, 0, -2, 0, 0, 0, 2, 0, -1)
        kind, num, low = case.sub.value, base, (-2, 0, 0, 0)
    else:
        raise ClassificationError(
            f"q={q} is in case {(case.sub or case.branch).value}, which has no "
            "local factor"
        )
    got = tuple(t[2 : 2 + len(low)].tolist())
    if got != low:
        raise ArgumentError(
            f"q={q}: low-order terms t2.. = {got}, expected {low}"
        )
    return LocalFactor(f"{kind}[q={q}]", tuple(num.tolist()), den)


def _tail_interval(T: int, s: float) -> tuple[float, float]:
    """Enclosure of sum_{n > T} n^{-s} by integral comparison.

    Lower: integral from T+1 (left endpoints of a decreasing function);
    upper: integral from T+1/2 (midpoint rule under convexity).
    """
    lo = (T + 1.0) ** (1.0 - s) / (s - 1.0)
    hi = (T + 0.5) ** (1.0 - s) / (s - 1.0)
    return lo, hi


def _tail_interval_logs(T: int, s: float) -> tuple[float, float]:
    """Enclosure of sum_{n > T} log(n) n^{-s}, same comparison (T >= 8)."""

    def integral(a: float) -> float:
        return a ** (1.0 - s) * (log(a) / (s - 1.0) + 1.0 / (s - 1.0) ** 2)

    return integral(T + 1.0), integral(T + 0.5)


def _sum_with_tail(s: float, tol: float, weight_log: bool) -> Certified:
    if s <= 1.1:
        raise ArgumentError(f"series argument must exceed 1.1, got {s}")
    if not tol > 0:
        raise ArgumentError("tolerance must be positive")
    T = 64
    while True:
        lo, hi = (_tail_interval_logs if weight_log else _tail_interval)(T, s)
        gap = (hi - lo) / 2.0
        if gap <= tol / 2.0 or T >= MAX_ZETA_TERMS:
            break
        T *= 2
    if gap > tol / 2.0:
        raise PrecisionError(
            f"series tail at cutoff {T} only certifies {gap:.3e}",
            achievable=gap * 2.0,
        )
    n = np.arange(1, T + 1, dtype=np.float64)
    terms = n ** (-s)
    if weight_log:
        terms = terms * np.log(n)
    head = fsum(terms.tolist())
    # rounding: each term carries <= 2 ulp relative error (power and log),
    # fsum of exact doubles is correctly rounded
    rounding = 4.0 * _ULP * head + _ULP * abs(head)
    value = head + (lo + hi) / 2.0
    return Certified(value, gap + rounding + _R2 * abs(value))


def zeta_real(s: float, tol: float = 1e-12) -> Certified:
    """zeta(s) for real s > 1.1 with certified absolute error <= tol."""
    return _sum_with_tail(float(s), tol, weight_log=False)


def zeta_prime_real(s: float, tol: float = 1e-12) -> Certified:
    """zeta'(s) = -sum log(n) n^{-s} for real s > 1.1, certified as zeta_real."""
    c = _sum_with_tail(float(s), tol, weight_log=True)
    return Certified(-c.value, c.error)


# exponents beyond this contribute less than 2^-100 per prime; the absolute
# remainder (sum over p of 2 p^-m summed over m > cap) is under 1e-29
_EXPONENT_CAP = 100
_EXPONENT_CAP_REMAINDER = 1e-29


def _prime_tail_power(P: int, a: float) -> float:
    """Certified bound on sum_{p > P} p^{-a} via pi(t) < 1.26 t/log t."""
    return 1.26 * a / ((a - 1.0) * log(P)) * P ** (1.0 - a)


def _prime_tail_power_log(P: int, a: float) -> float:
    """Certified bound on sum_{p > P} log(p) p^{-a}."""
    return 1.26 * a / (a - 1.0) * P ** (1.0 - a)


@lru_cache(maxsize=32)
def log_factor_constants(
    q: int, prime_cutoff: int = 10**6, tol: float = 1e-4
) -> tuple[Certified, Certified]:
    """Product at 1 and its negative log-derivative for the log branch.

    Returns (product, logderiv) where
    product  = prod_p (1 + sum_m t[m] p^{-m}),
    logderiv = -sum_p log p * (sum_m m t[m] p^{-m}) / (1 + sum_m t[m] p^{-m}),
    with t[m] = chi(m+1) - chi(m) supported on m in [start, q).
    """
    case = classify(q)
    if case.branch is not Branch.PM1_MOD8:
        raise ClassificationError(
            f"q={q} is in branch {case.branch.value}, which has no log-branch product"
        )
    if prime_cutoff < 100 or prime_cutoff > MAX_PRIME_CUTOFF:
        raise ArgumentError(
            f"prime cutoff must lie in [100, {MAX_PRIME_CUTOFF}]"
        )
    c = case.log_factor_start
    # tails: |factor - 1| <= 4 p^{-c} so |log factor| <= 8 p^{-c} once
    # p^{-c} <= 1/8; numerator of the logderiv term is <= 4(c+1) p^{-c}
    tail_log_product = 8.0 * _prime_tail_power(prime_cutoff, float(c))
    tail_logderiv = 4.2 * (c + 1) * _prime_tail_power_log(prime_cutoff, float(c))
    if max(tail_log_product, tail_logderiv) > tol:
        raise PrecisionError(
            f"prime tail at cutoff {prime_cutoff} only certifies "
            f"{max(tail_log_product, tail_logderiv):.3e}",
            achievable=max(tail_log_product, tail_logderiv),
        )
    steps = _step_coeffs(q, -1)[: _EXPONENT_CAP + 1]
    coeffs = [(m, int(steps[m])) for m in np.flatnonzero(steps).tolist()]
    p = np.asarray(primes_up_to(prime_cutoff), dtype=np.float64)
    factor = np.ones_like(p)
    deriv_num = np.zeros_like(p)
    for m, t in coeffs:
        pw = p ** (-float(m))
        factor += t * pw
        deriv_num += (m * t) * pw
    if not ((factor > 0.0).all() and (factor < 2.0).all()):
        bad = int(p[np.argmin(factor)])
        raise ArgumentError(
            f"local factor outside (0, 2) at p={bad}; coefficients corrupt"
        )
    logs = np.log(factor)
    log_prod = fsum(logs.tolist())
    deriv_terms = np.log(p) * deriv_num / factor
    logderiv = -fsum(deriv_terms.tolist())
    # rounding allowance: each factor entry accumulates <= (#coeffs + 2)
    # charges of 2 ulps on quantities <= 2; logs and the deriv quotient add
    # a few more; fsum itself is exactly rounded
    per_term = (len(coeffs) + 6) * _R2
    rounding_logs = per_term * len(p) + _EXPONENT_CAP_REMAINDER
    rounding_deriv = per_term * float(np.sum(np.abs(deriv_terms))) + per_term * len(p) * 1e-2
    product = exp(log_prod)
    err_product = product * (exp(tail_log_product + rounding_logs) - 1.0) + product * _R2
    err_logderiv = tail_logderiv + rounding_deriv + abs(logderiv) * _R2
    return (
        Certified(product, err_product),
        Certified(logderiv, err_logderiv),
    )


@lru_cache(maxsize=32)
def sqrt_factor_at_half(
    q: int, prime_cutoff: int = 10**8, tol: float = 2e-4
) -> Certified:
    """The sqrt-branch product at the half-line:
    prod_p (1 + sum_m t[m] p^{-m/2}) with t[m] = chi(m+1) + chi(m), m >= 3.
    """
    case = classify(q)
    if case.branch is not Branch.PM11_MOD24:
        raise ClassificationError(
            f"q={q} is in branch {case.branch.value}, which has no sqrt-branch product"
        )
    if prime_cutoff < 100 or prime_cutoff > MAX_PRIME_CUTOFF:
        raise ArgumentError(
            f"prime cutoff must lie in [100, {MAX_PRIME_CUTOFF}]"
        )
    # |factor - 1| <= 2 p^{-3/2}/(1 - p^{-1/2}); for p > 100 the geometric
    # correction is < 1.12, and |log(1+x)| <= 1.02|x| for |x| <= 0.03
    tail = 2.29 * _prime_tail_power(prime_cutoff, 1.5)
    if tail > tol:
        raise PrecisionError(
            f"prime tail at cutoff {prime_cutoff} only certifies {tail:.3e}",
            achievable=tail,
        )
    steps = _step_coeffs(q, +1)[: _EXPONENT_CAP + 1]
    coeffs = [(m, int(steps[m])) for m in np.flatnonzero(steps).tolist()]
    n_primes = 0
    # segments keep peak memory flat at large cutoffs
    seg = 4 * 10**6
    parts: list[float] = []
    all_primes = primes_up_to(prime_cutoff)
    for i in range(0, len(all_primes), seg):
        p = all_primes[i : i + seg].astype(np.float64)
        n_primes += len(p)
        rt = p ** (-0.5)
        factor = np.ones_like(p)
        for m, t in coeffs:
            factor += t * rt ** m
        if not (factor > 0.0).all():
            bad = int(p[np.argmin(factor)])
            raise ArgumentError(
                f"local factor nonpositive at p={bad}; coefficients corrupt"
            )
        parts.append(fsum(np.log(factor).tolist()))
    log_prod = fsum(parts)
    per_term = (len(coeffs) + 6) * _R2
    rounding = per_term * n_primes + _EXPONENT_CAP_REMAINDER
    value = exp(log_prod)
    err = value * (exp(tail + rounding) - 1.0) + value * _R2
    return Certified(value, err)


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
    euler_gamma: Certified

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
def main_term_params(
    q: int,
    prime_cutoff: int | None = None,
    tol: float = 1e-4,
) -> MainTermParams:
    """Assemble every certified constant the branch main term needs."""
    case = classify(q)
    zq = zeta_real(float(q), min(tol, 1e-12))
    zpq = None
    p1 = ld1 = None
    zhq = rhalf = None
    if case.branch is Branch.PM1_MOD8:
        zpq = zeta_prime_real(float(q), min(tol, 1e-12))
        p1, ld1 = log_factor_constants(
            q, prime_cutoff if prime_cutoff else 10**6, tol
        )
    elif case.branch is Branch.PM11_MOD24:
        zhq = zeta_real(q / 2.0, min(tol, 1e-12))
        rhalf = sqrt_factor_at_half(
            q, prime_cutoff if prime_cutoff else 10**8, tol
        )
    return MainTermParams(
        q=q,
        case=case,
        zeta_q=zq,
        zeta_prime_q=zpq,
        product_at_one=p1,
        logderiv_at_one=ld1,
        zeta_half_q=zhq,
        sqrt_product_half=rhalf,
        euler_gamma=GAMMA,
    )


X_FLOOR = exp(4.0)  # asymptotics are stated for x at or above e^4


@dataclass(frozen=True)
class MainTerm:
    value: float
    error: float
    kind: str  # "log" | "sqrt" | "exact_cuberoot" | "upper_bound_only"


def main_term(q: int, x: float, params: MainTermParams | None = None) -> MainTerm:
    """Branch-appropriate main term at x.

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
    if case.branch is Branch.Q_EQUALS_3:
        v = float(x) ** (1.0 / 3.0)
        return MainTerm(v, 4.0 * _ULP * v, "exact_cuberoot")
    if case.branch is Branch.PM5_MOD24:
        return MainTerm(0.0, 0.0, "upper_bound_only")
    if case.branch is Branch.PM1_MOD8:
        lead = params.leading_coefficient
        bracket = (
            Certified(log(x), _R2 * abs(log(x)))
            + params.euler_gamma.scale(2.0)
            + params.bracket_constant
        )
        total = (lead * bracket).scale(float(x))
        return MainTerm(total.value, total.error, "log")
    lead = params.leading_coefficient
    rx = x**0.5
    total = lead.scale(rx)
    return MainTerm(total.value, total.error + 2.0 * _ULP * abs(total.value), "sqrt")
