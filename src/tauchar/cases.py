"""Residue-class classification of an odd prime modulus and the local Euler
factors it selects.

``classify`` is the one place that reads q mod 8, 24 and 120.  Every other
decision that depends on the residue class of q, including which local
Euler factor ``local_factor`` returns, dispatches on its ``CaseClass``.  The
factors are integer rational functions of u = p^(-s) whose denominators
have constant term 1, so they expand by integer long division.

This module imports no numpy and no ``constants``: ``verify`` and the
summatory walks classify and expand factors without loading either, and
``constants`` re-exports its public names for the certified main terms.
"""

from enum import Enum
from fractions import Fraction
from math import exp
from typing import NamedTuple

from ._record import Record
from .arith import _jacobi, is_prime
from .errors import ArgumentError, ClassificationError

# best published upper bound for the divisor-problem exponent
THETA_UPPER = Fraction(131, 416)

X_FLOOR = exp(4.0)  # asymptotics are stated for x at or above e^4


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


class CaseClass(NamedTuple):
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


def _step_coeffs(q: int, sign: int) -> list[int]:
    """t[m] = chi(m+1) + sign*chi(m) for m = 0..q-1, with the unused t[0] and
    t[1] set to 0 (chi the Legendre symbol mod q, read off the nonzero
    squares)."""
    chi = [-1] * q
    chi[0] = 0
    for i in range(1, (q + 1) // 2):
        chi[i * i % q] = 1
    t = [chi[(m + 1) % q] + sign * chi[m] for m in range(q)]
    t[0] = t[1] = 0
    return t


def _start_exponent(q: int, sign: int) -> int | None:
    """The least m >= 2 with chi(m+1) + sign*chi(m) != 0, by the Jacobi
    symbol, so only the first few entries of the step row are evaluated."""
    upper = _jacobi(2, q)
    for m in range(2, q):
        lower, upper = upper, _jacobi(m + 1, q)
        if upper + sign * lower:
            return m
    return None


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
    start = _start_exponent(q, -1 if log_branch else +1)
    if start is None:
        raise ClassificationError(
            f"no nonzero step coefficient for modulus {q}; table corrupt"
        )
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


class LocalFactor(Record):
    """Euler factor at a prime p, as a rational function of u = p^(-s).

    ``numerator`` / ``denominator`` are integer polynomial coefficients in u,
    constant term first; both constant terms are 1.  Every factor in scope
    is the same at every prime.
    """

    __slots__ = ("name", "numerator", "denominator")

    def __init__(
        self, name: str, numerator: tuple[int, ...], denominator: tuple[int, ...]
    ):
        if not denominator or denominator[0] != 1:
            raise ArgumentError(
                f"local factor {name!r} needs a denominator with constant term 1"
            )
        if not numerator or numerator[0] != 1:
            raise ArgumentError(
                f"local factor {name!r} needs a numerator with constant term 1"
            )
        self._set(name=name, numerator=numerator, denominator=denominator)

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
    base = [1] + t[1:]
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
        num = base + [0, 0]
        for m, c in enumerate(base):
            num[m + 2] += c
        kind, den, low = case.sub.value, (1, 0, -1), (-2, 0, 2, 2)
    elif case.sub is SubBranch.PM43_53_MOD120:
        den = (1, 0, -2, 0, 0, 0, 2, 0, -1)
        kind, num, low = case.sub.value, base, (-2, 0, 0, 0)
    else:
        raise ClassificationError(
            f"q={q} is in case {(case.sub or case.branch).value}, which has no "
            "local factor"
        )
    got = tuple(t[2 : 2 + len(low)])
    if got != low:
        raise ArgumentError(
            f"q={q}: low-order terms t2.. = {got}, expected {low}"
        )
    return LocalFactor(f"{kind}[q={q}]", tuple(num), den)
