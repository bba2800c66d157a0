"""Counting integers near the curve X/n^s and short-interval decompositions.

The central counter R(f, N, delta) is the number of integers n in a window
with distance from f(n) = X/n^s to the nearest integer strictly below delta.
Two routes exist:

* exact: when X^2 and delta^2 are rational and 2s is an integer, the
  predicate ||sqrt(u) - k|| < delta (u = X^2/n^{2s}) reduces to sign-safe
  inequalities — (sqrt(u) - k)^2 < delta^2 iff 2k sqrt(u) >
  u + k^2 - delta^2, squared once more when the right side is positive —
  cross-multiplied into Python integers: with u = A/M and delta^2 = P/Q,
  ``_near_integer_sq(A, M, P, Q)``.  No floating point, no rationals, no
  misclassification.
* general: an outward-rounded fixed-point enclosure of the distance, in
  the integer arithmetic of ``constants`` (imported inside this route
  only), compared with delta's exact rational; a point whose enclosure
  contains delta raises a hard error listing the offending n rather than
  guessing.

The short-interval machinery specializes to the fifth-power curve
f(n) = sqrt(x/n^5).  The fifth-power convolution, the Dirichlet product of
mu(sqrt(m)) on squares m with the fifth-power indicator, has c(m) = sum of
mu(d) over the pairs (d, n) with d^2 n^5 = m.  So its window sum over
(x, x+y] is the sum of mu(d) over the pairs with x < d^2 n^5 <= x+y, and
the number of those pairs (the double count) bounds it.  The one scan,
``range_scan``, splits the n-range into dyadic windows and reports exact
counts against three derivative-test bound shapes with implied constant 1
(never asserted: the true constants are unknown).  It runs on integers:
with x = A/L and x + y = B/L, floor(x/m^5) = A // (L m^5), and each n
takes the integer predicate above with M = L n^5.  The trivial bound, the
sum of tau over (x, x+y], is D(x+y) - D(x) in one pass of
``_kernels.divisor_window``.
So a scan loads neither ``summatory`` nor ``sieves``.
"""

from fractions import Fraction
from math import inf, isqrt, lcm, log
from typing import NamedTuple

import numpy as np

from ._kernels import DEFAULT_SEGMENT, divisor_window, factor_block
from ._record import Record
from .arith import check_budget
from .errors import ArgumentError, TaucharError, UndecidablePointError
from .roots import floor_rational_root, integer_nth_root
from .powerful import prime_list


def _to_fraction(v) -> Fraction:
    """Exact conversion; floats convert by their exact binary value."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        if v != v or v in (float("inf"), float("-inf")):
            raise ArgumentError(f"non-finite value {v}")
        return Fraction(v)
    raise ArgumentError(f"expected int, float or Fraction, got {type(v).__name__}")


class CurveConfig(Record):
    """Window and threshold for counting integers near X/n^s.

    ``X`` and ``delta`` are the working float values; ``X_sq`` and
    ``delta_sq`` optionally carry exact squares enabling the exact route
    (requires 2s integral).  The window is the closed range [N, 2N].
    """

    __slots__ = ("X", "s", "N", "delta", "X_sq", "delta_sq")

    def __init__(
        self,
        X: float,
        s: Fraction,
        N: int,
        delta: float,
        X_sq: Fraction | None = None,
        delta_sq: Fraction | None = None,
    ):
        if N < 1:
            raise ArgumentError(f"window base must be >= 1, got {N}")
        if not 0.0 < delta < 0.25:
            raise ArgumentError(f"delta must lie in (0, 1/4), got {delta}")
        if not isinstance(s, Fraction):
            s = Fraction(s)
        if s <= 0:
            raise ArgumentError(f"exponent must be positive, got {s}")
        if not X > 0:
            raise ArgumentError(f"X must be positive, got {X}")
        if X_sq is not None:
            if X_sq <= 0:
                raise ArgumentError("X_sq must be positive")
            if abs(float(X_sq) - X * X) > 1e-6 * max(1.0, X * X):
                raise ArgumentError("X and X_sq disagree")
        if delta_sq is not None:
            if not Fraction(0) < delta_sq < Fraction(1, 16):
                raise ArgumentError("delta_sq must lie in (0, 1/16)")
            if abs(float(delta_sq) - delta * delta) > 1e-6:
                raise ArgumentError("delta and delta_sq disagree")
        self._set(X=X, s=s, N=N, delta=delta, X_sq=X_sq, delta_sq=delta_sq)

    @classmethod
    def from_exact(cls, X_sq, s, N: int, delta_sq) -> "CurveConfig":
        """Exact-route config; float fields are derived for display."""
        X_sq = _to_fraction(X_sq)
        delta_sq = _to_fraction(delta_sq)
        return cls(
            X=float(X_sq) ** 0.5,
            s=Fraction(s),
            N=int(N),
            delta=float(delta_sq) ** 0.5,
            X_sq=X_sq,
            delta_sq=delta_sq,
        )

    @property
    def exact_capable(self) -> bool:
        return (
            self.X_sq is not None
            and self.delta_sq is not None
            and (2 * self.s).denominator == 1
        )


def _near_integer_sq(A: int, M: int, P: int, Q: int) -> bool:
    """Exact predicate: sqrt(u), u = A/M, lies strictly within
    sqrt(delta^2), delta^2 = P/Q, of an integer (A, P >= 0; M, Q > 0).

    For k in {floor(sqrt(u)), floor(sqrt(u)) + 1} (one of which is nearest):
    (sqrt(u) - k)^2 < delta^2  iff  2k sqrt(u) > u + k^2 - delta^2.  Times
    MQ > 0 the right side is r = AQ + (k^2 Q - P) M; when r < 0 the test
    holds, else both sides square to 4 k^2 A M Q^2 > r^2.
    """
    k0 = isqrt(A // M)
    for k in (k0, k0 + 1):
        r = A * Q + (k * k * Q - P) * M
        if r < 0 or k and 4 * k * k * A * M * Q * Q > r * r:
            return True
    return False


def _count_exact(cfg: CurveConfig, n_lo: int, n_hi: int) -> int:
    A, L, two_s = cfg.X_sq.numerator, cfg.X_sq.denominator, int(2 * cfg.s)
    P, Q = cfg.delta_sq.numerator, cfg.delta_sq.denominator
    return sum(_near_integer_sq(A, L * n**two_s, P, Q) for n in range(n_lo, n_hi + 1))


def _count_general(cfg: CurveConfig, n_lo: int, n_hi: int) -> int:
    """Count by an interval enclosure of ||X n^-s|| for each n.

    t = X n^-s is enclosed in fixed point, [lo, hi] 2^-F, by
    constants._inv_power: isqrt when 2s is an integer, exp(-s log n)
    otherwise.  The integer nearest any point of t lies in
    [floor(lo 2^-F), ceil(hi 2^-F)], so the least distance to those
    integers, taken at each end, encloses ||t||.  An n counts when that
    enclosure lies below delta, compared as exact integers; an n whose
    enclosure contains delta raises UndecidablePointError.
    """
    from .constants import _FRAC, _fx, _fx_mul, _inv_power

    X = _fx(*Fraction(cfg.X).as_integer_ratio())
    delta = Fraction(cfg.delta)
    # a distance d 2^-F is below delta = p/q when d q < p 2^F
    num, den = delta.numerator << _FRAC, delta.denominator
    cnt = 0
    undecidable: list[int] = []
    for n in range(n_lo, n_hi + 1):
        lo, hi = _fx_mul(X, _inv_power(n, cfg.s))
        near_lo = near_hi = inf  # least of the lower and of the upper ends
        for k in range(lo >> _FRAC, -(-hi >> _FRAC) + 1):
            K = k << _FRAC
            ends = abs(lo - K), abs(hi - K)
            near_lo = min(near_lo, 0 if lo <= K <= hi else min(ends))
            near_hi = min(near_hi, max(ends))
        if near_lo * den <= num <= near_hi * den:
            undecidable.append(n)
        elif near_hi * den < num:
            cnt += 1
    if undecidable:
        raise UndecidablePointError(
            "the distance enclosure contains the threshold at "
            f"{len(undecidable)} point(s); supply exact payloads to decide",
            points=undecidable,
        )
    return cnt


def count_near_curve(cfg: CurveConfig) -> int:
    """Number of n in [N, 2N] with ||X/n^s|| strictly below delta.

    Uses exact rational arithmetic when the config carries exact squares
    (and 2s is an integer); otherwise interval enclosures that raise rather
    than misclassify a point whose enclosure contains delta.
    """
    check_budget(2 * cfg.N, "near-curve window")
    if cfg.exact_capable:
        return _count_exact(cfg, cfg.N, 2 * cfg.N)
    return _count_general(cfg, cfg.N, 2 * cfg.N)


class ShortIntervalInstance(Record):
    """The window (x, x+y] for the fifth-power short sum, with the scan
    constant c3 and exact precondition flags."""

    __slots__ = ("x", "y", "c3")

    def __init__(self, x: Fraction, y: Fraction, c3: Fraction = Fraction(1, 4)):
        x, y, c3 = _to_fraction(x), _to_fraction(y), _to_fraction(c3)
        if x < 1:
            raise ArgumentError(f"x must be >= 1, got {x}")
        if not 0 <= y <= x:
            raise ArgumentError("need 0 <= y <= x")
        if not Fraction(0) < c3 <= Fraction(1, 4):
            raise ArgumentError(f"c3 must lie in (0, 1/4], got {c3}")
        self._set(x=x, y=y, c3=c3)

    @property
    def y_within_11_20(self) -> bool:
        """Exact test of y <= c3 * x^(11/20)."""
        return (self.y / self.c3) ** 20 <= self.x**11

    @property
    def y_within_19_36(self) -> bool:
        """Exact test of y <= c3 * x^(19/36)."""
        return (self.y / self.c3) ** 36 <= self.x**19


def _window_ints(x: Fraction, y: Fraction) -> tuple[int, int, int]:
    """(A, B, L) with x = A/L and x + y = B/L."""
    L = lcm(x.denominator, y.denominator)
    A = x.numerator * (L // x.denominator)
    return A, A + y.numerator * (L // y.denominator), L


def _pair_window(A: int, B: int, M: int) -> tuple[int, int]:
    """(lo, hi) with A < d^2 M <= B exactly when lo < d <= hi; for x = A/L,
    x + y = B/L and M = L n^5 that is x < d^2 n^5 <= x+y."""
    return isqrt(A // M), isqrt(B // M)


def short_interval_sum(inst: ShortIntervalInstance) -> int:
    """Exact sum of the fifth-power convolution over (x, x+y].

    The sum of mu(d) over the pairs (d, n) with x < d^2 n^5 <= x+y; for each
    n <= (x+y)^(1/5) the block kernel factors the d-window in segments.
    """
    A, B, L = _window_ints(inst.x, inst.y)
    top = B // L
    primes = prime_list(isqrt(isqrt(top)))
    mu = [1, -1] + [0] * top.bit_length()
    total = 0
    for n in range(1, integer_nth_root(top, 5) + 1):
        lo, hi = _pair_window(A, B, L * n**5)
        for a in range(lo + 1, hi + 1, DEFAULT_SEGMENT):
            block = factor_block(a, min(a + DEFAULT_SEGMENT, hi + 1), primes, mu)
            total += int(np.sum(block, dtype=np.int64))
    return total


class BoundShapes(NamedTuple):
    """The three derivative-test bound shapes at one window, constant 1."""

    N: int
    delta: float
    fifth_derivative: float
    filaseta_trifonov: float
    first_derivative: float
    lambda4: float
    lambda5: float
    lambda1_at_base: float
    lambda1_at_top: float
    ft_condition_ok: bool  # N^2 delta <= c3, exact
    ft_domain_ok: bool  # N <= X^(1/s) for X = sqrt(x), s = 5/2, exact
    applicable: str


def _applicable_shape(n: int, x: Fraction) -> str:
    """Range membership per the three-way split at 2x^(1/10) and 2x^(1/6)."""
    if Fraction(n) ** 10 <= 1024 * x:
        return "fifth_derivative"
    if Fraction(n) ** 6 <= 64 * x:
        return "filaseta_trifonov"
    return "first_derivative"


def bound_shapes(
    N: int, x, y, c3=Fraction(1, 4), delta_sq: Fraction | None = None
) -> BoundShapes:
    """Evaluate all three bound shapes at window base N for the canonical
    curve sqrt(x/n^5) with delta = y / sqrt(N^5 x) (or a supplied delta^2)."""
    x = _to_fraction(x)
    y = _to_fraction(y)
    c3 = _to_fraction(c3)
    if N < 1:
        raise ArgumentError(f"N must be >= 1, got {N}")
    if delta_sq is None:
        delta_sq = y * y / (Fraction(N) ** 5 * x)
    xf = float(x)
    delta = float(delta_sq) ** 0.5
    lam5 = (xf * float(N) ** -15) ** 0.5
    lam4 = (xf * float(N) ** -13) ** 0.5
    fifth = N * lam5 ** (1 / 15) + N * delta ** (1 / 6) + (delta / lam4) ** 0.25 + 1
    rootx = xf**0.5
    ft = (rootx * N**0.5) ** (1 / 7) + delta * (rootx * float(N) ** 56.5) ** (1 / 21)
    lam1_base = 2.5 * rootx * float(N) ** -3.5
    lam1_top = 2.5 * rootx * float(2 * N) ** -3.5
    first = N * lam1_base + N * delta + delta / lam1_base + 1
    # exact flags: (N^2 delta)^2 <= c3^2  and  N <= (sqrt(x))^(2/5) i.e. N^10 <= x^2
    ft_cond = Fraction(N) ** 4 * delta_sq <= c3 * c3
    ft_dom = Fraction(N) ** 10 <= x * x
    return BoundShapes(
        N=N,
        delta=delta,
        fifth_derivative=fifth,
        filaseta_trifonov=ft,
        first_derivative=first,
        lambda4=lam4,
        lambda5=lam5,
        lambda1_at_base=lam1_base,
        lambda1_at_top=lam1_top,
        ft_condition_ok=ft_cond,
        ft_domain_ok=ft_dom,
        applicable=_applicable_shape(N, x),
    )


class ScanRow(NamedTuple):
    """One dyadic-window piece of the n-scan.

    ``n_lo``/``n_hi`` are inclusive; ``delta_sq`` = y^2/(n_lo^5 x) so the
    threshold is valid for every n >= n_lo in the piece.  ``window_double``
    counts pairs (d, n) with x < d^2 n^5 <= x+y and n in the piece;
    ``near_curve_count`` is the exact R over the piece.  ``shape`` is the
    derivative test whose range holds n_lo, ``shape_value`` its bound with
    constant 1 and ``ratio`` the count over it; ``ft_condition_ok`` is set
    only on a filaseta_trifonov piece.
    """

    window_base: int
    n_lo: int
    n_hi: int
    delta_sq: Fraction
    delta: float
    window_double: int
    near_curve_count: int
    shape: str
    shape_value: float
    ft_condition_ok: bool | None
    ratio: float


class RangeScanReport(NamedTuple):
    """Exact short-interval accounting plus per-window bound comparisons.

    Invariants (enforced): the pieces tile (n_min - 1, n_max] with no gaps
    or overlaps; every piece satisfies the exact threshold guard
    16 y^2 < n_lo^5 x; summed piece double counts plus the small-n part
    equal the total double count; |short_sum| <= total_double.
    """

    x: Fraction
    y: Fraction
    c3: Fraction
    y_within_11_20: bool
    y_within_19_36: bool
    n_min: int
    n_max: int
    rows: tuple[ScanRow, ...]
    small_n_double: int
    total_double: int
    short_sum: int
    trivial_bound: int
    assembled_bound: float
    ratio_short_to_assembled: float | None


def range_scan(inst: ShortIntervalInstance) -> RangeScanReport:
    """The scan: exact double count, per-window pieces with exact near-curve
    counts and threshold guards, each against its bound shape, and the
    assembled right-hand side (x^(1/12) + y x^(-4/9)) log x with the ratio
    of |short sum| to it."""
    x, y, c3 = inst.x, inst.y, inst.c3
    A, B, L = _window_ints(x, y)
    # the sum of tau over (x, x+y]; D(x + y) refuses x + y above
    # MAX_EXACT_X, so ask before the scan
    trivial = divisor_window(A // L, B // L)
    # scan interval: n > (16 y^2 / x)^(1/5)  and  n <= (2x)^(1/5), exactly
    n_min = floor_rational_root(16 * (B - A) ** 2, A * L, 5) + 1
    n_max = floor_rational_root(2 * A, L, 5)
    b1 = floor_rational_root(1024 * A, L, 10)  # n <= 2 x^(1/10)
    b2 = floor_rational_root(64 * A, L, 6)  # n <= 2 x^(1/6)

    small_n = 0
    for n in range(1, min(n_min, n_max + 1)):
        lo, hi = _pair_window(A, B, L * n**5)
        small_n += hi - lo
    rows: list[ScanRow] = []
    total = small_n
    n = n_min
    while n <= n_max:
        base = 1 << (n.bit_length() - 1)  # dyadic window [base, 2*base)
        hi = min(2 * base - 1, n_max)
        # split additionally at the derivative-test range boundaries
        for b in (b1, b2):
            if n <= b < hi:
                hi = b
        # 16 y^2 < n^5 x, times L^2
        if 16 * (B - A) ** 2 >= n**5 * A * L:
            raise TaucharError(
                f"threshold guard failed at n={n}; scan bounds inconsistent"
            )
        dsq = Fraction((B - A) ** 2, L * n**5 * A)  # y^2 / (n^5 x)
        P, Q = dsq.numerator, dsq.denominator
        window_double = 0
        r_count = 0
        for m in range(n, hi + 1):
            M = L * m**5
            d_lo, d_hi = _pair_window(A, B, M)
            c = d_hi - d_lo
            if c > 1:
                # the d^2-interval has length y/m^5 < 1 here, so one d at most
                raise TaucharError(f"{c} pairs at n={m}; scan bounds inconsistent")
            near = P > 0 and _near_integer_sq(A, M, P, Q)
            if c > near:
                # a pair means the curve point sits within the gap, and the
                # gap is strictly below the threshold for every m >= n
                raise TaucharError(
                    f"pair at n={m} not captured by the near-curve count"
                )
            window_double += c
            r_count += near
        total += window_double
        shapes = bound_shapes(n, x, y, c3, delta_sq=dsq if dsq > 0 else None)
        shape = shapes.applicable
        shape_value = getattr(shapes, shape)
        ft_ok = shapes.ft_condition_ok if shape == "filaseta_trifonov" else None
        rows.append(
            ScanRow(
                window_base=base,
                n_lo=n,
                n_hi=hi,
                delta_sq=dsq,
                delta=float(dsq) ** 0.5,
                window_double=window_double,
                near_curve_count=r_count,
                shape=shape,
                shape_value=shape_value,
                ft_condition_ok=ft_ok,
                ratio=r_count / shape_value,
            )
        )
        n = hi + 1

    short = short_interval_sum(inst)
    if abs(short) > total:
        raise TaucharError(
            f"|short sum| = {abs(short)} exceeds the double count {total}; "
            "the short sum or the pair count is wrong"
        )
    xf = float(x)
    assembled = (xf ** (1 / 12) + float(y) * xf ** (-4 / 9)) * log(xf)
    return RangeScanReport(
        x=x,
        y=y,
        c3=c3,
        y_within_11_20=inst.y_within_11_20,
        y_within_19_36=inst.y_within_19_36,
        n_min=n_min,
        n_max=n_max,
        rows=tuple(rows),
        small_n_double=small_n,
        total_double=total,
        short_sum=short,
        trivial_bound=trivial,
        assembled_bound=assembled,
        ratio_short_to_assembled=abs(short) / assembled if assembled else None,
    )
