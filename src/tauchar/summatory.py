"""Large-argument summatory computations and residual diagnostics.

The central quantity is S(x) = sum over d <= x of tauchar(d) * floor(x/d),
the partial sum of f = tauchar * 1.  f is multiplicative with
f(p^e) = sum_{k <= e+1} (k/q), independent of p, so f(p) = 1 + (2/q):

* q = +-3 (mod 8): f(p) = 0 and f(p^2) = (3/q) =: s, so F(u) =
  (1-u^2)^(-s) H(u), H(u) = 1 + O(u^3), and S(x) = sum_{m cube-full}
  H(m) A(x/m), with A(y) = isqrt(y) for s = 1, 1 for s = 0 (q = 3) and
  M(isqrt(y)), M the Mertens function, for s = -1 (q = +-5 mod 24);
* q = +-1 (mod 8): f(p) = 2 = tau(p), so h = f * tau^{-1} (local series
  F(u)(1-u)^2) lives on powerful numbers and
  S(x) = sum_{n powerful} h(n) D(x/n), D the divisor summatory function.

One depth-first walk up to the top checkpoint (``powerful.powerful_walk``)
gives every checkpoint.  On the +-3 branch it visits the ~4.6 x^(1/3)
cube-full m (Bateman and Grosswald 1958), summed as it runs in Python
integers: memory is O(pi(x^(1/3))) plus the memo of M, and no numpy.  On
the +-1 branch the walk is packed into int64 arrays, sorted
(``sieves.powerful_terms``), and D(y) costs O(sqrt y) by the hyperbola
method in numpy: ``_kernels.divisor_window``, float64 below 2^53 and int64
above.  For q = +-1 (mod 24) h vanishes at p^2 and p^3, so the walk visits
only the 4-full numbers, over the primes to x^(1/4).  Nothing of size x
is built, and every int64 intermediate is guarded by MAX_EXACT_X.
Everything float-valued here is derived from exact integers and certified
constants, so residuals carry honest error intervals.

numpy, ``_kernels`` and ``sieves`` are imported inside the functions that
use them: D and the +-1 branch.  ``constants`` is imported inside
``trace``, the one caller of its main terms.  The identity scans, which
compare a * 1 with the jumps of an identity's right side coefficient by
coefficient, live in ``dirichlet`` with the routes they share tables with.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import exp, inf, isqrt, log
from typing import NamedTuple

from .arith import MAX_EXACT_X, _jacobi, is_prime
from .cases import THETA_UPPER, X_FLOOR, Branch, CaseClass, classify
from .errors import ArgumentError, ClassificationError, OverflowHardError
from .powerful import powerful_walk
from .roots import integer_nth_root

DEFAULT_LIMIT = 10**8


def _validate_x(x: int, limit: int) -> int:
    x = int(x)
    if x < 1:
        raise ArgumentError(f"x must be >= 1, got {x}")
    if x > limit:
        raise ArgumentError(
            f"x = {x} exceeds the configured limit {limit}; raise the limit "
            "explicitly to accept the cost"
        )
    if x > MAX_EXACT_X:
        raise OverflowHardError(
            f"x = {x} exceeds MAX_EXACT_X = 2^57, beyond which int64 "
            "intermediates could overflow"
        )
    return x


def divisor_summatory(y: int) -> int:
    """D(y) = sum_{n <= y} tau(n), exactly, for 0 <= y <= MAX_EXACT_X, by
    ``_kernels.divisor_window(0, y)``: O(sqrt y) time, O(1) memory."""
    y = int(y)
    if y < 0:
        raise ArgumentError(f"D(y) needs y >= 0, got {y}")
    from ._kernels import divisor_window

    return divisor_window(0, y)


def _local_weights(q: int, emax: int) -> tuple[list[int], int | None]:
    """Local weights w[0..emax], w[0] = 1 and w[1] = 0, and s.

    On q = +-3 (mod 8), w = H, the coefficients of F(u)(1-u^2)^s with
    s = f(p^2) = (3/q); else w = h, those of F(u)(1-u)^2, and s is None.
    """
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ArgumentError(f"modulus must be an odd prime, got {q}")
    f = list(accumulate(_jacobi(k, q) for k in range(1, emax + 2)))
    s = f[2] if f[1] == 0 else None
    # F(u) times (1-u)^2, or times (1-u^2)^s: 1 - u^2, 1 or 1 + u^2 + u^4 + ...
    c = {None: [1, -2, 1], 1: [1, 0, -1], 0: [1], -1: [1, 0] * emax}[s]
    w = [sum(a * f[e - j] for j, a in enumerate(c[: e + 1])) for e in range(emax + 1)]
    return w, s


def _mertens(z: int, memo: dict[int, int]) -> int:
    """M(z) by M(z) = 1 - sum_{2 <= k <= z} M(z // k), the k of one quotient
    taken together (Deleglise and Rivat 1996); ``memo`` keeps every M found."""
    if z not in memo:
        value, k = min(z, 1), 2  # M(0) = 0
        while k <= z:
            k_next = z // (z // k) + 1
            value -= (k_next - k) * _mertens(z // k, memo)
            k = k_next
        memo[z] = value
    return memo[z]


def _cube_full_sums(s: int, cps: tuple[int, ...], walk) -> list[int]:
    """sum_m H(m) A(x // m) at each checkpoint x over the cube-full m of
    ``walk = powerful_walk(H, cps[-1])``; for s = 0 (A = 1) each H(m) goes
    to the first checkpoint at or above m, then prefix sums."""
    _, nodes = walk
    if s == 0:
        part = [0] * len(cps)
        for m, hm, _, _ in nodes:
            part[bisect_left(cps, m)] += hm
        return list(accumulate(part))
    memo = {}  # Mertens values for this call only
    A = isqrt if s > 0 else lambda y: _mertens(isqrt(y), memo)
    sums = [0] * len(cps)
    for m, hm, _, _ in nodes:
        for i in range(bisect_left(cps, m), len(cps)):
            sums[i] += hm * A(cps[i] // m)
    return sums


def _convolved_sums(w: list[int], cps: tuple[int, ...], walk):
    """sum_{n powerful} h(n) D(x/n) at each checkpoint x in turn, h = w,
    from ``walk = powerful_walk(w, cps[-1])`` as int64 arrays sorted by n."""
    import numpy as np

    from ._kernels import divisor_window
    from .sieves import divisor_count_sieve, powerful_terms

    top = cps[-1]
    n, wn = powerful_terms(w, walk)
    wn = wn[np.argsort(n)]  # the n are distinct, so this is their sorted order
    n.sort()
    ends = np.searchsorted(n, cps, side="right")
    # D(y) for y <= top^(1/3) by table lookup; only the few n with
    # x/n above that call divisor_window
    y_small = integer_nth_root(top, 3)
    d_small = np.cumsum(divisor_count_sieve(y_small).values)
    if int(np.max(np.abs(wn))) >= 2**63 // int(d_small[-1]):
        raise OverflowHardError(f"h(n) * D(y) could overflow int64 below {top}")
    for x, end in zip(cps, ends):
        y, wy = x // n[:end], wn[:end]
        near = y <= y_small
        value = sum((wy[near] * d_small[y[near]]).tolist())
        for yd, wd in zip(y[~near].tolist(), wy[~near].tolist()):
            value += wd * divisor_window(0, yd)
        yield value


def _checkpoint_sums(q: int, cps: tuple[int, ...], progress=None) -> tuple[int, ...]:
    """Exact S(x) at every checkpoint in ascending ``cps`` by the
    powerful-number route.

    ``progress``, when given, is called as progress(stage, done, total)
    after the walk's prime sieve and after each checkpoint.
    """
    top = cps[-1]
    w, s = _local_weights(q, top.bit_length() + 1)
    walk = powerful_walk(w, top)
    if progress is not None:
        progress("sieve", 1, 1)
    sums = _convolved_sums(w, cps, walk) if s is None else _cube_full_sums(s, cps, walk)
    values = []
    for i, value in enumerate(sums):
        values.append(value)
        if progress is not None:
            progress("checkpoint", i + 1, len(cps))
    return tuple(values)


def summatory_convolved(q: int, x: int, *, limit: int = DEFAULT_LIMIT) -> int:
    """Exact S(x) = sum_{d <= x} tauchar_q(d) * floor(x / d), by the
    powerful-number route, with nothing of size x built."""
    return _checkpoint_sums(q, (_validate_x(x, limit),))[0]


def default_checkpoints(limit: int = DEFAULT_LIMIT) -> tuple[int, ...]:
    """Powers of two from 2^10 up to the limit."""
    if limit < 1024:
        raise ArgumentError(f"limit {limit} leaves no default checkpoints")
    out = []
    x = 1024
    while x <= limit:
        out.append(x)
        x *= 2
    return tuple(out)


def default_alphas(case: CaseClass) -> tuple[float, ...]:
    """Normalization exponents matching each branch's proven error scale,
    padded by 0.05 where an epsilon appears in the exponent."""
    if case.branch is Branch.PM1_MOD8:
        return (max(1.0 / case.log_factor_start, float(THETA_UPPER)) + 0.05,)
    if case.branch is Branch.PM11_MOD24:
        return (1.0 / 3.0 + 0.05,)
    if case.branch is Branch.Q_EQUALS_3:
        return (1.0 / 3.0,)
    return (0.5,)


class SummatoryTrace(NamedTuple):
    """Exact values vs main terms along a checkpoint schedule.

    ``residual_intervals`` bracket value - main_term, rounded outward from
    the exact value and the main term's certified enclosure;
    ``fitted_exponent`` is the least-squares slope of log|residual|
    against log x, exact in rationals and rounded once to a float — a
    report field, never an assertion.
    """

    q: int
    kind: str
    checkpoints: tuple[int, ...]
    values: tuple[int, ...]
    main_values: tuple[float, ...]
    main_errors: tuple[float, ...]
    residuals: tuple[float, ...]
    residual_intervals: tuple[tuple[float, float], ...]
    alphas: tuple[float, ...]
    normalized: tuple[tuple[float, ...], ...]  # normalized[i][j]: alpha_i at x_j
    fitted_exponent: float | None


def _validate_checkpoints(checkpoints, limit: int, floor: float) -> tuple[int, ...]:
    cps = tuple(int(c) for c in checkpoints)
    if not cps:
        raise ArgumentError("checkpoint list is empty")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ArgumentError("checkpoints must be strictly ascending")
    if cps[0] < floor:
        raise ArgumentError(
            f"smallest checkpoint {cps[0]} is below the asymptotic floor "
            f"{floor:.1f}"
        )
    _validate_x(cps[-1], limit)
    return cps


def trace(
    q: int,
    checkpoints=None,
    alphas=None,
    *,
    limit: int = DEFAULT_LIMIT,
    progress=None,
) -> SummatoryTrace:
    """Exact summatory values against the branch main term along checkpoints.

    ``progress``, when given, is called as progress(stage, done, total) after
    the sieve and after each checkpoint; rate limiting is the caller's job.
    """
    case = classify(q)
    if checkpoints is None:
        checkpoints = default_checkpoints(limit)
    cps = _validate_checkpoints(checkpoints, limit, X_FLOOR)
    if alphas is None:
        alphas = default_alphas(case)
    alphas = tuple(float(a) for a in alphas)
    if not all(0 < a <= 1 for a in alphas):
        raise ArgumentError(f"normalization exponents must lie in (0, 1]: {alphas}")

    from .constants import Certified, main_term, main_term_params

    params = main_term_params(q)
    values = _checkpoint_sums(q, cps, progress)
    mains = [main_term(q, x, params=params) for x in cps]
    # exact S(x) minus the main-term enclosure, rounded outward once
    diffs = [
        Certified(v) - Certified(m.value, m.error) for v, m in zip(values, mains)
    ]
    residuals = tuple(d.value for d in diffs)
    intervals = tuple(d.bounds for d in diffs)
    normalized = tuple(
        tuple(r / float(x) ** a for r, x in zip(residuals, cps)) for a in alphas
    )
    pts = [
        (log(float(x)), log(abs(r))) for x, r in zip(cps, residuals) if r != 0.0
    ]
    fitted = _slope(pts)
    return SummatoryTrace(
        q=q,
        kind=mains[0].kind,
        checkpoints=cps,
        values=values,
        main_values=tuple(m.value for m in mains),
        main_errors=tuple(m.error for m in mains),
        residuals=residuals,
        residual_intervals=intervals,
        alphas=alphas,
        normalized=normalized,
        fitted_exponent=fitted,
    )


def _slope(pts: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of y against x through the float points,
    computed exactly in rationals and rounded once; None unless at least
    two distinct x occur."""
    m = len(pts)
    xs = [Fraction(x) for x, _ in pts]
    ys = [Fraction(y) for _, y in pts]
    sx, sy = sum(xs), sum(ys)
    sxx = m * sum(x * x for x in xs) - sx * sx
    if sxx == 0:
        return None
    return float((m * sum(x * y for x, y in zip(xs, ys)) - sx * sy) / sxx)


def subexp_decay(x: float, c: float) -> float:
    """exp(-c (log x)^{3/5} (log log x)^{-1/5}); needs log log x > 0."""
    if x <= exp(1.0):
        raise ArgumentError(f"decay shape needs x > e, got {x}")
    lx = log(x)
    return exp(-c * lx ** 0.6 * log(lx) ** -0.2)


def rh_growth(x: float, eps: float) -> float:
    """exp((log x)^{1/2} (log log x)^{5/2 + eps}); needs log log x > 0."""
    if x <= exp(1.0):
        raise ArgumentError(f"growth shape needs x > e, got {x}")
    if not 0.0 < eps < 0.25:
        raise ArgumentError(f"eps must lie in (0, 1/4), got {eps}")
    lx = log(x)
    return exp(lx ** 0.5 * log(lx) ** (2.5 + eps))


class GrowthDiagnostic(NamedTuple):
    """Normalized |S(x)| against the two conjectural growth envelopes.

    ``ratio_unconditional`` divides by sqrt(x) * subexp_decay(x^{1/4}, c);
    ``ratio_conditional`` divides by x^{1/4} * rh_growth(sqrt(x), eps).
    Implied constants are unknown, so this is a report with no verdict.
    """

    q: int
    c: float
    eps: float
    checkpoints: tuple[int, ...]
    values: tuple[int, ...]
    ratio_unconditional: tuple[float, ...]
    ratio_conditional: tuple[float, ...]


def rh_diagnostic(
    q: int,
    checkpoints=None,
    *,
    eps: float = 0.01,
    c: float = 0.2,
    limit: int = DEFAULT_LIMIT,
    progress=None,
) -> GrowthDiagnostic:
    """Growth-envelope ratios for the branch with no main term."""
    case = classify(q)
    if case.branch is not Branch.PM5_MOD24:
        raise ClassificationError(
            f"growth diagnostic applies to the +-5 mod 24 branch only; "
            f"q={q} is {case.branch.value}"
        )
    if not 0.0 < eps < 0.25:
        raise ArgumentError(f"eps must lie in (0, 1/4), got {eps}")
    if not 0 < c < inf:
        raise ArgumentError(f"c must be positive and finite, got {c}")
    if checkpoints is None:
        checkpoints = default_checkpoints(limit)
    cps = _validate_checkpoints(checkpoints, limit, X_FLOOR)
    # only the decaying envelope can reach 0.0; rh_growth is at least 1
    decay = [float(x) ** 0.5 * subexp_decay(float(x) ** 0.25, c) for x in cps]
    if 0.0 in decay:
        x = cps[decay.index(0.0)]
        raise ArgumentError(f"the envelope with c={c} underflows to 0 at x={x}")
    values = _checkpoint_sums(q, cps, progress)
    uncond = tuple(abs(v) / d for v, d in zip(values, decay))
    cond = tuple(
        abs(v) / (float(x) ** 0.25 * rh_growth(float(x) ** 0.5, eps))
        for v, x in zip(values, cps)
    )
    return GrowthDiagnostic(
        q=q,
        c=c,
        eps=eps,
        checkpoints=cps,
        values=values,
        ratio_unconditional=uncond,
        ratio_conditional=cond,
    )
