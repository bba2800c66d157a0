"""Large-argument summatory computations and residual diagnostics.

The central quantity is S(x) = sum over d <= x of tauchar(d) * floor(x/d),
the partial sum of f = tauchar * 1.  f is multiplicative with
f(p^e) = sum_{k <= e+1} (k/q), independent of p, so f(p) = 1 + (2/q):

* q = +-3 (mod 8): f(p) = 0, f lives on powerful numbers, and S(x) is the
  sum of f over the powerful n <= x;
* q = +-1 (mod 8): f(p) = 2 = tau(p), so h = f * tau^{-1} (local series
  F(u)(1-u)^2) lives on powerful numbers and
  S(x) = sum_{n powerful} h(n) D(x/n), D the divisor summatory function.

Either way one depth-first walk over the roughly 2.2 sqrt(x) powerful
numbers up to the top checkpoint (``powerful.powerful_walk``) gives every
checkpoint.  On the +-3 branch the walk is consumed as it runs, in Python
integers: each node and each block of leaves is added to the checkpoints
it falls below, so memory is O(pi(sqrt x)), the primes the walk needs, and
numpy is never loaded.  On the +-1 branch the walk is packed into sorted
int64 arrays (``sieves.powerful_terms``) and D(y) costs O(sqrt y) by the
hyperbola method in numpy.  Nothing of size x is built, and every int64
intermediate is guarded by MAX_EXACT_X.  Everything float-valued here is
derived from exact integers and certified constants, so residuals carry
honest error intervals.

numpy, ``sieves`` and ``dirichlet`` are imported inside the functions that
use them (D, the +-1 branch and the identity scans), and the mpmath-backed
``constants`` inside ``trace``, the one caller of its main terms.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import exp, inf, isqrt, log
from typing import TYPE_CHECKING

from .arith import _jacobi, check_budget, is_prime
from .cases import THETA_UPPER, X_FLOOR, Branch, CaseClass, classify
from .errors import ArgumentError, ClassificationError, OverflowHardError
from .powerful import powerful_walk, prime_list
from .roots import floor_root_grid, integer_nth_root

if TYPE_CHECKING:
    import numpy as np

    from .sieves import CoeffSeries

DEFAULT_LIMIT = 10**8

# Largest argument of the powerful-number route and of D.  Below it every
# int64 intermediate stays under 2^63: D(y) <= y (1 + log y) < 41 y, a
# chunk of the hyperbola sum is at most y H_chunk < 13 y, and partial sums
# of f are bounded by D because |f(p^e)| <= e + 1.
MAX_EXACT_X = 2**57

_D_CHUNK = 1 << 16


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
    """D(y) = sum_{n <= y} tau(n), exactly, for 0 <= y <= MAX_EXACT_X.

    Dirichlet's hyperbola method, D(y) = 2 sum_{i <= sqrt y} floor(y/i) -
    floor(sqrt y)^2, summed in int64 chunks of fixed size: O(sqrt y) time,
    O(1) memory.
    """
    import numpy as np

    y = int(y)
    if y < 0:
        raise ArgumentError(f"D(y) needs y >= 0, got {y}")
    if y > MAX_EXACT_X:
        raise OverflowHardError(f"D({y}) exceeds MAX_EXACT_X = 2^57")
    r = isqrt(y)
    total = 0
    for lo in range(1, r + 1, _D_CHUNK):
        i = np.arange(lo, min(lo + _D_CHUNK, r + 1), dtype=np.int64)
        total += int(np.sum(y // i))
    return 2 * total - r * r


def _local_weights(q: int, emax: int) -> tuple[list[int], bool]:
    """Powerful-supported local weights w[0..emax] and whether they are h.

    w = f(p^e) when f(p) = 0 (q = +-3 mod 8); otherwise
    w = h(p^e) = f(p^e) - 2 f(p^(e-1)) + f(p^(e-2)), the coefficients of
    F(u)(1-u)^2.  Either way w[0] = 1 and w[1] = 0.
    """
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ArgumentError(f"modulus must be an odd prime, got {q}")
    f = list(accumulate(_jacobi(k, q) for k in range(1, emax + 2)))
    if f[1] == 0:
        return f, False
    g = [0, 0] + f
    return [g[e + 2] - 2 * g[e + 1] + g[e] for e in range(emax + 1)], True


def _powerful_sums(w: list[int], cps: tuple[int, ...], primes: list[int]) -> list[int]:
    """The sum of w over the powerful n <= x at each checkpoint x, as the
    walk runs: O(len(cps) + pi(sqrt x)) memory, Python integers throughout.

    Each node's weight goes to the first checkpoint at or above it.  A
    block of leaves n p^2, p in primes[c:k], takes one bisection of the
    primes, p <= isqrt(x // n), per checkpoint x that it straddles, and its
    remaining leaves go to the first checkpoint at or above its last leaf.
    Prefix sums over the checkpoints finish the job.
    """
    part = [0] * len(cps)
    for n, wn, c, k in powerful_walk(w, cps[-1], primes):
        part[bisect_left(cps, n)] += wn
        if c == k:
            continue
        wl, done = wn * w[2], c
        i = bisect_left(cps, n * primes[c] * primes[c])
        last = n * primes[k - 1] * primes[k - 1]
        while cps[i] < last:
            end = bisect_right(primes, isqrt(cps[i] // n), done, k)
            part[i] += wl * (end - done)
            done = end
            i += 1
        part[i] += wl * (k - done)
    return list(accumulate(part))


def _convolved_sums(w: list[int], cps: tuple[int, ...], primes: list[int]):
    """sum_{n powerful} h(n) D(x/n) at each checkpoint x in turn, h = w,
    from int64 arrays of the walk."""
    import numpy as np

    from .sieves import divisor_count_sieve, powerful_terms

    top = cps[-1]
    n, wn = powerful_terms(w, top, primes)
    ends = np.searchsorted(n, cps, side="right")
    # D(y) for y <= top^(1/3) by table lookup; only the few n with
    # x/n above that call divisor_summatory
    y_small = integer_nth_root(top, 3)
    d_small = np.cumsum(divisor_count_sieve(y_small).values)
    if int(np.max(np.abs(wn))) >= 2**63 // int(d_small[-1]):
        raise OverflowHardError(f"h(n) * D(y) could overflow int64 below {top}")
    for x, end in zip(cps, ends):
        y, wy = x // n[:end], wn[:end]
        near = y <= y_small
        value = sum((wy[near] * d_small[y[near]]).tolist())
        for yd, wd in zip(y[~near].tolist(), wy[~near].tolist()):
            value += wd * divisor_summatory(yd)
        yield value


def _checkpoint_sums(q: int, cps: tuple[int, ...], progress=None) -> tuple[int, ...]:
    """Exact S(x) at every checkpoint in ascending ``cps`` by the
    powerful-number route.

    ``progress``, when given, is called as progress(stage, done, total)
    after the prime sieve and after each checkpoint.
    """
    top = cps[-1]
    w, convolve_d = _local_weights(q, top.bit_length() + 1)
    primes = prime_list(isqrt(top))
    if progress is not None:
        progress("sieve", 1, 1)
    sums = _convolved_sums if convolve_d else _powerful_sums
    values = []
    for i, value in enumerate(sums(w, cps, primes)):
        values.append(value)
        if progress is not None:
            progress("checkpoint", i + 1, len(cps))
    return tuple(values)


def summatory_convolved(q: int, x: int, *, limit: int = DEFAULT_LIMIT) -> int:
    """Exact S(x) = sum_{d <= x} tauchar_q(d) * floor(x / d), by the
    powerful-number route in O(sqrt x) memory."""
    return _checkpoint_sums(q, (_validate_x(x, limit),))[0]


def _prefix_sums(a: "CoeffSeries") -> "np.ndarray":
    """Partial sums of a * 1 at x = 0..a.limit."""
    import numpy as np

    from .dirichlet import dirichlet_convolve
    from .sieves import ones_series

    return np.cumsum(dirichlet_convolve(a, ones_series(a.limit)).values)


def _first_mismatch(s: "np.ndarray", expect: "np.ndarray") -> int | None:
    """Smallest x >= 1 with s[x] != expect[x], or None when they agree."""
    import numpy as np

    bad = np.nonzero(s[1:] != expect[1:])[0]
    return int(bad[0]) + 1 if bad.size else None


def square_root_identity_scan(limit: int) -> int | None:
    """First x <= limit where the Liouville convolution sum differs from
    floor(sqrt(x)); None when the identity holds everywhere.

    The left side marks perfect squares (divisor-sum of the prime-parity
    sign), so its partial sum counts squares up to x.
    """
    import numpy as np

    from .sieves import liouville_sieve

    check_budget(limit, "identity scan")
    s = _prefix_sums(liouville_sieve(limit))
    x = np.arange(0, limit + 1, dtype=np.int64)
    return _first_mismatch(s, floor_root_grid(x, 2))


def cube_root_identity_scan(limit: int) -> int | None:
    """First x <= limit where the q=3 convolution sum differs from
    floor(x^(1/3)); None when the identity holds everywhere."""
    import numpy as np

    from .sieves import tau_char_sieve

    check_budget(limit, "identity scan")
    s = _prefix_sums(tau_char_sieve(3, limit))
    x = np.arange(0, limit + 1, dtype=np.int64)
    return _first_mismatch(s, floor_root_grid(x, 3))


def _fifth_power_mobius_sums(limit: int) -> "np.ndarray":
    """sum_{d <= sqrt(x)} mu(d) floor((x/d^2)^(1/5)) at x = 0..limit.

    The sum counts the pairs d^2 m^5 <= x weighted by mu(d), so it is the
    cumsum of mu(d) placed at every jump point d^2 m^5 <= limit: one
    scatter per m <= limit^(1/5).
    """
    import numpy as np

    from .sieves import mobius_sieve

    jumps = np.zeros(limit + 1, dtype=np.int64)
    mu = mobius_sieve(isqrt(limit)).values
    for m in range(1, integer_nth_root(limit, 5) + 1):
        m5 = m**5
        d = np.arange(1, isqrt(limit // m5) + 1, dtype=np.int64)
        jumps[d * d * m5] += mu[1 : len(d) + 1]
    return np.cumsum(jumps)


def fifth_power_identity_scan(limit: int) -> int | None:
    """First x <= limit where the q=5 convolution sum differs from
    sum_{d <= sqrt(x)} mu(d) floor((x/d^2)^(1/5)); None when none differs.

    The left side is the character sieve convolved with 1; the right side
    is the Mobius sieve summed over the jump points d^2 m^5, so the two
    sides share no table.  Tests check the jump-point sum against the
    integer-root form, one floor((x/d^2)^(1/5)) grid per squarefree d.
    """
    from .sieves import tau_char_sieve

    check_budget(limit, "identity scan")
    s = _prefix_sums(tau_char_sieve(5, limit))
    return _first_mismatch(s, _fifth_power_mobius_sums(limit))


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


@dataclass(frozen=True)
class SummatoryTrace:
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
        Certified.exact(v) - Certified(m.value, m.error) for v, m in zip(values, mains)
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


@dataclass(frozen=True)
class GrowthDiagnostic:
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
