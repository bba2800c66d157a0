"""Large-argument summatory computations and residual diagnostics.

The central quantity is S(x) = sum over d <= x of tauchar(d) * floor(x/d),
the partial sum of f = tauchar * 1.  f is multiplicative with
f(p^e) = sum_{k <= e+1} (k/q), independent of p, and its local series is
F(u) = (1-u)^(-a) (1-u^2)^(-b) H(u), H(u) = 1 + O(u^3), with a = f(p) in
{0, 2} and b = f(p^2) - 3a/2.  So S(x) = sum_{m cube-full} H(m) A(x // m),
A the summatory function of zeta(s)^a zeta(2s)^b:

    q                  (a, b)   A(y)
    +-11 mod 24        (0, 1)   isqrt(y)
    3                  (0, 0)   1
    +-5 mod 24         (0, -1)  M(isqrt(y)), M the Mertens function
    +-1 mod 24         (2, 0)   D(y), the divisor summatory function
    +-7 mod 24         (2, -2)  E(y), the sum of e = mu^2 * mu^2

One depth-first walk to the top checkpoint (``powerful.powerful_walk``)
visits the ~4.6 x^(1/3) cube-full m (Bateman and Grosswald 1958), and
``_streamed_sums`` adds each to every checkpoint in Python integers as it
runs.  M, D and E are memoised per call.  D and E are read from cumsum
tables to top^(1/3), or to top^(2/5) on +-7 (mod 24); above them D(y) is
the hyperbola sum and E(y) = sum_{j <= sqrt y} g(j) D(y // j^2), g = mu * mu
to sqrt(top); ``sieves.multiplicative_series`` builds all three tables in
the width their bound picks.  Every float here derives from exact integers
and certified constants, so residuals carry honest error intervals.

numpy and ``sieves`` are imported inside ``_divisor_parts``, ``_kernels``
inside D, ``constants`` inside ``trace``, the one caller of its main terms.
The identity scans, a * 1 against the jumps of an identity's right side
term by term, live in ``dirichlet`` with the routes they share tables with.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import exp, inf, isqrt, log
from typing import NamedTuple

from .arith import MAX_EXACT_X, _jacobi, check_budget, is_prime
from .cases import THETA_UPPER, X_FLOOR, Branch, CaseClass, classify
from .errors import ArgumentError, ClassificationError, OverflowHardError
from .powerful import powerful_walk
from .roots import integer_nth_root

DEFAULT_LIMIT = 10**8
_E_CHUNK = 1 << 16  # j per int64 dot of g(j) D(y // j^2) in E(y)
_PROGRESS_NODES = 1 << 14  # walk nodes between progress calls


def _validate_x(x: int, limit: int, q: int) -> int:
    x = int(x)
    if x < 1:
        raise ArgumentError(f"x must be >= 1, got {x}")
    if x > limit:
        raise ArgumentError(
            f"x = {x} exceeds the configured limit {limit}; raise the limit "
            "(--max on the command line) explicitly to accept the cost"
        )
    _, (a, b) = _local_weights(q, 2)
    if x > MAX_EXACT_X:
        why = ("beyond which D(x/n) could overflow int64" if a else
               "S(x) of q = +-3 (mod 8) holds no int64 but is checked no further")
        raise OverflowHardError(f"x = {x} exceeds MAX_EXACT_X = 2^57: {why}")
    if b == -2:  # E lists g = mu * mu to sqrt(x)
        check_budget(isqrt(x), "mu * mu list")
    return x


def divisor_summatory(y: int) -> int:
    """D(y) = sum_{n <= y} tau(n), exactly, for 0 <= y <= MAX_EXACT_X, by
    ``_kernels.divisor_window(0, y)``: O(sqrt y) time, O(1) memory."""
    y = int(y)
    if y < 0:
        raise ArgumentError(f"D(y) needs y >= 0, got {y}")
    from ._kernels import divisor_window

    return divisor_window(0, y)


def _local_weights(q: int, emax: int) -> tuple[list[int], tuple[int, int]]:
    """H[0..emax], the coefficients of H(u) = F(u) (1-u)^a (1-u^2)^b, with
    H[0] = 1 and H[1] = H[2] = 0, and (a, b) = (f(p), f(p^2) - 3 f(p) / 2)."""
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ArgumentError(f"modulus must be an odd prime, got {q}")
    f = list(accumulate(_jacobi(k, q) for k in range(1, emax + 2)))
    a, b = f[1], f[2] - 3 * f[1] // 2
    # (1-u)^a (1-u^2)^b: 1 - u^2, 1, 1 + u^2 + u^4 + ..., (1-u)^2 or (1+u)^-2
    c = {
        (0, 1): [1, 0, -1],
        (0, 0): [1],
        (0, -1): [1, 0] * emax,
        (2, 0): [1, -2, 1],
        (2, -2): [(-1) ** k * (k + 1) for k in range(emax + 1)],
    }[a, b]
    w = [sum(v * f[e - j] for j, v in enumerate(c[: e + 1])) for e in range(emax + 1)]
    return w, (a, b)


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


def _divisor_parts(b: int, reach: int, top: int):
    """A(y) for a = 2: D for b = 0, E for b = -2, read from cumsum tables
    to ``reach`` and memoised above them for this call."""
    import numpy as np

    from ._kernels import width
    from .sieves import divisor_count_sieve, multiplicative_series

    d = np.cumsum(divisor_count_sieve(reach).values, dtype=np.int64)
    d_ints, memo = memoryview(d), {}  # D(y) as Python ints; x // n recurs

    def D(y):
        if y > reach and y not in memo:
            memo[y] = divisor_summatory(y)
        return d_ints[y] if y <= reach else memo[y]

    if not b:
        return D
    e = multiplicative_series(reach, [1, 2, 1] + [0] * reach.bit_length())
    e_ints = memoryview(np.cumsum(e.values, dtype=np.int64))
    r = isqrt(top)  # g(p) = -2, g(p^2) = 1
    g = multiplicative_series(r, [1, -2, 1] + [0] * r.bit_length(), "mu * mu list").values
    g_ints, e_memo = memoryview(g), {}
    # each chunk sums at most _E_CHUNK terms |g(j)| D(y // j^2) <= max|g| D(reach)
    width(max(int(g.max()), -int(g.min())) * int(d[reach]) * _E_CHUNK,
          f"g(j) D(y // j^2) could overflow int64 below {top}")

    def E(y):
        if y <= reach:
            return e_ints[y]
        if y not in e_memo:
            near = isqrt(y // (reach + 1))  # y // j^2 > reach exactly for j <= near
            value = sum(
                gj * D(y // (j * j))
                for j, gj in enumerate(g_ints[1 : near + 1], 1)
                if gj
            )
            end = isqrt(y) + 1
            for lo in range(near + 1, end, _E_CHUNK):
                j = np.arange(lo, min(lo + _E_CHUNK, end), dtype=np.int64)
                value += int(np.dot(g[lo : lo + len(j)], d[y // (j * j)]))
            e_memo[y] = value
        return e_memo[y]

    return E


def _streamed_sums(A, cps: tuple[int, ...], nodes, progress):
    """sum_m H(m) A(x // m) over the walk's nodes (m, H(m)), m <= x, at each
    x in ``cps``, in Python ints as the walk runs (A = None: A = 1, by
    prefix sums)."""
    sums = [0] * len(cps)
    for count, (n, wn) in enumerate(nodes, 1):
        if A is None:
            sums[bisect_left(cps, n)] += wn
        else:
            for i in range(bisect_left(cps, n), len(cps)):
                sums[i] += wn * A(cps[i] // n)
        if count % _PROGRESS_NODES == 0:
            progress("walk", count, None)
    progress("walk", count, count)
    return list(accumulate(sums)) if A is None else sums


def _checkpoint_sums(q: int, cps: tuple[int, ...], progress=None) -> tuple[int, ...]:
    """Exact S(x) at every x in ascending ``cps`` by the cube-full walk;
    ``progress``, if given, is called as progress(stage, done, total) after
    its primes, every _PROGRESS_NODES nodes (total None) and once with
    every node done."""
    progress = progress or (lambda stage, done, total: None)
    top = cps[-1]
    w, (a, b) = _local_weights(q, top.bit_length() + 1)
    nodes = powerful_walk(w, top)[1]
    progress("sieve", 1, 1)
    memo = {}  # Mertens values for this call only
    if a:  # a larger E table spares more E(y) and D(y) summed above it
        reach = integer_nth_root(top**2, 5) if b else integer_nth_root(top, 3)
        A = _divisor_parts(b, reach, top)
    else:
        A = {1: isqrt, 0: None, -1: lambda y: _mertens(isqrt(y), memo)}[b]
    return tuple(_streamed_sums(A, cps, nodes, progress))


def summatory_convolved(q: int, x: int, *, limit: int = DEFAULT_LIMIT) -> int:
    """Exact S(x) = sum_{d <= x} tauchar_q(d) * floor(x / d), by the
    powerful-number route, with nothing of size x built."""
    return _checkpoint_sums(q, (_validate_x(x, limit, q),))[0]


def default_checkpoints(limit: int = DEFAULT_LIMIT) -> tuple[int, ...]:
    """Powers of two from 2^10 up to the limit."""
    if limit < 1024:
        raise ArgumentError(
            f"limit {limit} leaves no default checkpoints, the first of which is "
            "1024; raise the limit (--max on the command line) to at least 1024"
        )
    return tuple(1 << k for k in range(10, limit.bit_length()))


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


def _validate_checkpoints(checkpoints, limit: int, q: int) -> tuple[int, ...]:
    """The checkpoints as ints, ``default_checkpoints(limit)`` when None."""
    if checkpoints is None:
        checkpoints = default_checkpoints(limit)
    cps = tuple(int(c) for c in checkpoints)
    if not cps:
        raise ArgumentError("checkpoint list is empty")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ArgumentError("checkpoints must be strictly ascending")
    if cps[0] < X_FLOOR:
        raise ArgumentError(
            f"smallest checkpoint {cps[0]} is below the asymptotic floor "
            f"{X_FLOOR:.1f}"
        )
    _validate_x(cps[-1], limit, q)
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
    the sieve, during the walk and as it ends; the caller rate-limits.
    """
    case = classify(q)
    cps = _validate_checkpoints(checkpoints, limit, q)
    if alphas is None:
        alphas = default_alphas(case)
    alphas = tuple(float(a) for a in alphas)
    if not alphas or not all(0 < a <= 1 for a in alphas):
        raise ArgumentError(f"need normalization exponents in (0, 1], got {alphas}")

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
    cps = _validate_checkpoints(checkpoints, limit, q)
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
