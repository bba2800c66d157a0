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

Both are S(x) = sum_n w(n) A(x // n), w = H or h, over one depth-first walk
to the top checkpoint (``powerful.powerful_walk``); ``_streamed_sums`` adds
each node to every checkpoint in Python integers as the walk runs.  The walk
visits the ~4.6 x^(1/3) cube-full m (Bateman and Grosswald 1958), with no
numpy, or the powerful n (4-full for q = +-1 mod 24).  Memory is its primes,
the memo of M or D, a table of D and one chunk of leaves: only q = +-7 (mod
24) has leaves n p^2, and as x // (n p^2) < top^(1/3) they read only that
table, ``_LEAF_CHUNK`` at a time in int64.
Everything float-valued here is derived from exact integers and certified
constants, so residuals carry honest error intervals.

numpy, ``_kernels`` and ``sieves`` are imported inside ``_divisor_parts``
and D, ``constants`` inside ``trace``, the one caller of its main terms.
The identity scans, a * 1 against the jumps of an identity's right side
term by term, live in ``dirichlet`` with the routes they share tables with.
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
_LEAF_CHUNK = 1 << 20  # leaves per int64 flush of the +-7 (mod 24) walk
_PROGRESS_NODES = 1 << 14  # walk nodes between progress calls


def _validate_x(x: int, limit: int, q: int) -> int:
    x = int(x)
    if x < 1:
        raise ArgumentError(f"x must be >= 1, got {x}")
    if x > limit:
        raise ArgumentError(
            f"x = {x} exceeds the configured limit {limit}; raise the limit "
            "explicitly to accept the cost"
        )
    if x > MAX_EXACT_X:
        why = ("S(x) of q = +-3 (mod 8) holds no int64 but is checked no further"
               if q % 8 in (3, 5) else "beyond which D(x/n) could overflow int64")
        raise OverflowHardError(f"x = {x} exceeds MAX_EXACT_X = 2^57: {why}")
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
    """Local weights w[0..emax], w[0] = 1 and w[1] = 0, and s: on q = +-3
    (mod 8) w = H, the coefficients of F(u)(1-u^2)^s with s = f(p^2) = (3/q);
    else w = h, those of F(u)(1-u)^2, and s is None."""
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


def _divisor_parts(w: list[int], cps: tuple[int, ...], primes: list[int]):
    """A = D and the flush of leaf pieces for q = +-1 (mod 8), h = w.  The D
    table reaches top^(2/5) if w[2] != 0, so fewer nodes call divisor_window,
    else top^(1/3); D above it is memoised for this call."""
    import numpy as np

    from .sieves import block_leaves, divisor_count_sieve

    top = cps[-1]
    reach = integer_nth_root(top**2, 5) if w[2] else integer_nth_root(top, 3)
    d = np.cumsum(divisor_count_sieve(reach).values)
    d_ints, memo = memoryview(d), {}  # D(y) as Python ints; x // n recurs
    squares = np.array(primes, dtype=np.int64) ** 2

    def A(y):
        if y > reach and y not in memo:
            memo[y] = divisor_summatory(y)
        return d_ints[y] if y <= reach else memo[y]

    def flush(pieces, sums):
        leaf, wl = block_leaves(squares, *zip(*pieces))
        # p > (top/n)^(1/3), so x // (n p^2) < top^(1/3): every D read is below
        if int(np.abs(wl).max()) * int(d[integer_nth_root(top, 3)]) * len(wl) >= 2**63:
            raise OverflowHardError(f"h(n) * D(y) could overflow int64 below {top}")
        for i in reversed(range(len(cps))):  # each x keeps the leaves <= x
            keep = leaf <= cps[i]
            leaf, wl = leaf[keep], wl[keep]
            sums[i] += w[2] * int(np.dot(wl, d[cps[i] // leaf]))

    return A, flush


def _streamed_sums(A, cps: tuple[int, ...], nodes, flush, progress):
    """sum_n w(n) A(x // n) over the walk's nodes and leaves n <= x at each x
    in ``cps``, in Python ints as the walk runs (A = None: A = 1, by prefix
    sums); leaves go _LEAF_CHUNK at a time to flush([(n, w(n), c, k)], sums)."""
    sums = [0] * len(cps)
    pieces, pending = [], 0
    for count, (n, wn, c, k) in enumerate(nodes, 1):
        if A is None:
            sums[bisect_left(cps, n)] += wn
        else:
            for i in range(bisect_left(cps, n), len(cps)):
                sums[i] += wn * A(cps[i] // n)
        while c < k:
            take = min(k - c, _LEAF_CHUNK - pending)
            pieces.append((n, wn, c, c + take))
            c, pending = c + take, pending + take
            if pending == _LEAF_CHUNK:
                flush(pieces, sums)
                pieces, pending = [], 0
        if count % _PROGRESS_NODES == 0:
            progress("walk", count, None)
    if pieces:
        flush(pieces, sums)
    return list(accumulate(sums)) if A is None else sums


def _checkpoint_sums(q: int, cps: tuple[int, ...], progress=None) -> tuple[int, ...]:
    """Exact S(x) at every x in ascending ``cps`` by the powerful walk;
    ``progress``, if given, is called as progress(stage, done, total) after
    its primes, every _PROGRESS_NODES nodes (total None) and per checkpoint."""
    progress = progress or (lambda stage, done, total: None)
    w, s = _local_weights(q, cps[-1].bit_length() + 1)
    primes, nodes = powerful_walk(w, cps[-1])
    progress("sieve", 1, 1)
    flush, memo = None, {}  # Mertens values for this call only
    if s is None:
        A, flush = _divisor_parts(w, cps, primes)
    else:
        A = {1: isqrt, 0: None, -1: lambda y: _mertens(isqrt(y), memo)}[s]
    values = tuple(_streamed_sums(A, cps, nodes, flush, progress))
    for i in range(len(cps)):
        progress("checkpoint", i + 1, len(cps))
    return values


def summatory_convolved(q: int, x: int, *, limit: int = DEFAULT_LIMIT) -> int:
    """Exact S(x) = sum_{d <= x} tauchar_q(d) * floor(x / d), by the
    powerful-number route, with nothing of size x built."""
    return _checkpoint_sums(q, (_validate_x(x, limit, q),))[0]


def default_checkpoints(limit: int = DEFAULT_LIMIT) -> tuple[int, ...]:
    """Powers of two from 2^10 up to the limit."""
    if limit < 1024:
        raise ArgumentError(f"limit {limit} leaves no default checkpoints")
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
    the sieve, during the walk and per checkpoint; the caller rate-limits.
    """
    case = classify(q)
    if checkpoints is None:
        checkpoints = default_checkpoints(limit)
    cps = _validate_checkpoints(checkpoints, limit, q)
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
