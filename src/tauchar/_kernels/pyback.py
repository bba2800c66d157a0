"""The numpy kernels: a multiplicative-table block kernel, and D(b) - D(a).

A multiplicative table is fixed by per-exponent values ``c[e]`` that are
the same for all primes; ``factor_block`` sieves one block of it, and
``full_tables`` (called by ``sieves.multiplicative_series``) a table from 1.
``width`` is the one rule for an integer array's width, the narrowest
integer type that holds its bound; ``table_dtype`` bounds a table.
Factorization uses per-prime-power stride passes rather than a
smallest-prime-factor chain: numpy cannot follow the sequential spf
recurrence efficiently, but strided in-place updates run at C speed.

``divisor_window`` serves D(y) = sum_{n <= y} tau(n) to ``summatory`` and
the near-curve trivial bound: float64 while b + isqrt(b) < 2^53, where
floor(b/i) is exact in floats, and int64 above that.
"""

from math import isqrt

import numpy as np

from ..arith import MAX_EXACT_X
from ..errors import OverflowHardError
from ..powerful import prime_list

# Block size for internal segmentation of the tables: peak memory stays
# bounded, and a block's working arrays stay small enough that the
# per-prime strided passes run faster than over larger ones.
DEFAULT_SEGMENT = 1 << 20

_D_CHUNK = 1 << 15  # the hyperbola pass: two buffers of 256 KiB

# the 16 primes to 53, whose product passes 2^64
_TABLE_PRIMES = prime_list(53)


def factor_block(lo: int, hi: int, primes, c) -> np.ndarray:
    """Values f(n) for n in [lo, hi) of the multiplicative f with f(p^e) = c[e].

    f(n) is the product of c[e_p] over the prime powers p^e_p exactly
    dividing n.  ``c[0]`` must be 1 and ``c`` must reach every exponent below
    hi, that is len(c) >= (hi - 1).bit_length().  ``primes`` (a list or an
    int array, ascending) must contain every prime p with p*p < hi; the one
    prime factor above that a number can have is found as a leftover and
    contributes c[1].  The array is ``table_dtype(c, hi - 1)``, the width
    its largest n needs, which refuses a row that could pass int64.
    """
    if lo < 1 or hi <= lo:
        raise ValueError("factor_block requires 1 <= lo < hi")
    c = [int(v) for v in c]
    if len(c) < max(2, (hi - 1).bit_length()) or c[0] != 1:
        raise ValueError("c must start at c[0] = 1 and cover every exponent below hi")
    dtype = table_dtype(c, hi - 1)
    size = hi - lo
    vals = np.ones(size, dtype=dtype)
    # product of the prime powers found so far (below n < hi, so uint32 holds
    # it for hi <= 2^32); where it stops short of n, a large prime is left
    found = np.ones(size, dtype=np.uint32 if hi <= 2**32 else np.int64)
    buf = np.empty((size + 1) // 2, dtype=dtype)  # factors at multiples of p

    for p in primes:
        p = int(p)
        if p * p >= hi:
            break
        start = -(-lo // p) * p
        if start >= hi:
            continue
        s1 = slice(start - lo, size, p)
        fac = buf[: (hi - 1 - start) // p + 1]
        fac[:] = c[1]
        found[s1] *= p
        # multiples of p^k sit every p^(k-1) places among the multiples of p
        k, pk = 2, p * p
        while pk < hi:
            start_k = -(-lo // pk) * pk
            if start_k >= hi:
                break
            fac[(start_k - start) // p :: pk // p] = c[k]
            found[start_k - lo :: pk] *= p
            k += 1
            pk *= p
        vals[s1] *= fac

    if c[1] != 1 and hi > 2:  # n = 1 has no leftover, and c[1] may not fit
        leftover = found != np.arange(lo, hi, dtype=found.dtype)
        np.multiply(vals, c[1], out=vals, where=leftover)
    return vals


def table_dtype(c, limit: int, what: str = "multiplicative table"):
    """The narrowest of int8, int16, int32 and int64 that holds every f(n),
    n <= limit < 2^64, f(p^e) = c[e]; OverflowHardError, before any work,
    when int64 cannot.

    The bound is exact: the largest |f(n)| is the largest product of the
    |c[e_i]| over e_1 >= e_2 >= ... >= 1 with 2^e_1 3^e_2 5^e_3 ... <= limit,
    since the larger exponents on the smaller primes give the least n with
    those values.  A short depth-first search over such vectors finds it.
    """
    c = [abs(int(v)) for v in c]

    def largest(i: int, n: int, emax: int) -> int:
        # the largest product over e_i <= emax onward, with n p_i^e_i ... <= limit
        best, m, p = 1, n, _TABLE_PRIMES[i]
        for e in range(1, emax + 1):
            m *= p
            if m > limit:
                break
            if c[e]:
                best = max(best, c[e] * largest(i + 1, m, e))
        return best

    return width(largest(0, 1, len(c) - 1), f"{what} could overflow int64 below {limit}")


def width(bound: int, refusal: str):
    """The narrowest of int8, int16, int32 and int64 that holds every
    integer of size at most ``bound``; OverflowHardError(refusal) when
    int64 cannot."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    raise OverflowHardError(refusal)


def full_tables(limit: int, c) -> np.ndarray:
    """``factor_block`` values over [0, limit] (entry 0 set to 0), built
    block by block of ``DEFAULT_SEGMENT``, in ``table_dtype(c, limit)``;
    ``c`` must cover every exponent up to log2(limit)."""
    base = prime_list(isqrt(limit))
    out = np.zeros(limit + 1, dtype=table_dtype(c, limit))
    for lo in range(1, limit + 1, DEFAULT_SEGMENT):
        hi = min(lo + DEFAULT_SEGMENT, limit + 1)
        out[lo:hi] = factor_block(lo, hi, base, c)
    return out


def divisor_window(a: int, b: int) -> int:
    """D(b) - D(a), the sum of tau(n) over a < n <= b, for 0 <= a <= b <=
    MAX_EXACT_X, by the hyperbola method D(y) = 2 sum_{i <= sqrt y}
    floor(y/i) - floor(sqrt y)^2 at both ends in one pass over i <= isqrt(b).
    """
    if not 0 <= a <= b:
        raise ValueError("divisor_window requires 0 <= a <= b")
    if b > MAX_EXACT_X:
        raise OverflowHardError(f"D({b}) exceeds MAX_EXACT_X = 2^57")
    ra, rb = isqrt(a), isqrt(b)
    return 2 * _quotient_sum(a, b, _floats_exact(b)) - rb * rb + ra * ra


def _floats_exact(b: int) -> bool:
    """Whether floor(fl(c/i)) = floor(c/i) for all c <= b and i <= isqrt(b).

    It holds when b + isqrt(b) < 2^53: k = floor(c/i) is a float, so
    fl(c/i) >= k; and i (k + 1) <= c + i < 2^53, so c/i lies at least
    1/i > (k + 1) 2^-53 below k + 1, more than half a unit in the last place
    of k + 1, which correctly rounded division cannot cross.
    """
    return b + isqrt(b) < 2**53


def _quotient_sum(a: int, b: int, floats: bool) -> int:
    """The sum of floor(b/i) over i <= isqrt(b) less that of floor(a/i) over
    i <= isqrt(a), in chunks of i, float64 if ``floats`` else int64, that
    reuse two buffers.  Each chunk sums in int64, below 12 b < 2^61, and
    the cast truncates a float quotient c/i >= 0 to its floor."""
    ra, rb = isqrt(a), isqrt(b)
    step = max(1, min(_D_CHUNK, rb))
    i = np.arange(1, step + 1, dtype=np.float64 if floats else np.int64)
    q = np.empty_like(i)
    div = np.divide if floats else np.floor_divide
    total = 0
    for start in range(1, rb + 1, step):
        n, m = min(step, rb + 1 - start), min(step, max(ra + 1 - start, 0))
        total += int(div(b, i[:n], out=q[:n]).sum(dtype=np.int64))
        total -= int(div(a, i[:m], out=q[:m]).sum(dtype=np.int64))
        i += step
    return total
