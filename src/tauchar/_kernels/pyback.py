"""The numpy kernel: one multiplicative-table block kernel.

A multiplicative table is fixed by per-exponent values ``c[e]`` that are
the same for all primes; ``factor_block`` sieves one block of it, and
``full_tables`` (called by ``sieves.multiplicative_series``) a table from 1.
Factorization uses per-prime-power stride passes rather than a
smallest-prime-factor chain: numpy cannot follow the sequential spf
recurrence efficiently, but strided in-place updates run at C speed.
"""

from math import isqrt

import numpy as np

from ..powerful import prime_list

# Block size for internal segmentation of the tables: peak memory stays
# bounded, and a block's working arrays stay small enough that the
# per-prime strided passes run faster than over larger ones.
DEFAULT_SEGMENT = 1 << 20


def factor_block(lo: int, hi: int, primes, c) -> np.ndarray:
    """Values f(n) for n in [lo, hi) of the multiplicative f with f(p^e) = c[e].

    f(n) is the product of c[e_p] over the prime powers p^e_p exactly
    dividing n.  ``c[0]`` must be 1 and ``c`` must reach every exponent below
    hi, that is len(c) >= (hi - 1).bit_length().  ``primes`` (a list or an
    int array, ascending) must contain every prime p with p*p < hi; the one
    prime factor above that a number can have is found as a leftover and
    contributes c[1].  The array is int8 when every |c[e]| <= 1, else
    int64; the caller keeps products of c within int64.
    """
    if lo < 1 or hi <= lo:
        raise ValueError("factor_block requires 1 <= lo < hi")
    c = [int(v) for v in c]
    if len(c) < max(2, (hi - 1).bit_length()) or c[0] != 1:
        raise ValueError("c must start at c[0] = 1 and cover every exponent below hi")
    dtype = table_dtype(c)
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

    if c[1] != 1:
        leftover = found != np.arange(lo, hi, dtype=found.dtype)
        np.multiply(vals, c[1], out=vals, where=leftover)
    return vals


def table_dtype(c):
    """int8 when every |c[e]| <= 1, so that every product of c-values lies
    in {-1, 0, 1}; else int64."""
    return np.int8 if max(map(abs, c)) <= 1 else np.int64


def full_tables(limit: int, c, segment: int = DEFAULT_SEGMENT) -> np.ndarray:
    """``factor_block`` values over [0, limit] (entry 0 set to 0), built
    block by block, in ``table_dtype(c)``; ``c`` must cover every exponent
    up to log2(limit)."""
    base = prime_list(isqrt(limit))
    out = np.zeros(limit + 1, dtype=table_dtype(c))
    for lo in range(1, limit + 1, segment):
        hi = min(lo + segment, limit + 1)
        out[lo:hi] = factor_block(lo, hi, base, c)
    return out

