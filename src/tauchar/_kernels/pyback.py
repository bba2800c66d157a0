"""The numpy kernels: prime sieves and one multiplicative-table block kernel.

Every multiplicative table in the package is fixed by per-exponent values
``c[e]`` that are the same for all primes, and comes from ``factor_block``
(one block) or ``full_tables`` (a table from 1, block by block).
Factorization uses per-prime-power stride passes rather than a
smallest-prime-factor chain: numpy cannot follow the sequential spf
recurrence efficiently, but strided in-place updates run at C speed.
"""

from math import isqrt

import numpy as np

# Block size for internal segmentation, both of the tables and of the prime
# sieve: peak memory stays bounded, and a block's working arrays stay small
# enough that the per-prime strided passes run faster than over larger ones.
DEFAULT_SEGMENT = 1 << 20


def _simple_prime_mask(limit: int) -> np.ndarray:
    """Boolean primality mask over [0, limit] by plain Eratosthenes."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def primes_up_to(limit: int, segment: int = DEFAULT_SEGMENT) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array (segmented)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    root = isqrt(limit)
    base_mask = _simple_prime_mask(root)
    base = np.nonzero(base_mask)[0].astype(np.int64)
    if limit == root:
        return base
    parts = [base]
    for lo in range(root + 1, limit + 1, segment):
        hi = min(lo + segment, limit + 1)
        mark = np.ones(hi - lo, dtype=bool)
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                mark[start - lo :: p] = False
        parts.append(np.nonzero(mark)[0].astype(np.int64) + lo)
    return np.concatenate(parts)


def spf_table(limit: int, segment: int = DEFAULT_SEGMENT) -> np.ndarray:
    """Smallest-prime-factor table over [0, limit] (entries 0 and 1 are 0).

    Filled block by block; within a block, primes are applied ascending and
    only positions not yet claimed by a smaller prime are written, so each
    entry ends up with its smallest prime factor.  Unwritten entries >= 2
    after all base primes are themselves prime.
    """
    spf = np.zeros(limit + 1, dtype=np.uint32)
    if limit < 2:
        return spf
    base = primes_up_to(isqrt(limit), segment)
    for lo in range(2, limit + 1, segment):
        hi = min(lo + segment, limit + 1)
        view = spf[lo:hi]
        for p in base:
            p = int(p)
            if p * p >= hi:
                break
            # composites with smallest factor p start at p*p
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start >= hi:
                continue
            sl = view[start - lo :: p]
            sl[sl == 0] = p
        unmarked = np.nonzero(view == 0)[0]
        view[unmarked] = (unmarked + lo).astype(np.uint32)
    return spf


def factor_block(lo: int, hi: int, primes: np.ndarray, c) -> np.ndarray:
    """Values f(n) for n in [lo, hi) of the multiplicative f with f(p^e) = c[e].

    f(n) is the product of c[e_p] over the prime powers p^e_p exactly
    dividing n.  ``c[0]`` must be 1 and ``c`` must reach every exponent below
    hi, that is len(c) >= (hi - 1).bit_length().  ``primes`` must contain
    every prime p with p*p < hi; the one prime factor above that a number can
    have is found as a leftover and contributes c[1].  The array is int8 when
    every |c[e]| <= 1, else int64; the caller keeps products of c within
    int64.
    """
    if lo < 1 or hi <= lo:
        raise ValueError("factor_block requires 1 <= lo < hi")
    c = [int(v) for v in c]
    if len(c) < max(2, (hi - 1).bit_length()) or c[0] != 1:
        raise ValueError("c must start at c[0] = 1 and cover every exponent below hi")
    dtype = np.int8 if max(map(abs, c)) <= 1 else np.int64
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


def full_tables(limit: int, c, segment: int = DEFAULT_SEGMENT) -> np.ndarray:
    """``factor_block`` values over [0, limit] as int64 (entry 0 set to 0),
    built block by block; ``c`` must cover every exponent up to log2(limit)."""
    base = primes_up_to(isqrt(limit), segment)
    out = np.zeros(limit + 1, dtype=np.int64)
    for lo in range(1, limit + 1, segment):
        hi = min(lo + segment, limit + 1)
        out[lo:hi] = factor_block(lo, hi, base, c)
    return out


def weighted_floor_sum(values: np.ndarray, x: int, chunk: int = 1 << 22) -> int:
    """Sum of values[d] * (x // d) over 1 <= d <= min(x, len(values) - 1).

    ``values`` is indexed by d (entry 0 ignored).  Accumulated in int64
    chunks; the result is returned as an exact Python int.  The magnitude is
    bounded by x * H_x which stays far below 2^63 for x <= 1e9.
    """
    top = min(x, len(values) - 1)
    total = 0
    for lo in range(1, top + 1, chunk):
        hi = min(lo + chunk, top + 1)
        d = np.arange(lo, hi, dtype=np.int64)
        total += int(np.dot(values[lo:hi].astype(np.int64), x // d))
    return total
