"""The primes and the powerful numbers, in pure Python.

A multiplicative function w with w(p) = 0 at every prime lives on the
powerful numbers (p | n implies p^2 | n), about 2.2 sqrt(top) of them up to
top (Golomb, Powerful numbers, Amer. Math. Monthly 77, 1970), and on the
e-full ones when w also vanishes at p^2, ..., p^(e-1).  ``powerful_walk``
lists the primes to top^(1/e) and yields every (n, w(n)) with w(n) != 0,
depth first, to ``summatory``, whose every S(x) is a sum of H(m) A(x // m)
over the cube-full m, and to ``sieves.multiplicative_series``.
``prime_list`` is the package's one prime sieve, which the walk, the
multiplicative tables, the near-curve window, the certified Euler products
and the CLI's --all-q moduli all draw from.  Nothing here imports numpy,
so the summatory sums that need only the walk load none.
"""

from itertools import compress
from math import isqrt

from .arith import check_budget
from .errors import ArgumentError
from .roots import integer_nth_root


def prime_list(limit: int) -> list[int]:
    """All primes <= limit, ascending, as Python ints.

    Eratosthenes over the odd numbers only: flag i of one bytearray stands
    for 2i + 1, and each odd prime p <= sqrt(limit) clears its odd multiples
    from p^2 on in one slice assignment.
    """
    check_budget(limit, "prime sieve")
    if limit < 2:
        return []
    size = (limit + 1) // 2
    odd = bytearray([1]) * size
    odd[0] = 0
    for i in range(1, (isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            start = p * p // 2
            odd[start::p] = bytes(len(range(start, size, p)))
    return [2, *compress(range(1, limit + 1, 2), odd)]


def powerful_walk(w, top: int):
    """Depth-first walk over every powerful n <= top with w(n) != 0, where
    w(n) = prod w[e_p] over the prime powers p^e_p exactly dividing n.

    ``w`` holds the per-exponent values, with w[0] = 1 and w[1] = 0,
    reaching every exponent e with 2^e <= top.  Returns (primes, nodes):
    the primes to top^(1/e), ascending, for the least e >= 2 with
    w[e] != 0, and a generator of one pair (n, w(n)) per n, n = 1 first.
    The children of n are the n p^k with p above the primes of n, k >= e
    and p^k <= top / n.
    """
    if len(w) < max(2, top.bit_length()) or w[0] != 1 or w[1] != 0:
        raise ArgumentError(
            "the powerful walk needs w[0] = 1, w[1] = 0 and a value for every "
            f"exponent up to log2({top}), got {list(w[:2])} of length {len(w)}"
        )
    # 2^len(w) > top, so with no nonzero w[e] the root is 1 and nothing is listed
    depth = next((e for e in range(2, len(w)) if w[e]), len(w))
    primes = prime_list(integer_nth_root(top, depth))
    return primes, _walk(list(w), top, primes, depth)


def _walk(w: list[int], top: int, primes: list[int], depth: int):
    stack = [(1, 1, 0)]
    while stack:
        n, wn, j = stack.pop()
        yield n, wn
        m = top // n
        for i in range(j, len(primes)):
            p = primes[i]
            pe, e = p**depth, depth
            if pe > m:
                break
            while pe <= m:
                if w[e]:
                    stack.append((n * pe, wn * w[e], i + 1))
                pe *= p
                e += 1
