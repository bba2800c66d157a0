"""Integer arithmetic that needs no tables: primality, the Jacobi symbol, the
table budget every sieve checks, and the int64 ceiling of D and S(x).

This module imports nothing beyond the package's errors, so the paths that
only classify moduli and evaluate constants never load numpy.
"""

from .errors import ResourceLimitError

# Hard cap on table sizes (entries). 1e8 int64 entries = 800 MB, the largest
# allocation this package will make by default.
MAX_SIEVE_ENTRIES = 10**8

# Largest argument of S(x) and of D.  Below it every int64 intermediate of D
# stays under 2^63: D(y) <= y (1 + log y) < 41 y, and a chunk of the
# hyperbola sum is at most y H_chunk < 12 y.
MAX_EXACT_X = 2**57

# Miller-Rabin witnesses proven sufficient for every n < 3.3e24, far beyond
# any modulus this package accepts.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality for 64-bit-scale integers (Miller-Rabin)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_budget(limit: int, what: str = "sieve") -> None:
    """Raise ResourceLimitError when limit exceeds the table budget."""
    if limit > MAX_SIEVE_ENTRIES:
        raise ResourceLimitError(
            f"{what} limit {limit} exceeds the configured budget "
            f"MAX_SIEVE_ENTRIES={MAX_SIEVE_ENTRIES}"
        )


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by binary quadratic reciprocity.

    Equals the Legendre symbol when n is an odd prime.
    """
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
