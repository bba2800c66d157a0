"""Base arithmetic functions as exact integer tables.

Everything downstream consumes these: the divisor count tau(n), the Mobius
and Liouville functions, perfect-power indicators, the tau character (the
Legendre symbol of the divisor count) and the Euler-factor expansions, all
over 1..limit as exact integers.

Each of them is multiplicative and fixed by one row c[e] = f(p^e) shared by
all primes, and ``multiplicative_series`` is the one builder of such a
table: when c[1] = 0 the table lives on the powerful numbers, and the
numpy-free ``powerful.powerful_walk`` lists every (n, f(n)) with f(n) != 0
to be scattered into a zero table; otherwise the numpy block kernel in
``tauchar._kernels`` sieves every n.  Either way ``_kernels.table_dtype``
picks the width, the narrowest of int8, int16, int32 and int64 that holds
the largest |f(n)| up to the limit, and refuses a row whose values could
pass int64 first.  ``summatory`` reads its tables of D and
E here, the sums of tau and of e = mu^2 * mu^2 (c = 1, 2, 1, 0, ...) that
are the A(y) of S(x) = sum_{m cube-full} H(m) A(x // m) on q = +-1 (mod 8).
The tau character is the exception: it is read off the divisor count, one
lookup per n.  This module owns validation and the public types.
Primality, the Jacobi symbol and the table budget live in the numpy-free
``arith`` and are re-exported here.
"""

import numpy as np

from . import _kernels
from ._record import Record
from .arith import MAX_SIEVE_ENTRIES, _jacobi, check_budget, is_prime
from .errors import ArgumentError
from .powerful import powerful_walk


class CoeffSeries(Record):
    """Exact integer values a(1..limit) of an arithmetic function.

    ``values`` is a signed integer array of length limit + 1 whose entry 0
    is unused (kept at 0) so that values[n] is a(n), in the width
    ``_kernels.width`` picks for its bound, which comparisons do not
    depend on.  Immutable after construction.
    """

    __slots__ = ("limit", "values")

    def __init__(self, limit: int, values: np.ndarray):
        if limit < 1:
            raise ArgumentError(f"series limit must be >= 1, got {limit}")
        if values.dtype.kind != "i" or values.ndim != 1 or len(values) != limit + 1:
            raise ArgumentError(
                "values must be a 1-d signed integer array of length limit + 1"
            )
        values.setflags(write=False)
        self._set(limit=limit, values=values)

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise IndexError(f"index {n} outside [1, {self.limit}]")
        return int(self.values[n])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoeffSeries)
            and self.limit == other.limit
            and bool(np.array_equal(self.values, other.values))
        )

    def first_mismatch(self, other: "CoeffSeries") -> int | None:
        """Smallest n where the two series differ, or None if equal."""
        if self.limit != other.limit:
            raise ArgumentError("cannot compare series with different limits")
        diff = np.nonzero(self.values != other.values)[0]
        return int(diff[0]) if len(diff) else None


def multiplicative_series(limit: int, c, what: str = "sieve") -> CoeffSeries:
    """The multiplicative f with f(p^e) = c[e] for every prime p, n = 1..limit.

    ``c[0]`` must be 1, and ``c`` must reach the exponent 1 and every
    exponent e with 2^e <= limit, that is len(c) >= max(2,
    limit.bit_length()); otherwise ArgumentError.  The table is in the
    width ``_kernels.table_dtype(c, limit, what)`` picks, which refuses a
    row whose values could pass int64 before any work.

    When c[1] = 0, f lives on the powerful numbers, and the powerful walk
    scatters them into a zero table in O(sqrt(limit)) steps; otherwise the
    block kernel sieves all of 1..limit.
    """
    if limit < 1:
        raise ArgumentError(f"limit must be >= 1, got {limit}")
    c = list(c)
    if len(c) < max(2, limit.bit_length()) or c[0] != 1:
        raise ArgumentError(
            f"a multiplicative table to {limit} needs c[0] = 1 and a value for "
            f"every exponent up to max(1, log2({limit})), got {c[:2]} of "
            f"length {len(c)}"
        )
    check_budget(limit, what)
    dtype = _kernels.table_dtype(c, limit, what)
    if c[1]:
        return CoeffSeries(limit, _kernels.full_tables(limit, c))
    n, w = map(np.array, zip(*powerful_walk(c, limit)[1]))
    values = np.zeros(limit + 1, dtype=dtype)
    values[n] = w
    return CoeffSeries(limit, values)


def divisor_count_sieve(limit: int) -> CoeffSeries:
    """tau(n) = number of divisors of n, for n = 1..limit."""
    return multiplicative_series(limit, range(1, limit.bit_length() + 2))


def mobius_sieve(limit: int) -> CoeffSeries:
    """mu(n) for n = 1..limit."""
    return multiplicative_series(limit, [1, -1] + [0] * limit.bit_length())


def liouville_sieve(limit: int) -> CoeffSeries:
    """Liouville (-1)**Omega(n) for n = 1..limit."""
    return multiplicative_series(
        limit, [(-1) ** e for e in range(limit.bit_length() + 1)]
    )


def power_indicator_series(r: int, limit: int) -> CoeffSeries:
    """Indicator of perfect r-th powers (Dirichlet series zeta(r*s)), r >= 2."""
    if r < 2:
        raise ArgumentError(f"power order must be >= 2, got {r}")
    return multiplicative_series(
        limit, [int(e % r == 0) for e in range(max(2, limit.bit_length()))]
    )


def ones_series(limit: int) -> CoeffSeries:
    """The constant function 1 (Dirichlet series zeta(s))."""
    if limit < 1:
        raise ArgumentError(f"limit must be >= 1, got {limit}")
    check_budget(limit)
    values = np.ones(limit + 1, dtype=np.int8)
    values[0] = 0
    return CoeffSeries(limit, values)


def tau_char_sieve(q: int, limit: int, tau: CoeffSeries | None = None) -> CoeffSeries:
    """The tau character: n -> Legendre symbol (tau(n) / q), values in {-1,0,1}.

    Read off the divisor count, as the character is defined: with
    chi[t] = (t / q) for t >= 1 and chi[0] = 0, so that entry 0 stays 0,
    the table is chi[tau(n)].  ``tau``, when given, must be
    divisor_count_sieve(limit): a verify run passes its one shared table.
    Because the symbol is completely multiplicative, this is also the
    multiplicative table with value chi(e + 1) at p^e, the second route
    the tests compare it with.
    """
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ArgumentError(f"modulus must be an odd prime, got {q}")
    if tau is None:
        tau = divisor_count_sieve(limit)
    elif tau.limit != limit:
        raise ArgumentError(f"divisor count to {tau.limit} given for limit {limit}")
    top = int(tau.values.max())
    chi = np.array([0] + [_jacobi(t, q) for t in range(1, top + 1)], dtype=np.int8)
    return CoeffSeries(limit, chi[tau.values])

