"""Exact integer root extraction, on Python integers.

Floating-point roots are wrong near perfect powers, so every floor of a
fractional power in this package goes through these helpers: a float estimate
followed by exact integer steps.  The identity scans need no grid of roots,
since they compare the jumps of the floors, so nothing here uses numpy.
"""

from math import isqrt

from .errors import ArgumentError


def integer_nth_root(x: int, k: int) -> int:
    """Largest r >= 0 with r**k <= x, for integers x >= 0, k >= 1.

    Below 2^64 the float root of x is off by at most one or two, and
    integer steps of one correct it until r**k <= x < (r+1)**k.  Above,
    Newton's integer step from a float estimate of the top bits: one step
    from any r >= 1 lands at or above the root (the step is an arithmetic
    mean, so AM-GM), and from there the steps decrease strictly until they
    reach it.  Either way the estimate only sets how many steps that
    takes, so the result is exact regardless.
    """
    if k < 1:
        raise ArgumentError(f"root order must be >= 1, got {k}")
    if x < 0:
        raise ArgumentError(f"integer root of negative value {x}")
    if x == 0:
        return 0
    if k == 1:
        return x
    if k == 2:
        return isqrt(x)
    if x < 2**64:
        r = int(float(x) ** (1.0 / k))
        while r**k > x:
            r -= 1
        while (r + 1) ** k <= x:
            r += 1
        return r
    shift = (x.bit_length() - 64) // k * k
    r = max(1, int(round(float(x >> shift) ** (1.0 / k))) << shift // k)
    r = ((k - 1) * r + x // r ** (k - 1)) // k
    while (step := ((k - 1) * r + x // r ** (k - 1)) // k) < r:
        r = step
    return r


def floor_rational_root(num: int, den: int, k: int) -> int:
    """floor((num/den)**(1/k)) for integers num >= 0, den >= 1, k >= 1.

    Uses floor((num/den)**(1/k)) == floor(floor(num/den)**(1/k)), which holds
    because r**k <= num/den is equivalent to r**k <= floor(num/den) for
    integer r.
    """
    if den <= 0:
        raise ArgumentError(f"denominator must be positive, got {den}")
    return integer_nth_root(num // den, k)
