"""Exact integer root extraction.

Floating-point roots are wrong near perfect powers, so every floor of a
fractional power in this package goes through these helpers: a float estimate
followed by exact integer steps.
"""

from math import isqrt
from typing import TYPE_CHECKING

from .errors import ArgumentError

if TYPE_CHECKING:
    import numpy as np


def integer_nth_root(x: int, k: int) -> int:
    """Largest r >= 0 with r**k <= x, for integers x >= 0, k >= 1.

    Newton's integer step from a float estimate of the top bits: one step
    from any r >= 1 lands at or above the root (the step is an arithmetic
    mean, so AM-GM), and from there the steps decrease strictly until they
    reach it.  The estimate only sets how many steps that takes, so the
    result is exact regardless.
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
    shift = max(0, x.bit_length() - 64) // k * k
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


def floor_root_grid(vals: "np.ndarray", k: int) -> "np.ndarray":
    """Elementwise floor(v**(1/k)) for an int64 array of nonnegative values.

    Float seed plus a bounded integer correction sweep; every comparison is
    in exact int64, so the result is exact as long as r**k stays in range
    (callers keep v below ~9e18 so r**k <= v + small slack fits).  numpy
    is imported here, so the scalar roots above load none.
    """
    import numpy as np

    if k < 1:
        raise ArgumentError(f"root order must be >= 1, got {k}")
    vals = np.asarray(vals, dtype=np.int64)
    if vals.size and int(vals.min()) < 0:
        raise ArgumentError("integer root of negative value")
    if k == 1:
        return vals.copy()
    r = np.floor(vals.astype(np.float64) ** (1.0 / k)).astype(np.int64)
    r = np.maximum(r, 0)
    for _ in range(6):
        over = r**k > vals
        if over.any():
            r = np.where(over, r - 1, r)
        under = (r + 1) ** k <= vals
        if under.any():
            r = np.where(under, r + 1, r)
        if not (over.any() or under.any()):
            return r
    raise ArgumentError("root correction did not settle; values out of range")
