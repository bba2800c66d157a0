"""Integer root helpers, especially behavior exactly at perfect powers."""

import random

import pytest

from tauchar.errors import ArgumentError
from tauchar.roots import floor_rational_root, integer_nth_root


def test_exact_at_perfect_powers():
    for k in (2, 3, 5, 7):
        # past 2^64 the float estimate sees only the top bits
        for r in (1, 2, 3, 10, 99, 1000, 2**22 + 1, 3**40, 2**300 - 1):
            v = r**k
            assert integer_nth_root(v, k) == r
            assert integer_nth_root(v - 1, k) == r - 1
            assert integer_nth_root(v + 1, k) == r


def newton_root(x: int, k: int) -> int:
    """floor(x^(1/k)) by Newton's integer step alone, from 2^ceil(bits/k),
    which is at or above the root; no float is involved."""
    r = 1 << -(-x.bit_length() // k)
    while (step := ((k - 1) * r + x // r ** (k - 1)) // k) < r:
        r = step
    return r


def test_float_route_matches_newton_on_random_values():
    rng = random.Random(21)
    for k in (3, 4, 5, 7):
        for _ in range(20000):
            x = rng.randrange(1, 10**15)
            assert integer_nth_root(x, k) == newton_root(x, k), (x, k)


def test_both_routes_at_powers_around_2_64():
    # x < 2^64 takes the float estimate, x >= 2^64 Newton's step; the r^k
    # nearest 2^64 on each side, and a few beyond, with their neighbours
    for k in (3, 4, 5, 7):
        r0 = newton_root(2**64, k)
        for r in range(r0 - 3, r0 + 4):
            for x in (r**k - 1, r**k, r**k + 1):
                assert integer_nth_root(x, k) == newton_root(x, k), (x, k)
    for x in (2**64 - 1, 2**64, 2**64 + 1):
        for k in (3, 4, 5, 7, 64, 65):
            assert integer_nth_root(x, k) == newton_root(x, k), (x, k)


def test_against_float_free_oracle():
    for k in (2, 3, 5):
        for v in range(0, 5000):
            r = integer_nth_root(v, k)
            assert r**k <= v < (r + 1) ** k


def test_large_values():
    # near the top of the int64 range
    v = 2**62
    r = integer_nth_root(v, 5)
    assert r**5 <= v < (r + 1) ** 5
    assert integer_nth_root((10**6) ** 3, 3) == 10**6
    # far past the float range
    v = 2**2000 + 12345
    r = integer_nth_root(v, 3)
    assert r**3 <= v < (r + 1) ** 3


def test_rational_root_floor():
    assert floor_rational_root(10**10, 1, 5) == 100
    assert floor_rational_root(10**10 - 1, 1, 5) == 99
    assert floor_rational_root(7, 2, 2) == 1  # floor(sqrt(3.5))
    assert floor_rational_root(0, 5, 3) == 0
    with pytest.raises(ArgumentError):
        floor_rational_root(4, 0, 2)
    with pytest.raises(ArgumentError):
        integer_nth_root(-1, 3)
    with pytest.raises(ArgumentError):
        integer_nth_root(4, 0)
