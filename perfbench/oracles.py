"""Reference computations that the benchmark checks tauchar's output against.

Nothing here imports tauchar.  Each value is recomputed by a route of its
own: trial division and Euler's criterion for the arithmetic, a depth-first
walk over powerful numbers for S(x), the hyperbola method for the divisor
summatory function, direct pair enumeration for the fifth-power short sum,
and mpmath for every real constant.
"""

from bisect import bisect_right
from itertools import accumulate
from math import isqrt

import mpmath as mp
import numpy as np

# every mpmath comparison the checks make runs at 30 digits
mp.mp.dps = 30

# Rosser & Schoenfeld (1962): pi(t) < 1.25506 t / log t for every t > 1.
_PI_UPPER = mp.mpf("1.25506")


def primes_up_to(n: int) -> list[int]:
    """Primes <= n by a plain sieve of Eratosthenes."""
    if n < 2:
        return []
    mark = bytearray([1]) * (n + 1)
    mark[0] = mark[1] = 0
    for p in range(2, isqrt(n) + 1):
        if mark[p]:
            mark[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i, m in enumerate(mark) if m]


def odd_primes_up_to(n: int) -> list[int]:
    return [p for p in primes_up_to(n) if p > 2]


def legendre(a: int, q: int) -> int:
    """(a/q) for an odd prime q, by Euler's criterion."""
    a %= q
    if a == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1


def mobius(n: int) -> int:
    """mu(n) by trial division."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


# ---------------------------------------------------------------- residues


def classify(q: int) -> tuple[str, str | None]:
    """(branch, sub_branch) of an odd prime q, from its residues alone."""
    if q == 3:
        return "q_equals_3", None
    if q % 8 in (1, 7):
        return "pm1_mod8", "pm7_mod24" if q % 24 in (7, 17) else "pm1_mod24"
    if q % 24 in (11, 13):
        return "pm11_mod24", None
    if q == 5:
        return "pm5_mod24", "q_equals_5"
    if q % 120 in (19, 29, 91, 101):
        return "pm5_mod24", "pm19_29_mod120"
    return "pm5_mod24", "pm43_53_mod120"


MAIN_KIND = {
    "q_equals_3": "exact_cuberoot",
    "pm1_mod8": "x_log_x",
    "pm11_mod24": "sqrt_x",
    "pm5_mod24": "upper_bound_only",
}


def route_count(q: int) -> int:
    """Factorization routes `verify` checks for q, by residue class."""
    branch, _ = classify(q)
    if q == 3 or (branch == "pm5_mod24" and q != 5):
        return 2
    return 1


def local_coeffs(q: int, sign: int) -> list[int]:
    """Coefficients c[0..q-1] of the cleared local factor L(u).

    The tau character's local series is F(u) = sum_e chi(e+1) u^e =
    P(u) / (1 - u^q) with P(u) = sum_{e<q} chi(e+1) u^e.  Clearing
    zeta(qs) zeta(s) (chi(2) = 1, sign -1) leaves L = P(u)(1 - u); clearing
    zeta(qs) zeta(2s) / zeta(s) (chi(2) = -1, sign +1) leaves L = P(u)(1 + u).
    Either way c[m] = chi(m+1) + sign * chi(m), and c[1] = 0.
    """
    return [1] + [legendre(m + 1, q) + sign * legendre(m, q) for m in range(1, q)]


def first_exponent(q: int) -> int:
    """Smallest m >= 2 with a nonzero local coefficient (CLI first_exponent)."""
    sign = -1 if q % 8 in (1, 7) else 1
    c = local_coeffs(q, sign)
    return next(m for m in range(2, q) if c[m])


# ------------------------------------------------------------ summatory


def convolved_sums(q: int, xs) -> list[int]:
    """S(x) = sum_{n <= x} f(n), f = tauchar_q * 1, for each x in xs.

    Needs q = +-3 (mod 8): then f(p) = 1 + chi(2) = 0, so f lives on
    powerful numbers, with f(p^e) = sum_{k <= e+1} chi(k).  The walk visits
    each powerful n <= max(xs) once.
    """
    if q % 8 not in (3, 5):
        raise ValueError(f"q={q} is not +-3 mod 8; f is not powerful-supported")
    top = max(xs)
    chi = [legendre(k, q) for k in range(q)]
    f_pe = list(accumulate(chi[k % q] for k in range(1, top.bit_length() + 2)))
    primes = primes_up_to(isqrt(top))
    found = [(1, 1)]
    stack = [(1, 1, 0)]
    while stack:
        n, fn, i = stack.pop()
        for j in range(i, len(primes)):
            p = primes[j]
            m = n * p * p
            if m > top:
                break
            e = 2
            while m <= top:
                fm = fn * f_pe[e]  # f_pe[e] = sum_{k=1}^{e+1} chi(k)
                if fm:
                    found.append((m, fm))
                    stack.append((m, fm, j + 1))
                m *= p
                e += 1
    found.sort()
    ns = [n for n, _ in found]
    prefix = list(accumulate(v for _, v in found))
    return [prefix[bisect_right(ns, x) - 1] for x in xs]


def divisor_summatory(n: int, chunk: int = 1 << 20) -> int:
    """D(n) = sum_{k <= n} tau(k) = 2 sum_{i <= sqrt n} floor(n/i) - floor(sqrt n)^2."""
    if not 0 <= n <= 10**16:  # keeps every chunk sum inside int64
        raise ValueError(f"n={n} outside [0, 1e16]")
    r = isqrt(n)
    total = 0
    for lo in range(1, r + 1, chunk):
        i = np.arange(lo, min(lo + chunk, r + 1), dtype=np.int64)
        total += int(np.sum(n // i))
    return 2 * total - r * r


def fifth_power_pairs(x: int, y: int) -> list[tuple[int, int]]:
    """Every pair (d, n) of positive integers with x < d^2 n^5 <= x + y."""
    pairs = []
    n = 1
    while n**5 <= x + y:
        n5 = n**5
        lo = isqrt(x // n5)  # d^2 n^5 > x  iff  d > isqrt(floor(x / n^5))
        hi = isqrt((x + y) // n5)
        pairs.extend((d, n) for d in range(lo + 1, hi + 1))
        n += 1
    return pairs


def near_curve_count(x: int, y: int, n_lo: int, n_hi: int, dps: int = 40) -> int:
    """#{n in [n_lo, n_hi] : ||sqrt(x/n^5)|| < y / sqrt(n_lo^5 x)} at dps digits."""
    with mp.workdps(dps):
        delta = mp.sqrt(mp.mpf(y) ** 2 / (mp.mpf(n_lo) ** 5 * x))
        guard = mp.mpf(10) ** (8 - dps)
        count = 0
        for n in range(n_lo, n_hi + 1):
            t = mp.sqrt(mp.mpf(x) / mp.mpf(n) ** 5)
            dist = abs(t - mp.nint(t))
            if abs(dist - delta) < guard:
                raise ValueError(f"n={n} lies within {guard} of the threshold")
            count += dist < delta
    return count


# ------------------------------------------------------------- constants


def _prime_tail(P: int, a, with_log: bool):
    """Upper bound on sum_{p > P} p^{-a} (times log p if with_log), a > 1.

    Partial summation against pi(t) < 1.25506 t/log t:
    sum_{p>P} g(p) <= -int_P^oo pi(t) g'(t) dt, with -g'(t) <= a t^{-a-1}
    (times log t for the weighted sum).
    """
    a = mp.mpf(a)
    if with_log:
        return _PI_UPPER * a / (a - 1) * mp.mpf(P) ** (1 - a)
    return _PI_UPPER * a / ((a - 1) * mp.log(P)) * mp.mpf(P) ** (1 - a)


def euler_product(q: int, P: int = 10**4, dps: int = 30):
    """Enclosures of the branch product and (log branch) its log-derivative.

    Log branch (q = +-1 mod 8): prod_p L(1/p) and
    -sum_p log p * (sum_m m c[m] p^{-m}) / L(1/p).
    Sqrt branch (q = +-11 mod 24): prod_p L(p^{-1/2}).
    Partial products over p <= P at dps digits, widened by a rigorous tail.
    Returns ((lo, hi), (lo, hi) or None) as mpf pairs.
    """
    log_branch = q % 8 in (1, 7)
    c = local_coeffs(q, -1 if log_branch else 1)
    start = first_exponent(q)
    with mp.workdps(dps):
        s = mp.mpf(1) if log_branch else mp.mpf(1) / 2
        log_prod = mp.mpf(0)
        deriv = mp.mpf(0)
        primes = primes_up_to(P)
        for p in primes:
            r = mp.mpf(p) ** -s
            val, slope, rm = mp.mpf(1), mp.mpf(0), r ** (start - 1)
            for m in range(start, q):
                rm *= r
                if c[m]:
                    val += c[m] * rm
                    slope += m * c[m] * rm
            log_prod += mp.log(val)
            deriv -= mp.log(p) * slope / val
        # for p > P: |L - 1| <= eps(p) = 2 r^start / (1 - r) < 1/2, so
        # |log L| <= eps / (1 - eps) <= k p^{-start*s} with k below
        rP = mp.mpf(P) ** -s
        eps = 2 * rP**start / (1 - rP)
        slack = mp.mpf(10) ** (10 - dps)
        if not log_branch:
            lo, hi = _half_line_tail(c[3], P, len(primes))
            return (mp.exp(log_prod + lo - slack), mp.exp(log_prod + hi + slack)), None
        k = 2 / ((1 - rP) * (1 - eps))
        tail = k * _prime_tail(P, start * s, with_log=False)
        prod = (mp.exp(log_prod - tail - slack), mp.exp(log_prod + tail + slack))
        # |sum_m m c[m] r^m| <= 2 sum_{m>=start} m r^m <= 2 start r^start/(1-r)^2
        kd = 2 * start / ((1 - rP) ** 2 * (1 - eps))
        tail_d = kd * _prime_tail(P, start, with_log=True)
        return prod, (deriv - tail_d - slack, deriv + tail_d + slack)


def _half_line_tail(c3: int, P: int, pi_P: int):
    """Enclosure of sum_{p > P} log L(p^{-1/2}) for the sqrt branch (c[2] = 0).

    With u = p^{-1/2} <= r = P^{-1/2}: L - 1 = c3 u^3 + R, |R| <= 2u^4/(1-u),
    and |log(1+x) - x| <= x^2 / (2(1 - |x|)) with |x| <= eps = 2u^3/(1-u), so
    log L = c3 p^{-3/2} + E with |E| <= k4 p^{-2}.  The main term's prime sum
    is enclosed by partial summation, sum_{p>P} p^{-3/2} =
    -pi(P) P^{-3/2} + 1.5 int_P^oo pi(t) t^{-5/2} dt, between
    t/log t < pi(t) (t >= 17) and pi(t) < 1.25506 t/log t; the integral of
    t^{-3/2}/log t from P is E1(log(P)/2).
    """
    if P < 17:
        raise ValueError("the lower prime-counting bound needs P >= 17")
    r = mp.mpf(P) ** -0.5
    eps = 2 * r**3 / (1 - r)
    k4 = 2 / (1 - r) + 2 * r**2 / ((1 - r) ** 2 * (1 - eps))
    integral = mp.mpf(3) / 2 * mp.e1(mp.log(P) / 2)
    boundary = pi_P * mp.mpf(P) ** -1.5
    main = sorted((c3 * (integral - boundary), c3 * (_PI_UPPER * integral - boundary)))
    err = k4 * _prime_tail(P, 2, with_log=False)
    return main[0] - err, main[1] + err


def zeta(s, derivative: int = 0, dps: int = 30):
    with mp.workdps(dps):
        return +mp.zeta(mp.mpf(s), derivative=derivative)
