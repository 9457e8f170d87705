"""Exact integer-side number theory.

Everything here is exact big-integer arithmetic except in two places: the
Stirling and triangular-count bound formulas (``stirling_bounds``,
``triangular_count_bound``), evaluated in floating point and compared with a
relative guard band (``GUARD``) on the strict side, so floating-point noise
can never turn a false inequality into a pass; and the float seed of
``ilog``, which the exact power test then corrects.

The package factors only small integers (degrees d, and q - 1 <= 255), so
``factor_int`` is bounded trial division; ``is_prime`` is Baillie-PSW, for a
field characteristic of any size.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: Relative guard band for floating-point bound comparisons.
GUARD = 1e-9

#: ``factor_int`` trial-divides below this, so it factors every
#: n < TRIAL_LIMIT**2 = 2**24 in at most 2**11 divisions.  Its inputs are
#: degrees d (about 14,300 at most for a printable value) and q - 1 <= 255.
TRIAL_LIMIT = 2**12

# Miller-Rabin witnesses: the first 13 primes.  The least strong pseudoprime
# to all of them is _PSI13 (Sorenson & Webster, Math. Comp. 86 (2017)), so
# below it the test is exact; from there on a strong Lucas test completes
# Baillie-PSW, which no known composite passes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981

def ilog(m: int, b: int) -> int:
    """The largest e with b**e <= m for m >= b, and 0 for every m < b.

    The float logarithm only seeds e; the exact power test settles it.
    """
    if m < b:
        return 0
    e = int(math.log(m, b))
    power = b**e
    while power > m:
        power //= b
        e -= 1
    while power * b <= m:
        power *= b
        e += 1
    return e


def _jacobi(a: int, n: int) -> int:
    # Jacobi symbol (a/n) for odd n > 0.
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


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test, Selfridge parameters (Baillie &
    Wagstaff, Math. Comp. 35 (1980)); n odd, > 41 and free of small factors."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists for a square
    D = 5
    while (symbol := _jacobi(D, n)) != -1:
        if symbol == 0:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(v: int) -> int:
        return (v if v % 2 == 0 else v + n) // 2 % n

    U, V, Qk = 0, 2, 1  # U_k, V_k, Q^k at k = 0
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(P * U + V), half(D * U + P * V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality: exact below _PSI13, Baillie-PSW above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = ((d & -d).bit_length()) - 1
    d >>= r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI13 or _strong_lucas(n)


def factor_int(n: int) -> dict[int, int]:
    """Exact prime factorization {prime: exponent}, keys ascending.

    Trial division by 2 and the odd d < ``TRIAL_LIMIT`` while d * d <= the
    part left.  A part m < TRIAL_LIMIT**2 left free of primes below
    TRIAL_LIMIT is 1 or prime: a composite m has a prime factor <= sqrt(m).
    A part of TRIAL_LIMIT**2 or more raises ``ValueError``; every n < 2**24
    factors.
    """
    if n < 2:
        raise ValueError(f"factor_int requires n >= 2, got {n}")
    twos = (n & -n).bit_length() - 1
    out = {2: twos} if twos else {}
    n >>= twos
    for d in range(3, TRIAL_LIMIT, 2):
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    if n >= TRIAL_LIMIT**2:
        raise ValueError(
            f"factor_int: a {n.bit_length()}-bit part has no prime factor "
            f"below TRIAL_LIMIT = {TRIAL_LIMIT}, which proves it prime only "
            f"below TRIAL_LIMIT**2")
    if n > 1:
        out[n] = 1
    return out


def zsigmondy_has_primitive(a: int, b: int, n: int) -> bool:
    """Whether a**n - b**n has a prime divisor missing from all earlier terms.

    Decided by gcd elimination, without factoring: start from part =
    a**n - b**n and, for every k < n, divide out g = gcd(part, a**k - b**k),
    then g = gcd(part, g), until g = 1.  A prime that divides some
    a**k - b**k with k < n is in g at that k for as long as it divides
    part, so the loop removes it in full; a prime that divides no earlier
    term is never in any g.  So part ends as the product of the primitive
    prime powers, and is > 1 exactly when a primitive prime exists.

    Every k < n is tried, where ``preimage._primitive_part`` tries only
    k = n/r for the primes r | n (it relies on ord_p(a) dividing n), so
    this stays a check on ``represent`` that does not share its method.
    The known exception list ((a,b,n) = (2,1,6), and n = 2 with a + b a
    power of two) is a theorem about this function, not an input to it.
    """
    if b < 1 or a <= b:
        raise ValueError(f"need a > b >= 1, got a={a}, b={b}")
    if math.gcd(a, b) != 1:
        raise ValueError(f"need gcd(a, b) = 1, got gcd({a}, {b}) != 1")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    part = a**n - b**n
    a_k = b_k = 1
    for _ in range(1, n):
        a_k *= a
        b_k *= b
        g = math.gcd(part, a_k - b_k)
        while g > 1:
            part //= g
            g = math.gcd(part, g)
    return part > 1


def stirling_bounds(n: int) -> tuple[float, float]:
    """Two-sided factorial bounds (lower, upper) with lower < n! < upper.

    lower = sqrt(2 pi n) (n/e)^n e^(1/(12n+1)), upper uses e^(1/(12n)).
    Evaluated in log space to stay finite well past the tested range.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    base = 0.5 * math.log(2 * math.pi * n) + n * (math.log(n) - 1)
    return math.exp(base + 1 / (12 * n + 1)), math.exp(base + 1 / (12 * n))


def stirling_sandwich_holds(n: int) -> bool:
    """Check lower < n! < upper with the guard band narrowing the window."""
    lower, upper = stirling_bounds(n)
    fact = math.factorial(n)
    return lower * (1 + GUARD) < fact and fact < upper * (1 - GUARD)


def compositions(weights: Iterable[int], limit: int) -> list[int]:
    """Entry w in 0..limit: the number of non-negative integer solutions of
    sum(a_i x_i) = w, one unknown per positive weight (repeats allowed);
    the coefficients of prod_i 1 / (1 - x**a_i), one prefix-sum pass each.
    """
    ways = [1] + [0] * limit
    for a in weights:
        for w in range(a, limit + 1):
            ways[w] += ways[w - a]
    return ways


def count_solutions(weights: Sequence[int], budget: int) -> int:
    """Number of non-negative integer solutions of sum(a_i x_i) <= budget."""
    weights = list(weights)
    if not weights or any(a < 1 for a in weights):
        raise ValueError("weights must be non-empty positive integers")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    return sum(compositions(weights, budget))


def solution_count_sandwich_holds(weights: Sequence[int], budget: int) -> bool:
    """Exact integer check of n^k/(k! prod a) <= N <= (n+sum a)^k/(k! prod a)."""
    weights = list(weights)
    n_count = count_solutions(weights, budget)
    k = len(weights)
    denom = math.factorial(k) * math.prod(weights)
    scaled = n_count * denom
    return budget**k <= scaled <= (budget + sum(weights)) ** k


def triangular_solution_count(n: int) -> int:
    """Solutions of x_1 + 2 x_2 + ... + n x_n <= n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return count_solutions(range(1, n + 1), n)


def triangular_count_bound(n: int) -> float:
    """The proven ceiling 2 (e^2/2)^(n/2) for triangular_solution_count."""
    return 2.0 * (math.e**2 / 2.0) ** (n / 2.0)


def triangular_bound_holds(n: int) -> bool:
    """Check N(n) < 2 (e^2/2)^(n/2), guard band on the strict side."""
    return triangular_solution_count(n) < triangular_count_bound(n) * (1 - GUARD)
