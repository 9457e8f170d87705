"""Exact integer-side number theory.

Everything here is exact big-integer arithmetic except the Stirling and
solution-count bound formulas, which are evaluated in floating point.  Bound
comparisons apply a relative guard band (``GUARD``) on the strict side, so
floating-point noise can never turn a false inequality into a pass.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Sequence

#: Relative guard band for floating-point bound comparisons.
GUARD = 1e-9

#: Trial-division ceiling before Pollard rho takes over.
TRIAL_LIMIT = 10**6

# Miller-Rabin witnesses: the first 13 primes.  The least strong pseudoprime
# to all of them is _PSI13 (Sorenson & Webster, Math. Comp. 86 (2017)), so
# below it the test is exact; from there on a strong Lucas test completes
# Baillie-PSW, which no known composite passes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981

_trial_primes: list[int] | None = None


def _primes_to(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, fl in enumerate(sieve) if fl]


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


def _brent_factor(n: int) -> int:
    """Nontrivial factor of an odd composite n, deterministic parameters."""
    for c in count(1):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g
    raise AssertionError("unreachable")


def factor_int(n: int) -> dict[int, int]:
    """Exact prime factorization {prime: exponent}, keys ascending.

    Trial division by primes up to ``TRIAL_LIMIT``, then Pollard rho (Brent)
    with a deterministic seed sequence on whatever survives.
    """
    if n < 2:
        raise ValueError(f"factor_int requires n >= 2, got {n}")
    global _trial_primes
    if _trial_primes is None:
        _trial_primes = _primes_to(TRIAL_LIMIT)
    out: dict[int, int] = {}
    for p in _trial_primes:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
            else:
                d = _brent_factor(m)
                stack.append(d)
                stack.append(m // d)
    return dict(sorted(out.items()))


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    if n < 1:
        raise ValueError(f"mobius requires n >= 1, got {n}")
    if n == 1:
        return 1
    fac = factor_int(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def primitive_prime_divisors(a: int, n: int) -> set[int]:
    """Primes dividing a**n - 1 but no earlier a**k - 1 (1 <= k < n)."""
    if a < 2:
        raise ValueError(f"need a >= 2, got {a}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    value = a**n - 1
    if value == 1:
        return set()
    return {
        p
        for p in factor_int(value)
        if all(pow(a, k, p) != 1 for k in range(1, n))
    }


def zsigmondy_has_primitive(a: int, b: int, n: int) -> bool:
    """Whether a**n - b**n has a prime divisor missing from all earlier terms.

    Computed honestly from the factorization; the known exception list
    ((a,b,n) = (2,1,6), and n = 2 with a + b a power of two) is a theorem
    about this function, not an input to it.
    """
    if b < 1 or a <= b:
        raise ValueError(f"need a > b >= 1, got a={a}, b={b}")
    if math.gcd(a, b) != 1:
        raise ValueError(f"need gcd(a, b) = 1, got gcd({a}, {b}) != 1")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    value = a**n - b**n
    return any(
        all(pow(a, k, p) != pow(b, k, p) for k in range(1, n))
        for p in factor_int(value)
    )


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


def count_solutions(weights: Sequence[int], budget: int) -> int:
    """Number of non-negative integer solutions of sum(a_i x_i) <= budget.

    Budget-indexed dynamic programming, O(len(weights) * budget) time.
    """
    weights = list(weights)
    if not weights or any(a < 1 for a in weights):
        raise ValueError("weights must be non-empty positive integers")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    ways = [0] * (budget + 1)
    ways[0] = 1
    for a in weights:
        for b in range(a, budget + 1):
            ways[b] += ways[b - a]
    return sum(ways)


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
