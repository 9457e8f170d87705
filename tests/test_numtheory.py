import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqphi import numtheory as nt


def primes_to(limit):
    """The primes <= limit, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, fl in enumerate(sieve) if fl]


TRIAL_PRIMES = primes_to(nt.TRIAL_LIMIT)


def brent_factor(n):
    """A nontrivial factor of an odd composite n: Pollard rho in Brent's
    form, with deterministic parameters."""
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


def reference_factor(n):
    """Full factorization {prime: exponent} of any n >= 2, keys ascending:
    trial division by the primes below TRIAL_LIMIT, then Pollard-Brent with
    Baillie-PSW on what survives.  The reference for ``nt.factor_int``, and
    the factorization for tests of large a**n - b**n, which factor_int
    refuses."""
    if n < 2:
        raise ValueError(f"reference_factor requires n >= 2, got {n}")
    out = {}
    for p in TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if nt.is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = brent_factor(m)
            stack += [d, m // d]
    return dict(sorted(out.items()))


def naive_count(weights, budget):
    """Literal nested enumeration of sum(a_i x_i) <= budget."""
    def rec(idx, rem):
        if idx == len(weights):
            return 1
        return sum(
            rec(idx + 1, rem - weights[idx] * x)
            for x in range(rem // weights[idx] + 1)
        )
    return rec(0, budget)


def ilog_by_counting(m, b):
    """The largest e with b**e <= m, counted up from e = 0."""
    e, power = 0, b
    while power <= m:
        e, power = e + 1, power * b
    return e


class TestIlog:
    @given(st.integers(2, 37), st.integers(0, 2000), st.integers(-1, 1))
    @settings(max_examples=300)
    def test_near_powers(self, b, k, offset):
        m = b**k + offset
        assert nt.ilog(m, b) == ilog_by_counting(m, b), (m, b)

    @given(st.integers(2, 37), st.integers(0, 10**80))
    def test_any_value(self, b, m):
        assert nt.ilog(m, b) == ilog_by_counting(m, b), (m, b)

    def test_zero_below_the_base(self):
        for b in range(2, 38):
            assert [nt.ilog(m, b) for m in range(-3, b)] == [0] * (b + 3)
            assert nt.ilog(b, b) == 1


class TestFactorInt:
    def test_examples(self):
        assert nt.factor_int(63) == {3: 2, 7: 1}
        assert nt.factor_int(2) == {2: 1}
        assert nt.factor_int(2**6 - 1) == {3: 2, 7: 1}

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            nt.factor_int(1)
        with pytest.raises(ValueError):
            nt.factor_int(0)

    def test_keys_ascending_and_prime(self):
        fac = nt.factor_int(2**20 * 3**3 * 1009)
        assert list(fac) == sorted(fac)
        assert all(nt.is_prime(p) for p in fac)

    def test_agrees_with_the_reference_below_2_16(self):
        for n in range(2, 2**16):
            fac = nt.factor_int(n)
            assert fac == reference_factor(n) and list(fac) == sorted(fac), n

    @given(st.integers(min_value=2, max_value=2**24 - 1))
    @settings(max_examples=300)
    def test_agrees_with_the_reference_below_2_24(self, n):
        fac = nt.factor_int(n)
        assert fac == reference_factor(n) and list(fac) == sorted(fac)

    @pytest.mark.parametrize("n", [4099**2, 4099 * 4111, 2**24 + 43,
                                   2**31 - 1])
    def test_refuses_a_part_past_the_trial_limit(self, n):
        # no prime factor below TRIAL_LIMIT, and at least TRIAL_LIMIT**2
        assert min(reference_factor(n)) > nt.TRIAL_LIMIT
        assert n >= nt.TRIAL_LIMIT**2
        with pytest.raises(ValueError, match="TRIAL_LIMIT"):
            nt.factor_int(n)

    def test_large_inputs_with_small_primes(self):
        # a part left below TRIAL_LIMIT**2 is 1 or prime, however large n
        assert nt.factor_int(2**4000) == {2: 4000}
        assert nt.factor_int(3**50 * 4093**3 * 16777213) == {
            3: 50, 4093: 3, 16777213: 1}

    # reference_factor stands in for factor_int wherever a test needs a
    # full factorization past 2**24; these three test it

    @given(st.integers(min_value=2, max_value=10**9))
    @settings(max_examples=150)
    def test_product_roundtrip(self, n):
        fac = reference_factor(n)
        assert math.prod(p**e for p, e in fac.items()) == n
        assert all(nt.is_prime(p) for p in fac)

    def test_large_semiprime(self):
        p, q = 1000003, 1000033
        assert reference_factor(p * q) == {p: 1, q: 1}

    @pytest.mark.parametrize("n,expected", [
        (4099**2, {4099: 2}),
        (4099**3, {4099: 3}),
        (1000003**2, {1000003: 2}),
        (999983 * 1000003, {999983: 1, 1000003: 1}),
        (3 * 65537**2, {3: 1, 65537: 2}),
        ((2**31 - 1) ** 2, {2**31 - 1: 2}),
    ])
    def test_cofactors_above_the_trial_limit(self, n, expected):
        # every prime here except 3 lies above TRIAL_LIMIT, so rho must
        # split repeated and near-equal factors
        assert min(p for p in expected if p != 3) > nt.TRIAL_LIMIT
        assert reference_factor(n) == expected


class TestIsPrime:
    PSI12 = 318665857834031151167461  # = 399165290221 * 798330580441
    PSI13 = 3317044064679887385961981

    def test_agrees_with_prime_sieve(self):
        sieve = primes_to(20000)
        assert [n for n in range(20001) if nt.is_prime(n)] == sieve

    def test_strong_pseudoprimes_to_the_first_prime_bases(self):
        # the least strong pseudoprimes to bases 2..37 and to bases 2..41
        assert self.PSI12 == 399165290221 * 798330580441
        assert not nt.is_prime(self.PSI12)
        assert not nt.is_prime(self.PSI13)

    def test_lucas_catches_what_miller_rabin_passes(self):
        # PSI13 passes all 13 Miller-Rabin bases; only the Lucas half of
        # Baillie-PSW rejects it
        assert not nt._strong_lucas(self.PSI13)

    def test_strong_lucas_pseudoprimes(self):
        # the smallest strong Lucas pseudoprimes (Selfridge parameters);
        # Miller-Rabin base 2 rejects every one of them
        pseudo = [n for n in range(43, 30000, 2)
                  if nt.factor_int(n) != {n: 1} and nt._strong_lucas(n)]
        assert pseudo == [5459, 5777, 10877, 16109, 18971, 22499, 24569,
                          25199]
        assert not any(nt.is_prime(n) for n in pseudo)

    def test_large_primes_and_products(self):
        mersenne = [2**k - 1 for k in (89, 107, 127, 521)]
        assert all(nt.is_prime(m) for m in mersenne)
        assert not nt.is_prime(mersenne[0] * mersenne[1])
        assert not nt.is_prime(mersenne[2] ** 2)
        assert not nt.is_prime(2**128 + 1)


class TestZsigmondy:
    def test_examples(self):
        assert nt.zsigmondy_has_primitive(2, 1, 6) is False
        assert nt.zsigmondy_has_primitive(3, 1, 2) is False
        assert nt.zsigmondy_has_primitive(5, 1, 2) is True

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            nt.zsigmondy_has_primitive(6, 2, 3)

    def test_agrees_with_primitive_set_small_grid(self):
        # a primitive prime of a**n - 1 divides no a**k - 1 with k < n
        for a in range(2, 13):
            for n in range(2, 21):
                expected = any(
                    all(pow(a, k, p) != 1 for k in range(1, n))
                    for p in reference_factor(a**n - 1)
                )
                assert nt.zsigmondy_has_primitive(a, 1, n) == expected

    def test_general_b(self):
        # 3^2 - 2^2 = 5 is new; 5^2 - 3^2 = 16 shares all primes with 5 - 3
        assert nt.zsigmondy_has_primitive(3, 2, 2) is True
        assert nt.zsigmondy_has_primitive(5, 3, 2) is False

    def test_agrees_with_primitive_set_general_b(self):
        # the factorization reference of the b = 1 grid, for every b
        for a in range(2, 15):
            for b in range(1, a):
                if math.gcd(a, b) != 1:
                    continue
                for n in range(2, 16):
                    expected = any(
                        all(pow(a, k, p) != pow(b, k, p) for k in range(1, n))
                        for p in reference_factor(a**n - b**n)
                    )
                    assert nt.zsigmondy_has_primitive(a, b, n) == expected, (
                        a, b, n)

    def test_agrees_with_the_primitive_part(self):
        # preimage._primitive_part removes the primes of a**(n/r) - 1 for
        # the primes r | n alone, where zsigmondy_has_primitive tries every
        # k < n: two gcd walks over different k must find the same primes
        from fqphi.preimage import _primitive_part

        for a in range(2, 31):
            for n in range(2, 61):
                assert nt.zsigmondy_has_primitive(a, 1, n) == (
                    _primitive_part(a, n) > 1), (a, n)

    def test_past_the_reach_of_factoring(self):
        # 2**137 - 1 has two prime factors of 20 and 22 digits, which
        # Pollard rho did not separate within 20 s
        assert nt.zsigmondy_has_primitive(2, 1, 137) is True


def e_bracket(k):
    """(low, high) with low < e < high: sum 1/i! over i < k, and that sum
    plus 2/k!, above the tail 1/k! (1 + 1/(k+1) + 1/(k+1)**2 + ...)."""
    low = sum(Fraction(1, math.factorial(i)) for i in range(k))
    return low, low + Fraction(2, math.factorial(k))


def pi_bracket(terms):
    """(low, high) with low < pi < high, by Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239), each arctan between the last two
    partial sums of its alternating series."""
    def arctan(m):
        sums = [Fraction(0)]
        for i in range(terms + 1):
            term = Fraction((-1)**i, (2 * i + 1) * m**(2 * i + 1))
            sums.append(sums[-1] + term)
        return sorted(sums[-2:])

    (low5, high5), (low239, high239) = arctan(5), arctan(239)
    return 16 * low5 - 4 * high239, 16 * high5 - 4 * low239


def robbins_holds(n):
    """Robbins' sandwich in 60-digit decimal logarithms, n! from
    math.factorial and pi from Machin's formula."""
    with localcontext() as ctx:
        ctx.prec = 60
        low, _ = pi_bracket(40)
        pi = Decimal(low.numerator) / Decimal(low.denominator)
        base = (2 * pi * n).ln() / 2 + n * (Decimal(n).ln() - 1)
        log_fact = Decimal(math.factorial(n)).ln()
        return (base + Decimal(1) / (12 * n + 1) < log_fact
                < base + Decimal(1) / (12 * n))


class TestBelow:
    def test_e_literal(self):
        low, high = e_bracket(40)
        assert math.floor(low * 2**128) == math.floor(high * 2**128) == nt._E

    def test_pi_literal(self):
        low, high = pi_bracket(40)
        assert math.floor(low * 2**128) == math.floor(high * 2**128) == nt._PI

    def test_overlapping_brackets_raise(self):
        # floor(e 2**128) < e 2**128 and pi 2**128 < floor(pi 2**128) + 1,
        # but each side's bracket holds the other side's point
        with pytest.raises(ValueError, match="too close"):
            nt._below(nt._E, 2**128, 0, 1)
        with pytest.raises(ValueError, match="too close"):
            nt._below(2**128, nt._PI + 1, 1, 0)

    def test_decides_next_to_the_brackets(self):
        assert nt._below(nt._E - 1, 2**128, 0, 1)
        assert not nt._below(nt._E + 1, 2**128, 0, 1)
        assert nt._below(2**128, nt._PI + 2, 1, 0)
        assert not nt._below(2**128, nt._PI, 1, 0)

    def test_integers_alone_compare_exactly(self):
        assert nt._below(2, 3, 0, 0) and not nt._below(3, 3, 0, 0)

    def test_matches_decimal(self):
        # x pi**a < y e**(m - t) in 80-digit decimal, away from the tie
        rng = random.Random(45)
        low, _ = pi_bracket(60)
        decided = 0
        with localcontext() as ctx:
            ctx.prec = 80
            pi = Decimal(low.numerator) / Decimal(low.denominator)
            for _ in range(300):
                pis, es = rng.randint(0, 1), rng.randint(0, 60)
                den = rng.randint(1, 10**6)
                num = rng.randrange(den) if rng.random() < 0.7 else 0
                y = rng.randint(1, 10**30)
                right = y * (Decimal(es) - Decimal(num) / den).exp()
                # x off the tie by a relative 10**-5 .. 10**-28, either side
                shift = rng.choice((-1, 1)) * Decimal(10)**-rng.randint(5, 28)
                x = int(right / pi**pis * (1 + shift))
                left = x * pi**pis
                if abs(left - right) < right * Decimal(10)**-30:
                    continue
                assert nt._below(x, y, pis, es, num, den) == (left < right), (
                    x, y, pis, es, num, den)
                decided += 1
        assert decided > 250


class TestStirling:
    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_examples(self, n):
        # each Robbins exponent decides its own side, and the other side's
        # exponent turns the inequality round
        power, square = 2 * n**(2 * n + 1), math.factorial(n)**2
        assert nt.stirling_sandwich_holds(n)
        assert nt._below(power, square, 1, 2 * n, 2, 12 * n + 1)
        assert not nt._below(power, square, 1, 2 * n, 2, 12 * n)
        assert not nt._below(power, square, 1, 2 * n, 2, 12 * n - 1)
        assert nt._below(power, square, 1, 2 * n, 2, 12 * n + 2)

    def test_sandwich_to_30(self):
        assert all(nt.stirling_sandwich_holds(n) for n in range(1, 31))

    @pytest.mark.parametrize("ns", [
        range(1, 141),
        # the band where the gap, about 1/(360 n**3), is below a 1e-9
        # float guard band
        range(141, 171),
        # n! passes the largest float here
        range(171, 172),
        range(172, 201),
    ], ids=["1-140", "141-170", "171", "172-200"])
    def test_sandwich_to_200_against_factorial(self, ns):
        for n in ns:
            assert robbins_holds(n), n
            assert nt.stirling_sandwich_holds(n), n

    def test_rejects_n_below_1(self):
        with pytest.raises(ValueError):
            nt.stirling_sandwich_holds(0)


class TestCountSolutions:
    def test_examples(self):
        assert nt.count_solutions([1], 1) == 2
        assert nt.count_solutions([1, 2], 2) == 4
        assert nt.count_solutions([1, 2, 3], 3) == 7

    def test_rejects_bad_query(self):
        with pytest.raises(ValueError):
            nt.count_solutions([], 3)
        with pytest.raises(ValueError):
            nt.count_solutions([0, 2], 3)
        with pytest.raises(ValueError):
            nt.count_solutions([1], -1)

    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=120)
    def test_matches_naive_enumeration(self, weights, budget):
        assert nt.count_solutions(weights, budget) == naive_count(weights, budget)

    def test_sandwich_random(self):
        for seed, instances, max_budget in ((7, 60, 30), (20240817, 200, 40)):
            rng = random.Random(seed)
            for _ in range(instances):
                k = rng.randint(1, 4)
                weights = [rng.randint(1, 6) for _ in range(k)]
                budget = rng.randint(0, max_budget)
                assert nt.solution_count_sandwich_holds(weights, budget), (
                    seed, weights, budget)


class TestTriangular:
    def test_examples(self):
        assert nt.triangular_solution_count(1) == 2
        assert nt.triangular_solution_count(2) == 4
        assert nt.triangular_solution_count(3) == 7

    def test_matches_generic_counter(self):
        for n in range(1, 12):
            assert nt.triangular_solution_count(n) == naive_count(
                list(range(1, n + 1)), n)

    def test_bound_to_60(self):
        assert all(nt.triangular_bound_holds(n) for n in range(1, 61))

    @pytest.mark.parametrize("n", [1000, 1100, 2000])
    def test_bound_past_float_range(self, n):
        # 2 (e^2/2)^(n/2) passes the largest float between n = 1000 and 1100
        assert nt.triangular_bound_holds(n)
