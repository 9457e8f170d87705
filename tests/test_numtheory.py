import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqphi import numtheory as nt


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


class TestMobius:
    def test_examples(self):
        assert nt.mobius(1) == 1
        assert nt.mobius(6) == 1
        assert nt.mobius(12) == 0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            nt.mobius(0)

    def test_agrees_with_definition(self):
        # recompute from the factorization, the definition-level route
        for n in range(1, 10001):
            if n == 1:
                expected = 1
            else:
                fac = nt.factor_int(n)
                expected = 0 if any(e > 1 for e in fac.values()) \
                    else (-1) ** len(fac)
            assert nt.mobius(n) == expected, n


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

    @given(st.integers(min_value=2, max_value=10**9))
    @settings(max_examples=150)
    def test_product_roundtrip(self, n):
        fac = nt.factor_int(n)
        assert math.prod(p**e for p, e in fac.items()) == n
        assert all(nt.is_prime(p) for p in fac)

    def test_large_semiprime(self):
        p, q = 1000003, 1000033
        assert nt.factor_int(p * q) == {p: 1, q: 1}


class TestIsPrime:
    PSI12 = 318665857834031151167461  # = 399165290221 * 798330580441
    PSI13 = 3317044064679887385961981

    def test_agrees_with_prime_sieve(self):
        sieve = nt._primes_to(20000)
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


class TestPrimitivePrimeDivisors:
    def test_exception_values(self):
        assert nt.primitive_prime_divisors(2, 6) == set()
        assert nt.primitive_prime_divisors(2, 2) == {3}
        assert nt.primitive_prime_divisors(2, 4) == {5}

    def test_n1(self):
        assert nt.primitive_prime_divisors(2, 1) == set()
        assert nt.primitive_prime_divisors(4, 1) == {3}

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            nt.primitive_prime_divisors(1, 3)
        with pytest.raises(ValueError):
            nt.primitive_prime_divisors(2, 0)


class TestZsigmondy:
    def test_examples(self):
        assert nt.zsigmondy_has_primitive(2, 1, 6) is False
        assert nt.zsigmondy_has_primitive(3, 1, 2) is False
        assert nt.zsigmondy_has_primitive(5, 1, 2) is True

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            nt.zsigmondy_has_primitive(6, 2, 3)

    def test_agrees_with_primitive_set_small_grid(self):
        for a in range(2, 7):
            for n in range(2, 11):
                expected = bool(nt.primitive_prime_divisors(a, n))
                assert nt.zsigmondy_has_primitive(a, 1, n) == expected

    def test_general_b(self):
        # 3^2 - 2^2 = 5 is new; 5^2 - 3^2 = 16 shares all primes with 5 - 3
        assert nt.zsigmondy_has_primitive(3, 2, 2) is True
        assert nt.zsigmondy_has_primitive(5, 3, 2) is False


class TestStirling:
    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_examples(self, n):
        lower, upper = nt.stirling_bounds(n)
        assert lower < math.factorial(n) < upper

    def test_sandwich_to_30(self):
        assert all(nt.stirling_sandwich_holds(n) for n in range(1, 31))


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
        rng = random.Random(7)
        for _ in range(60):
            k = rng.randint(1, 4)
            weights = [rng.randint(1, 6) for _ in range(k)]
            budget = rng.randint(0, 30)
            assert nt.solution_count_sandwich_holds(weights, budget)


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
