from math import prod

import pytest

from fqphi import (
    FieldSpec,
    Signature,
    enumerate_monic,
    factor,
    gcd,
    phi,
    phi_from_signature,
    sigma,
    signature,
)
from fqphi.gfpoly import Poly
from itertools import product
from typing import NamedTuple


def unit_group_order(f):
    """Definitional oracle: count residues mod f coprime to f."""
    spec = f.field
    one = spec.one()
    count = 0
    for coeffs in product(range(spec.q), repeat=f.degree):
        r = Poly(spec, coeffs)
        if not r.is_zero() and gcd(r, f) == one:
            count += 1
    return count


def divisor_sum(g):
    """Definitional oracle: sum |h| over monic divisors h, including 1 and g."""
    spec = g.field
    total = 1  # the divisor 1
    for d in range(1, g.degree + 1):
        for h in enumerate_monic(spec, d):
            if (g % h).is_zero():
                total += spec.q**d
    return total


def monics_up_to(spec, max_deg):
    for d in range(1, max_deg + 1):
        yield from enumerate_monic(spec, d)


class TestPhi:
    def test_linear_is_q_minus_1(self):
        for q, spec in ((2, FieldSpec(2)), (3, FieldSpec(3)), (5, FieldSpec(5))):
            assert phi(spec.x()).value == q - 1

    def test_prime_power(self, F2):
        value = phi(F2.x() ** 3)
        assert (value.j, value.counts, value.value) == (2, {1: 1}, 4)

    def test_three_distinct_primes(self, F2):
        f = F2.parse("x") * F2.parse("x+1") * F2.parse("x^2+x+1")
        value = phi(f)
        assert (value.j, value.counts, value.value) == (0, {1: 2, 2: 1}, 3)

    def test_rejects_constants(self, F2):
        with pytest.raises(ValueError):
            phi(F2.one())
        with pytest.raises(ValueError):
            phi(F2.zero())

    def test_unit_invariance(self, F5):
        f = F5.parse("x^2+x+1")
        g = F5.parse("3*x^2+3*x+3")
        assert phi(f) == phi(g)

    @pytest.mark.parametrize("spec", [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2)])
    def test_matches_unit_group_count(self, spec):
        for f in monics_up_to(spec, 4):
            assert phi(f).value == unit_group_order(f), f

    @pytest.mark.parametrize(
        "spec", [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2)])
    def test_factored_form_reproduces_value(self, spec):
        for f in monics_up_to(spec, 6):
            value = phi(f)
            rebuilt = spec.q**value.j * prod(
                (spec.q**d - 1) ** m for d, m in value.counts.items())
            assert rebuilt == value.value


class TestSignature:
    def test_examples(self, F2, F3):
        s = signature(F2.parse("x^3+x^2"))  # x^2 (x+1)
        assert (s.degree, s.counts) == (3, {1: 2})
        s = signature(F2.parse("x^2+x+1") ** 2)
        assert (s.degree, s.counts) == (4, {2: 1})
        s = signature(F3.x() * F3.parse("x+1") * F3.parse("x+2"))
        assert (s.degree, s.counts) == (3, {1: 3})

    def test_weight_never_exceeds_degree(self, F3):
        for f in monics_up_to(F3, 5):
            s = signature(f)
            assert s.prime_weight() <= s.degree
            assert all(m <= F3.pi(d) for d, m in s.counts.items())


class TestPhiFromSignature:
    def test_examples(self, F2, F3, F5):
        assert phi_from_signature(Signature(3, {1: 1}), F2).value == 4
        assert phi_from_signature(Signature(2, {2: 1}), F3).value == 8
        for q, spec in ((2, F2), (3, F3), (5, F5)):
            assert phi_from_signature(Signature(1, {1: 1}), spec).value == q - 1

    def test_agrees_with_phi(self, F3):
        for f in monics_up_to(F3, 5):
            assert phi_from_signature(signature(f), F3) == phi(f)

    def test_rejects_invalid(self, F2):
        with pytest.raises(ValueError):
            phi_from_signature(Signature(2, {2: 2}), F2)  # above pi_2(2) = 1
        with pytest.raises(ValueError):
            phi_from_signature(Signature(1, {2: 1}), F2)  # weight 2 > degree
        with pytest.raises(ValueError):
            phi_from_signature(Signature(3, {1: 0}), F2)


class TestSigma:
    def test_examples(self, F2):
        assert sigma(F2.x()) == 3
        assert sigma(F2.x() ** 2) == 7
        assert sigma(F2.parse("x^2+x")) == 9

    def test_rejects_constants(self, F2):
        with pytest.raises(ValueError):
            sigma(F2.one())

    @pytest.mark.parametrize("spec", [FieldSpec(2), FieldSpec(3)])
    def test_matches_divisor_sum(self, spec):
        for f in monics_up_to(spec, 4):
            assert sigma(f) == divisor_sum(f), f


class TestMultiplicativity:
    @pytest.mark.parametrize("spec", [FieldSpec(2), FieldSpec(3)])
    def test_phi_and_sigma_multiplicative(self, spec):
        one = spec.one()
        polys = list(monics_up_to(spec, 3))
        for f in polys:
            for g in polys:
                if gcd(f, g) == one:
                    assert phi(f * g).value == phi(f).value * phi(g).value
                    assert sigma(f * g) == sigma(f) * sigma(g)


class SigmaExponents(NamedTuple):
    """Signed exponents {d: k_d} of the (q**d - 1) expansion of sigma."""

    exps: dict[int, int]

    def evaluate(self, spec):
        num = den = 1
        for d, k in self.exps.items():
            if k > 0:
                num *= (spec.q**d - 1) ** k
            elif k < 0:
                den *= (spec.q**d - 1) ** (-k)
        assert num % den == 0, f"not an integer: {self.exps}"
        return num // den


def sigma_exponents(g):
    """Exponent vector of sigma(g) over the basis q**d - 1, the paper's
    signed form sigma(g) = prod (q**d - 1)**k_d.

    Each prime power P**e with deg P = d contributes +1 at d*(e+1) and -1
    at d.  Three structural facts are asserted on the result: the exponents
    sum to zero, no negative exponent exceeds pi_q(d) in magnitude, and every
    negative entry at d is answered by a positive entry at some multiple of d.
    """
    spec = g.field
    exps = {}
    for part, exp in factor(g.monic()):
        d = part.degree
        top = d * (exp + 1)
        exps[top] = exps.get(top, 0) + 1
        exps[d] = exps.get(d, 0) - 1
    exps = {d: k for d, k in exps.items() if k}
    assert sum(exps.values()) == 0, exps
    for d, k in exps.items():
        if k < 0:
            assert -k <= spec.pi(d), (d, exps)
            assert any(j % d == 0 and kj > 0 for j, kj in exps.items()), exps
    return SigmaExponents(exps)


class TestSigmaExponents:
    def test_prime_square(self, F2):
        assert sigma_exponents(F2.x() ** 2).exps == {3: 1, 1: -1}

    def test_single_prime(self, F3):
        exps = sigma_exponents(F3.parse("x^2+1")).exps
        assert exps == {4: 1, 2: -1}

    def test_combined_example(self, F3):
        g = F3.parse("x^2") * F3.parse("x+1")
        assert sigma_exponents(g).exps == {3: 1, 2: 1, 1: -2}

    @pytest.mark.parametrize("spec", [FieldSpec(2), FieldSpec(3)])
    def test_sum_zero_and_reevaluation(self, spec):
        for g in monics_up_to(spec, 6):
            exps = sigma_exponents(g)
            assert sum(exps.exps.values()) == 0
            assert exps.evaluate(spec) == sigma(g), g
