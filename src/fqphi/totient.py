"""Euler totient and sum-of-divisors for nonzero polynomials over F_q.

For monic f with m_d distinct monic irreducible divisors of degree d,

    phi(f) = q**(deg f - sum d*m_d) * prod (q**d - 1)**m_d

which is the factored form everything downstream (collision tests, preimage
counts, value-set enumeration) operates on.  sigma(f) is the sum of |g| over
monic divisors g, computed through its product formula: a prime power P**e
of degree d contributes (q**(d(e+1)) - 1) / (q**d - 1).

Both functions are defined on non-constant polynomials and are computed on
the monic associate, so units never matter.
"""

from __future__ import annotations

from typing import NamedTuple

from .gfpoly import FieldSpec, Poly, factor


class Signature(NamedTuple):
    """deg f together with {d: m_d(f)}; only d with m_d >= 1 are stored."""

    degree: int
    counts: dict[int, int]

    def count(self, d: int) -> int:
        return self.counts.get(d, 0)

    def prime_weight(self) -> int:
        """sum of d * m_d, the degree taken up by distinct prime divisors."""
        return sum(d * m for d, m in self.counts.items())


class PhiValue(NamedTuple):
    """Totient in factored form (j, {d: m_d}) plus its exact integer value."""

    j: int
    counts: dict[int, int]
    value: int


def _require_nonconstant(f: Poly, what: str) -> None:
    if f.degree < 1:
        raise ValueError(f"{what} is only defined for non-constant polynomials")


def signature(f: Poly) -> Signature:
    """Count distinct monic irreducible divisors of f by degree."""
    _require_nonconstant(f, "signature")
    counts: dict[int, int] = {}
    for part, _exp in factor(f.monic()):
        counts[part.degree] = counts.get(part.degree, 0) + 1
    return Signature(f.degree, counts)


def phi_from_signature(sig: Signature, spec: FieldSpec) -> PhiValue:
    """Evaluate the factored totient form for any valid signature."""
    for d, m in sig.counts.items():
        if m < 1:
            raise ValueError(f"signature stores m_{d} = {m} < 1")
        if m > spec.pi(d):
            raise ValueError(
                f"signature has m_{d} = {m} > pi_q({d}) = {spec.pi(d)}")
    j = sig.degree - sig.prime_weight()
    if j < 0:
        raise ValueError(
            f"signature prime weight {sig.prime_weight()} exceeds degree "
            f"{sig.degree}")
    value = spec.q**j
    for d, m in sig.counts.items():
        value *= (spec.q**d - 1) ** m
    return PhiValue(j, dict(sig.counts), value)


def phi(f: Poly) -> PhiValue:
    """Order of the unit group of F_q[x]/(f), in factored and integer form."""
    _require_nonconstant(f, "phi")
    return phi_from_signature(signature(f), f.field)


def sigma(g: Poly) -> int:
    """Sum of |h| over the monic divisors h of g (product formula)."""
    _require_nonconstant(g, "sigma")
    q = g.field.q
    total = 1
    for part, exp in factor(g.monic()):
        psize = q**part.degree
        total *= (psize ** (exp + 1) - 1) // (psize - 1)
    return total
