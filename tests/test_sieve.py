"""The sieve oracle against the factor-based totient functions.

``preimage.sieve`` builds every monic from its prime factors and never calls
``factor``; these tests keep the two independent routes honest against each
other, and show that the sieve's own invariant checks fire.
"""

from collections import Counter

import pytest

from fqphi import (
    CounterexampleError,
    FieldSpec,
    Poly,
    enumerate_monic,
    factor,
    phi_from_signature,
    phi_table,
    sigma,
    sigma_values,
    signature,
)
from fqphi import preimage
from fqphi.gfpoly import kron_unpack
from fqphi.preimage import sieve

# F_11 to degree 3 packs its products in one-byte lanes at the edge
# (2 * 10**2 = 200 < 256); F_13 to degree 3 needs two-byte lanes.
GRIDS = [((2, 1), 10), ((3, 1), 6), ((2, 2), 4), ((5, 1), 4), ((3, 2), 3),
         ((11, 1), 3), ((13, 1), 3)]


def sieve_factorization(entry, entries):
    """Prime factors of entry.poly read off the sieve's (smallest, cofactor)
    chain, as sorted (part coefficients, exponent) pairs."""
    parts = Counter()
    while entry.cofactor is not None:
        parts[entry.smallest.coeffs] += 1
        entry = entries[entry.cofactor.coeffs]
    parts[entry.poly.coeffs] += 1
    return sorted(parts.items(), key=lambda kv: (len(kv[0]), kv[0]))


@pytest.fixture(autouse=True)
def fresh_cache():
    preimage._sieve_tables.cache_clear()
    yield
    preimage._sieve_tables.cache_clear()


@pytest.mark.parametrize("field,max_deg", GRIDS, ids=lambda v: str(v))
def test_sieve_matches_factor(field, max_deg):
    spec = FieldSpec(*field)
    entries = {}
    for entry in sieve(spec, max_deg):
        f = entry.poly
        entries[f.coeffs] = entry
        parts = sieve_factorization(entry, entries)
        assert parts == [(part.coeffs, exp) for part, exp in factor(f)], f
        sig = signature(f)
        degrees = Counter(len(coeffs) - 1 for coeffs, _ in parts)
        assert degrees == Counter(sig.counts), f
        # phi(f) is phi_from_signature(signature(f)); skip a second factor
        assert entry.phi == phi_from_signature(sig, spec).value, f
        assert entry.sigma == sigma(f) >= f.size(), f
    assert len(entries) == sum(spec.q**d for d in range(1, max_deg + 1))


@pytest.mark.parametrize("field,max_deg", GRIDS, ids=lambda v: str(v))
def test_tables_come_from_the_sieve(field, max_deg):
    spec = FieldSpec(*field)
    expected = {}
    for entry in sieve(spec, max_deg):
        expected.setdefault(entry.phi, []).append(entry.poly)
    assert phi_table(spec, max_deg) == expected
    assert sigma_values(spec, max_deg) == {
        entry.sigma for entry in sieve(spec, max_deg)}


def test_phi_table_lists_in_enumeration_order():
    spec = FieldSpec(3)
    table = phi_table(spec, 6)
    order = [f for d in range(1, 7) for f in enumerate_monic(spec, d)]
    position = {f.coeffs: i for i, f in enumerate(order)}
    for polys in table.values():
        ranks = [position[f.coeffs] for f in polys]
        assert ranks == sorted(ranks)
    assert sorted(f for polys in table.values() for f in polys) == order


def test_wrong_irreducible_count_raises(monkeypatch):
    true_pi = FieldSpec.pi
    monkeypatch.setattr(
        FieldSpec, "pi",
        lambda self, d: true_pi(self, d) + (d == 3))
    with pytest.raises(CounterexampleError, match="irreducibles of degree 3"):
        phi_table(FieldSpec(2), 4)


def test_monic_reached_twice_raises(monkeypatch):
    # a multiplication that returns x**deg for every product: the second
    # product of a degree lands on a monic the sieve has already reached
    def collapsing_mul(value, p, width):
        return (0,) * (len(kron_unpack(value, p, width)) - 1) + (1,)

    monkeypatch.setattr(preimage, "kron_unpack", collapsing_mul)
    with pytest.raises(CounterexampleError, match="twice"):
        phi_table(FieldSpec(2), 3)


@pytest.mark.parametrize("wrong", [
    lambda codes: codes + (1,),          # one degree too many
    lambda codes: codes[:-1] + (2,),     # not monic
])
def test_product_not_monic_of_degree_d_raises(monkeypatch, wrong):
    def broken_mul(value, p, width):
        return wrong(tuple(kron_unpack(value, p, width)))

    monkeypatch.setattr(preimage, "kron_unpack", broken_mul)
    with pytest.raises(CounterexampleError,
                       match=r"\(x\)\*\(x\) is not a monic of degree 2"):
        phi_table(FieldSpec(3), 2)


def test_extension_field_products_checked(monkeypatch):
    # over F_4 the sieve multiplies with Poly.__mul__
    spec = FieldSpec(2, 2)  # before the patch: the modulus search multiplies
    monkeypatch.setattr(Poly, "__mul__",
                        lambda self, other: Poly(self.field, (0, 0, 0, 1)))
    with pytest.raises(CounterexampleError, match="not a monic of degree 2"):
        phi_table(spec, 2)
