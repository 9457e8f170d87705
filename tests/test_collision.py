from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqphi import (
    FieldSpec,
    Signature,
    enumerate_monic,
    phi,
    phi_from_signature,
    phi_table,
    same_phi,
    signature,
)

FIELDS = {2: FieldSpec(2), 3: FieldSpec(3), 4: FieldSpec(2, 2), 5: FieldSpec(5)}


@cache
def valid_signatures(spec, max_deg=6):
    # build a random valid signature: pick counts under the caps, then pad
    # the degree by a non-negative amount; one strategy per (spec, max_deg),
    # since Hypothesis inspects each new composite's source
    @st.composite
    def build(draw):
        counts = {}
        weight = 0
        for d in (1, 2, 3):
            cap = min(spec.pi(d), (max_deg - weight) // d)
            if cap <= 0:
                break
            m = draw(st.integers(0, cap))
            if m:
                counts[d] = m
                weight += d * m
        slack = draw(st.integers(0, max_deg - weight))
        return Signature(weight + slack, counts)

    return build()


class TestSamePhiExamples:
    def test_q2(self, F2):
        a = signature(F2.x() ** 3)
        b = signature(F2.parse("x^2") * F2.parse("x^2+1"))
        assert same_phi(a, b, F2) is True

    def test_q3(self, F3):
        a = signature(F3.parse("x^2+1"))
        b = signature(F3.x() * F3.parse("x+1") * F3.parse("x+2"))
        assert same_phi(a, b, F3) is True

    def test_q5(self, F5):
        assert same_phi(
            signature(F5.x()), signature(F5.x() ** 2), F5) is False


@pytest.mark.parametrize("q,max_deg", [(2, 6), (3, 4), (4, 3), (5, 2)])
def test_criterion_matches_exact_equality(q, max_deg):
    spec = FIELDS[q]
    data = []
    for d in range(1, max_deg + 1):
        for f in enumerate_monic(spec, d):
            data.append((signature(f), phi(f).value))
    for sig_a, val_a in data:
        for sig_b, val_b in data:
            assert same_phi(sig_a, sig_b, spec) == (val_a == val_b)


@pytest.mark.parametrize("q", [2, 3, 5])
class TestEquivalenceRelation:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_reflexive_symmetric(self, q, data):
        spec = FIELDS[q]
        a = data.draw(valid_signatures(spec))
        b = data.draw(valid_signatures(spec))
        assert same_phi(a, a, spec)
        assert same_phi(a, b, spec) == same_phi(b, a, spec)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_transitive(self, q, data):
        spec = FIELDS[q]
        a = data.draw(valid_signatures(spec))
        b = data.draw(valid_signatures(spec))
        c = data.draw(valid_signatures(spec))
        if same_phi(a, b, spec) and same_phi(b, c, spec):
            assert same_phi(a, c, spec)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_respects_values(self, q, data):
        spec = FIELDS[q]
        a = data.draw(valid_signatures(spec))
        b = data.draw(valid_signatures(spec))
        same_value = (
            phi_from_signature(a, spec).value
            == phi_from_signature(b, spec).value
        )
        assert same_phi(a, b, spec) == same_value


class TestPhiClasses:
    """The phi classes: ``phi_table`` buckets monics by totient value."""

    def test_degree_one_over_f2(self, F2):
        classes = phi_table(F2, 1)
        assert [str(f) for f in classes[1]] == ["x", "x+1"]

    def test_value_one_gains_product(self, F2):
        classes = phi_table(F2, 2)
        assert F2.parse("x^2+x") in classes[1]
        assert len(classes[1]) == 3

    def test_linears_over_f3(self, F3):
        classes = phi_table(F3, 1)
        assert len(classes[2]) == 3

    def test_classes_internally_consistent(self, F3):
        classes = phi_table(F3, 4)
        for value, members in classes.items():
            sigs = [signature(f) for f in members]
            assert all(phi(f).value == value for f in members)
            for s in sigs:
                assert same_phi(sigs[0], s, F3)
