import random

import pytest

from fqphi import (
    CounterexampleError,
    FieldSpec,
    count_profile,
    degree_bound,
    min_phi,
    phi,
    phi_table,
    preimage_count,
    preimage_list,
    represent,
    sierpinski_witness,
)

F7 = FieldSpec(7)
F8 = FieldSpec(2, 3)
F9 = FieldSpec(3, 2)


class TestRepresent:
    def test_q2_examples(self, F2):
        reps = represent(3, F2)
        assert len(reps) == 1
        assert (reps[0].j, reps[0].counts) == (0, {2: 1})
        assert represent(5, F2) == []

    def test_q3_merged_form(self, F3):
        reps = represent(8, F3)
        assert len(reps) == 1
        assert (reps[0].j, reps[0].merged, reps[0].counts) == (0, 3, {})

    def test_evaluation_roundtrip(self, F2, F3, F5):
        for spec in (F2, F3, F5):
            for n in range(1, 300):
                for rep in represent(n, spec):
                    assert rep.evaluate(spec) == n

    def test_one_is_a_value_only_for_q2(self, F2, F3, F5):
        assert len(represent(1, F2)) == 1
        assert represent(1, F3) == []
        assert represent(1, F5) == []

    def test_q4_requires_even_2adic_part(self, F4):
        assert represent(6, F4) == []   # v_2 = 1 is odd
        assert len(represent(12, F4)) == 1  # 4 * 3

    def test_rejects_non_positive(self, F2):
        with pytest.raises(ValueError):
            represent(0, F2)

    @pytest.mark.parametrize("spec", [FieldSpec(2, 2), FieldSpec(5), F7, F8, F9])
    def test_uniqueness_for_large_fields(self, spec):
        for n in range(1, 10001):
            assert len(represent(n, spec)) <= 1, (spec.q, n)


class TestPreimageCount:
    def test_q2_examples(self, F2):
        assert preimage_count(1, F2) == 3
        assert preimage_count(3, F2) == 4
        assert preimage_count(12, F2) == 9

    def test_nonmembers_count_zero(self, F2, F5):
        assert preimage_count(5, F2) == 0
        assert preimage_count(1, F5) == 0

    def test_small_formula_oracle_agreement(self, F2):
        table = phi_table(F2, degree_bound(60, F2))
        for n in range(1, 61):
            assert preimage_count(n, F2) == len(table.get(n, ())), n

    def test_q3_merged_count(self, F3):
        # 16 = 2^4 -> i = 4, the splittings (1, 1) give 3 * 3 preimages
        assert preimage_count(16, F3) == 9


class TestPreimageList:
    def test_value_one(self, F2):
        assert [str(f) for f in preimage_list(1, F2)] == ["x", "x+1", "x^2+x"]

    def test_value_two(self, F2):
        polys = preimage_list(2, F2)
        assert [str(f) for f in polys] == ["x^2", "x^2+1", "x^3+x^2", "x^3+x"]
        assert len(polys) == preimage_count(2, F2)

    def test_q3_value_four(self, F3):
        polys = preimage_list(4, F3)
        assert [str(f) for f in polys] == ["x^2+x", "x^2+2*x", "x^2+2"]
        assert all(phi(f).value == 4 for f in polys)

    def test_lists_are_sorted_and_exact(self, F3):
        for n in (2, 4, 6, 8, 16, 48):
            polys = preimage_list(n, F3)
            assert polys == sorted(polys)
            assert all(phi(f).value == n for f in polys)
            assert len(polys) == preimage_count(n, F3)


class TestDegreeBound:
    def test_examples(self, F2, F5):
        assert degree_bound(1, F2) == 2
        assert degree_bound(3, F2) == 4
        assert degree_bound(4, F5) == 1

    @staticmethod
    def three_miss_bound(n, spec):
        # the earlier heuristic: stop after three consecutive degrees whose
        # minimum totient exceeds n
        last_ok = misses = d = 0
        while misses < 3:
            d += 1
            if min_phi(spec, d) <= n:
                last_ok, misses = d, 0
            else:
                misses += 1
        return last_ok

    @pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (5, 1),
                                       (7, 1), (3, 2)])
    def test_proven_rule_matches_three_miss_rule(self, field):
        spec = FieldSpec(*field)
        rng = random.Random(spec.q)
        ns = set(range(1, 200)) | {10**k for k in range(31)}
        ns |= {rng.randrange(1, 10 ** rng.randint(1, 30)) for _ in range(60)}
        d = 1
        while min_phi(spec, d) <= 10**30:  # both sides of every step
            m = min_phi(spec, d)
            ns |= {m - 1, m, m + 1}
            d += 1
        for n in sorted(n for n in ns if 1 <= n <= 10**30):
            assert degree_bound(n, spec) == self.three_miss_bound(n, spec), n

    def test_min_phi_values(self, F2):
        assert min_phi(F2, 1) == 1   # phi(x) = 1
        assert min_phi(F2, 2) == 1   # phi(x(x+1)) = 1
        assert min_phi(F2, 3) == 2

    def test_bound_is_sound(self, F2):
        # no preimage of n may appear above the bound
        table = phi_table(F2, 12)
        for n in range(1, 40):
            bound = degree_bound(n, F2)
            assert all(f.degree <= bound for f in table.get(n, ())), n


class TestCountProfile:
    def test_exactly_q_cases(self, F4, F5):
        profile = count_profile(4, F5)
        assert (profile.count, profile.label) == (5, "exactly-q")
        profile = count_profile(3, F4)
        assert (profile.count, profile.label) == (4, "exactly-q")

    def test_q2_classes(self, F2):
        assert count_profile(1, F2).label == "exactly-3"
        assert count_profile(2, F2).label == "above-3"
        assert count_profile(5, F2).label == "empty"

    def test_unique_class(self, F5):
        # n = (q - 1)^q with all linear slots filled has exactly one preimage
        profile = count_profile(4**5, F5)
        assert (profile.count, profile.label) == (1, "unique")

    def test_at_least_binom(self, F5):
        n, expected = sierpinski_witness(F5, "binomial", 1)
        profile = count_profile(n, F5)
        assert profile.count == expected
        assert profile.label == "at-least-binom"

    @pytest.mark.parametrize("spec", [FieldSpec(2, 2), FieldSpec(5)])
    def test_uniqueness_condition_agreement(self, spec):
        # count_profile raises if the explicit unique-shape condition ever
        # disagrees with the computed count
        labels = set()
        for n in range(1, 10001):
            labels.add(count_profile(n, spec).label)
        assert "unique" in labels and "empty" in labels


class TestSierpinskiWitness:
    def test_examples(self, F2, F3):
        assert sierpinski_witness(F2, "exact", 5) == (4, 5)
        assert sierpinski_witness(F3, "power", 1) == (24, 3)
        assert sierpinski_witness(F3, "binomial", 0) == (4, 3)

    def test_counts_verify(self, F2, F3, F5):
        for l in (3, 4, 7):
            n, want = sierpinski_witness(F2, "exact", l)
            assert preimage_count(n, F2) == want
        n, want = sierpinski_witness(F3, "power", 2)
        assert preimage_count(n, F3) == want
        for l in (0, 1, 2):
            n, want = sierpinski_witness(F5, "binomial", l)
            assert preimage_count(n, F5) == want

    def test_rejects_bad_goals(self, F2, F3):
        with pytest.raises(ValueError):
            sierpinski_witness(F2, "exact", 2)
        with pytest.raises(ValueError):
            sierpinski_witness(F2, "power", 1)
        with pytest.raises(ValueError):
            sierpinski_witness(F3, "exact", 4)
        with pytest.raises(ValueError):
            sierpinski_witness(F3, "power", 0)
        with pytest.raises(ValueError):
            sierpinski_witness(F3, "binomial", -1)
        with pytest.raises(ValueError):
            sierpinski_witness(F3, "nonsense", 1)
