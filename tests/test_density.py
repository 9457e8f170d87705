import hashlib
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqphi.density
from fqphi import (
    FieldSpec,
    degree_bound,
    density_bound,
    density_sweep,
    phi_table,
    phi_values_up_to,
)
from fqphi.erdos import intersection_up_to
from fqphi.numtheory import ilog

REFERENCE_FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2), FieldSpec(5),
                    FieldSpec(7), FieldSpec(2, 3), FieldSpec(3, 2),
                    FieldSpec(2, 4)]


def sums_of(degrees, limit):
    """The w in 0..limit that are non-negative combinations of the degrees,
    by a sieve over w of its own, independent of the code under test: the
    knapsack of this file's and test_preimage's references."""
    reachable = {0}
    for w in range(1, limit + 1):
        if any(w - d in reachable for d in degrees if d <= w):
            reachable.add(w)
    return reachable


def reference_values(y, spec):
    """The value set by one recursion per degree and one set insertion per
    value: the walk ``phi_values_up_to`` used before it was keyed by the
    part of each value prime to q."""
    q = spec.q
    values = set()

    def emit(prod_, support):
        if not support:
            return
        if 1 in support:
            value = prod_
            while value <= y:
                values.add(value)
                value *= q
            return
        for j in sums_of(support, ilog(y // prod_, q)):
            values.add(prod_ * q**j)

    def rec(d, prod_, support):
        if d == 0:
            emit(prod_, support)
            return
        b = q**d - 1
        rec(d - 1, prod_, support)
        current = prod_
        m = 0
        while m < spec.pi(d):
            current *= b
            if current > y:
                break
            m += 1
            rec(d - 1, current, support + (d,))

    rec(ilog(y + 1, q), 1, ())
    return sorted(values)


def oracle_values(spec, y):
    return sorted(
        v for v in phi_table(spec, degree_bound(y, spec)) if v <= y)


class TestPhiValuesUpTo:
    def test_q2_to_10(self, F2):
        assert phi_values_up_to(10, F2) == [1, 2, 3, 4, 6, 7, 8]

    def test_q3_tiny(self, F3):
        assert phi_values_up_to(2, F3) == [2]
        assert phi_values_up_to(1, F3) == []

    def test_q2_value_one(self, F2):
        assert phi_values_up_to(1, F2) == [1]

    def test_rejects_non_positive(self, F2):
        with pytest.raises(ValueError):
            phi_values_up_to(0, F2)

    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_polynomial_enumeration(self, q):
        spec = FieldSpec(q)
        for y in (50, 200):
            assert phi_values_up_to(y, spec) == oracle_values(spec, y)

    def test_nested_in_y(self, F3):
        small = set(phi_values_up_to(100, F3))
        large = set(phi_values_up_to(400, F3))
        assert small <= large
        assert small == {v for v in large if v <= 100}


class TestAgainstReference:
    @pytest.mark.parametrize("spec", REFERENCE_FIELDS, ids=repr)
    def test_small_y(self, spec):
        for y in range(1, 301):
            assert phi_values_up_to(y, spec) == reference_values(y, spec), y

    @pytest.mark.parametrize("spec", REFERENCE_FIELDS, ids=repr)
    def test_around_powers_of_q(self, spec):
        for k in range(1, ilog(10**9, spec.q) + 1):
            for y in (spec.q**k - 1, spec.q**k, spec.q**k + 1):
                assert phi_values_up_to(y, spec) == reference_values(y, spec)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(REFERENCE_FIELDS), st.integers(1, 10**9))
    def test_any_y(self, spec, y):
        assert phi_values_up_to(y, spec) == reference_values(y, spec)


# sha256 of phi_values_up_to, of the density_sweep reports and of
# intersection_up_to, each over y = 1, 10, 1000, 10**6, 10**9, 10**12 in
# turn, one repr per line; taken from the recursive walk of one node per
# factor choice and the recursive slot fill.
PINS = {
    (2,): ("8deac53907b99dcd90e7596763a92f005f06df1d6297f383b7ba2edafd45002e",
           "e2aa2248b1c472de0d0dfc19c45a3ade6c3deb193f3a7b14128ef84c99801fbd",
           "384b2fc2b944b7fa6574b28a17f54c1bf59c85885b09d5643f47e37aee9426fc"),
    (3,): ("dff91ec2f051f72a5eb82f1fc663ee81395d555ba8627cc5dd8a42c6089f8ad7",
           "77462622933aec8446d7860b129af6f663215ddaba0afad773cd802e99228106",
           "3f5a5416ce72372ef0bf26c2afee0baaeca820e153ae0056e45a67b9bf10dfc2"),
    (2, 2): (
        "83effd4902dd190991719f7b892cb4d582b2fe5c22041564c3a725ac28a3f6d0",
        "95fa4fb02f4403637b60f9fd221a838a6cee7d893ddfd82f251332b36521bde7",
        "b18664a06ed0bd101b25a7b58229152a46f6c4b013207f0721ed49960f9ec7a2"),
    (5,): ("1e0d93e73177eac08d54b5915fa17b1229802cb5db188af1fa77f2c26e1ed6df",
           "65f6da8ad3ddb05db110d05a8aff92fcfb78473f66953769c5e31241058ccfd7",
           "b18664a06ed0bd101b25a7b58229152a46f6c4b013207f0721ed49960f9ec7a2"),
    (7,): ("11335a45fe5bf6c107206e0eb931d4612399946dfd38a6d9012fff2922f773cc",
           "929be89f3ab0e17c8575b4f78c4b4f563b9a30e9aa0f910c199e307957725a82",
           "b18664a06ed0bd101b25a7b58229152a46f6c4b013207f0721ed49960f9ec7a2"),
    (2, 3): (
        "3f86a64b6c58fb37f58cba564e5f8b4744e16429378a564cb62ed43f06a631ff",
        "c39f81ef298a40339765f3f63c8629ea874733cca6308f9831b1321059240be6",
        "b18664a06ed0bd101b25a7b58229152a46f6c4b013207f0721ed49960f9ec7a2"),
    (3, 2): (
        "772807b63b77abbc93b61a7e1331697cc78d3b9bbc127123fff445fa525d5c85",
        "dc30e657a45157b8c6e7597dfc3eaed13700214123413d50dba11f39ffb9e81c",
        "b18664a06ed0bd101b25a7b58229152a46f6c4b013207f0721ed49960f9ec7a2"),
    (2, 4): (
        "2c73413c705b6253e1e8e7ab993ddc070d702f69d64cda70631a5c7f6baf8aef",
        "91a9de205d013be58712f540e2ab049d969d4320934769348ec3b73cc824dd39",
        "b18664a06ed0bd101b25a7b58229152a46f6c4b013207f0721ed49960f9ec7a2"),
    (13,): ("adcda5f0c298214c834a9b68dcb09096bcaba5c62daa67b066cf1e53e6faa3d5",
            "3db3529461ea05df4788b9c60905bfddcaf6f671e18637f17bde1b42612b9690",
            "b18664a06ed0bd101b25a7b58229152a46f6c4b013207f0721ed49960f9ec7a2"),
}


@pytest.mark.parametrize("field", PINS, ids=lambda f: "^".join(map(str, f)))
def test_value_sets_are_pinned(field):
    spec = FieldSpec(*field)
    digests = [hashlib.sha256() for _ in range(3)]
    for y in (1, 10, 1000, 10**6, 10**9, 10**12):
        for digest, output in zip(digests, (phi_values_up_to(y, spec),
                                            density_sweep(spec, y),
                                            intersection_up_to(y, spec))):
            digest.update(repr(output).encode() + b"\n")
    assert tuple(d.hexdigest() for d in digests) == PINS[field]


def choices_by_part(y, spec):
    """R -> the choices {d: m_d} with R = prod (q**d - 1)**m_d <= y, by a
    recursion over the degrees of its own, as in ``reference_values``."""
    q = spec.q
    parts = {}

    def rec(d, r, choice):
        if d == 0:
            if choice:
                parts.setdefault(r, []).append(choice)
            return
        rec(d - 1, r, choice)
        b = q**d - 1
        m = 0
        while m < spec.pi(d) and r * b <= y:
            r *= b
            m += 1
            rec(d - 1, r, {**choice, d: m})

    rec(ilog(y + 1, q), 1, {})
    return parts


@pytest.mark.parametrize(
    "spec", REFERENCE_FIELDS + [FieldSpec(13), FieldSpec(31)], ids=repr)
def test_a_part_fixes_its_choice_without_degree_1(spec):
    # the lemma that lets _runs keep one mask per R outside the full group:
    # choices with no degree-1 factor never share an R, and at q = 3 a
    # shared R is three linear factors against one quadratic
    shared = [choices for choices in choices_by_part(10**9, spec).values()
              if len(choices) > 1]
    for choices in shared:
        assert sum(1 not in choice for choice in choices) <= 1, choices
    if spec.q == 3:
        assert shared
        for choices in shared:
            assert len(choices) == 2, choices
            without_1, with_1 = sorted(choices, key=lambda c: 1 in c)
            assert 1 not in without_1 and with_1[1] == 3, choices
            assert without_1[2] == with_1.get(2, 0) + 1, choices
    elif spec.q > 3:
        assert not shared


class TestNodeLimit:
    def test_one_node_per_coprime_part_at_q2(self, F2, monkeypatch):
        # x and x + 1 stay out of the walk, so the nodes are the distinct
        # odd parts R of the values, R = 1 included
        values = phi_values_up_to(10**9, F2)
        parts = len({v >> (v & -v).bit_length() - 1 for v in values})
        monkeypatch.setattr(fqphi.density, "NODE_LIMIT", parts)
        assert phi_values_up_to(10**9, F2) == values
        monkeypatch.setattr(fqphi.density, "NODE_LIMIT", parts - 1)
        with pytest.raises(ValueError, match="NODE_LIMIT"):
            phi_values_up_to(10**9, F2)

    def test_walk_stops_at_the_limit(self, F3, monkeypatch):
        monkeypatch.setattr(fqphi.density, "NODE_LIMIT", 1000)
        with pytest.raises(ValueError, match="limit is NODE_LIMIT"):
            density_sweep(F3, 10**12)

    @pytest.mark.parametrize("q", [2, 13])
    def test_large_y_refused_before_the_walk(self, q):
        # every set of 20 distinct degrees from the lowest fits under
        # log_q y, so the walk would pass 2**20 - 1 nodes
        with pytest.raises(ValueError, match="NODE_LIMIT"):
            phi_values_up_to(q**250, FieldSpec(q))


def density_report(y, spec):
    """The DensityReport of the single point y: the totient values up to y,
    counted and checked against the ceiling as ``density_sweep`` does."""
    return fqphi.density._report_from_count(
        y, len(phi_values_up_to(y, spec)), spec)


class TestDensityReport:
    def test_first_example(self, F2):
        report = density_report(10, F2)
        assert (report.k, report.count) == (3, 7)
        assert report.bound == pytest.approx(85.2157, abs=1e-3)
        assert report.bound_checked and report.ratio == pytest.approx(0.7)

    def test_k0_edge_not_checked(self, F2):
        report = density_report(1, F2)
        assert (report.k, report.count, report.bound_checked) == (0, 1, False)

    def test_exact_k(self, F3):
        assert density_report(3**6, F3).k == 6
        assert density_report(3**6 - 1, F3).k == 5

    def test_bound_value(self, F2):
        k, bound = density_bound(2**4, F2)
        assert k == 4
        assert bound == pytest.approx(2 * 2 * 4 * (2.718281828459045**2 / 2) ** 2)


class TestDensitySweep:
    def test_points_are_powers_plus_final(self, F3):
        ys = [r.y for r in density_sweep(F3, 100)]
        assert ys == [3, 9, 27, 81, 100]

    def test_sweep_matches_single_reports(self, F2):
        for sweep_report in density_sweep(F2, 64):
            single = density_report(sweep_report.y, F2)
            assert sweep_report == single

    def test_monotone_decay_of_value_density(self, F2):
        # V(q^k)/q^k never increases across the tested range
        reports = density_sweep(F2, 2**16)
        ratios = [r.ratio for r in reports if r.y == 2**r.k]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("spec", [FieldSpec(2), FieldSpec(3),
                                      FieldSpec(2, 2), FieldSpec(5),
                                      FieldSpec(7), FieldSpec(3, 2)], ids=repr)
    def test_counts_are_bisections_of_the_values(self, spec):
        # count-sweep's six fields at its y = 10**12, inside NODE_LIMIT
        values = phi_values_up_to(10**12, spec)
        for report in density_sweep(spec, 10**12):
            assert report.count == bisect_right(values, report.y)

    @pytest.mark.parametrize("spec", [FieldSpec(2), FieldSpec(3),
                                      FieldSpec(2, 2), FieldSpec(5)])
    def test_bound_holds_everywhere(self, spec):
        for report in density_sweep(spec, 10**4):
            if report.bound_checked:
                assert report.count <= report.bound
