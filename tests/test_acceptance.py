"""Acceptance suite: every headline counting statement at full desk scale.

One test per criterion; each prints a single pass/fail line.  All integer
comparisons are exact; the two floating-point ceilings (factorial sandwich,
solution-count and value-count bounds) are checked with a 1e-9 strict-side
guard band, applied inside the library helpers.
"""

import random
from math import comb

from fqphi import (
    FieldSpec,
    degree_bound,
    density_sweep,
    enumerate_irreducibles,
    enumerate_monic,
    intersection_up_to,
    phi,
    phi_table,
    phi_values_up_to,
    pi_divisibility_holds,
    preimage_count,
    preimage_list,
    same_phi,
    sierpinski_witness,
    sigma_values,
    signature,
)
from fqphi import numtheory as nt

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2)
F5 = FieldSpec(5)
SPECS = {2: F2, 3: F3, 4: F4, 5: F5}


def report(name):
    print(f"[PASS] {name}")


def phi_values_by_enumeration(spec, y):
    return {v for v in phi_table(spec, degree_bound(y, spec)) if v <= y}


def sigma_values_by_enumeration(spec, y):
    # the same sieve build as the phi table: every sigma value <= y comes
    # from a degree <= floor(log_q y) <= degree_bound(y)
    return {v for v in sigma_values(spec, degree_bound(y, spec)) if v <= y}


def test_criterion_1_collision_criterion():
    # exhaustive pair equivalence: signature test <=> exact value equality
    for q, max_deg in ((2, 7), (3, 5), (4, 4), (5, 3)):
        spec = SPECS[q]
        data = []
        for d in range(1, max_deg + 1):
            for f in enumerate_monic(spec, d):
                data.append((signature(f), phi(f).value))
        for i, (sig_a, val_a) in enumerate(data):
            for sig_b, val_b in data[i:]:
                assert same_phi(sig_a, sig_b, spec) == (val_a == val_b), (
                    q, sig_a, sig_b)
    report("criterion 1: collision criterion, zero mismatches on all four grids")


def test_criterion_2_formula_equals_oracle():
    for q, n_max in ((2, 200), (3, 500), (5, 1000)):
        spec = SPECS[q]
        table = phi_table(spec, degree_bound(n_max, spec))
        for n in range(1, n_max + 1):
            assert preimage_count(n, spec) == len(table.get(n, ())), (q, n)
        # spot-check that the one-shot oracle path agrees with the table
        sample = random.Random(q).sample(range(1, n_max + 1), 8)
        for n in sample:
            assert preimage_list(n, spec) == list(table.get(n, ())), (q, n)
    report("criterion 2: preimage_count == |preimage_list| on all three ranges")


def test_criterion_3_preimages_of_one():
    polys = preimage_list(1, F2)
    assert [str(f) for f in polys] == ["x", "x+1", "x^2+x"]
    assert preimage_count(1, F2) == 3
    report("criterion 3: |phi^-1(1)| = 3 over F_2 with the exact witness set")


def test_criterion_4_sierpinski_constructions():
    for l in range(3, 13):
        n, expected = sierpinski_witness(F2, "exact", l)
        assert n == 2 ** (l - 3)
        assert preimage_count(n, F2) == expected == l, l
    for l in (1, 2):
        n, expected = sierpinski_witness(F3, "power", l)
        assert preimage_count(n, F3) == expected == 3**l, l
    for q in (3, 5):
        spec = SPECS[q]
        for l in (0, 1, 2):
            n, expected = sierpinski_witness(spec, "binomial", l)
            assert n == spec.q**l * (spec.q - 1) ** 2
            assert preimage_count(n, spec) == expected == comb(q, 2) * (l + 1)
    report("criterion 4: all prescribed-count constructions hit exactly")


def test_criterion_5_count_gaps():
    for q in (4, 5):
        spec = SPECS[q]
        for n in range(1, 10**4 + 1):
            count = preimage_count(n, spec)
            assert count in (0, 1, q) or count >= comb(q, 2), (q, n, count)
    for n in range(1, 10**3 + 1):
        count = preimage_count(n, F2)
        assert count == 0 or count >= 3, (n, count)
        assert (count == 3) == (n == 1), (n, count)
    report("criterion 5: gap scan clean for q=4,5 (n<=1e4) and q=2 floor (n<=1e3)")


def test_criterion_6_erdos_intersection():
    assert (
        phi_values_by_enumeration(F5, 10**4)
        & sigma_values_by_enumeration(F5, 10**4)
        == set()
    )
    for spec in (F3, F2):
        oracle = sorted(
            phi_values_by_enumeration(spec, 10**3)
            & sigma_values_by_enumeration(spec, 10**3))
        assert oracle == intersection_up_to(10**3, spec), spec.q
    report("criterion 6: value-set intersections match the family answer exactly")


def test_criterion_7_density():
    values = phi_values_up_to(10, F2)
    assert values == [1, 2, 3, 4, 6, 7, 8] and len(values) == 7
    for q in (2, 3, 4, 5):
        spec = SPECS[q]
        for rep in density_sweep(spec, 10**5):
            if rep.bound_checked:  # density_sweep raises on violation
                assert rep.count <= rep.bound
    for spec in (F2, F3):
        direct = set(phi_values_up_to(10**3, spec))
        assert direct == phi_values_by_enumeration(spec, 10**3), spec.q
    report("criterion 7: V(10)=7, ceiling holds through 1e5, dual enumeration equal")


def test_criterion_8_pi_and_divisibility():
    want = [2, 1, 2, 3, 6, 9]
    assert [F2.pi(d) for d in range(1, 7)] == want
    assert [
        sum(1 for _ in enumerate_irreducibles(F2, d)) for d in range(1, 7)
    ] == want
    for q, spec in ((3, F3), (4, F4), (5, F5), (7, FieldSpec(7)),
                    (9, FieldSpec(3, 2))):
        for d in range(1, 25):
            assert pi_divisibility_holds(spec, d), (q, d)
    report("criterion 8: pi_2(1..6) via both routes; divisibility on the full grid")


def test_criterion_9_integer_lemmas():
    exceptions = {
        (a, n)
        for a in range(2, 13)
        for n in range(2, 21)
        if not nt.zsigmondy_has_primitive(a, 1, n)
    }
    assert exceptions == {(2, 6), (3, 2), (7, 2)}
    for a in range(2, 13):
        for n in range(2, 21):
            assert nt.zsigmondy_has_primitive(a, 1, n) == bool(
                nt.primitive_prime_divisors(a, n)), (a, n)

    for n in range(1, 31):
        assert nt.stirling_sandwich_holds(n), n

    rng = random.Random(20240817)
    for _ in range(200):
        k = rng.randint(1, 4)
        weights = [rng.randint(1, 6) for _ in range(k)]
        budget = rng.randint(0, 40)
        assert nt.solution_count_sandwich_holds(weights, budget), (
            weights, budget)

    for n in range(1, 61):
        assert nt.triangular_bound_holds(n), n
    report("criterion 9: primitive-divisor exceptions, factorial sandwich, "
           "solution-count sandwich, triangular ceiling")
