"""Acceptance suite: every headline counting statement at full desk scale.

One test per criterion; each prints a single pass/fail line.  Criterion 1
checks the collision criterion pair by pair through ``factor``, the
independent reference for the sieve-based collisions suite.  Criteria 2-9
run the ``verify`` suite that holds their grids and compare its rows, name,
ok flag and detail, with the rows below; together the criteria cover every
row of every suite.  Checks that no suite makes (the one-shot oracle spot
check, the construction formulas) stay here.
"""

import random
from functools import cache
from math import comb

from fqphi import (
    FieldSpec,
    degree_bound,
    enumerate_monic,
    phi,
    phi_table,
    preimage_list,
    same_phi,
    sierpinski_witness,
    signature,
    verify,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2)
F5 = FieldSpec(5)
SPECS = {2: F2, 3: F3, 4: F4, 5: F5}


def report(name):
    print(f"[PASS] {name}")


@cache
def suite_rows(suite):
    return [(r.name, r.ok, r.detail) for r in verify.run_suite(suite)]


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
    assert suite_rows("preimage")[:3] == [
        ("count formula vs oracle q=2 n<=200", True, "exact agreement"),
        ("count formula vs oracle q=3 n<=500", True, "exact agreement"),
        ("count formula vs oracle q=5 n<=1000", True, "exact agreement"),
    ]
    for q, n_max in ((2, 200), (3, 500), (5, 1000)):
        spec = SPECS[q]
        table = phi_table(spec, degree_bound(n_max, spec))
        # spot-check that the one-shot oracle path agrees with the table
        sample = random.Random(q).sample(range(1, n_max + 1), 8)
        for n in sample:
            assert preimage_list(n, spec) == list(table.get(n, ())), (q, n)
    report("criterion 2: preimage_count == |preimage_list| on all three ranges")


def test_criterion_3_preimages_of_one():
    assert suite_rows("preimage")[3:] == [
        ("preimages of 1 over F_2", True, "{x, x+1, x^2+x}"),
    ]
    report("criterion 3: |phi^-1(1)| = 3 over F_2 with the exact witness set")


def test_criterion_4_sierpinski_constructions():
    assert suite_rows("sierpinski")[:3] == [
        ("exact-count construction q=2 l=3..12", True, "all counts hit"),
        ("q-power construction q=3 l=1,2", True, "all counts hit"),
        ("binomial construction q=3,5 l=0..2", True, "all counts hit"),
    ]
    # the suite checks preimage_count(n) against the predicted count; these
    # pin the witnesses and predictions themselves
    for l in range(3, 13):
        assert sierpinski_witness(F2, "exact", l) == (2 ** (l - 3), l)
    for l in (1, 2):
        assert sierpinski_witness(F3, "power", l)[1] == 3**l
    for q in (3, 5):
        for l in (0, 1, 2):
            assert sierpinski_witness(SPECS[q], "binomial", l) == (
                q**l * (q - 1) ** 2, comb(q, 2) * (l + 1))
    report("criterion 4: all prescribed-count constructions hit exactly")


def test_criterion_5_count_gaps():
    assert suite_rows("sierpinski")[3:] == [
        ("count gap scan q=4 n<=10000", True, "no count in a forbidden gap"),
        ("count gap scan q=5 n<=10000", True, "no count in a forbidden gap"),
        ("q=2 floor scan n<=1000", True,
         "count 0 or >= 3, equality only at n=1"),
    ]
    report("criterion 5: gap scan clean for q=4,5 (n<=1e4) and q=2 floor (n<=1e3)")


def test_criterion_6_erdos_intersection():
    assert suite_rows("erdos") == [
        ("value-set intersection q=5 y<=10000", True, "0 common values"),
        ("value-set intersection q=3 y<=1000", True, "9 common values"),
        ("value-set intersection q=2 y<=1000", True, "27 common values"),
    ]
    report("criterion 6: value-set intersections match the family answer exactly")


def test_criterion_7_density():
    assert suite_rows("density") == [
        ("V(10) over F_2", True, "values [1, 2, 3, 4, 6, 7, 8]"),
        ("value count ceiling q=2 y<=100000", True,
         "17 sample points within bound"),
        ("value count ceiling q=3 y<=100000", True,
         "11 sample points within bound"),
        ("value count ceiling q=4 y<=100000", True,
         "9 sample points within bound"),
        ("value count ceiling q=5 y<=100000", True,
         "8 sample points within bound"),
        ("value set dual enumeration q=2 y<=1000", True, "101 values"),
        ("value set dual enumeration q=3 y<=1000", True, "56 values"),
    ]
    report("criterion 7: V(10)=7, ceiling holds through 1e5, dual enumeration equal")


def test_criterion_8_pi_and_divisibility():
    assert suite_rows("lemmas")[:2] == [
        ("irreducible counts over F_2, d=1..6", True,
         "formula (2, 1, 2, 3, 6, 9), enumeration (2, 1, 2, 3, 6, 9)"),
        ("p | pi_q(d) or 4 | pi_q(d), q in {3,4,5,7,9}, d<=24", True,
         "holds on the whole grid"),
    ]
    report("criterion 8: pi_2(1..6) via both routes; divisibility on the full grid")


def test_criterion_9_integer_lemmas():
    assert suite_rows("lemmas")[2:] == [
        ("primitive-divisor exceptions, a<=12, n<=20, b=1", True,
         "exception set [(2, 6), (3, 2), (7, 2)]"),
        ("factorial sandwich n<=30", True, "lower < n! < upper throughout"),
        ("solution-count sandwich, 200 random instances", True, "all inside"),
        ("triangular solution count ceiling n<=60", True,
         "strictly below ceiling"),
    ]
    report("criterion 9: primitive-divisor exceptions, factorial sandwich, "
           "solution-count sandwich, triangular ceiling")
