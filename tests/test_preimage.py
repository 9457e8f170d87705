import hashlib
import random
import time
from bisect import bisect_right
from collections import namedtuple
from itertools import islice, product
from math import comb, gcd, log, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqphi import (
    CounterexampleError,
    CountProfile,
    FieldSpec,
    count_profile,
    degree_bound,
    intersection_member,
    min_phi,
    phi,
    phi_table,
    phi_values_up_to,
    preimage_count,
    preimage_list,
    represent,
    sierpinski_witness,
)
from fqphi import preimage
from fqphi.numtheory import (
    compositions,
    factor_int,
    ilog,
    zsigmondy_has_primitive,
)
from test_density import sums_of
from test_numtheory import reference_factor

F7 = FieldSpec(7)
F8 = FieldSpec(2, 3)
F9 = FieldSpec(3, 2)

#: The relative guard band of the float walks that once set degree_bound,
#: kept as their reference.
BAND = 1e-9


def primitive_prime_divisors(a: int, n: int) -> set[int]:
    """Primes dividing a**n - 1 but no earlier a**k - 1 (1 <= k < n), read
    off the factorization: the reference for preimage._primitive_part."""
    if a < 2:
        raise ValueError(f"need a >= 2, got {a}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    value = a**n - 1
    if value == 1:
        return set()
    return {
        p
        for p in reference_factor(value)
        if all(pow(a, k, p) != 1 for k in range(1, n))
    }


class TestPrimitivePrimeDivisors:
    def test_exception_values(self):
        assert primitive_prime_divisors(2, 6) == set()
        assert primitive_prime_divisors(2, 2) == {3}
        assert primitive_prime_divisors(2, 4) == {5}

    def test_n1(self):
        assert primitive_prime_divisors(2, 1) == set()
        assert primitive_prime_divisors(4, 1) == {3}

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            primitive_prime_divisors(1, 3)
        with pytest.raises(ValueError):
            primitive_prime_divisors(2, 0)


def lemma_a_shape(forms, q: int) -> bool:
    """Whether the forms of one value are as Lemma A of count_profile says:
    one, or over F_3 the pair (m_1, m_2) = (3, a), (0, a + 1) with j and
    every other m_d equal (represent lists the m_1 = 3 form first)."""
    if q != 3 or len(forms) != 2:
        return len(forms) == 1
    (j, low), (k, high) = forms
    return j == k and low.get(1) == 3 and high == {
        **{d: m for d, m in low.items() if d != 1}, 2: low.get(2, 0) + 1}


class TestRepresent:
    def test_q2_examples(self, F2):
        reps = represent(3, F2)
        assert len(reps) == 1
        assert (reps[0].j, reps[0].counts) == (0, {2: 1})
        assert represent(5, F2) == []

    def test_q3_degree_two_branches(self, F3):
        # 8 = (3 - 1)**3 = 3**2 - 1: d = 2 has no primitive prime
        reps = represent(8, F3)
        assert [(rep.j, rep.counts) for rep in reps] == [(0, {1: 3}),
                                                          (0, {2: 1})]
        table = phi_table(F3, degree_bound(8, F3))
        assert preimage_count(8, F3) == len(table[8])

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


def reference_represent(n, spec):
    """The branching search: at every basis degree d, largest first, try
    each m_d with (q**d - 1)**m_d dividing the remainder.  Independent of
    the primitive parts that ``represent`` uses to skip the branches, and
    of ``reachable_sums``: j is checked against ``sums_of``."""
    q, p, s = spec.q, spec.p, spec.s
    v, m = 0, n
    while m % p == 0:
        m //= p
        v += 1
    if v % s:
        return []
    j = v // s
    cofactor = n // q**j
    d = {2: 2}.get(q, 1)
    basis = []
    while q**d - 1 <= cofactor:
        basis.append((d, q**d - 1))
        d += 1
    basis.reverse()
    found, acc = [], {}

    def leaf(rem):
        counts = dict(acc)
        if q == 2:
            if rem == 1:
                found.append(preimage.Representation(j, counts))
            return
        if rem != 1 or not counts:
            return
        if j and j not in sums_of(counts, j):
            return
        found.append(preimage.Representation(j, counts))

    def rec(idx, rem):
        if idx == len(basis):
            leaf(rem)
            return
        d, b = basis[idx]
        rec(idx + 1, rem)
        m_d = 0
        while m_d < spec.pi(d) and rem % b == 0:
            rem //= b
            m_d += 1
            acc[d] = m_d
            rec(idx + 1, rem)
        acc.pop(d, None)

    rec(0, cofactor)
    found.sort(key=lambda rep: sorted(rep.counts.items()))
    return found


def seeded_products(spec, count, seed):
    """Products q**j * prod (q**d - 1), with a power of two mixed into some,
    so that most are totient values and many sit next to one."""
    q = spec.q
    rng = random.Random(seed)
    top = 14 if q < 10 else 6
    out = []
    for _ in range(count):
        n = q ** rng.randrange(4)
        for _ in range(rng.randrange(1, 6)):
            n *= q ** rng.randrange(1, top) - 1
        if rng.random() < 0.3:
            n *= 2 ** rng.randrange(6)
        out.append(n)
    return out


class TestForcedSearch:
    """``represent`` skips the branch wherever the primitive part of
    q**d - 1 forces m_d; it must find what the branching search finds."""

    FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
              (31, 1)]

    @pytest.mark.parametrize("field", FIELDS)
    def test_matches_branching_search(self, field):
        spec = FieldSpec(*field)
        ns = list(range(1, 3001)) + seeded_products(spec, 400, spec.q)
        for n in ns:
            want = reference_represent(n, spec)
            got = represent(n, spec)
            assert got == want, (spec.q, n)
            # the same degree order inside each representation
            assert [list(r.counts) for r in got] == [
                list(r.counts) for r in want], (spec.q, n)
            count = sum(preimage._count_for(r, spec) for r in want)
            assert preimage_count(n, spec) == count, (spec.q, n)

    @pytest.mark.parametrize("field", FIELDS)
    def test_random_integers(self, field):
        # almost all are non-values, as in a sweep over plain integers
        spec = FieldSpec(*field)
        rng = random.Random(17 * spec.q)
        for _ in range(300):
            n = rng.randrange(1 << 9, 1 << rng.randint(10, 120))
            assert represent(n, spec) == reference_represent(n, spec), n

    @pytest.mark.parametrize("field", [f for f in FIELDS if f != (2, 1)])
    def test_cofactor_without_q_minus_1(self, field):
        # q**j * c with q - 1 not dividing c: products of numbers q**d - 1
        # with every prime of q - 1 removed, so each is next to a value
        spec = FieldSpec(*field)
        q = spec.q
        rng = random.Random(19 * q)
        primes = factor_int(q - 1)
        for _ in range(300):
            c = prod(q ** rng.randrange(1, 12) - 1
                     for _ in range(rng.randrange(1, 5)))
            for r in primes:
                while c % r == 0:
                    c //= r
            n = q ** rng.randrange(4) * c
            assert c % (q - 1)
            assert represent(n, spec) == reference_represent(n, spec) == [], n

    def test_every_exception_degree_is_covered(self):
        # u_d = 1 at a canonical degree: d = 6 for q = 2, and d = 2 for
        # q = 3, 7 and 31 (q + 1 a power of two)
        exceptions = set()
        for field in self.FIELDS:
            spec = FieldSpec(*field)
            exceptions |= {(spec.q, row.d)
                           for row in self.table(spec, spec.q**8)
                           if row.primitive == 1}
        assert exceptions == {(2, 6), (3, 2), (7, 2), (31, 2)}

    Row = namedtuple("Row", "d value primitive cap")

    @classmethod
    def table(cls, spec, cofactor):
        """Every row of the degree table up to cofactor, filled by
        ``represent`` at each q**d - 1: its walk visits row d first."""
        values, rows = preimage._degrees(spec.q, cofactor)
        values = values[:bisect_right(values, cofactor)]
        for value in values:
            represent(value, spec)
        first = preimage._FIRST_DEGREE.get(spec.q, 1)
        filled = [cls.Row(first + i, value, *rows[i])
                  for i, value in enumerate(values)]
        assert [row.value for row in filled] == values
        return filled

    def test_primitive_part_primes(self):
        for a in range(2, 13):
            for d in range(1, 21):
                u = preimage._primitive_part(a, d)
                value = a**d - 1
                assert value % u == 0 and gcd(u, value // u) == 1, (a, d)
                primes = set(reference_factor(u)) if u > 1 else set()
                assert primes == primitive_prime_divisors(a, d), (a, d)
                # so zsigmondy_has_primitive is bool(primitive_prime_divisors)
                if d >= 2:
                    assert (u == 1) == (
                        not zsigmondy_has_primitive(a, 1, d)), (a, d)

    def test_table_rows(self, F4):
        table = self.table(F4, 4**12)
        assert [row.d for row in table] == list(range(1, len(table) + 1))
        assert len(table) >= 12
        for row in table:
            assert row.value == 4**row.d - 1
            assert row.primitive == preimage._primitive_part(4, row.d)
            assert row.cap == F4.pi(row.d)

    def test_rows_filled_on_first_visit(self, F2, monkeypatch):
        # the walk reaches only d = 14000: its primitive part forces
        # m_14000 = 1 and leaves remainder 1, below every other row
        calls = []
        primitive_part = preimage._primitive_part
        monkeypatch.setattr(preimage, "_DEGREES", {})
        monkeypatch.setattr(preimage, "_primitive_part",
                            lambda q, d: calls.append(d) or primitive_part(q, d))
        assert preimage_count(2**14000 - 1, F2) == 4 * F2.pi(14000)
        assert calls == [14000]


def reference_count_for_q2(rep, spec):
    """The F_2 count as three separate sums, one per m_1 = 0, 1, 2, each
    with its own chooser and composition pass over {1: m_1, **counts}."""
    total = 0
    for m1 in range(spec.pi(1) + 1):
        counts = {d: m for d, m in {1: m1, **rep.counts}.items() if m}
        if not counts:
            continue  # the constant polynomial
        ways = [1] + [0] * rep.j
        for d, m in counts.items():
            for _ in range(m):
                for w in range(d, rep.j + 1):
                    ways[w] += ways[w - d]
        chooser = prod(comb(spec.pi(d), m) for d, m in counts.items())
        total += chooser * ways[-1]
    return total


def test_q2_count_matches_three_sums(F2):
    rng = random.Random(23)
    ns = list(range(1, 3001)) + seeded_products(F2, 400, 2)
    # large q-power parts, where the degree-1 passes do most of the work
    ns += [2 ** rng.randrange(20, 200) * (2 ** rng.randrange(2, 40) - 1)
           for _ in range(200)]
    checked = 0
    for n in ns:
        for rep in represent(n, F2):
            assert preimage._count_for(rep, F2) == reference_count_for_q2(
                rep, F2), n
            checked += 1
    assert checked > 500


class TestReachableSums:
    @given(st.lists(st.integers(1, 6), max_size=3), st.integers(0, 25))
    @settings(max_examples=150)
    def test_matches_enumeration(self, degrees, limit):
        # every combination sum(c_i d_i) with each c_i d_i <= limit
        sums = {
            sum(c * d for c, d in zip(coeffs, degrees))
            for coeffs in product(
                *(range(limit // d + 1) for d in degrees))
        }
        want = sum(1 << w for w in sums if w <= limit)
        assert preimage.reachable_sums(degrees, limit) == want

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=4),
           st.integers(0, 60))
    @settings(max_examples=100)
    def test_one_degree_at_a_time(self, degrees, limit):
        # density closes a group's mask under one degree per level
        sums = 1
        for d in degrees:
            sums = preimage.reachable_sums((d,), limit, sums)
        assert sums == preimage.reachable_sums(degrees, limit)


class TestWeightedCompositions:
    @given(st.dictionaries(st.integers(1, 6), st.integers(1, 4), max_size=3),
           st.integers(0, 16))
    @settings(max_examples=150)
    def test_matches_enumeration(self, counts, j):
        # sum over every (j_d) with sum d*j_d = j of prod C(j_d+m_d-1, m_d-1)
        degrees = list(counts)
        want = sum(
            prod(comb(j_d + counts[d] - 1, counts[d] - 1)
                 for d, j_d in zip(degrees, js))
            for js in product(*(range(j // d + 1) for d in degrees))
            if sum(d * j_d for d, j_d in zip(degrees, js)) == j
        )
        weights = [d for d, m in counts.items() for _ in range(m)]
        assert compositions(weights, j)[j] == want


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

    def test_q3_split_count(self, F3):
        # 16 = (3 - 1)(3**2 - 1), m_1 = m_2 = 1: 3 * 3 preimages
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

    def test_every_list_to_300_matches_the_sieve(self, F2, F3):
        # The n share a degree bound in runs, so one sieve serves each run
        # and preimage_list reads one cached build per run.
        for spec in (F2, F3):
            runs: dict[int, list[int]] = {}
            for n in range(1, 301):
                runs.setdefault(degree_bound(n, spec), []).append(n)
            for bound, ns in runs.items():
                expected = phi_table(spec, bound)
                for n in ns:
                    polys = preimage_list(n, spec)
                    assert polys == expected.get(n, []), (spec.q, n)
                    assert len(polys) == preimage_count(n, spec), (spec.q, n)

    def test_enumeration_limit(self, F2, monkeypatch):
        # F_2 to degree 3 is 2 + 4 + 8 = 14 monics; degree 4 adds 16
        monkeypatch.setattr(preimage, "LIST_LIMIT", 14)
        assert degree_bound(2, F2) == 3 and degree_bound(3, F2) == 4
        assert len(preimage_list(2, F2)) == preimage_count(2, F2)
        with pytest.raises(ValueError, match="30 monics up to degree 4"):
            preimage_list(3, F2)


class TestDegreeBound:
    def test_examples(self, F2, F5):
        assert degree_bound(1, F2) == 2
        assert degree_bound(3, F2) == 4
        assert degree_bound(4, F5) == 1

    @staticmethod
    def three_miss_bound(n, phis):
        # the earlier heuristic: stop after three consecutive degrees whose
        # minimum totient exceeds n; phis[d] is min_phi(d)
        last_ok = misses = d = 0
        while misses < 3:
            d += 1
            if phis[d] <= n:
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
        phis = [None]  # phis[d] = min_phi(d), three degrees past 10**30
        while len(phis) < 4 or min(phis[-3:]) <= 10**30:
            m = min_phi(spec, len(phis))
            phis.append(m)
            ns |= {m - 1, m, m + 1}  # both sides of every step
        for n in sorted(n for n in ns if 1 <= n <= 10**30):
            assert degree_bound(n, spec) == self.three_miss_bound(n, phis), n

    def test_min_phi_values(self, F2):
        assert min_phi(F2, 1) == 1   # phi(x) = 1
        assert min_phi(F2, 2) == 1   # phi(x(x+1)) = 1
        assert min_phi(F2, 3) == 2

    @pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (5, 1),
                                       (7, 1), (3, 2)])
    def test_min_phi_never_decreases(self, field):
        # preimage_list's refusal rests on this
        spec = FieldSpec(*field)
        values = [min_phi(spec, d) for d in range(1, 31)]
        assert values == sorted(values)

    @staticmethod
    def exact_weight_min_phi(spec, degree):
        # reference: the knapsack min_phi ran once per degree, on exact
        # prime weight, with the q-power fill applied afterwards
        best = [None] * (degree + 1)
        best[0] = 1
        for d in range(1, degree + 1):
            b = spec.q**d - 1
            for _ in range(min(spec.pi(d), degree // d)):
                for w in range(degree, d - 1, -1):
                    prev = best[w - d]
                    if prev is not None:
                        cand = prev * b
                        if best[w] is None or cand < best[w]:
                            best[w] = cand
        return min(value * spec.q ** (degree - w)
                   for w, value in enumerate(best) if value is not None)

    @pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (5, 1),
                                       (7, 1), (3, 2)])
    def test_min_phi_matches_per_degree_knapsack(self, field):
        spec = FieldSpec(*field)
        for d in range(1, 41):
            assert min_phi(spec, d) == self.exact_weight_min_phi(spec, d), d

    @staticmethod
    def knapsack_min_phis(spec, top):
        # reference: entries 0..top of min_phi from one bounded knapsack on
        # prime weight over the q-power fill, as degree_bound once ran it.
        # Pass c over degree d allows c factors of it, and a pass that
        # lowers nothing ends the passes over d
        q = spec.q
        best = [q**w for w in range(top + 1)]
        for d in range(1, top + 1):
            b = q**d - 1
            for c in range(1, min(spec.pi(d), top // d) + 1):
                lowered = False
                for w in range(top, c * d - 1, -1):
                    cand = best[w - d] * b
                    if cand < best[w]:
                        best[w] = cand
                        lowered = True
                if not lowered:
                    break
        return best

    @pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (5, 1),
                                       (7, 1), (2, 3), (3, 2), (11, 1),
                                       (13, 1), (2, 4), (5, 2)])
    def test_min_phi_table_prefixes_are_fresh_tables(self, field):
        # entries 0..top of the greedy fill against a fresh knapsack at
        # each top: entry top of that one needs no proof that the
        # knapsack's table is the same whatever its top
        spec = FieldSpec(*field)
        phis = list(islice(preimage._min_phis(spec), 61))
        for top in range(61):
            assert phis[:top + 1] == self.knapsack_min_phis(spec, top), top

    @pytest.mark.parametrize("field,top", [
        ((2, 1), 200), ((3, 1), 200), ((2, 2), 200), ((5, 1), 200),
        ((7, 1), 200), ((2, 3), 200), ((3, 2), 200), ((11, 1), 200),
        ((13, 1), 200), ((2, 4), 200), ((17, 1), 200), ((5, 2), 60),
        ((2, 8), 60), ((10007, 1), 60)], ids=str)
    def test_greedy_fill_matches_the_knapsack(self, field, top):
        spec = FieldSpec(*field)
        expected = self.knapsack_min_phis(spec, top)
        assert [min_phi(spec, d) for d in range(1, top + 1)] == expected[1:]

    @pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (5, 1),
                                       (7, 1), (3, 2)])
    def test_bound_matches_per_degree_walk(self, field):
        # reference: the walk that ran the knapsack at each degree it passed
        spec = FieldSpec(*field)
        phis = [None] + [self.exact_weight_min_phi(spec, d)
                         for d in range(1, 110)]
        rng = random.Random(7 * spec.q)
        ns = {rng.randrange(1, 10 ** rng.randint(1, 30)) for _ in range(80)}
        for n in sorted(ns | {1, 10**30}):
            log_l, last_ok, d = 0.0, 0, 0
            while True:
                d += 1
                log_l += log(spec.q) - spec.pi(d) / (spec.q**d - 1)
                if log_l - log(n) > BAND * max(1.0, log(n)):
                    break
                if phis[d] <= n:
                    last_ok = d
            assert degree_bound(n, spec) == last_ok, n

    @pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (5, 1),
                                       (7, 1), (3, 2)])
    def test_bound_matches_float_walk_to_10_60(self, field):
        # reference: the walk of a lower bound on log L(D), stopped with a
        # guard band, that once set the bound; min_phi from the knapsack.
        # The grid holds both sides of every min_phi step below 10**60.
        spec = FieldSpec(*field)
        q, top = spec.q, 10**60
        phis = self.knapsack_min_phis(spec, ilog(top, q) + 40)
        rng = random.Random(11 * q)
        ns = set(range(1, 200)) | {10**k for k in range(61)}
        ns |= {q**k + e for k in range(ilog(top, q) + 1) for e in (-1, 1)}
        ns |= {rng.randrange(1, 10 ** rng.randint(1, 60)) for _ in range(100)}
        ns |= {m + e for m in phis if m <= top for e in (-1, 0, 1)}
        for n in sorted(n for n in ns if 1 <= n <= top):
            log_l, last_ok, d = 0.0, 0, 0
            while True:
                d += 1
                log_l += log(q) - spec.pi(d) / (q**d - 1)
                if log_l - log(n) > BAND * max(1.0, log(n)):
                    break
                if phis[d] <= n:
                    last_ok = d
            assert degree_bound(n, spec) == last_ok, n

    def test_bound_at_2_300_is_fast(self, F2):
        # one walk of the greedy fill, not a minimum per degree (3 s once)
        start = time.perf_counter()
        assert degree_bound(2**300 - 1, F2) == 303
        assert time.perf_counter() - start < 1.0

    def test_bound_at_2_1000(self, F2):
        # the knapsack gave the same, in about 0.2 s
        start = time.perf_counter()
        assert degree_bound(2**1000 - 1, F2) == 1004
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("q", [2, 3])
    def test_bound_at_10_5000(self, q):
        # between ilog(n, q), as min_phi(e) <= q**e <= n, and the degree
        # e + k past which the bound q**D / (4 D) on every totient of
        # degree D exceeds n
        spec, n = FieldSpec(q), 10**5000
        e, k = ilog(n, q), 1
        while q ** (k - 1) <= 4 * (e + k):
            k += 1
        start = time.perf_counter()
        bound = degree_bound(n, spec)
        assert e <= bound < e + k
        assert min_phi(spec, bound) <= n < min_phi(spec, bound + 1)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2)])
    def test_min_phi_above_the_cli_bound(self, field):
        # the phi refusal of the CLI reads phi(f) >= q**D / (4 D)
        spec = FieldSpec(*field)
        phis = list(islice(preimage._min_phis(spec), 1001))
        assert phis[1000] == min_phi(spec, 1000)
        for d in range(1, 1001):
            assert phis[d] * 4 * d >= spec.q**d, d

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

    def test_q3_unique_value(self, F3):
        # 4096 = (3 - 1)**3 (3**2 - 1)**3: every monic irreducible of degree
        # 1 and 2 once, m_1 = m_2 = 3.  It is the only n <= 2*10**5 with one
        # preimage over F_3, so the one value that reaches the q = 3
        # uniqueness rule.
        assert count_profile(4096, F3) == CountProfile(4096, 1, "unique")
        assert [str(f) for f in preimage_list(4096, F3)] == ["x^9+2*x"]
        assert preimage_count(4096, F3) == 1

    def test_no_form_is_empty_before_the_shape_check(self, F3, F5,
                                                     monkeypatch):
        def refuse(*args):
            raise AssertionError("shape condition checked")

        monkeypatch.setattr(preimage, "_uniqueness_condition", refuse)
        # 10 = 2 * 5 over F_3 passes the early rules of represent
        for n, spec in [(10, F3), (5, F3), (3, F5)]:
            assert count_profile(n, spec) == CountProfile(n, 0, "empty")

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

    @pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (5, 1),
                                       (7, 1), (2, 3), (3, 2)],
                             ids=["F2", "F3", "F4", "F5", "F7", "F8", "F9"])
    def test_gaps_hold_on_every_value_to_10_9(self, field):
        # count_profile raises on a count in a forbidden gap, so this checks
        # the gap theorems on the whole value set to y.  The density walk
        # lists the values and represent counts them: two independent paths
        # that must agree on which n are values.
        spec = FieldSpec(*field)
        y = 10**9
        values = phi_values_up_to(y, spec)
        labels = set()
        for v in values:
            profile = count_profile(v, spec)
            assert profile.count > 0, v
            labels.add(profile.label)
            assert lemma_a_shape(represent(v, spec), spec.q), v
        assert labels <= ({"exactly-3", "above-3"} if spec.q == 2 else
                          {"unique", "exactly-q", "at-least-binom"})
        # log-uniform n <= y: uniform ones would all miss the sparse values
        listed = set(values)
        rng = random.Random(spec.q)
        hits = set()
        for n in (round(10 ** rng.uniform(0, 9)) for _ in range(2000)):
            assert (preimage_count(n, spec) > 0) == (n in listed), n
            hits.add(n in listed)
        assert hits == {True, False}

    def test_lemmas_on_every_f3_value_to_10_12(self, F3):
        # Lemma A's pair, and Lemma B: one form counts 1 exactly when j = 0
        # and every present degree is full, and never counts 2
        values = phi_values_up_to(10**12, F3)
        pairs = 0
        for v in values:
            forms = represent(v, F3)
            assert lemma_a_shape(forms, 3), v
            pairs += len(forms) == 2
            for rep in forms:
                count = preimage._count_for(rep, F3)
                full = all(m == F3.pi(d) for d, m in rep.counts.items())
                assert count != 2 and (count == 1) == (rep.j == 0 and full), v
        assert (len(values), pairs) == (18849, 3258)

    def test_a_count_of_two_over_f3_raises(self, F3, monkeypatch):
        # 72 = 3**2 * 2**3 = 3**2 * (3**2 - 1) has Lemma A's pair of forms;
        # with each made to count 1, the total is the count the theorem
        # excludes
        assert len(represent(72, F3)) == 2
        monkeypatch.setattr(preimage, "_LAST", {})
        monkeypatch.setattr(preimage, "_count_for", lambda rep, spec: 1)
        with pytest.raises(CounterexampleError, match="count 2"):
            count_profile(72, F3)


class TestSharedForm:
    """The factored form one count reads is kept for the next question
    about the same n; these pin what that must not change."""

    @pytest.mark.parametrize("call", [preimage_count, count_profile,
                                      intersection_member])
    def test_zero_raises_and_stores_nothing(self, F3, call):
        assert preimage_count(16, F3) == 9
        with pytest.raises(ValueError):
            call(0, F3)
        with pytest.raises(ValueError):
            call(0, F3)
        assert all(entry[0] != 0 for entry in preimage._LAST.values())
        assert preimage_count(16, F3) == 9

    def test_mutated_forms_leave_the_count(self, F3):
        # 3**2 * 8 has two forms, m_1 = 3 and m_2 = 1 (see TestRepresent)
        n = 9 * 8
        want = sum(preimage._count_for(rep, F3) for rep in represent(n, F3))
        forms = represent(n, F3)
        assert len(forms) == 2
        for rep in forms:
            rep.counts[1] = 0
        forms.append(forms[0])
        assert preimage_count(n, F3) == want
        forms = represent(n, F3)
        forms.clear()
        assert preimage_count(n, F3) == want
        assert count_profile(n, F3).count == want
        assert len(represent(n, F3)) == 2

    def test_one_walk_per_n(self, F2, monkeypatch):
        # count_profile and intersection_member read the form preimage_count
        # just found; 2**31 - 1 is in the q = 2 intersection
        calls = []
        walk = preimage.represent
        monkeypatch.setattr(preimage, "represent",
                            lambda n, spec: calls.append(n) or walk(n, spec))
        n = 2**31 - 1
        count = preimage_count(n, F2)
        assert count_profile(n, F2).count == count
        assert intersection_member(n, F2).member
        assert preimage_count(n, F2) == count
        assert calls == [n]


def test_f3_counts_are_pinned(F3):
    # preimage_count and count_profile over F_3 on n = 1..30,000, as one
    # sha256 of "n:count:label" lines.  The digest comes from an earlier
    # implementation that folded m_1 and m_2 into one power of two, so it
    # checks the (j, {m_d}) form against independent code.
    stream = hashlib.sha256()
    for n in range(1, 30001):
        line = f"{n}:{preimage_count(n, F3)}:{count_profile(n, F3).label}\n"
        stream.update(line.encode())
    assert stream.hexdigest() == (
        "f79755b3d49b8db4bb7f881d9ac14bad74820fc965384be2f0d4080dc0799148")


@pytest.mark.parametrize("field,digest", [
    ((2, 1),
     "1bfdce64e1a1c3209ba222d6b19b71106e1ead0574a3c00a6e363da1421271ba"),
    ((2, 2),
     "d0bff5ac151be0670c222dccf29ab9b1eda54f99907b4ffbbf9cf1b9a106fbad"),
    ((5, 1),
     "5264b3b00eb6d53eb4d5d12fb3ab864a103d232a759963a49f7dcd302b2856a9"),
    ((7, 1),
     "254d18f9193ea1d57d6b01c607f8b257180db23abe7b34cdec65f02fc0eeeecf"),
    ((3, 2),
     "8c3b830ad9954dbd3833e93c400a322280892b877d3f1b1adc65638e64da9e4a"),
], ids=["F2", "F4", "F5", "F7", "F9"])
def test_verify_field_counts_are_pinned(field, digest):
    # preimage_count and count_profile on n = 1..10,000 over each of the
    # other fields the verify grids use, as one sha256 of "n:count:label"
    # lines, taken from the walk that branched through two closures per
    # call, before the early rejections in ``represent``.
    spec = FieldSpec(*field)
    stream = hashlib.sha256()
    for n in range(1, 10001):
        line = f"{n}:{preimage_count(n, spec)}:{count_profile(n, spec).label}\n"
        stream.update(line.encode())
    assert stream.hexdigest() == digest


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
