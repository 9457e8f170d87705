import random
from math import prod

import pytest

from fqphi import (
    CounterexampleError,
    FieldSpec,
    count_profile,
    erdos,
    enumerate_monic,
    gfpoly,
    erdos_witness,
    intersection_member,
    intersection_up_to,
    phi,
    phi_table,
    degree_bound,
    preimage,
    preimage_count,
    represent,
    sigma,
)
from fqphi.numtheory import ilog


def oracle_intersection(spec, y):
    """Independent double enumeration of totient and sigma values up to y."""
    phi_values = {
        v for v in phi_table(spec, degree_bound(y, spec)) if v <= y}
    sigma_values = set()
    d = 1
    while spec.q**d <= y:
        for g in enumerate_monic(spec, d):
            s = sigma(g)
            if s <= y:
                sigma_values.add(s)
        d += 1
    return sorted(phi_values & sigma_values)


# The scanning search, kept as a reference for ``erdos``: q = 3 by two
# hand-written loops, q = 2 by a walk that scans d upward in every slot,
# the last one included, over the families' own data.

def scan_slots(slots, value):
    if not slots:
        return () if value == 1 else None
    (d_min, cond), rest = slots[0], slots[1:]
    d = d_min
    while 2**d - 1 <= value:
        factor = 2**d - 1
        if (cond is None or cond(d)) and value % factor == 0:
            sub = scan_slots(rest, value // factor)
            if sub is not None:
                return (d,) + sub
        d += 1
    return None


def reference_member(n, q):
    if q == 3:
        d1 = 1
        while (3**d1 - 1) ** 2 <= n:
            part = 3**d1 - 1
            if n % part == 0:
                rest = n // part
                d2 = d1
                while 3**d2 - 1 <= rest:
                    if 3**d2 - 1 == rest:
                        return True, "(3^d1-1)(3^d2-1)", (d1, d2)
                    d2 += 1
            d1 += 1
        return False, None, None
    for fam in erdos._FAMILIES[2]:
        value = n
        for d in fam.fixed:
            if value % (2**d - 1):
                break
            value //= 2**d - 1
        else:
            params = scan_slots(fam.slots, value)
            if params is not None:
                return True, fam.tag, params
    return False, None, None


def reference_up_to(y, q):
    out = set()
    if q == 3:
        d1 = 1
        while (3**d1 - 1) ** 2 <= y:
            d2 = d1
            while (3**d1 - 1) * (3**d2 - 1) <= y:
                out.add((3**d1 - 1) * (3**d2 - 1))
                d2 += 1
            d1 += 1
        return sorted(out)

    def fill(slots, value):
        if not slots:
            out.add(value)
            return
        (d_min, cond), rest = slots[0], slots[1:]
        d = d_min
        while value * (2**d - 1) <= y:
            if cond is None or cond(d):
                fill(rest, value * (2**d - 1))
            d += 1

    for fam in erdos._FAMILIES[2]:
        prefix = 1
        for d in fam.fixed:
            prefix *= 2**d - 1
        if prefix <= y:
            fill(fam.slots, prefix)
    return sorted(out)


def seeded_family_products(q, count, seed=9):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = 1
        for _ in range(rng.randrange(1, 5)):
            n *= q ** rng.randrange(1, 40 if q == 2 else 25) - 1
        out.append(n)
    return out


class TestAgainstScanningReference:
    @pytest.mark.parametrize("q", [2, 3])
    def test_member(self, q):
        spec = FieldSpec(q)
        for n in list(range(1, 20001)) + seeded_family_products(q, 1000):
            verdict = intersection_member(n, spec)
            got = verdict.member, verdict.family, verdict.params
            assert got == reference_member(n, q), n

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("y", [1, 2, 3, 10**2, 10**6, 10**12, 10**20])
    def test_up_to(self, q, y):
        assert intersection_up_to(y, FieldSpec(q)) == reference_up_to(y, q)

    def test_the_papers_families(self):
        assert sorted(erdos._FAMILIES) == [2, 3]
        assert [fam.tag for fam in erdos._FAMILIES[2]] == [
            "(2^d1-1)",
            "(2^2-1)(2^d1-1)",
            "(2^2-1)(2^3-1)(2^d1-1)",
            "(2^d1-1)(2^d2-1)",
            "(2^2-1)(2^3-1)(2^d1-1)(2^d2-1)",
            "(2^2-1)(2^d1-1)(2^d2-1)",
            "(2^2-1)(2^d1-1)(2^d2-1)(2^d3-1)",
        ]
        assert erdos._FAMILIES[3] == (erdos._Family(
            "(3^d1-1)(3^d2-1)", (), ((1, None), (1, None))),)


def seeded_family_members(q, count, seed=11):
    """Instances of q's families: random slot degrees that meet each slot's
    least degree and condition."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        fam = rng.choice(erdos._FAMILIES[q])
        degrees = list(fam.fixed)
        for d_min, cond in fam.slots:
            d = rng.randrange(d_min, 30)
            while cond is not None and not cond(d):
                d += 1
            degrees.append(d)
        out.append(prod(q**d - 1 for d in degrees))
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_members_are_prime_to_q_totient_values(q):
    # intersection_member answers no at once when q | n or when n has no
    # preimage: every member must be prime to q and have a form with
    # j = 0.  Checked here on the scanning reference's members
    # and on family instances, without intersection_member.
    spec = FieldSpec(q)
    ns = (list(range(1, 20001)) + seeded_family_products(q, 1000)
          + seeded_family_members(q, 1000))
    members = [n for n in ns if reference_member(n, q)[0]]
    assert len(members) > 1000
    for n in members:
        assert n % q and any(rep.j == 0 for rep in represent(n, spec)), n


class TestScanLimit:
    @staticmethod
    def walked_tuples(y, q):
        # the ordered slot tuples with a product <= y, by enumeration
        def tuples(slots, value):
            if not slots:
                return 1
            (d_min, cond), rest = slots[0], slots[1:]
            total, d = 0, d_min
            while value * (q**d - 1) <= y:
                if cond is None or cond(d):
                    total += tuples(rest, value * (q**d - 1))
                d += 1
            return total
        return sum(tuples(fam.slots, 1) for fam in erdos._FAMILIES[q])

    @pytest.mark.parametrize("q", [2, 3])
    def test_bound_covers_the_walk(self, q):
        for y in [1, 2, 3, 10, 10**3, 10**6, 10**12, 10**20]:
            assert erdos._slot_tuples(y, q) >= self.walked_tuples(y, q), y

    def test_refused_at_the_limit(self, F2, F3):
        # the largest accepted y per field, as the docs state
        for spec, k in ((F2, 111), (F3, 631)):
            tuples = erdos._slot_tuples(spec.q**k - 1, spec.q)
            assert tuples <= erdos.SCAN_LIMIT
            with pytest.raises(ValueError, match="SCAN_LIMIT"):
                intersection_up_to(spec.q**k, spec)

    def test_no_limit_for_large_q(self, F5):
        assert intersection_up_to(10**4000, F5) == []


class TestMembership:
    def test_large_q_always_empty(self, F5):
        assert intersection_member(24, F5).member is False
        assert all(
            not intersection_member(n, F5).member for n in range(1, 500))

    def test_q3_example(self, F3):
        verdict = intersection_member(16, F3)
        assert verdict.member is True
        assert verdict.family == "(3^d1-1)(3^d2-1)"
        assert verdict.params == (1, 2)

    def test_q2_example(self, F2):
        verdict = intersection_member(3, F2)
        assert verdict.member is True
        assert verdict.family == "(2^d1-1)"
        assert verdict.params == (2,)

    def test_q2_deterministic_first_match(self, F2):
        # 63 = 2^6 - 1 is also 9 * 7, but the single-factor family is tried
        # first, so the tag is stable
        verdict = intersection_member(63, F2)
        assert verdict.family == "(2^d1-1)" and verdict.params == (6,)

    def test_rejects_non_positive(self, F2):
        with pytest.raises(ValueError):
            intersection_member(0, F2)

    def test_verdict_products_reproduce_n(self, F2, F3):
        for spec in (F2, F3):
            for n in intersection_up_to(700, spec):
                verdict = intersection_member(n, spec)
                assert verdict.member
                value = 1
                fixed = {
                    "(2^2-1)(2^d1-1)": [2],
                    "(2^2-1)(2^3-1)(2^d1-1)": [2, 3],
                    "(2^2-1)(2^3-1)(2^d1-1)(2^d2-1)": [2, 3],
                    "(2^2-1)(2^d1-1)(2^d2-1)": [2],
                    "(2^2-1)(2^d1-1)(2^d2-1)(2^d3-1)": [2],
                }.get(verdict.family, [])
                base = spec.q if spec.q == 3 else 2
                for d in fixed:
                    value *= 2**d - 1
                for d in verdict.params:
                    value *= base**d - 1
                assert value == n, (n, verdict)


def fresh_count(n, spec):
    return sum(preimage._count_for(rep, spec) for rep in represent(n, spec))


class TestSharedFactoredForm:
    """preimage_count, count_profile and intersection_member all read the
    factored form of n; interleaved over five fields, with n repeated and
    alternating, each answer must match one worked out afresh."""

    FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2), FieldSpec(5),
              FieldSpec(3, 2)]

    def pool(self, spec):
        q = spec.q
        rng = random.Random(q)
        values = list(range(1, 120))
        values += [q ** rng.randrange(4) * prod(
            q ** rng.randrange(1, 12) - 1 for _ in range(rng.randrange(1, 4)))
            for _ in range(60)]
        if q in (2, 3):
            values += seeded_family_members(q, 60)
        return values

    def test_seeded_interleaving(self):
        rng = random.Random(14)
        pools = {spec.q: self.pool(spec) for spec in self.FIELDS}
        history = {spec.q: [1, 1] for spec in self.FIELDS}
        spec = self.FIELDS[0]
        members = 0
        for step in range(1500):
            if rng.random() < 0.3:
                spec = rng.choice(self.FIELDS)
            q = spec.q
            pick = rng.random()
            if pick < 0.3:
                n = history[q][-1]  # the same n again
            elif pick < 0.5:
                n = history[q][-2]  # back to the n before it
            else:
                n = rng.choice(pools[q])
            history[q].append(n)
            call = rng.randrange(3)
            if call == 0:
                assert preimage_count(n, spec) == fresh_count(n, spec), (q, n)
            elif call == 1:
                profile = count_profile(n, spec)
                assert profile.n == n, (q, n)
                assert profile.count == fresh_count(n, spec), (q, n)
            else:
                verdict = intersection_member(n, spec)
                want = (reference_member(n, q) if q in (2, 3)
                        else (False, None, None))
                got = verdict.member, verdict.family, verdict.params
                assert verdict.n == n and got == want, (q, n)
                members += verdict.member
        assert members > 20


class TestScan:
    def test_empty_for_q5(self, F5):
        assert intersection_up_to(10**4, F5) == []

    def test_q3_to_100(self, F3):
        assert intersection_up_to(100, F3) == [4, 16, 52, 64]

    def test_q2_to_10(self, F2):
        assert intersection_up_to(10, F2) == [3, 7]

    def test_scan_agrees_with_membership(self, F2, F3):
        for spec in (F2, F3):
            members = set(intersection_up_to(300, spec))
            for n in range(1, 301):
                assert (n in members) == intersection_member(n, spec).member

    @pytest.mark.parametrize("q,y", [(2, 150), (3, 150)])
    def test_matches_double_enumeration(self, q, y):
        spec = FieldSpec(q) if q != 4 else FieldSpec(2, 2)
        assert intersection_up_to(y, spec) == oracle_intersection(spec, y)


class TestWitness:
    def test_q2_example(self, F2):
        f, g = erdos_witness(3, F2)
        assert str(f) == "x^2+x+1" and str(g) == "x"
        assert phi(f).value == sigma(g) == 3

    def test_q3_example(self, F3):
        f, g = erdos_witness(4, F3)
        assert str(f) == "x^2+x" and str(g) == "x"
        assert phi(f).value == sigma(g) == 4

    def test_none_for_nonmembers(self, F2, F5):
        assert erdos_witness(5, F2) is None
        assert erdos_witness(24, F5) is None

    def test_witnesses_check_out(self, F2):
        for n in intersection_up_to(120, F2):
            f, g = erdos_witness(n, F2)
            assert phi(f).value == n
            assert sigma(g) == n

    @pytest.mark.parametrize("q,y", [(2, 120), (3, 150)])
    def test_witnesses_are_first_in_order(self, q, y):
        spec = FieldSpec(q)
        for n in intersection_up_to(y, spec):
            first_g = next(g for d in range(1, ilog(n, q) + 1)
                           for g in enumerate_monic(spec, d)
                           if sigma(g) == n)
            assert erdos_witness(n, spec) == (
                preimage.preimage_list(n, spec)[0], first_g), n

    def test_builds_a_poly_only_for_witnesses(self, monkeypatch, F2, F3):
        # over a prime field the sieve is packed, and preimage_list and the
        # sigma scan decode only the positions they return
        def no_enumeration(*args, **kwargs):
            raise AssertionError("a Poly built for every monic")

        monkeypatch.setattr(gfpoly, "enumerate_monic", no_enumeration)
        assert [str(g) for g in erdos_witness(3, F2)] == ["x^2+x+1", "x"]
        assert [str(g) for g in erdos_witness(4, F3)] == ["x^2+x", "x"]
        for spec in (F2, F3):
            for n in intersection_up_to(60, spec):
                f, g = erdos_witness(n, spec)
                assert phi(f).value == sigma(g) == n

    def test_one_sieve_build_per_witness(self, monkeypatch, F2, F3):
        # g's sigma values come from the build preimage_list has cached
        calls = []

        def counted(spec, max_deg):
            calls.append((spec.q, max_deg))
            return REAL_LEVELS(spec, max_deg)

        monkeypatch.setattr(preimage, "_sieve_levels", counted)
        for n, spec in ((1905, F2), (52, F3)):
            erdos_witness(n, spec)
            preimage._BUILDS.clear()
        assert calls == [(2, degree_bound(1905, F2)),
                         (3, degree_bound(52, F3))]


REAL_LEVELS = preimage._sieve_levels


def sigma_levels(wrong):
    """``_sieve_levels`` with each degree's sigma list replaced by
    wrong(|g|, sigmas) for the monics g of that degree."""
    def levels(spec, max_deg):
        for d, (smallest, sigmas, phis, cofactors) in enumerate(
                REAL_LEVELS(spec, max_deg), 1):
            yield smallest, wrong(spec.q**d, sigmas), phis, cofactors
    return levels


class TestWitnessFaults:
    def test_sigma_below_size_raises(self, monkeypatch, F2):
        monkeypatch.setattr(preimage, "_sieve_levels", sigma_levels(
            lambda size, sigmas: [size - 1] * len(sigmas)))
        with pytest.raises(CounterexampleError,
                           match=r"sigma\(x\) = 1 below \|g\| = 2"):
            erdos_witness(3, F2)

    def test_no_sigma_preimage_raises(self, monkeypatch, F2):
        # every sigma value |g|: sigma(g) >= |g| holds, and 7 is no power
        # of 2
        monkeypatch.setattr(preimage, "_sieve_levels", sigma_levels(
            lambda size, sigmas: [size] * len(sigmas)))
        with pytest.raises(CounterexampleError,
                           match=r"7 matched family \(2\^d1-1\) but has no "
                                 r"sigma preimage"):
            erdos_witness(7, F2)
