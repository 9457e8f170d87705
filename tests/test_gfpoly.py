import os
import random
import subprocess
import sys
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqphi import (
    CounterexampleError,
    FieldSpec,
    Poly,
    enumerate_irreducibles,
    enumerate_monic,
    factor,
    gcd,
    is_irreducible,
    parse_poly,
    pi_divisibility_holds,
    powmod,
)
from fqphi import field, gfpoly
from fqphi.gfpoly import kron_mul, kron_width
from fqphi.numtheory import factor_int

FIELDS = {2: FieldSpec(2), 3: FieldSpec(3), 4: FieldSpec(2, 2), 5: FieldSpec(5)}


def polys(spec, max_deg=5):
    return st.builds(
        lambda cs: Poly(spec, cs),
        st.lists(st.integers(0, spec.q - 1), min_size=0, max_size=max_deg + 1),
    )


def monics_up_to(spec, max_deg):
    for d in range(1, max_deg + 1):
        yield from enumerate_monic(spec, d)


def reducible_by_trial_division(f):
    # definition-level oracle: some monic of degree 1..deg/2 divides f
    spec = f.field
    for d in range(1, f.degree // 2 + 1):
        for g in enumerate_monic(spec, d):
            if (f % g).is_zero():
                return True
    return False


class TestFieldSpec:
    def test_prime_fields_have_no_modulus(self):
        assert FieldSpec(2).modulus is None
        assert FieldSpec(3).modulus is None

    def test_f4_modulus(self):
        assert FieldSpec(2, 2).modulus_text() == "x^2+x+1"

    def test_f9_modulus(self):
        assert FieldSpec(3, 2).modulus_text() == "x^2+1"

    @pytest.mark.parametrize("p,s", [(p, s) for p in (2, 3, 5, 7, 11, 13)
                                     for s in range(2, 12)
                                     if p ** (s - 1) <= 2000])
    def test_modulus_is_the_first_irreducible(self, p, s):
        # every monic of degree s in enumeration order, constant term 0
        # included, until the first one with no monic divisor
        first = next(f for f in enumerate_monic(FieldSpec(p), s)
                     if not reducible_by_trial_division(f))
        assert FieldSpec(p, s).modulus == first.coeffs

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            FieldSpec(4)
        with pytest.raises(ValueError):
            FieldSpec(6, 1)

    def test_rejects_bad_extension(self):
        with pytest.raises(ValueError):
            FieldSpec(2, 0)

    def test_equality_and_hash(self):
        assert FieldSpec(2, 2) == FieldSpec(2, 2)
        assert FieldSpec(2) != FieldSpec(2, 2)
        assert hash(FieldSpec(3)) == hash(FieldSpec(3))

    @pytest.mark.parametrize("p,s", [(2, 2), (3, 2), (2, 3)])
    def test_extension_field_axioms(self, p, s):
        spec = FieldSpec(p, s)
        elems = list(spec.elements())
        for a in elems:
            assert spec.add(a, 0) == a
            assert spec.mul(a, 1) == a
            assert spec.add(a, spec.neg(a)) == 0
            if a:
                assert spec.mul(a, spec.inv(a)) == 1
        for a in elems[:6]:
            for b in elems[:6]:
                assert spec.mul(a, b) == spec.mul(b, a)
                assert spec.add(a, b) == spec.add(b, a)

    def test_table_matches_direct_path(self):
        spec = FieldSpec(3, 2)
        mod = list(spec.modulus)
        for a in spec.elements():
            for b in spec.elements():
                assert spec.mul(a, b) == spec._ext_mul_direct(a, b, mod)


def digit_add(a, b, p):
    """Sum of two element codes, base-p digit by digit."""
    total, place = 0, 1
    while a or b:
        total += (a % p + b % p) % p * place
        a, b, place = a // p, b // p, place * p
    return total


class TestTables:
    """The add, mul and inv tables against per-digit arithmetic; the mul
    table is built from logarithms, the reference multiplies digits."""

    @pytest.mark.parametrize("p,s", [
        (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
        (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)])
    def test_every_entry(self, p, s):
        spec = FieldSpec(p, s)
        mod = list(spec.modulus)
        for a in spec.elements():
            for b in spec.elements():
                assert spec._mul_table[a][b] == spec._ext_mul_direct(a, b, mod)
                assert spec._add_table[a][b] == digit_add(a, b, p)
            if a:
                assert spec._ext_mul_direct(a, spec._inv_table[a], mod) == 1

    @pytest.mark.parametrize("p,s", [(13, 2), (3, 5), (2, 8)])
    def test_seeded_sample(self, p, s):
        spec = FieldSpec(p, s)
        mod = list(spec.modulus)
        rng = random.Random(p * 1000 + s)
        for _ in range(5000):
            a, b = rng.randrange(spec.q), rng.randrange(spec.q)
            assert spec._mul_table[a][b] == spec._ext_mul_direct(a, b, mod)
            assert spec._add_table[a][b] == digit_add(a, b, p)
        for a in range(1, spec.q):
            assert spec._ext_mul_direct(a, spec._inv_table[a], mod) == 1

    @pytest.mark.parametrize("p,s,text", [(3, 6, "x^3+400*x+17"),
                                          (2, 9, "x^3+300*x^2+5")])
    def test_past_the_table_limit(self, p, s, text):
        # no tables: add and neg go digit by digit, mul multiplies digits
        # and inv is a power
        spec = FieldSpec(p, s)
        assert spec.q > field._TABLE_LIMIT and spec._add_table is None
        rng = random.Random(spec.q)
        for _ in range(300):
            a, b, c = (rng.randrange(spec.q) for _ in range(3))
            assert spec.add(a, b) == digit_add(a, b, p)
            assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b),
                                                           spec.mul(a, c))
            assert spec.add(a, spec.neg(a)) == 0
            if a:
                assert spec.mul(a, spec.inv(a)) == 1
        f = spec.parse(text)
        fac = factor(f)
        assert fac.expand() == f
        assert [part.degree for part, _ in fac] == [1, 2]
        assert all(is_irreducible(part) for part, _ in fac)


class TestPolyBasics:
    def test_zero_degree_marker(self, F2):
        assert F2.zero().degree == -1
        assert F2.one().degree == 0
        assert F2.x().degree == 1

    def test_rejects_out_of_range_codes(self, F2):
        with pytest.raises(ValueError):
            Poly(F2, (2,))

    def test_trailing_zeros_stripped(self, F3):
        assert Poly(F3, (1, 2, 0, 0)).coeffs == (1, 2)

    def test_size(self, F3):
        assert F3.parse("x^2+1").size() == 9
        with pytest.raises(ValueError):
            F3.zero().size()

    def test_mixed_fields_rejected(self, F2, F3):
        with pytest.raises(ValueError):
            F2.x() + F3.x()


class TestArithmetic:
    def test_char2_square(self, F2):
        x1 = F2.parse("x+1")
        assert str(x1 * x1) == "x^2+1"

    def test_divmod_example(self, F2):
        q, r = divmod(F2.x() ** 3, F2.parse("x^2+x+1"))
        assert str(q) == "x+1" and str(r) == "1"

    def test_gcd_example(self, F2):
        assert gcd(F2.parse("x^2+x"), F2.x()) == F2.x()

    def test_gcd_with_zero(self, F3):
        f = F3.parse("2*x^2+1")
        assert gcd(f, F3.zero()) == f.monic()
        with pytest.raises(ValueError):
            gcd(F3.zero(), F3.zero())

    def test_division_by_zero(self, F2):
        with pytest.raises(ZeroDivisionError):
            divmod(F2.x(), F2.zero())

    def test_powmod_matches_plain_power(self, F3):
        f = F3.parse("x+2")
        g = F3.parse("x^3+2*x+1")
        assert powmod(f, 11, g) == (f**11) % g

    def test_negative_exponents_raise(self, F3):
        f, g = F3.parse("x+2"), F3.parse("x^3+2*x+1")
        with pytest.raises(ValueError):
            f ** -1
        with pytest.raises(ValueError):
            powmod(f, -1, g)

    def test_power_makes_no_spare_products(self):
        # exponents stand in for powers, so a product adds them and a
        # squaring is the one product of two equal exponents: the result
        # is below the next power of two it is multiplied by
        for e in range(201):
            squares = []

            def mul(a, b):
                squares.append(a == b)
                return a + b

            assert field._power(1, e, 0, mul) == e
            assert sum(squares) == max(e.bit_length() - 1, 0), e
            assert squares.count(False) == max(bin(e).count("1") - 1, 0), e
        with pytest.raises(ValueError, match="negative exponent -1"):
            field._power(1, -1, 0, mul)

    def test_powmod_square_is_one_product(self, F3, monkeypatch):
        f, g = F3.parse("x+2"), F3.parse("x^3+2*x+1")
        calls = []
        real = Poly.__mul__

        def counted(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(Poly, "__mul__", counted)
        assert powmod(f, 2, g) == real(f, f) % g
        assert len(calls) == 1

    @pytest.mark.parametrize("p,s", [(5, 1), (2, 2)])
    def test_negative_element_exponent_raises(self, p, s):
        # elem_pow once looped forever on e < 0; in a child process with a
        # timeout a hang fails the test instead of the test run
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        code = ("from fqphi import FieldSpec; "
                f"FieldSpec({p}, {s}).elem_pow(2, -1)")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1
        assert "ValueError: negative exponent -1" in proc.stderr

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_divmod_invariant(self, q):
        spec = FIELDS[q]
        dense = [Poly(spec, cs) for cs in product(range(spec.q), repeat=3)]
        divisors = [f for f in dense if not f.is_zero()][:12]
        for a in dense[:20]:
            for b in divisors:
                quot, rem = divmod(a, b)
                assert quot * b + rem == a
                assert rem.degree < b.degree


@pytest.mark.parametrize("q", [2, 3, 4])
class TestRingProperties:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mul_commutes_and_distributes(self, q, data):
        spec = FIELDS[q]
        a = data.draw(polys(spec))
        b = data.draw(polys(spec))
        c = data.draw(polys(spec))
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def schoolbook(a, b):
    """Reference product straight from the definition, on field elements."""
    spec = a.field
    out = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = spec.add(out[i + j], spec.mul(x, y))
    return Poly(spec, out)


# one-byte lanes; wider lanes (F_11 and F_13 once the shorter factor has
# three and two coefficients, always F_257 and F_(2^31 - 1)); the
# extension-field table path
KERNEL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (257, 1),
                 (2**31 - 1, 1), (2, 2), (3, 2)]


class TestPackedMul:
    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_schoolbook(self, field, data):
        spec = FieldSpec(*field)
        a = data.draw(polys(spec, max_deg=12))
        b = data.draw(polys(spec, max_deg=12))
        assert a * b == schoolbook(a, b)
        assert (a * b).coeffs == schoolbook(a, b).coeffs

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
    def test_zero_and_constant_operands(self, field):
        spec = FieldSpec(*field)
        f = Poly(spec, [1, spec.q - 1, 0, 2 % spec.q, 1])
        for c in (0, 1, spec.q - 1):
            k = spec.constant(c)
            assert k * f == f * k == schoolbook(k, f)
            assert k * k == schoolbook(k, k)
        assert (spec.zero() * f).is_zero() and (f * spec.zero()).is_zero()

    def test_lane_width_boundary(self):
        # one byte holds n * (p - 1)**2 while it is below 256: n <= 7 for F_7
        assert kron_width(7, 7) == 1 and kron_width(7, 8) == 2
        assert kron_width(2, 255) == 1 and kron_width(2, 256) == 2
        assert kron_width(11, 2) == 1 and kron_width(11, 3) == 2
        assert kron_width(13, 1) == 1 and kron_width(13, 2) == 2

    @pytest.mark.parametrize("short", [7, 8])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_both_sides_of_the_byte_lane(self, short, data):
        # all codes p - 1 maximise every lane: 8 * 36 = 288 overflows a byte
        spec = FieldSpec(7)
        a = Poly(spec, data.draw(st.lists(st.integers(0, 6), min_size=short - 1,
                                          max_size=short - 1)) + [6])
        b = Poly(spec, data.draw(st.lists(st.integers(0, 6), min_size=short,
                                          max_size=3 * short)) + [6])
        assert a * b == schoolbook(a, b)
        full = Poly(spec, [6] * short)
        assert full * full == schoolbook(full, full)

    def test_large_degree(self, F2):
        f = Poly(F2, [(k * k) % 3 % 2 for k in range(300)] + [1])
        g = Poly(F2, [k % 2 for k in range(257)] + [1])
        assert f * g == schoolbook(f, g)

    def test_kernel_returns_unstripped_length(self):
        # the top lane holds the product of the leading codes, never 0 mod p
        assert list(kron_mul((1, 2), (0, 3), 5)) == [0, 3, 1]
        assert list(kron_mul((4,), (4,), 5)) == [1]


class TestIrreducibility:
    def test_examples(self, F2, F3):
        assert is_irreducible(F2.parse("x^2+x+1")) is True
        assert is_irreducible(F2.parse("x^2+1")) is False
        assert is_irreducible(F3.parse("x^2+1")) is True

    def test_rejects_constants(self, F2):
        with pytest.raises(ValueError):
            is_irreducible(F2.one())

    # F_2 to degree 6 reaches the squares of the degree-3 irreducibles,
    # whose only factor degree is exactly d/2; F_4 is an extension field
    @pytest.mark.parametrize("q,max_deg", [(2, 6), (3, 5), (4, 4), (5, 4)],
                             ids=["2", "3", "4", "5"])
    def test_agrees_with_trial_division(self, q, max_deg):
        spec = FIELDS[q]
        for f in monics_up_to(spec, max_deg):
            assert is_irreducible(f) == (not reducible_by_trial_division(f)), f


class TestFactor:
    def test_trivial_split(self, F2):
        parts = [(str(p), e) for p, e in factor(F2.parse("x^2+x"))]
        assert parts == [("x", 1), ("x+1", 1)]

    def test_reexpansion_example(self, F2):
        f = F2.parse("x^6+x^5+x^3+x^2")
        fac = factor(f)
        assert fac.expand() == f
        assert all(is_irreducible(p) for p, _ in fac)
        assert [(str(p), e) for p, e in fac] == [
            ("x", 2), ("x+1", 2), ("x^2+x+1", 1)]

    def test_root_split_over_f3(self, F3):
        assert [(str(p), e) for p, e in factor(F3.parse("x^2+2"))] == [
            ("x+1", 1), ("x+2", 1)]

    def test_rejects_zero(self, F2):
        with pytest.raises(ValueError):
            factor(F2.zero())

    def test_nonmonic_unit(self, F5):
        f = F5.parse("3*x^2+3*x")
        fac = factor(f)
        assert fac.unit == 3
        assert fac.expand() == f

    def test_pth_power(self, F2):
        f = F2.parse("x^4+1")  # (x+1)^4 in characteristic 2
        assert [(str(p), e) for p, e in factor(f)] == [("x+1", 4)]

    def test_deterministic(self, F5):
        f = F5.parse("x^6+x^4+2*x^2+3")
        assert factor(f) == factor(f)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_split_gives_up_when_nothing_splits(self, q, monkeypatch):
        # a gcd that never splits stands in for inconsistent arithmetic:
        # _equal_degree must raise after its attempts instead of looping
        spec = FIELDS[q]
        f, g = list(enumerate_irreducibles(spec, 3))[:2]
        calls = []
        monkeypatch.setattr(gfpoly, "gcd",
                            lambda a, b: calls.append(1) or a.field.one())
        start = time.perf_counter()
        with pytest.raises(CounterexampleError, match="64 attempts"):
            gfpoly._equal_degree(f * g, 3)
        assert time.perf_counter() - start < 5.0
        assert 0 < len(calls) <= 2 * gfpoly.SPLIT_ATTEMPTS

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_power_of_x_split_off(self, q):
        # x**v * g with g(0) != 0 must factor as x**v and g's parts, x never
        # among g's, however large v is next to deg g
        spec = FIELDS[q]
        x = spec.parse("x")
        rng = random.Random(q)
        for v in (1, 2, q, q + 1, 257, 1000, 3001):
            for _ in range(3):
                g = Poly(spec, [rng.randrange(1, q)] + [
                    rng.randrange(q) for _ in range(rng.randrange(9))])
                fac, rest = factor(Poly(spec, (0,) * v + g.coeffs)), factor(g)
                assert fac.unit == rest.unit == g.leading()
                assert fac.parts == ((x, v),) + rest.parts, (v, g)

    # per q, each base and its factorization as (part, exponent) text:
    # x^2+x+1 is (x+2)^2 over F_3 and (x+w)(x+w^2) over F_4, w coded 2
    BASES = {
        2: {"x+1": [("x+1", 1)], "x^2+x+1": [("x^2+x+1", 1)]},
        3: {"x+1": [("x+1", 1)], "x^2+x+1": [("x+2", 2)]},
        4: {"x+1": [("x+1", 1)], "x^2+x+1": [("x+2", 1), ("x+3", 1)]},
    }

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_high_powers_split(self, q):
        # multiplicities at, just past and far past powers of p, where the
        # square-free split moves to the p-th root
        spec = FIELDS[q]
        p = spec.p
        for base, parts in self.BASES[q].items():
            g = spec.parse(base)
            for v in (p, p + 1, p * p, p * p + 2, 1000, 3001):
                fac = factor(g**v)
                assert fac.unit == 1
                assert [(str(h), e) for h, e in fac] == [
                    (h, e * v) for h, e in parts], (base, v)
        mixed = factor(spec.parse("x^7") * spec.parse("x+1")**2001)
        assert [(str(h), e) for h, e in mixed] == [("x", 7), ("x+1", 2001)]

    @pytest.mark.parametrize("q,base,v", [(2, "x+1", 4095), (3, "x^2+1", 1000)])
    def test_high_power_takes_few_gcds(self, q, base, v, monkeypatch):
        # a split with one gcd per unit of multiplicity made 4,096 and 1,002
        # calls here; Yun's loop makes at most p - 1 steps per p-th root
        real, calls = gfpoly.gcd, []
        monkeypatch.setattr(gfpoly, "gcd",
                            lambda a, b: calls.append(1) or real(a, b))
        fac = factor(FIELDS[q].parse(base)**v)
        assert [(str(h), e) for h, e in fac] == [(base, v)]
        assert len(calls) < 64

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_roundtrip_exhaustive(self, q):
        spec = FIELDS[q]
        for f in monics_up_to(spec, 6):
            fac = factor(f)
            assert fac.expand() == f, f
            assert all(is_irreducible(p) and p.is_monic() for p, _ in fac)
            parts = [p for p, _ in fac]
            assert parts == sorted(parts, key=lambda p: p.sort_key())
            assert len(set(parts)) == len(parts)


def gcd_mod_p(a, b, p):
    """Monic gcd of two code lists over F_p, low degree first, by Euclid on
    plain lists."""
    a, b = list(a), list(b)
    while b and not b[-1]:
        b.pop()
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % p, len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def is_squarefree_mod_p(coeffs, p):
    deriv = [k * c % p for k, c in enumerate(coeffs)][1:]
    return len(gcd_mod_p(coeffs, deriv, p)) == 1


def berlekamp_nullity(coeffs, p):
    """dim ker(Q - I) for a monic f over F_p given by its codes, low degree
    first.  Row i of Q holds the codes of x^(p i) mod f, built by shifting
    and reducing with no Poly division, gcd or powmod.  A square-free f has
    exactly this many distinct irreducible factors (Berlekamp, Bell Syst.
    Tech. J. 46, 1967; von zur Gathen & Gerhard, Modern Computer Algebra,
    14.8).  Over F_2 a row is one int and elimination is xor."""
    n = len(coeffs) - 1
    if p == 2:
        f = sum(c << k for k, c in enumerate(coeffs))
        rows, r = [], 1
        for i in range(n):
            rows.append(r ^ 1 << i)
            for _ in range(2):
                r <<= 1
                if r >> n & 1:
                    r ^= f
        pivots = {}  # leading bit -> row
        for r in rows:
            while r and r.bit_length() in pivots:
                r ^= pivots[r.bit_length()]
            if r:
                pivots[r.bit_length()] = r
        return n - len(pivots)
    rows, r = [], [1] + [0] * (n - 1)
    for i in range(n):
        rows.append([(c - (k == i)) % p for k, c in enumerate(r)])
        for _ in range(p):
            top, r = r[-1], [0] + r[:-1]
            r = [(c - top * fk) % p for c, fk in zip(r, coeffs)]
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        top = [c * inv % p for c in rows[rank]]
        for i in range(rank + 1, n):
            if rows[i][col]:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], top)]
        rank += 1
    return n - rank


class TestBerlekamp:
    """Berlekamp's rank as a certificate for ``is_irreducible`` and
    ``factor`` at degrees that trial division and the sieve do not reach;
    it shares no step with either."""

    def test_reference_examples(self):
        assert berlekamp_nullity([1, 1, 1], 2) == 1        # x^2+x+1
        assert berlekamp_nullity([0, 1, 1], 2) == 2        # x(x+1)
        assert berlekamp_nullity([1, 0, 1], 3) == 1        # x^2+1 over F_3
        assert berlekamp_nullity([2, 0, 1], 3) == 2        # (x+1)(x+2)
        assert gcd_mod_p([1, 0, 1], [1, 1], 2) == [1, 1]   # (x+1)^2, x+1
        assert gcd_mod_p([2, 0, 1], [2, 2], 3) == [1, 1]   # x^2+2, 2x+2
        assert not is_squarefree_mod_p([1, 0, 1], 2)
        assert is_squarefree_mod_p([0, 1, 1], 2)

    def test_trinomials_over_f2(self, F2):
        # x^n + x^m + 1 for m in {1, n//2}, n <= 100; the squares (n and m
        # both even) and any other repeated factor are left out
        checked = 0
        for n, m in sorted({(n, m) for n in range(2, 101)
                            for m in (1, n // 2)}):
            coeffs = [1] + [0] * (n - 1) + [1]
            coeffs[m] = 1
            if not is_squarefree_mod_p(coeffs, 2):
                continue
            t = Poly(F2, coeffs)
            assert is_irreducible(t) == (berlekamp_nullity(coeffs, 2) == 1), t
            checked += 1
        assert checked == 171

    @pytest.mark.parametrize("p,degree", [(2, 60), (3, 40), (5, 30), (7, 20)])
    def test_seeded_factorizations(self, p, degree):
        spec = FieldSpec(p)
        rng = random.Random(f"berlekamp:{p}:{degree}")
        checked = 0
        while checked < 5:
            coeffs = [rng.randrange(p) for _ in range(degree)] + [1]
            if not is_squarefree_mod_p(coeffs, p):
                continue
            f = Poly(spec, coeffs)
            fac = factor(f)
            assert fac.expand() == f, f
            assert len(fac.parts) == berlekamp_nullity(coeffs, p), f
            for part, exp in fac.parts:
                assert exp == 1
                assert berlekamp_nullity(list(part.coeffs), p) == 1, part
            checked += 1


class TestEnumeration:
    def test_monic_degree_one_order(self, F2):
        assert [str(f) for f in enumerate_monic(F2, 1)] == ["x", "x+1"]

    def test_monic_counts(self, F2, F3):
        assert sum(1 for _ in enumerate_monic(F2, 2)) == 4
        assert sum(1 for _ in enumerate_monic(F3, 2)) == 9

    def test_irreducible_examples(self, F2, F3):
        assert [str(f) for f in enumerate_irreducibles(F2, 2)] == ["x^2+x+1"]
        assert sum(1 for _ in enumerate_irreducibles(F2, 3)) == 2
        assert [str(f) for f in enumerate_irreducibles(F3, 1)] == [
            "x", "x+1", "x+2"]

    @pytest.mark.parametrize(
        "q,max_d", [(2, 8), (3, 7), (4, 6), (5, 5)])
    def test_counts_match_pi(self, q, max_d):
        spec = FIELDS[q]
        for d in range(1, max_d + 1):
            count = sum(1 for _ in enumerate_irreducibles(spec, d))
            assert count == spec.pi(d), (q, d)

    @pytest.mark.parametrize("q,max_d", [(2, 9), (3, 6), (4, 5), (5, 4)])
    def test_same_order_as_the_monics(self, q, max_d):
        spec = FIELDS[q]
        for d in range(1, max_d + 1):
            want = [f for f in enumerate_monic(spec, d) if is_irreducible(f)]
            assert list(enumerate_irreducibles(spec, d)) == want, (q, d)

    def test_members_are_irreducible(self, F3):
        for f in enumerate_irreducibles(F3, 3):
            assert is_irreducible(f) and f.is_monic() and f.degree == 3


def mobius(n):
    """Mobius function: 0 on non-squarefree n, else (-1)^(number of primes);
    the reference for the count of irreducibles in TestPi."""
    if n < 1:
        raise ValueError(f"mobius requires n >= 1, got {n}")
    if n == 1:
        return 1
    fac = factor_int(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


class TestMobius:
    def test_examples(self):
        assert mobius(1) == 1
        assert mobius(6) == 1
        assert mobius(12) == 0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            mobius(0)

    def test_agrees_with_definition(self):
        # recompute from the factorization, the definition-level route
        for n in range(1, 10001):
            if n == 1:
                expected = 1
            else:
                fac = factor_int(n)
                expected = 0 if any(e > 1 for e in fac.values()) \
                    else (-1) ** len(fac)
            assert mobius(n) == expected, n


class TestPi:
    def test_pinned_values(self, F2, F3, F5):
        assert [F2.pi(d) for d in range(1, 7)] == [2, 1, 2, 3, 6, 9]
        assert F3.pi(1) == 3 and F3.pi(2) == 3 and F3.pi(3) == 8
        assert F5.pi(2) == 10
        assert FieldSpec(3, 2).pi(4) == 1620

    def test_pi1_is_q(self):
        for q, spec in FIELDS.items():
            assert spec.pi(1) == q

    def test_counting_identity(self):
        # sum of d*pi_q(d) over d | D telescopes to q^D
        for spec in FIELDS.values():
            for big_d in range(1, 13):
                total = sum(
                    d * spec.pi(d) for d in range(1, big_d + 1)
                    if big_d % d == 0)
                assert total == spec.q**big_d

    @pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                     (3, 2)])
    def test_matches_mobius_formula(self, p, s):
        spec = FieldSpec(p, s)
        q = spec.q
        for d in range(1, 121):
            total = sum(mobius(j) * q ** (d // j)
                        for j in range(1, d + 1) if d % j == 0)
            assert spec.pi(d) == total // d, (q, d)

    def test_divisibility_examples(self, F3, F5):
        assert pi_divisibility_holds(F3, 3) is True
        assert pi_divisibility_holds(F5, 2) is True
        assert pi_divisibility_holds(FieldSpec(3, 2), 4) is True

    def test_divisibility_rejects_q2(self, F2):
        with pytest.raises(ValueError):
            pi_divisibility_holds(F2, 3)


class TestTextForm:
    def test_zero(self, F2):
        assert str(F2.zero()) == "0"
        assert parse_poly(F2, "0").is_zero()

    def test_canonical_output(self, F3):
        f = Poly(F3, (1, 0, 2, 1))
        assert str(f) == "x^3+2*x^2+1"

    def test_parse_variants(self, F3):
        assert parse_poly(F3, "2*x^2 + x + 1").coeffs == (1, 1, 2)
        assert parse_poly(F3, "x^1").coeffs == (0, 1)
        assert parse_poly(F3, "1*x").coeffs == (0, 1)
        assert parse_poly(F3, "x+x").coeffs == (0, 2)

    def test_parse_rejects_garbage(self, F3):
        for text in ("", "x^", "y+1", "x**2", "3*x", "x^2+3"):
            with pytest.raises(ValueError):
                parse_poly(F3, text)

    def test_exponent_limit(self, F2):
        limit = gfpoly.EXPONENT_LIMIT
        assert parse_poly(F2, f"x^{limit}+1").degree == limit
        for text in (f"x^{limit + 1}", f"1+x^{10**20}", f"x+x^{10**20}+1"):
            with pytest.raises(ValueError, match="EXPONENT_LIMIT"):
                parse_poly(F2, text)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, q, data):
        spec = FIELDS[q]
        f = data.draw(polys(spec))
        assert parse_poly(spec, str(f)) == f
