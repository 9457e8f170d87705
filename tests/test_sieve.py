"""The sieve oracle against the factor-based totient functions.

``preimage._sieve_levels`` builds every monic from its prime factors and
never calls ``factor``; ``sieve`` below decodes its positions to ``Poly``
objects.  These tests keep the two independent routes honest against each
other, and show that the sieve's own invariant checks fire, both where the
entries are built as ``Poly`` objects (``phi_table``) and where only the
values are (``phi_counts``).  The last tests check the per-field cache
of sieve builds that every reader goes through: each prefix of a cached
build is a fresh shallower build in all four lists, a deeper request
rebuilds, the monics kept stay within ``LIST_LIMIT``, and a second pass of
every verify suite builds nothing.  Over a prime field with one-byte lanes
the sieve makes and decodes its products in batches; the last test holds
those builds equal to the per-product path that wider lanes take.
"""

import hashlib
from collections import Counter
from typing import NamedTuple

import pytest

from fqphi import (
    CounterexampleError,
    FieldSpec,
    Poly,
    degree_bound,
    enumerate_monic,
    factor,
    phi_from_signature,
    phi_counts,
    phi_table,
    preimage_list,
    sigma,
    sigma_values,
    signature,
)
from fqphi import gfpoly, preimage, verify
from fqphi.gfpoly import kron_unpack

# F_11 to degree 3 packs its products in one-byte lanes at the edge
# (2 * 10**2 = 200 < 256); F_13 to degree 3 needs two-byte lanes.  F_37
# has more residues than the batch decoder has digits, which once crashed
# every build over F_p with p >= 37, though only batched builds read them.
GRIDS = [((2, 1), 10), ((3, 1), 6), ((2, 2), 4), ((5, 1), 4), ((3, 2), 3),
         ((11, 1), 3), ((13, 1), 3), ((37, 1), 2)]


class SieveEntry(NamedTuple):
    """One monic f from ``sieve``: its smallest prime factor P, the cofactor
    f / P (None when f = P is irreducible), sigma(f) and phi(f)."""

    poly: Poly
    smallest: Poly
    cofactor: Poly | None
    sigma: int
    phi: int


def sieve(spec, max_deg):
    """Every monic of degree 1..max_deg in enumeration order, as a
    SieveEntry: the build of ``preimage._sieve_levels`` with its positions
    decoded to ``Poly`` objects."""
    irreducibles = []
    for d, (smallest, sigmas, phis, cofactors) in enumerate(
            preimage._sieve_levels(spec, max_deg), 1):
        for f, i, sig, phi, k in zip(enumerate_monic(spec, d), smallest,
                                     sigmas, phis, cofactors):
            if k < 0:
                irreducibles.append(f)  # at index i: enumeration order
                yield SieveEntry(f, f, None, sig, phi)
            else:
                small = irreducibles[i]
                cofactor = preimage._monic(spec, d - small.degree, k)
                yield SieveEntry(f, small, cofactor, sig, phi)


def sieve_factorization(entry, entries):
    """Prime factors of entry.poly read off the sieve's (smallest, cofactor)
    chain, as sorted (part coefficients, exponent) pairs."""
    parts = Counter()
    while entry.cofactor is not None:
        parts[entry.smallest.coeffs] += 1
        entry = entries[entry.cofactor.coeffs]
    parts[entry.poly.coeffs] += 1
    return sorted(parts.items(), key=lambda kv: (len(kv[0]), kv[0]))


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
    assert phi_counts(spec, max_deg) == {
        value: len(polys) for value, polys in expected.items()}
    assert sigma_values(spec, max_deg) == {
        entry.sigma for entry in sieve(spec, max_deg)}


def _codes(f):
    return None if f is None else f.coeffs


@pytest.mark.parametrize(
    "field,max_deg,entries_digest,tables_digest,counts_digest", [
    ((5, 1), 6,
     "2a0c12fb3ef86f0677a09645f590314e40e9daeccafffb9fa8b4d1cde572183f",
     "40f55630110ccae8472183bc01404ca351fcc8202b33cd61d939f2acd51cacb2",
     "1ca4f981439088f49d1928346e0164930ce50afc3efabc8e53da69fb7344d63a"),
    ((3, 1), 7,
     "4adb1ce728b16f4b49914696873c84900d33f8ae059a9bde8572d8ae260e0dfc",
     "284578b38d8b1e9178542427203bdd59de9a007aa2ee5b62d073932a2abab052",
     "36817076bc18ac540858620a0deb4cca5194dd15dc04ffb958a55588e9d4164f"),
    ((2, 1), 12,
     "cd7136f036711b19033077e5376407c520c572fa445084cf4dd441a60929582c",
     "57e16fe468ac4ea848743f8c0cfd21cb751e710fde8ff998b379e7c8f5c01a14",
     "ee302c352253c64105f411dfb9c6bf5b09817163b9645dd72c117b99844c2225"),
    ((2, 2), 5,
     "3694eb4f0b3b3ed4d033e8969fceb312ea29f02dd50cdac82b2bd573beb25fef",
     "5d2b3be855991fac11154aacf08d9b8c4768b1f906c0a00a80185c6da51ffefa",
     "74da752174601dc9835d1579c2e9ddd14c3c258933f58f3b6b72f9a521e9ef26"),
    ((3, 2), 3,
     "c57b53f618abc6f2bf7ad1f40a9ba1184bb06a627e3695160e7fc02697276829",
     "c1a2b5840c2554bd6d6a43f2af230bb07059685570917a017374adba7520e835",
     "f1ca102579584a8745c37d1fc8fb0e35263dc219a233bc44d140666945186436"),
    ((11, 1), 3,
     "fe3c5d291b16c77c255f874aaa24fe8a05bf9cd7b406c02d7ccb85edfacdd8d4",
     "6d9df74790cd92adf19ae6588d7722bd016ecfc17707063efb70ceaeb0e21b42",
     "3ad0b9d817cd995e78486fe66db9ae05c970b25b8bb1709065b17c5b66981f5d"),
    ((13, 1), 3,
     "539a18f72fff86a6c4d6932454e44ce602f4f63ff2418c31e62123188c43c3e4",
     "5e5ac43b5d7a63a1f8bb530d7dbfcd0cb315792cbf9b1374cbe81bdbdf4638c5",
     "e4110a9af07e057a3cf24acbf7757d4c3eb0f9489e4d08cf7093d768d9f8dfa6"),
], ids=["F5-6", "F3-7", "F2-12", "F4-5", "F9-3", "F11-3", "F13-3"])
def test_sieve_output_is_pinned(field, max_deg, entries_digest,
                                tables_digest, counts_digest):
    # Every SieveEntry in yield order (poly, smallest and cofactor codes,
    # sigma, phi), then phi_table in insertion order and the sorted
    # sigma_values, as two sha256 digests per build, and phi_counts,
    # sorted, as a third.  The first three builds are the erdos suite's;
    # the first two digests were taken from the sieve that kept one state
    # tuple per monic, the third from the lengths of phi_table's lists
    # before phi_counts existed.
    spec = FieldSpec(*field)
    entries = hashlib.sha256()
    for e in sieve(spec, max_deg):
        entries.update(repr((e.poly.coeffs, e.smallest.coeffs,
                             _codes(e.cofactor), e.sigma, e.phi)).encode()
                       + b"\n")
    tables = hashlib.sha256()
    for value, polys in phi_table(spec, max_deg).items():
        tables.update(repr((value, [f.coeffs for f in polys])).encode()
                      + b"\n")
    tables.update(repr(sorted(sigma_values(spec, max_deg))).encode())
    counts = sorted(phi_counts(spec, max_deg).items())
    assert entries.hexdigest() == entries_digest
    assert tables.hexdigest() == tables_digest
    assert hashlib.sha256(repr(counts).encode()).hexdigest() == counts_digest


def test_phi_table_lists_in_enumeration_order():
    spec = FieldSpec(3)
    table = phi_table(spec, 6)
    order = [f for d in range(1, 7) for f in enumerate_monic(spec, d)]
    position = {f.coeffs: i for i, f in enumerate(order)}
    for polys in table.values():
        ranks = [position[f.coeffs] for f in polys]
        assert ranks == sorted(ranks)
    assert sorted(f for polys in table.values() for f in polys) == order


# -- the per-field cache of sieve builds --------------------------------------

# (field, depth of the cached build, n_max) over F_2, F_3, F_4 (Poly.__mul__)
# and F_5; preimage_list is checked for every n <= n_max, whose degree
# bounds stay within the depth.
CACHE_GRIDS = [((2, 1), 8, 40), ((3, 1), 5, 60), ((2, 2), 4, 60),
               ((5, 1), 3, 40)]
REAL_LEVELS = preimage._sieve_levels


def no_sieve(spec, max_deg):
    raise AssertionError(f"sieve built over F_{spec.q} to degree {max_deg}")


def retained():
    return sum(len(phi) for levels, _ in preimage._BUILDS.values()
               for _, _, phi, _ in levels)


@pytest.mark.parametrize("field,depth", [grid[:2] for grid in CACHE_GRIDS],
                         ids=lambda v: str(v))
def test_every_prefix_is_a_fresh_build(monkeypatch, field, depth):
    # all four lists of each level: smallest factor, sigma, phi, cofactor
    spec = FieldSpec(*field)
    fresh = {}
    for d in range(depth + 1):
        preimage._BUILDS.clear()
        fresh[d] = preimage._sieve_build(spec, d)
    preimage._BUILDS.clear()
    preimage._sieve_build(spec, depth)
    monkeypatch.setattr(preimage, "_sieve_levels", no_sieve)
    for d in range(depth, -1, -1):
        assert preimage._sieve_build(spec, d) == fresh[d], d


@pytest.mark.parametrize("field,depth,n_max", CACHE_GRIDS,
                         ids=lambda v: str(v))
def test_shallower_requests_read_the_cached_build(monkeypatch, field, depth,
                                                  n_max):
    spec = FieldSpec(*field)
    assert degree_bound(n_max, spec) <= depth
    fresh = {}
    for d in range(depth + 1):
        preimage._BUILDS.clear()
        fresh[d] = (list(phi_counts(spec, d).items()),
                    sigma_values(spec, d))
    entries = list(sieve(spec, depth))  # a fresh build, past the cache
    preimage._BUILDS.clear()
    phi_counts(spec, depth)
    monkeypatch.setattr(preimage, "_sieve_levels", no_sieve)
    for d in range(depth, -1, -1):
        # the same values in the same key order as a fresh build
        assert list(phi_counts(spec, d).items()) == fresh[d][0], d
        assert sigma_values(spec, d) == fresh[d][1], d
    for n in range(1, n_max + 1):
        bound = degree_bound(n, spec)
        assert preimage_list(n, spec) == [
            e.poly for e in entries
            if e.phi == n and e.poly.degree <= bound], n
        assert phi_table(spec, bound).get(n, []) == preimage_list(n, spec), n


@pytest.mark.parametrize("field,depth", [grid[:2] for grid in CACHE_GRIDS],
                         ids=lambda v: str(v))
def test_deeper_request_rebuilds(monkeypatch, field, depth):
    spec = FieldSpec(*field)
    expected = list(phi_counts(spec, depth).items())
    expected_sigmas = sigma_values(spec, depth)
    preimage._BUILDS.clear()
    assert phi_counts(spec, depth - 1) != dict(expected)
    calls = []

    def counted(spec, max_deg):
        calls.append(max_deg)
        return REAL_LEVELS(spec, max_deg)

    monkeypatch.setattr(preimage, "_sieve_levels", counted)
    assert list(phi_counts(spec, depth).items()) == expected
    assert sigma_values(spec, depth) == expected_sigmas
    phi_counts(spec, depth - 1)
    assert calls == [depth]


def test_retained_monics_stay_within_the_limit(monkeypatch):
    F2, F3, F5 = FieldSpec(2), FieldSpec(3), FieldSpec(5)
    limit = 190
    monkeypatch.setattr(preimage, "LIST_LIMIT", limit)
    phi_counts(F2, 6)   # 126 monics
    phi_counts(F3, 3)   # 39
    assert list(preimage._BUILDS) == [F2, F3] and retained() == 165
    phi_counts(F2, 4)   # a hit: F_2 becomes the most recently used
    assert list(preimage._BUILDS) == [F3, F2]
    phi_counts(F5, 2)   # 30 more would pass 190: F_3 goes first
    assert list(preimage._BUILDS) == [F2, F5] and retained() == 156
    phi_counts(F3, 4)   # 120: F_2 goes, F_5 stays
    assert list(preimage._BUILDS) == [F5, F3] and retained() == 150
    phi_counts(F2, 7)   # 254 monics, past the limit: returned, not kept
    assert not preimage._BUILDS
    for q, depth in ((2, 7), (3, 4), (5, 3), (2, 6), (3, 2), (5, 1)):
        phi_counts(FieldSpec(q), depth)
        assert retained() <= limit


def test_second_verify_pass_builds_no_sieve(monkeypatch):
    # every suite, the collisions suite too, reads the cached builds
    first = verify.run_suite("all")
    kept = retained()
    assert kept <= preimage.LIST_LIMIT
    monkeypatch.setattr(preimage, "_sieve_levels", no_sieve)
    assert verify.run_suite("all") == first
    assert retained() == kept


# Each invariant check must reach both kinds of reader, one that builds a
# Poly per monic and one that reads only values; conftest clears the cache
# before every test, and a build that raises is not kept, so each builds.
BUILDS = (phi_table, phi_counts)


def test_wrong_irreducible_count_raises(monkeypatch):
    true_pi = FieldSpec.pi
    monkeypatch.setattr(
        FieldSpec, "pi",
        lambda self, d: true_pi(self, d) + (d == 3))
    for build in BUILDS:
        with pytest.raises(CounterexampleError,
                           match="irreducibles of degree 3"):
            build(FieldSpec(2), 4)


# Over a prime field with one-byte lanes (every prime field of the verify
# grids) the products of one smallest factor are decoded together by
# preimage._batch_positions, and one by one when a batch fails; with wider
# lanes each product goes through kron_unpack (F_13 to degree 2 has
# two-byte lanes).  The fault tests inject at both seams; the sieve reads
# kron_unpack from gfpoly when it starts, so that is where it is patched.
REAL_BATCH = preimage._batch_positions


def collapse_batch(product, d, count, stride, q, digits):
    # every monic product lands on the last monic of its degree, whose
    # coefficients below x**d are all q - 1
    positions = REAL_BATCH(product, d, count, stride, q, digits)
    return None if positions is None else [q**d - 1] * count


def collapse_codes(value, p, width):
    return (0,) * (len(kron_unpack(value, p, width)) - 1) + (1,)


def test_monic_reached_twice_raises(monkeypatch):
    # a decoding that puts every product of a degree at one monic: the
    # positions reached number fewer than the products made
    monkeypatch.setattr(preimage, "_batch_positions", collapse_batch)
    for build in BUILDS:
        with pytest.raises(CounterexampleError,
                           match=r"reached x\^2\+x\+1 twice"):
            build(FieldSpec(2), 3)


@pytest.mark.parametrize("field,seam,collapse,monic", [
    ((3, 1), "_batch_positions", collapse_batch, r"x\^2\+2\*x\+2"),
    ((5, 1), "_batch_positions", collapse_batch, r"x\^2\+4\*x\+4"),
    ((13, 1), "kron_unpack", collapse_codes, r"x\^2"),
], ids=["F3-lanes", "F5-lanes", "F13-kron_unpack"])
def test_monic_reached_twice_raises_on_each_seam(monkeypatch, field, seam,
                                                 collapse, monic):
    monkeypatch.setattr(gfpoly if seam == "kron_unpack" else preimage, seam,
                        collapse)
    for build in BUILDS:
        with pytest.raises(CounterexampleError,
                           match=rf"reached {monic} twice"):
            build(FieldSpec(*field), 2)


@pytest.mark.parametrize("wrong", [
    lambda value, d: value + (1 << 8 * (d + 1)),  # one lane too long
    lambda value, d: value + (1 << 8 * d),        # top lane 2: not monic
    lambda value, d: value - (1 << 8 * d),        # top lane 0: degree d - 1
])
def test_product_not_monic_of_degree_d_raises(monkeypatch, wrong):
    # the first product of each batch goes wrong, and over F_3 to degree 2
    # the first batch starts with x * x; so does the search one by one
    def broken(product, d, count, stride, q, digits):
        return REAL_BATCH(wrong(product, d), d, count, stride, q, digits)

    monkeypatch.setattr(preimage, "_batch_positions", broken)
    for build in BUILDS:
        with pytest.raises(CounterexampleError,
                           match=r"\(x\)\*\(x\) is not a monic of degree 2"):
            build(FieldSpec(3), 2)


@pytest.mark.parametrize("wrong", [
    lambda codes: codes + (1,),          # one degree too many
    lambda codes: codes[:-1] + (2,),     # not monic
], ids=["degree-too-high", "not-monic"])
def test_unpacked_product_not_monic_of_degree_d_raises(monkeypatch, wrong):
    def broken_mul(value, p, width):
        return wrong(tuple(kron_unpack(value, p, width)))

    monkeypatch.setattr(gfpoly, "kron_unpack", broken_mul)
    for build in BUILDS:
        with pytest.raises(CounterexampleError,
                           match=r"\(x\)\*\(x\) is not a monic of degree 2"):
            build(FieldSpec(13), 2)


def test_extension_field_products_checked(monkeypatch):
    # over F_4 the sieve multiplies with Poly.__mul__
    spec = FieldSpec(2, 2)  # before the patch: the modulus search multiplies
    monkeypatch.setattr(Poly, "__mul__",
                        lambda self, other: Poly(self.field, (0, 0, 0, 1)))
    for build in BUILDS:
        with pytest.raises(CounterexampleError,
                           match="not a monic of degree 2"):
            build(spec, 2)


@pytest.mark.parametrize("q,max_deg", [(2, 12), (3, 7), (5, 6), (7, 5),
                                       (11, 3), (13, 3)])
def test_batches_match_the_per_product_path(monkeypatch, q, max_deg):
    # with kron_width forced to two-byte lanes every product is made and
    # decoded one by one; F_13 to degree 3 has two-byte lanes either way
    spec = FieldSpec(q)
    calls = []

    def counted(*args):
        calls.append(args[2])
        return REAL_BATCH(*args)

    monkeypatch.setattr(preimage, "_batch_positions", counted)
    batched = list(preimage._sieve_levels(spec, max_deg))
    assert bool(calls) == (q != 13)
    monkeypatch.setattr(gfpoly, "kron_width", lambda p, length: 2)
    calls.clear()
    assert list(preimage._sieve_levels(spec, max_deg)) == batched
    assert not calls
