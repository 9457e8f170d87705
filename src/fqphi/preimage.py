"""Membership, representations, and exact preimage counts for totient values.

A positive integer n is a totient value over F_q exactly when it can be
written q**j * prod (q**d - 1)**m_d with m_d <= pi_q(d) and j expressible as
sum d*j_d restricted to degrees with m_d >= 1.  ``represent`` recovers the
canonical factored witnesses, ``preimage_count`` turns one into the exact
number of monic preimages, and ``preimage_list`` is the independent
brute-force oracle: every monic polynomial up to a proven degree bound,
bucketed by its totient, keeping those whose totient literally equals n.
The oracle never factors: ``sieve`` builds each monic from its prime
factors by unique factorization and reads phi and sigma off the
construction, trusting only polynomial multiplication.

Canonical forms per field size:

* q >= 4: (j, {m_d}) with every degree present.
* q = 3:  the d = 1, 2 parts merge into a power of two, n =
          2**i * 3**j * prod_{d>=3} (3**d - 1)**m_d with i = m_1 + 3*m_2;
          counting sums over the (m_1, m_2) splittings of i.
* q = 2:  2 - 1 = 1 makes m_1 invisible in the value, so the canonical form
          keeps only d >= 2 and counting sums m_1 over 0..2.

The all-zero choice (no irreducible factors at all) would describe the
constant polynomial 1 and is excluded everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, log, prod
from typing import Iterator, NamedTuple

from .errors import CounterexampleError
from .gfpoly import FieldSpec, Poly, enumerate_monic
from .numtheory import GUARD


@dataclass(frozen=True)
class Representation:
    """One factored witness that n lies in the totient value set.

    ``counts`` holds the canonical degrees only (see module docstring);
    ``merged`` is the q = 3 exponent i = m_1 + 3*m_2 and None elsewhere.
    """

    j: int
    counts: dict[int, int]
    merged: int | None = None

    def evaluate(self, spec: FieldSpec) -> int:
        value = spec.q**self.j
        if self.merged is not None:
            value *= 2**self.merged
        for d, m in self.counts.items():
            value *= (spec.q**d - 1) ** m
        return value


@dataclass(frozen=True)
class CountProfile:
    """A preimage count together with its theorem-level classification."""

    n: int
    count: int
    label: str


class SieveEntry(NamedTuple):
    """One monic f from ``sieve``: its smallest prime factor P, the cofactor
    f / P (None when f = P is irreducible), sigma(f) and phi(f)."""

    poly: Poly
    smallest: Poly
    cofactor: Poly | None
    sigma: int
    phi: int


def _compositions_feasible(j: int, degrees) -> bool:
    # Is j a non-negative integer combination of the given degrees?
    if j == 0:
        return True
    reachable = bytearray(j + 1)
    reachable[0] = 1
    for d in degrees:
        for w in range(d, j + 1):
            if reachable[w - d]:
                reachable[w] = 1
    return bool(reachable[j])


def represent(n: int, spec: FieldSpec) -> list[Representation]:
    """All canonical factored forms of n; empty means n is not a totient value."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    q, p, s = spec.q, spec.p, spec.s
    v = 0
    m = n
    while m % p == 0:
        m //= p
        v += 1
    if v % s:
        return []  # the p-part cannot come from a power of q
    j = v // s
    cofactor = n // q**j
    d_min = {2: 2, 3: 3}.get(q, 1)
    basis = []
    d = d_min
    while q**d - 1 <= cofactor:
        basis.append((d, q**d - 1))
        d += 1
    basis.reverse()  # largest degree first

    found: list[Representation] = []
    acc: dict[int, int] = {}

    def leaf(rem: int) -> None:
        counts = dict(acc)
        if q == 2:
            if rem == 1:
                found.append(Representation(j, counts))
            return
        if q == 3:
            if rem & (rem - 1):
                return  # remainder must be a power of two
            i = rem.bit_length() - 1
            if i > spec.pi(1) + 3 * spec.pi(2):
                return
            if i == 0 and not counts:
                return  # no irreducible factor at all
            if j and i == 0 and not _compositions_feasible(j, counts):
                return
            found.append(Representation(j, counts, merged=i))
            return
        if rem != 1 or not counts:
            return
        if j and not _compositions_feasible(j, counts):
            return
        found.append(Representation(j, counts))

    def rec(idx: int, rem: int) -> None:
        if idx == len(basis):
            leaf(rem)
            return
        d, b = basis[idx]
        cap = spec.pi(d)
        rec(idx + 1, rem)
        r = rem
        m_d = 0
        while m_d < cap and r % b == 0:
            r //= b
            m_d += 1
            acc[d] = m_d
            rec(idx + 1, r)
        acc.pop(d, None)

    rec(0, cofactor)
    found.sort(key=lambda rep: sorted(rep.counts.items()))
    return found


def _weighted_compositions(counts: dict[int, int], j: int) -> int:
    # sum over {j_d >= 0 on the support, sum d*j_d = j} of
    # prod C(j_d + m_d - 1, m_d - 1): exponent-distribution choices.
    support = sorted(counts, reverse=True)

    def rec(idx: int, rem: int) -> int:
        if idx == len(support):
            return 1 if rem == 0 else 0
        d = support[idx]
        m = counts[d]
        total = 0
        for j_d in range(rem // d + 1):
            total += comb(j_d + m - 1, m - 1) * rec(idx + 1, rem - d * j_d)
        return total

    return rec(0, j)


def _marginal_count(full_counts: dict[int, int], j: int, spec: FieldSpec) -> int:
    counts = {d: m for d, m in full_counts.items() if m}
    if not counts:
        return 0  # the constant polynomial, never a preimage
    chooser = prod(comb(spec.pi(d), m) for d, m in counts.items())
    return chooser * _weighted_compositions(counts, j)


def _count_for(rep: Representation, spec: FieldSpec) -> int:
    q = spec.q
    if q == 2:
        return sum(
            _marginal_count({1: m1, **rep.counts}, rep.j, spec)
            for m1 in range(spec.pi(1) + 1)
        )
    if q == 3:
        total = 0
        for m2 in range(spec.pi(2) + 1):
            m1 = rep.merged - 3 * m2
            if 0 <= m1 <= spec.pi(1):
                total += _marginal_count(
                    {1: m1, 2: m2, **rep.counts}, rep.j, spec)
        return total
    return _marginal_count(rep.counts, rep.j, spec)


def preimage_count(n: int, spec: FieldSpec) -> int:
    """|phi^-1(n) intersect monics|, exactly, from the factored form of n."""
    return sum(_count_for(rep, spec) for rep in represent(n, spec))


# -- degree bound and the brute-force oracle ---------------------------------


@lru_cache(maxsize=None)
def _min_phi(spec: FieldSpec, degree: int) -> int:
    # Exact minimum of the factored totient over all signature data of the
    # given degree: bounded knapsack on prime weight, then the q-power fill.
    best: list[int | None] = [None] * (degree + 1)
    best[0] = 1
    for d in range(1, degree + 1):
        b = spec.q**d - 1
        cap = min(spec.pi(d), degree // d)
        for _ in range(cap):
            for w in range(degree, d - 1, -1):
                prev = best[w - d]
                if prev is not None:
                    cand = prev * b
                    if best[w] is None or cand < best[w]:
                        best[w] = cand
    return min(
        value * spec.q ** (degree - w)
        for w, value in enumerate(best)
        if value is not None
    )


def min_phi(spec: FieldSpec, degree: int) -> int:
    """Smallest totient value attainable by signature data of this degree."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    return _min_phi(spec, degree)


def degree_bound(n: int, spec: FieldSpec) -> int:
    """Largest degree any monic preimage of n can have.

    Every monic f of degree D has phi(f) = |f| prod_{P | f} (1 - 1/|P|)
    >= L(D) = q**D prod_{d <= D} (1 - q**-d)**pi_q(d), since f has at most
    pi_q(d) distinct prime divisors of degree d and every factor is below 1.
    L never decreases for D >= 1: by Bernoulli's inequality and
    (D+1) pi_q(D+1) <= q**(D+1),

        L(D+1) / L(D) = q (1 - q**-(D+1))**pi_q(D+1) >= q D / (D+1) >= 1.

    So once L(D) > n, no monic of degree >= D has totient n.  Below that
    degree min_phi(d) is the exact minimum of phi over degree d, and the
    bound is the largest such d with min_phi(d) <= n.  The walk sums a
    lower bound on log L, using log(1 - x) >= -x / (1 - x), and stops only
    with a margin of GUARD, so neither the bound nor rounding can stop it
    early; they can only delay the stop.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    q = spec.q
    log_n = log(n)
    log_q = log(q)
    log_l = 0.0
    last_ok = 0
    d = 0
    while True:
        d += 1
        # log(1 - q**-d) >= -1 / (q**d - 1); the ratio never underflows
        log_l += log_q - spec.pi(d) / (q**d - 1)
        if log_l - log_n > GUARD * max(1.0, log_n):
            return last_ok
        if _min_phi(spec, d) <= n:
            last_ok = d


def sieve(spec: FieldSpec, max_deg: int) -> Iterator[SieveEntry]:
    """Every monic of degree 1..max_deg in enumeration order, built from its
    prime factors by a sieve over unique factorization in F_q[x].

    Irreducibles are indexed in (degree, coefficient codes) order.  Degree
    by degree, each reducible f is reached exactly once, as P * g with P its
    smallest prime factor: P has degree <= d/2 and an index no larger than
    that of g's smallest factor.  A monic that no product reaches is
    irreducible.  Every monic carries the index of its smallest factor P,
    |P|**e for the exact power P**e dividing it, sigma and phi.  With P**e
    exactly dividing g (e = 0 when P does not divide g), the recurrences

        phi(P g) = phi(g) |P|        if P | g, else phi(g) (|P| - 1)
        sigma(P g) = sigma(g) (|P|**(e+2) - 1) / (|P|**(e+1) - 1)

    give the values without ``factor``, the Rabin test or any counting
    formula; the only arithmetic trusted is ``Poly.__mul__``.  Two
    invariants are checked as each degree is built, and raise
    CounterexampleError: no monic is reached twice, and degree d has exactly
    pi_q(d) irreducibles.
    """
    if max_deg < 0:
        raise ValueError(f"max_deg must be >= 0, got {max_deg}")
    q = spec.q
    irreducibles: list[Poly] = []
    # Monics of each degree below max_deg and their states, in enumeration
    # order; a monic's position there is its tail read as base-q digits.
    polys: list[list[Poly]] = [[]]
    states: list[list[tuple | None]] = [[]]
    for d in range(1, max_deg + 1):
        level_states: list[tuple | None] = [None] * q**d
        for i, small in enumerate(irreducibles):
            e = small.degree
            if 2 * e > d:
                break
            size = q**e
            for g, (gi, gpp, gsig, gphi, _) in zip(polys[d - e], states[d - e]):
                if gi < i:
                    continue
                if gi == i:  # small already divides g: one more power
                    pp = gpp * size
                    state = (i, pp, gsig * (pp * size - 1) // (pp - 1),
                             gphi * size, g)
                else:
                    state = (i, size, gsig * (size + 1), gphi * (size - 1), g)
                product = (small * g).coeffs
                if len(product) != d + 1 or product[-1] != 1:
                    raise CounterexampleError(
                        f"sieve over F_{q}: ({small})*({g}) is not a monic "
                        f"of degree {d}")
                pos = 0
                for c in product[:-1]:
                    pos = pos * q + c
                if level_states[pos] is not None:
                    raise CounterexampleError(
                        f"sieve over F_{q} reached {spec.poly(product)} twice")
                level_states[pos] = state
        level: list[Poly] = []
        size = q**d
        found = 0
        for pos, f in enumerate(enumerate_monic(spec, d)):
            state = level_states[pos]
            if state is None:
                state = (len(irreducibles), size, size + 1, size - 1, None)
                irreducibles.append(f)
                found += 1
            if d < max_deg:
                level.append(f)
                level_states[pos] = state
            else:
                level_states[pos] = None  # never a cofactor: free it now
            yield SieveEntry(f, irreducibles[state[0]], state[4], state[2],
                             state[3])
        if found != spec.pi(d):
            raise CounterexampleError(
                f"sieve over F_{q} found {found} irreducibles of degree {d}, "
                f"pi_q({d}) = {spec.pi(d)}")
        polys.append(level)
        states.append(level_states)


# One build is cached: the erdos suite reads phi and sigma from the same
# build, and a larger cache only raises peak memory for the tables it keeps.
@lru_cache(maxsize=1)
def _sieve_tables(spec: FieldSpec, max_deg: int):
    table: dict[int, list[Poly]] = {}
    sigmas: set[int] = set()
    for entry in sieve(spec, max_deg):
        table.setdefault(entry.phi, []).append(entry.poly)
        sigmas.add(entry.sigma)
    return table, frozenset(sigmas)


def phi_table(spec: FieldSpec, max_deg: int) -> dict[int, list[Poly]]:
    """Bucket every monic polynomial of degree 1..max_deg by exact phi value.

    Built by ``sieve``, never by factoring.  The last build is cached;
    treat the result as read-only.  Lists are in enumeration order, i.e.
    sorted by (degree, coefficient codes).
    """
    return _sieve_tables(spec, max_deg)[0]


def sigma_values(spec: FieldSpec, max_deg: int) -> frozenset[int]:
    """sigma(g) over every monic g of degree 1..max_deg, from the same
    sieve build (and cache) as phi_table."""
    return _sieve_tables(spec, max_deg)[1]


def preimage_list(n: int, spec: FieldSpec) -> list[Poly]:
    """Every monic f with phi(f) = n, by exhaustive enumeration up to the
    degree bound; sorted by (degree, coefficient codes)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return list(phi_table(spec, degree_bound(n, spec)).get(n, ()))


# -- classification -----------------------------------------------------------


def _uniqueness_condition(n: int, spec: FieldSpec) -> bool:
    # The explicit shape a value must have for its preimage to be unique:
    # no q-power part and every present degree saturated at pi_q(d); for
    # q = 3 additionally m_1 = m_2, i.e. merged exponent 0 or 12, with some
    # factor of degree >= 2.
    if spec.q == 2:
        raise ValueError("no uniqueness classification at q = 2")
    for rep in represent(n, spec):
        if rep.j != 0:
            continue
        if any(m != spec.pi(d) for d, m in rep.counts.items()):
            continue
        if spec.q == 3:
            if rep.merged == 12 or (rep.merged == 0 and rep.counts):
                return True
            continue
        if rep.counts:
            return True
    return False


def count_profile(n: int, spec: FieldSpec) -> CountProfile:
    """Classify the preimage count of n against the proven count gaps.

    For q >= 4 the count must be 0, 1, q, or at least C(q, 2); for q = 2 it
    must be 0 or >= 3 with 3 happening only at n = 1.  Any other outcome, or
    a uniqueness classification that disagrees with the explicit condition,
    raises CounterexampleError.  q = 3 has no gap statement beyond
    uniqueness; its middle counts are labelled "other" if they ever occur.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    count = preimage_count(n, spec)
    q = spec.q
    if q == 2:
        if count == 0:
            label = "empty"
        elif count == 3:
            label = "exactly-3"
            if n != 1:
                raise CounterexampleError(
                    f"count 3 away from n = 1: n = {n} over F_2")
        elif count > 3:
            label = "above-3"
        else:
            raise CounterexampleError(
                f"preimage count {count} in the forbidden range (0, 3) "
                f"for n = {n} over F_2")
        if n == 1 and count != 3:
            raise CounterexampleError(
                f"expected count 3 at n = 1 over F_2, got {count}")
        return CountProfile(n, count, label)

    unique_shape = _uniqueness_condition(n, spec)
    if (count == 1) != unique_shape:
        raise CounterexampleError(
            f"uniqueness condition mismatch at n = {n}, q = {q}: "
            f"count {count}, condition {unique_shape}")
    threshold = comb(q, 2)
    if count == 0:
        label = "empty"
    elif count == 1:
        label = "unique"
    elif count == q:
        label = "exactly-q"
    elif count >= threshold:
        label = "at-least-binom"
    elif q == 3:
        label = "other"  # no gap theorem at q = 3
    else:
        raise CounterexampleError(
            f"preimage count {count} inside a forbidden gap for n = {n}, "
            f"q = {q}")
    return CountProfile(n, count, label)


# -- constructions hitting prescribed counts ----------------------------------


def sierpinski_witness(spec: FieldSpec, kind: str, l: int) -> tuple[int, int]:
    """A value n whose preimage count hits a prescribed target.

    kind = "exact" (q = 2 only, l >= 3):    n = 2**(l-3), count l.
    kind = "power" (q != 2, l >= 1):        n = q**l * prod_{d<=l}
                                            (q**d-1)**pi_q(d), count q**l.
    kind = "binomial" (q != 2, l >= 0):     n = q**l * (q-1)**2,
                                            count C(q, 2) * (l+1).

    Returns (n, predicted count); callers confirm via preimage_count.
    """
    q = spec.q
    if kind == "exact":
        if q != 2:
            raise ValueError("exact-count construction exists only for q = 2")
        if l < 3:
            raise ValueError(f"exact-count construction needs l >= 3, got {l}")
        return 2 ** (l - 3), l
    if q == 2:
        raise ValueError(f"construction {kind!r} requires q != 2")
    if kind == "power":
        if l < 1:
            raise ValueError(f"power construction needs l >= 1, got {l}")
        n = q**l * prod((q**d - 1) ** spec.pi(d) for d in range(1, l + 1))
        return n, q**l
    if kind == "binomial":
        if l < 0:
            raise ValueError(f"binomial construction needs l >= 0, got {l}")
        return q**l * (q - 1) ** 2, comb(q, 2) * (l + 1)
    raise ValueError(f"unknown construction kind {kind!r}")
