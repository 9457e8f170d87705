"""Membership, representations, and exact preimage counts for totient values.

A positive integer n is a totient value over F_q exactly when it can be
written q**j * prod (q**d - 1)**m_d with m_d <= pi_q(d) and j expressible
as sum d*j_d restricted to degrees with m_d >= 1 (``reachable_sums``,
shared with ``density``).  ``represent`` recovers the canonical factored
witnesses, ``preimage_count`` turns one into the exact number of monic
preimages, and ``preimage_list`` is the independent brute-force oracle:
every monic polynomial up to a proven degree bound, bucketed by its
totient, keeping those whose totient literally equals n.  The oracle never
factors: the sieve of ``_sieve_levels`` builds each monic from its prime
factors by unique factorization and reads phi and sigma off the
construction, trusting only polynomial multiplication.

Canonical forms per field size:

* q >= 3: (j, {m_d}) with every degree present.
* q = 2:  2 - 1 = 1 makes m_1 invisible in the value, so the canonical form
          keeps only d >= 2 and counting sums m_1 over 0..2.

The all-zero choice (no irreducible factors at all) would describe the
constant polynomial 1 and is excluded everywhere.

``represent`` does not branch on every m_d: the primitive part of q**d - 1
(the primes that divide no q**e - 1 with e < d) forces m_d wherever it is
not 1, which by Zsigmondy's theorem leaves one branching degree at most
per field.  Each field size q keeps a table of q**d - 1 grown to the
largest cofactor seen, and fills a degree's primitive part and pi_q(d)
only when the walk first reaches it; at n = 2**4000 - 1 over F_2 it has 3,999 rows,
one of them filled, about 1.2 MB.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import count, islice
from math import comb, gcd, prod
from typing import TYPE_CHECKING, NamedTuple

from .errors import CounterexampleError
from .field import FieldSpec
from .numtheory import compositions, factor_int, ilog

# Counting needs no polynomial arithmetic: the sieve and the functions that
# build a Poly import from gfpoly when they run.
if TYPE_CHECKING:
    from collections.abc import Iterator

    from .gfpoly import Poly


class Representation(NamedTuple):
    """One factored witness n = q**j * prod (q**d - 1)**m_d that n lies in
    the totient value set; ``counts`` holds the canonical degrees only (see
    module docstring)."""

    j: int
    counts: dict[int, int]

    def evaluate(self, spec: FieldSpec) -> int:
        value = spec.q**self.j
        for d, m in self.counts.items():
            value *= (spec.q**d - 1) ** m
        return value


class CountProfile(NamedTuple):
    """A preimage count together with its theorem-level classification."""

    n: int
    count: int
    label: str


def reachable_sums(degrees, limit: int, sums: int = 1) -> int:
    """Unbounded knapsack on a bitmask: bit w of the result, 0 <= w <= limit,
    is set exactly when w is a set bit of ``sums`` plus a non-negative
    integer combination of the given degrees.  The default sums = 1 holds 0
    alone, so the bits are the combinations themselves.  Each degree d is
    added by shifts of d, 2d, 4d, ... up to limit: after the shift by
    2**k * d, every i * d with i < 2**(k + 1) has been added."""
    full = (1 << limit + 1) - 1
    for d in degrees:
        while d <= limit:
            sums |= sums << d & full
            d *= 2
    return sums


def _primitive_part(q: int, d: int) -> int:
    """q**d - 1 with every prime removed that divides some q**e - 1, e < d.

    Such a prime has order e | d below d, so it divides q**(d/r) - 1 for a
    prime r | d: one gcd per prime of d finds them all.  The result is 1
    exactly at the exceptions of Zsigmondy's theorem (and at q = 2, d = 1).
    """
    part = q**d - 1
    for r in factor_int(d) if d > 1 else ():
        g = gcd(part, q ** (d // r) - 1)
        while g > 1:
            part //= g
            g = gcd(part, g)
    return part


# The least canonical degree per q (see the module docstring), 1 elsewhere.
_FIRST_DEGREE = {2: 2}

# Per q: q**d - 1 for the canonical degrees d, lowest first, grown to the
# largest cofactor seen, and beside them the rows (u_d, pi_q(d)), None until
# the walk in ``represent`` first visits one: it often skips most rows, and
# u_d and pi_q(d) cost far more than q**d - 1.  A longer table replaces the
# shorter one whole, so a concurrent reader only ever sees a complete table;
# a row filled twice is filled with the same value.
_DEGREES: dict[int, tuple[list[int], list[tuple[int, int] | None]]] = {}


def _degrees(q: int,
             cofactor: int) -> tuple[list[int], list[tuple[int, int] | None]]:
    values, rows = _DEGREES.get(q, ((), ()))
    if values and cofactor < values[-1]:
        return values, rows  # the table already reaches past the cofactor
    d = _FIRST_DEGREE.get(q, 1) + len(values)
    if q**d - 1 <= cofactor:
        values, rows = list(values), list(rows)
        while (value := q**d - 1) <= cofactor:
            values.append(value)
            rows.append(None)
            d += 1
        _DEGREES[q] = values, rows
    return values, rows


def _form_key(rep: Representation) -> list[tuple[int, int]]:
    """The order of the forms ``represent`` returns."""
    return sorted(rep.counts.items())


def represent(n: int, spec: FieldSpec) -> list[Representation]:
    """All canonical factored forms of n; empty means n is not a totient value.

    The search walks the canonical degrees from the largest down, dividing
    q**d - 1 out of the remainder m_d times.  Let u_d be the primitive part
    of q**d - 1: its primes divide no q**e - 1 with e < d.  So for a prime
    l | u_d, the exponent of l in the remainder at degree d is m_d times
    its exponent in q**d - 1: no smaller degree can absorb it.  When
    u_d > 1 only one m_d can work, the number of divisions made while u_d
    divides the remainder; the path dies if one of them is uneven or m_d
    passes pi_q(d).  Every other choice the branching search would try
    leaves a prime of u_d behind and reaches no canonical form, so the
    forms found are the same.  The search branches on m_d only where
    u_d = 1: by Zsigmondy's theorem d = 6 for q = 2, and d = 2 when q + 1
    is a power of two (q = 3, 7, 31, 127, ...).  It follows one path per
    value, splitting at most at that one degree, and runs as a loop with a
    stack of the split-off paths, so its depth does not grow with n.  After
    each division it jumps by bisection to the largest row that still fits
    the remainder.

    Two rules reject a value before the walk:

    * the p-adic valuation of n must be a multiple of s, since q**j is the
      only power of p in the form (each q**d - 1 is -1 mod p);
    * for q >= 3, q - 1 must divide the cofactor n / q**j: each q**d - 1
      is a multiple of q - 1, and a form for q >= 3 has at least one
      factor.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    q, p, s = spec.q, spec.p, spec.s
    v = 0
    cofactor = n
    while cofactor % p == 0:
        cofactor //= p
        v += 1
    if v % s:
        return []  # the p-part cannot come from a power of q
    j = v // s  # so q**j = p**v, and the cofactor is n / q**j
    if cofactor % (q - 1):
        return []  # every q**d - 1 is a multiple of q - 1 (void at q = 2)
    values, rows = _degrees(q, cofactor)
    first = _FIRST_DEGREE.get(q, 1)
    found: list[Representation] = []
    # A path: rows[:stop] remain, largest first, with the remainder and the
    # multiplicities chosen above them, in descending degree order.  The
    # walk starts on the whole cofactor; the stack holds only the paths
    # split off at a Zsigmondy exception, taken up once the current path
    # ends.
    stop, rem, counts = len(values), cofactor, {}
    paths: list[tuple[int, int, dict[int, int]]] = []
    while True:
        i = bisect_right(values, rem, 0, stop)
        while i:
            i -= 1
            row = rows[i]
            if row is None:
                d = first + i
                row = rows[i] = _primitive_part(q, d), spec.pi(d)
            primitive, cap = row
            if primitive == 1:  # a Zsigmondy exception: branch on m_d
                value = values[i]
                branch, m_d = rem, 0
                while m_d < cap and branch % value == 0:
                    branch //= value
                    m_d += 1
                    paths.append((i, branch, {**counts, first + i: m_d}))
                continue  # this path goes on with m_d = 0
            if rem % primitive:
                continue  # m_d = 0: no prime of u_d is left
            value = values[i]
            m_d = 0
            while rem % primitive == 0:
                rem, uneven = divmod(rem, value)
                m_d += 1
                if uneven or m_d > cap:
                    break
            else:
                counts[first + i] = m_d
                i = bisect_right(values, rem, 0, i)
                continue
            break  # the path dies
        else:
            if rem == 1 and (q == 2 or counts and (
                    not j or reachable_sums(counts, j) >> j & 1)):
                found.append(Representation(j, counts))
        if not paths:
            break
        stop, rem, counts = paths.pop()
    if len(found) > 1:
        found.sort(key=_form_key)
    return found


def _count_for(rep: Representation, spec: FieldSpec) -> int:
    j = rep.j
    chooser = prod(comb(spec.pi(d), m) for d, m in rep.counts.items())
    # Entry w: the ways to raise the m_d irreducibles of each degree d to
    # powers that add degree w, one unknown per irreducible.
    ways = compositions(
        [d for d, m in rep.counts.items() if d <= j for _ in range(m)], j)
    # No factor at all is the constant polynomial, never a preimage.
    total = ways[-1] if rep.counts else 0
    if spec.q == 2:
        # m_1 = 1, 2 of the two linear irreducibles leave the value alone:
        # C(2, m_1) choices, whose m_1 unknowns of weight 1 take the rest,
        # j - i, in 1 and j - i + 1 ways.
        total += sum((j - i + 3) * w for i, w in enumerate(ways))
    return chooser * total


# Per q: (n, its forms, its preimage count) for the last n counted over F_q.
# preimage_count, count_profile and erdos.intersection_member all read the
# factored form of n, so a caller that asks all three about one n walks it
# once.  Only a call that succeeds stores an entry, a tuple replaced whole
# as in _DEGREES; the list of forms is never handed to a caller.
_LAST: dict[int, tuple[int, list[Representation], int]] = {}


def _factored(n: int,
              spec: FieldSpec) -> tuple[int, list[Representation], int]:
    forms = represent(n, spec)
    count = sum(_count_for(rep, spec) for rep in forms) if forms else 0
    _LAST[spec.q] = last = n, forms, count
    return last


def preimage_count(n: int, spec: FieldSpec) -> int:
    """|phi^-1(n) intersect monics|, exactly, from the factored form of n."""
    last = _LAST.get(spec.q)
    if last is None or last[0] != n:
        last = _factored(n, spec)
    return last[2]


# -- degree bound and the brute-force oracle ---------------------------------


# Per q: the longest table ``_min_phis`` has made, read-only; a longer one
# replaces it whole, so a concurrent reader only ever sees a complete table.
_MIN_PHIS: dict[int, list[int]] = {}


def _min_phis(spec: FieldSpec, top: int) -> list[int]:
    """Entries 0..top, at least, of the exact minimum of the factored
    totient over signature data of degree D: one bounded knapsack on prime
    weight, started from the q-power fill q**D of the empty data.

    Entry D stays a value of degree-D data because every update adds
    weight d to an entry of weight D - d.  Pass c over degree d allows c
    factors of it: read in descending w, it sets entry w to the smaller of
    itself and entry w - d times q**d - 1, both as the earlier passes left
    them, so it writes only entries of weight >= c*d.

    The table kept is the longest made for q, because entry w does not
    depend on the top.  Let the full run at top T make every pass
    c <= pi_q(d) over every d <= T.  The run here makes the same entries
    0..T.  Its cap c <= T // d skips only passes that write above T.  Its
    early stop skips only passes that lower nothing: let pass c lower
    nothing in [c*d, T], and let w be in [(c+1)*d, T].  Entry w - d lies
    in [c*d, T - d], so pass c left it as it was, and entry w stayed at
    most entry w - d times q**d - 1.  Pass c + 1 compares the same two
    values and lowers nothing either, and so on for every later pass over
    d.  In the full run an update reads only entries below the one it
    writes, and a pass over d > w writes only above w.  So entries 0..w of
    the full run at T are those of the full run at w, for every T >= w.
    """
    best = _MIN_PHIS.get(spec.q)
    if best is not None and len(best) > top:
        return best
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
    _MIN_PHIS[q] = best
    return best


def min_phi(spec: FieldSpec, degree: int) -> int:
    """Smallest totient value attainable by signature data of this degree.

    Signature data of degree D are counts m_d <= pi_q(d) with prime weight
    w = sum d*m_d <= D, of value q**(D - w) prod (q**d - 1)**m_d.  min_phi
    never decreases in D: take data of degree D + 1 attaining the minimum.
    If w < D + 1, one factor q less gives data of degree D.  Otherwise pick
    d with m_d >= 1 and trade one factor q**d - 1 for q**(d - 1), which is
    no larger: m_d drops by one and the q-power rises by d - 1.  Either way
    the degree drops by one and the value does not rise, so
    min_phi(D) <= min_phi(D + 1).
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    return _min_phis(spec, degree)[degree]


def degree_bound(n: int, spec: FieldSpec) -> int:
    """Largest degree any monic preimage of n can have.

    Every monic f of degree D has phi(f) >= min_phi(D), and min_phi never
    decreases, so the bound is the last D with min_phi(D) <= n; one
    knapsack finds it, run to a degree past which no monic has totient n.
    As f has at most pi_q(d) prime divisors of degree d, phi(f) >= L(D) =
    q**D prod_{d <= D} (1 - q**-d)**pi_q(d).  By Bernoulli's inequality and
    (D+1) pi_q(D+1) <= q**(D+1), L(D+1) / L(D) >= q D / (D+1); with
    L(1) = q (1 - 1/q)**q >= q/4 that gives L(D) >= q**D / (4 D), which
    never decreases.  So for e = ilog(n, q), as n < q**(e+1), L(D) > n at
    every D >= e + k once q**(k-1) > 4 (e + k).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    q = spec.q
    e = ilog(n, q)
    k = 1
    while q ** (k - 1) <= 4 * (e + k):
        k += 1
    return bisect_right(_min_phis(spec, e + k), n, 0, e + k + 1) - 1


# Residue -> digit character, so that the lanes of a product read as one
# base-q numeral.  The sieve batches over F_p exactly when p has a digit
# here: P of degree e <= d/2 times a cofactor has lanes <= (e + 1)(p - 1)**2,
# one byte to degree 29 over F_5 and 13 over F_7 (further over F_2 and F_3),
# and the next degree has 5**30 or 7**14 monics, far more than can be held.
_DIGITS = b"0123456"


def _batch_positions(product: int, d: int, count: int, stride: int, q: int,
                     digits: bytes) -> list[int] | None:
    """Positions among the monics of degree d of the ``count`` products
    packed in ``product`` with one-byte lanes, product t in the ``stride``
    bytes from byte t * stride; None when one of them is not such a monic.

    ``digits`` maps each byte to the digit of its residue mod q, so the d
    lower lanes of a product, constant term first, are the base-q numeral
    of its position.  Lane d must read 1 and lane d + 1, the guard lane,
    must be 0: a carry out of lane d lands there.  A factor of e + 1 lanes
    times slots of d - e + 1 lanes each stays below 256**(count * stride),
    so the batch fits ``to_bytes``.
    """
    size = count * stride
    raw = product.to_bytes(size, "little")
    lanes = raw.translate(digits)
    if lanes[d::stride] != b"1" * count or raw[d + 1::stride] != bytes(count):
        return None
    return [int(lanes[j:j + d], q) for j in range(0, size, stride)]


def _codes_position(codes, d: int, q: int) -> int:
    """Position among the monics of degree d of the product with these
    coefficient codes, or -1 when it is not such a monic."""
    if len(codes) != d + 1 or codes[-1] != 1:
        return -1
    pos = 0
    for c in codes[:-1]:
        pos = pos * q + c
    return pos


def _monic_codes(q: int, d: int, pos: int) -> tuple[int, ...]:
    """The codes of the monic of degree d at this position in enumeration
    order: the base-q digits of the position, most significant first, are
    its coefficients from the constant term up."""
    codes = [1] * (d + 1)
    for j in range(d - 1, -1, -1):
        pos, codes[j] = divmod(pos, q)
    return tuple(codes)


def _monic(spec: FieldSpec, d: int, pos: int) -> Poly:
    """The monic of degree d at this position in enumeration order."""
    from .gfpoly import _mk

    return _mk(spec, _monic_codes(spec.q, d, pos))


def _sieve_levels(spec: FieldSpec):
    """Every monic of degree 1, 2, ..., without end, built from its prime
    factors by a sieve over unique factorization in F_q[x], one degree d at
    a time as flat lists ``(smallest, sigma, phi, cofactor)`` indexed by a
    monic's position in enumeration order: the index of its smallest prime
    factor P, sigma, phi, and the position of f / P among the monics of
    degree d - deg P (-1 for an irreducible).

    Irreducibles are indexed in (degree, coefficient codes) order, so those
    of degree e follow the pi_q(1) + ... + pi_q(e - 1) of lower degree.
    Degree by degree, each reducible f is reached exactly once, as P * g
    with P its smallest prime factor: P has degree <= d/2 and an index no
    larger than that of g's smallest factor.  A monic that no product
    reaches is irreducible.  With P**e exactly dividing g (e = 0 when P
    does not divide g), the recurrences

        phi(P g) = phi(g) |P|        if P | g, else phi(g) (|P| - 1)
        sigma(P g) = sigma(g) (|P|**(e+2) - 1) / (|P|**(e+1) - 1)

    give the values without ``factor``, ``is_irreducible`` or any counting
    formula; the only arithmetic trusted is polynomial multiplication.

    Each degree's monics are kept, for the degrees above it, sorted by the
    index of their smallest factor, so the cofactors g of a given P form a
    suffix of that order, found by bisection, and those that P divides
    come first in it.  That order, the monics as multiplicands and the
    irreducibles as smallest factors are made after the degree is yielded,
    so only a deeper request pays for them.  Over F_p with p <= 7 (see
    ``_DIGITS``) a degree's monics are kept as d + 1 one-byte lanes each, in
    that order.  The products of one P of degree e with the cofactors of
    degree d - e are then one shift and one multiply on those lanes spread
    to d + 2 bytes each, which hold a product's lanes and a zero guard
    lane, and ``_batch_positions`` decodes them together: one ``to_bytes``,
    one ``translate``, and ``int`` per position.  Over other fields the
    monics are ``Poly`` objects, which ``Poly.__mul__`` multiplies.  Three
    invariants are checked as each degree is built, and raise
    CounterexampleError: every product is a monic of degree d, no monic is
    reached twice (the positions reached number exactly the products
    made), and degree d has exactly pi_q(d) irreducibles.
    """
    # Imported here, not with the module: only a sieve build needs them.
    from array import array

    from .gfpoly import enumerate_monic

    q, p = spec.q, spec.p
    batched = spec.s == 1 and p <= len(_DIGITS)
    digits = bytes(_DIGITS[v % p] for v in range(256)) if batched else b""
    # The irreducibles made so far, as multiplicands and as positions in
    # their degree; those of degree e have indices starts[e]..starts[e+1]-1.
    factors: list = []
    places: list[int] = []
    starts = [0, 0]
    # Per degree that a higher one still reads as a cofactor degree: its
    # positions sorted by smallest factor, the smallest factor's index, its
    # monics as multiplicands in that order (packed lanes when batched),
    # and the prime power |P|**e exactly dividing, sigma and phi of each.
    levels: list[tuple | None] = [None]

    def batches(d, e):
        """(i, start, positions) for each irreducible P of degree e, index
        i: the products P * g, g from sorted position ``start`` of degree
        d - e on, and their positions among the monics of degree d."""
        order, g_small, multiplicands = levels[d - e][:3]
        if batched:
            # lane j of every cofactor, from d - e + 1 bytes to d + 2 apart
            stride, lanes = d + 2, d - e + 1
            slots = bytearray(len(order) * stride)
            for j in range(lanes):
                slots[j::stride] = multiplicands[j::lanes]
            multiplicands = int.from_bytes(slots, "little")
        for i in range(starts[e], starts[e + 1]):
            start = bisect_left(order, i, key=g_small.__getitem__)
            if batched:
                positions = _batch_positions(
                    factors[i] * (multiplicands >> 8 * stride * start), d,
                    len(order) - start, stride, q, digits)
                if positions is None:  # one by one, to name the product
                    positions = [(_batch_positions(factors[i] * int.from_bytes(
                        slots[t * stride:(t + 1) * stride], "little"), d, 1,
                        stride, q, digits) or [-1])[0]
                        for t in range(start, len(order))]
            else:
                positions = [_codes_position((factors[i] * g).coeffs, d, q)
                             for g in multiplicands[start:]]
            if -1 in positions:
                k = order[start + positions.index(-1)]
                raise CounterexampleError(
                    f"sieve over F_{q}: ({_monic(spec, e, places[i])})*"
                    f"({_monic(spec, d - e, k)}) is not a monic of degree {d}")
            yield i, start, positions

    for d in count(1):
        size = q**d
        # Every monic starts as an irreducible; a product overwrites it.
        smallest = [-1] * size
        power = [size] * size
        sigmas = [size + 1] * size
        phis = [size - 1] * size
        # Machine integers: a list would keep one int object per position
        # alive for as long as a reader holds the degree.
        cofactors = array("l", [-1]) * size
        made = 0
        for e in range(1, d // 2 + 1):
            order, g_small, _, g_power, g_sigma, g_phi = levels[d - e]
            size_p = q**e
            # P below g's smallest factor: the same values for every P of
            # degree e, kept from the first such g of the first P on
            tail = bisect_right(order, starts[e], key=g_small.__getitem__)
            coprime_sigma = [g_sigma[k] * (size_p + 1) for k in order[tail:]]
            coprime_phi = [g_phi[k] * (size_p - 1) for k in order[tail:]]
            for i, start, positions in batches(d, e):
                # the cofactors that P divides come first: one more power
                mid = bisect_right(order, i, start, key=g_small.__getitem__)
                for pos, k in zip(positions, order[start:mid]):
                    pp = g_power[k] * size_p
                    smallest[pos] = i
                    cofactors[pos] = k
                    power[pos] = pp
                    sigmas[pos] = g_sigma[k] * (pp * size_p - 1) // (pp - 1)
                    phis[pos] = g_phi[k] * size_p
                for pos, k, sigma, phi in zip(
                        islice(positions, mid - start, None),
                        islice(order, mid, None),
                        islice(coprime_sigma, mid - tail, None),
                        islice(coprime_phi, mid - tail, None)):
                    smallest[pos] = i
                    cofactors[pos] = k
                    power[pos] = size_p
                    sigmas[pos] = sigma
                    phis[pos] = phi
                made += len(positions)
        # A monic that no product reaches is irreducible.
        unreached = [pos for pos, i in enumerate(smallest) if i < 0]
        if size - len(unreached) != made:  # name a monic reached twice
            seen: set[int] = set()
            for e in range(1, d // 2 + 1):
                for *_, positions in batches(d, e):
                    for pos in positions:
                        if pos in seen:
                            raise CounterexampleError(
                                f"sieve over F_{q} reached "
                                f"{_monic(spec, d, pos)} twice")
                        seen.add(pos)
        if len(unreached) != spec.pi(d):
            raise CounterexampleError(
                f"sieve over F_{q} found {len(unreached)} irreducibles of "
                f"degree {d}, pi_q({d}) = {spec.pi(d)}")
        first = starts[-1]
        for index, pos in enumerate(unreached, first):
            smallest[pos] = index
        starts.append(first + len(unreached))
        if d % 2 == 0:
            levels[d // 2] = None  # no higher degree has this cofactor
        yield smallest, sigmas, phis, cofactors
        # A deeper request: degree d as a cofactor degree, and its
        # irreducibles as smallest factors.
        order = sorted(range(size), key=smallest.__getitem__)
        if batched:
            # In enumeration order lane j, the code of x**j, is the base-q
            # digit of the position worth q**(d - 1 - j); lane d is 1.
            slot = d + 1
            block = bytearray(b"\x01") * (size * slot)
            for j in range(d):
                block[j::slot] = b"".join(
                    bytes([c]) * q ** (d - 1 - j) for c in range(q)) * q**j
            multiplicands = b"".join(
                [block[k * slot:(k + 1) * slot] for k in order])
            factors += [int.from_bytes(block[k * slot:(k + 1) * slot],
                                       "little") for k in unreached]
        else:
            monics = list(enumerate_monic(spec, d))
            multiplicands = [monics[k] for k in order]
            factors += [monics[k] for k in unreached]
        places += unreached
        levels.append((order, smallest, multiplicands, power, sigmas, phis))


#: Most monics ``preimage_list`` enumerates, and most that the sieve cache
#: keeps over all fields.  At the limit, F_2 to degree 17 (262,142
#: monics), the listing takes 0.25-0.27 s and 55 MB peak RSS on a shared
#: 2-core x86-64 host with Python 3.11; no other field's build under the
#: limit has as many monics.
LIST_LIMIT = 2**18

# Per field: its sieve ``_sieve_levels(spec)``, the degrees 1..D it has
# yielded, and the memo of ``_sieve_values``.  Every reader goes through
# ``_sieve_build``: a request of degree <= D reads the first levels, which
# are a fresh build's lists, and a deeper one pulls more from the sieve.
# The monics kept over all fields stay within LIST_LIMIT: the least
# recently used fields go first, and a build that passes the limit, or
# raises, is not kept.  At the limit, F_2 to degree 17, the levels and the
# sieve's own state take 31.2 MiB (tracemalloc), below the 37.1 MiB the
# build peaks at.
_BUILDS: dict[FieldSpec, tuple[Iterator, list[tuple], dict[int, tuple]]] = {}


def _sieve_build(spec: FieldSpec, max_deg: int) -> list[tuple]:
    """The levels ``(smallest, sigma, phi, cofactor)`` of degree 1..max_deg
    of the sieve over ``spec``, from the field's cached build."""
    if max_deg < 0:
        raise ValueError(f"max_deg must be >= 0, got {max_deg}")
    build = _BUILDS.pop(spec, None) or (_sieve_levels(spec), [], {})
    sieve, levels, _ = build
    if len(levels) < max_deg:
        monics = sum(spec.q**d for d in range(1, max_deg + 1))
        while _BUILDS and monics + sum(
                len(phi) for _, kept, _ in _BUILDS.values()
                for _, _, phi, _ in kept) > LIST_LIMIT:
            del _BUILDS[next(iter(_BUILDS))]
        levels += islice(sieve, max_deg - len(levels))
        if monics > LIST_LIMIT:
            return levels
    _BUILDS[spec] = build  # last in order: the most recently used
    return levels[:max_deg]


def _sieve_values(spec: FieldSpec, max_deg: int):
    levels = _sieve_build(spec, max_deg)
    values = _BUILDS[spec][2] if spec in _BUILDS else {}  # none past the limit
    if max_deg not in values:
        counts: Counter[int] = Counter()
        for _, _, phi, _ in levels:
            counts.update(phi)
        values[max_deg] = counts, frozenset().union(
            *(sigma for _, sigma, _, _ in levels))
    return values[max_deg]


def phi_counts(spec: FieldSpec, max_deg: int) -> dict[int, int]:
    """The number of monic polynomials of degree 1..max_deg with each phi
    value, from the sieve without building a ``Poly``.

    Read from the field's cached sieve build, extended first when it stops
    short of max_deg, and kept with ``sigma_values``; treat the result as
    read-only.  Values are in order of their first monic in enumeration
    order, as from a fresh build.
    """
    return _sieve_values(spec, max_deg)[0]


def sigma_values(spec: FieldSpec, max_deg: int) -> frozenset[int]:
    """sigma(g) over every monic g of degree 1..max_deg, from the same
    cached sieve build as phi_counts."""
    return _sieve_values(spec, max_deg)[1]


def phi_table(spec: FieldSpec, max_deg: int) -> dict[int, list[Poly]]:
    """Bucket every monic polynomial of degree 1..max_deg by exact phi value.

    Built from the phi values of the field's cached sieve build, never by
    factoring, with a ``Poly`` per monic.  Lists are in enumeration order,
    i.e. sorted by (degree, coefficient codes).
    """
    from .gfpoly import enumerate_monic

    table: dict[int, list[Poly]] = {}
    for d, (_, _, phis, _) in enumerate(_sieve_build(spec, max_deg), 1):
        for f, value in zip(enumerate_monic(spec, d), phis):
            table.setdefault(value, []).append(f)
    return table


def preimage_list(n: int, spec: FieldSpec) -> list[Poly]:
    """Every monic f with phi(f) = n, by exhaustive enumeration up to the
    degree bound; sorted by (degree, coefficient codes).

    The sieve's phi values are read by position, and a ``Poly`` is built
    only where phi equals n.  Raises ValueError when that means more than
    ``LIST_LIMIT`` monics, before computing the bound; both rest on the
    same knapsack.  Let D be the first degree at which the monics of
    degree 1..D pass the limit.  The bound is the last degree with
    min_phi <= n, and min_phi never decreases, so the bound reaches D
    exactly when min_phi(D) <= n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    monics = limit_deg = 0
    while monics <= LIST_LIMIT:
        limit_deg += 1
        monics += spec.q**limit_deg
    if min_phi(spec, limit_deg) <= n:
        raise ValueError(
            f"listing the preimages of {n} over F_{spec.q} means enumerating "
            f"at least the {monics} monics up to degree {limit_deg}; the "
            f"limit is {LIST_LIMIT}")
    levels = _sieve_build(spec, degree_bound(n, spec))
    return [_monic(spec, d, pos) for d, (_, _, phi, _) in enumerate(levels, 1)
            for pos, value in enumerate(phi) if value == n]


# -- classification -----------------------------------------------------------


def _uniqueness_condition(reps: list[Representation],
                          spec: FieldSpec) -> bool:
    # The explicit shape a value must have at q >= 3 for its preimage to be
    # unique: no q-power part, some factor, and every present degree
    # saturated at pi_q(d); for q = 3 additionally m_1 = m_2.
    return any(
        rep.j == 0 and rep.counts
        and all(m == spec.pi(d) for d, m in rep.counts.items())
        and (spec.q != 3 or rep.counts.get(1, 0) == rep.counts.get(2, 0))
        for rep in reps)


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
    q = spec.q
    last = _LAST.get(q)
    if last is None or last[0] != n:
        last = _factored(n, spec)
    _, reps, count = last
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

    if not reps:  # no form: the count is 0 and the shape condition False
        return CountProfile(n, 0, "empty")
    unique_shape = _uniqueness_condition(reps, spec)
    if (count == 1) != unique_shape:
        raise CounterexampleError(
            f"uniqueness condition mismatch at n = {n}, q = {q}: "
            f"count {count}, condition {unique_shape}")
    threshold = comb(q, 2)
    # count >= 1 here: each form counts C(pi_q(d), m_d) >= 1 times the
    # compositions of its j, and represent admits only a j that has one
    if count == 1:
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
