"""Common values of the polynomial totient and sum-of-divisors functions.

The paper's answer is a table, and ``_FAMILIES`` holds it as data, per q:
each family is a product of numbers q**d - 1, some with fixed degrees and
the rest free slots, each slot with a least degree and an optional
condition.  For q outside {2, 3} the two value sets never meet.  For q = 3
the intersection is exactly the products (3**d1 - 1)(3**d2 - 1),
d1, d2 >= 1.  For q = 2 it is a union of seven families.

Families overlap, so they are tried in a fixed order and the first match
wins; the slots are walked with ascending degrees, so a family's first
match has the smallest parameters, and the reported tag and parameters are
deterministic.  For q = 3 the first match has d1 <= d2: if (d1, d2)
matched with d1 > d2, then (d2, d1) would have matched first.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb, prod
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import preimage
from .errors import CounterexampleError
from .field import FieldSpec
from .numtheory import ilog
from .preimage import preimage_count, preimage_list

if TYPE_CHECKING:
    from .gfpoly import Poly


class IntersectionVerdict(NamedTuple):
    """Membership answer, with the matched family and parameters if any."""

    n: int
    member: bool
    family: str | None = None
    params: tuple[int, ...] | None = None


#: Most slot tuples ``intersection_up_to`` may walk, by the bound of
#: ``_slot_tuples``.  The largest y accepted is 2**111 - 1 over F_2 and
#: 3**631 - 1 over F_3.  On a 2-core x86-64 host ``fqphi erdos scan`` takes
#: 0.2 s and 31 MB there over F_2 (35,106 members), and 0.8 s and
#: 103 MB over F_3 (99,540 members of up to 302 digits); a refusal takes
#: no longer than the start-up.  Over F_2 the member count grows like
#: (log y)**3.
SCAN_LIMIT = 2 * 10**5


def _div23(d: int) -> bool:
    return d % 2 == 0 or d % 3 == 0


class _Family(NamedTuple):
    tag: str
    fixed: tuple[int, ...]  # degrees of constant (q**d - 1) factors
    slots: tuple[tuple[int, Callable[[int], bool] | None], ...]


_FAMILIES = {
    2: (
        _Family("(2^d1-1)", (), ((2, None),)),
        _Family("(2^2-1)(2^d1-1)", (2,), ((3, _div23),)),
        _Family("(2^2-1)(2^3-1)(2^d1-1)", (2, 3), ((3, None),)),
        _Family("(2^d1-1)(2^d2-1)", (), ((2, None), (3, None))),
        _Family("(2^2-1)(2^3-1)(2^d1-1)(2^d2-1)", (2, 3),
                ((3, None), (4, None))),
        _Family("(2^2-1)(2^d1-1)(2^d2-1)", (2,), ((4, _div23), (4, None))),
        _Family("(2^2-1)(2^d1-1)(2^d2-1)(2^d3-1)", (2,),
                ((4, _div23), (4, None), (4, None))),
    ),
    3: (_Family("(3^d1-1)(3^d2-1)", (), ((1, None), (1, None))),),
}


def _family_value(q: int, degrees: tuple[int, ...]) -> int:
    return prod(q**d - 1 for d in degrees)


def _match_slots(q: int, slots, value: int) -> tuple[int, ...] | None:
    """The first degrees, in ascending order, whose q**d - 1 fill the slots
    with product value; None when there are none."""
    (d_min, cond), rest = slots[0], slots[1:]
    if not rest:  # value itself must be q**d - 1
        d = ilog(value + 1, q)
        ok = q**d - 1 == value and d >= d_min and (cond is None or cond(d))
        return (d,) if ok else None
    d = d_min
    while (factor := q**d - 1) <= value:
        if (cond is None or cond(d)) and value % factor == 0:
            sub = _match_slots(q, rest, value // factor)
            if sub is not None:
                return (d,) + sub
        d += 1
    return None


def intersection_member(n: int, spec: FieldSpec) -> IntersectionVerdict:
    """Decide whether n is both a totient value and a sigma value.

    For q >= 4 the answer is no at once: the two sets never meet.  For
    q = 2, 3 two rules answer no before the slot walk:

    * q | n: every family member is a product of numbers q**d - 1, and
      each is -1 mod q;
    * n has no preimage under phi: a member is a totient value.
      ``preimage_count`` reads n's factored form, and the form and count
      it last found per field are kept, so asking it, ``count_profile``
      and this function about one n walks the form once.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    q = spec.q
    families = _FAMILIES.get(q, ())
    if not families or n % q == 0 or not preimage_count(n, spec):
        return IntersectionVerdict(n, False)
    for fam in families:
        fixed = _family_value(q, fam.fixed)
        if n % fixed:
            continue
        params = _match_slots(q, fam.slots, n // fixed)
        if params is not None:
            if _family_value(q, fam.fixed + params) != n:
                raise CounterexampleError(
                    f"family {fam.tag} instantiation {params} does not "
                    f"reproduce {n}")
            return IntersectionVerdict(n, True, fam.tag, params)
    return IntersectionVerdict(n, False)


def _slot_tuples(y: int, q: int) -> int:
    """A bound on the slot degrees whose product stays <= y, over all of
    q's families.  q**d - 1 >= q**(d - 1), so the s degrees of a family sum
    to at most ilog(y, q) + s; with each degree at least its slot's least
    degree, stars and bars counts the tuples."""
    k = ilog(y, q)
    total = 0
    for fam in _FAMILIES.get(q, ()):
        s = len(fam.slots)
        room = k + s - sum(d_min for d_min, _ in fam.slots)
        if room >= 0:
            total += comb(room + s, s)
    return total


def intersection_up_to(y: int, spec: FieldSpec) -> list[int]:
    """All intersection members <= y, deduplicated and sorted.

    The slots of a family are filled one at a time: each slot's factors
    q**d - 1 are listed in ascending order, and every value so far takes
    those that keep it <= y, a prefix found by bisection.  Raises
    ValueError, before the walk, when ``_slot_tuples`` passes
    ``SCAN_LIMIT``.
    """
    if y < 1:
        raise ValueError(f"need y >= 1, got {y}")
    q = spec.q
    tuples = _slot_tuples(y, q)
    if tuples > SCAN_LIMIT:
        raise ValueError(
            f"scanning the intersection up to y >= {q}**{ilog(y, q)} over "
            f"F_{q} may walk {tuples} slot tuples; the limit is SCAN_LIMIT = "
            f"{SCAN_LIMIT}")
    out = set()
    for fam in _FAMILIES.get(q, ()):
        values = [_family_value(q, fam.fixed)]
        for d_min, cond in fam.slots:
            factors = []
            d = d_min
            while (factor := q**d - 1) <= y:
                if cond is None or cond(d):
                    factors.append(factor)
                d += 1
            values = [v * f for v in values
                      for f in factors[:bisect_right(factors, y // v)]]
        out.update(values)
    return sorted(out)


def erdos_witness(n: int, spec: FieldSpec) -> tuple[Poly, Poly] | None:
    """A concrete pair (f, g) with phi(f) = sigma(g) = n, if n is a member.

    f comes from the preimage oracle; g from the sigma values of the
    monics of degree up to log_q(n) in the same sieve build, which is
    exhaustive because sigma(g) >= |g|.  Both take the first match in
    (degree, coefficient codes) order.  Raises ValueError when the
    preimage oracle would pass its enumeration limit.
    """
    verdict = intersection_member(n, spec)
    if not verdict.member:
        return None
    preimages = preimage_list(n, spec)
    if not preimages:
        raise CounterexampleError(
            f"{n} matched family {verdict.family} but has no totient preimage")
    f = preimages[0]
    # preimage_list has just cached the build to degree_bound(n), and
    # ilog(n, q) <= degree_bound(n): min_phi(ilog(n, q)) <= q**ilog(n, q).
    top = ilog(n, spec.q)
    for d, (_, sigmas, _, _) in enumerate(preimage._sieve_build(spec, top), 1):
        size = spec.q**d
        for pos, value in enumerate(sigmas):
            if value < size:
                raise CounterexampleError(
                    f"sigma({preimage._monic(spec, d, pos)}) = {value} "
                    f"below |g| = {size}")
            if value == n:
                return f, preimage._monic(spec, d, pos)
    raise CounterexampleError(
        f"{n} matched family {verdict.family} but has no sigma preimage")
