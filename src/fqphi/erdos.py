"""Common values of the polynomial totient and sum-of-divisors functions.

For q outside {2, 3} the two value sets never meet.  For q = 3 the
intersection is exactly the products (3**d1 - 1)(3**d2 - 1), d1, d2 >= 1.
For q = 2 it is a union of seven product families over the numbers
2**d - 1, tried in a fixed order so the reported family tag and parameters
are deterministic (families overlap; the first match wins).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import CounterexampleError
from .gfpoly import FieldSpec, Poly
from .preimage import preimage_list, sieve


class IntersectionVerdict(NamedTuple):
    """Membership answer, with the matched family and parameters if any."""

    n: int
    member: bool
    family: str | None = None
    params: tuple[int, ...] | None = None


def _div23(d: int) -> bool:
    return d % 2 == 0 or d % 3 == 0


class _Family(NamedTuple):
    tag: str
    fixed: tuple[int, ...]  # degrees of constant (2**d - 1) factors
    slots: tuple[tuple[int, Callable[[int], bool] | None], ...]


_Q2_FAMILIES = (
    _Family("(2^d1-1)", (), ((2, None),)),
    _Family("(2^2-1)(2^d1-1)", (2,), ((3, _div23),)),
    _Family("(2^2-1)(2^3-1)(2^d1-1)", (2, 3), ((3, None),)),
    _Family("(2^d1-1)(2^d2-1)", (), ((2, None), (3, None))),
    _Family("(2^2-1)(2^3-1)(2^d1-1)(2^d2-1)", (2, 3), ((3, None), (4, None))),
    _Family("(2^2-1)(2^d1-1)(2^d2-1)", (2,), ((4, _div23), (4, None))),
    _Family(
        "(2^2-1)(2^d1-1)(2^d2-1)(2^d3-1)",
        (2,),
        ((4, _div23), (4, None), (4, None)),
    ),
)


def _family_value(fam: _Family, params: tuple[int, ...]) -> int:
    value = 1
    for d in fam.fixed:
        value *= 2**d - 1
    for d in params:
        value *= 2**d - 1
    return value


def _match_slots(slots, value: int) -> tuple[int, ...] | None:
    if not slots:
        return () if value == 1 else None
    (d_min, cond), rest = slots[0], slots[1:]
    d = d_min
    while 2**d - 1 <= value:
        factor = 2**d - 1
        if (cond is None or cond(d)) and value % factor == 0:
            sub = _match_slots(rest, value // factor)
            if sub is not None:
                return (d,) + sub
        d += 1
    return None


def intersection_member(n: int, spec: FieldSpec) -> IntersectionVerdict:
    """Decide whether n is both a totient value and a sigma value."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    q = spec.q
    if q == 3:
        d1 = 1
        while (3**d1 - 1) ** 2 <= n:
            part = 3**d1 - 1
            if n % part == 0:
                rest = n // part
                d2 = d1
                while 3**d2 - 1 <= rest:
                    if 3**d2 - 1 == rest:
                        return IntersectionVerdict(
                            n, True, "(3^d1-1)(3^d2-1)", (d1, d2))
                    d2 += 1
            d1 += 1
        return IntersectionVerdict(n, False)
    if q == 2:
        for fam in _Q2_FAMILIES:
            value = n
            ok = True
            for d in fam.fixed:
                factor = 2**d - 1
                if value % factor:
                    ok = False
                    break
                value //= factor
            if not ok:
                continue
            params = _match_slots(fam.slots, value)
            if params is not None:
                if _family_value(fam, params) != n:
                    raise CounterexampleError(
                        f"family {fam.tag} instantiation {params} does not "
                        f"reproduce {n}")
                return IntersectionVerdict(n, True, fam.tag, params)
        return IntersectionVerdict(n, False)
    return IntersectionVerdict(n, False)  # empty intersection for q >= 4


def intersection_up_to(y: int, spec: FieldSpec) -> list[int]:
    """All intersection members <= y, deduplicated and sorted."""
    if y < 1:
        raise ValueError(f"need y >= 1, got {y}")
    q = spec.q
    if q == 3:
        out = set()
        d1 = 1
        while (3**d1 - 1) ** 2 <= y:
            d2 = d1
            while (3**d1 - 1) * (3**d2 - 1) <= y:
                out.add((3**d1 - 1) * (3**d2 - 1))
                d2 += 1
            d1 += 1
        return sorted(out)
    if q != 2:
        return []
    out = set()
    for fam in _Q2_FAMILIES:
        prefix = 1
        for d in fam.fixed:
            prefix *= 2**d - 1
        if prefix > y:
            continue

        def fill(slots, value: int) -> None:
            if not slots:
                out.add(value)
                return
            (d_min, cond), rest = slots[0], slots[1:]
            d = d_min
            while value * (2**d - 1) <= y:
                if cond is None or cond(d):
                    fill(rest, value * (2**d - 1))
                d += 1

        fill(fam.slots, prefix)
    return sorted(out)


def erdos_witness(n: int, spec: FieldSpec) -> tuple[Poly, Poly] | None:
    """A concrete pair (f, g) with phi(f) = sigma(g) = n, if n is a member.

    f comes from the preimage oracle; g from the sieve's monics of degree up
    to log_q(n), which is exhaustive because sigma(g) >= |g|.  Both take the
    first match in (degree, coefficient codes) order.  Raises ValueError
    when the preimage oracle would pass its enumeration limit.
    """
    verdict = intersection_member(n, spec)
    if not verdict.member:
        return None
    preimages = preimage_list(n, spec)
    if not preimages:
        raise CounterexampleError(
            f"{n} matched family {verdict.family} but has no totient preimage")
    f = preimages[0]
    max_deg = 0
    while spec.q ** (max_deg + 1) <= n:
        max_deg += 1
    for entry in sieve(spec, max_deg):
        g = entry.poly
        if entry.sigma < g.size():
            raise CounterexampleError(
                f"sigma({g}) = {entry.sigma} below |g| = {g.size()}")
        if entry.sigma == n:
            return f, g
    raise CounterexampleError(
        f"{n} matched family {verdict.family} but has no sigma preimage")
