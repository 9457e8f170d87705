"""Distribution of totient values: the set V(y) and its proven ceiling.

Every totient value is R * q**j with R = prod (q**d - 1)**m_d over the
degrees d of the irreducible factors.  Each q**d - 1 is -1 mod p, so R is
prime to q, and the p-adic valuation of a value fixes j: each value has
exactly one pair (R, j).  ``phi_values_up_to`` therefore walks the choices
of factors {m_d} (the product capped at y, m_d capped at pi_q(d)), one node
per distinct choice, each extended only by degrees above its last.  A node
records the exponents j it admits as a bitmask: j must be a non-negative
combination of the degrees present (``preimage.reachable_sums``), and a
degree-1 factor admits every j.  Distinct choices can give the same R (at
q = 3, 2**3 = 3**2 - 1); their masks are ORed once per R, and no value is
ever deduplicated.  At q = 2 the degree-1 factors x and x + 1 leave R alone
(2 - 1 = 1) and admit every j, so the walk leaves degree 1 out and every R
admits every j.

The values then fall into runs of R: ``free`` holds the R that admit every
j, so R * q**j <= y is the only cut on them, and run_j the other R that
admit j.  ``phi_values_up_to`` concatenates R * q**j run by run and sorts
once (Timsort merges the presorted runs); ``density_sweep`` counts V(point)
as the sum over j of bisect_right over the runs at point // q**j and builds
no list of values.  A walk past ``NODE_LIMIT`` nodes raises ValueError.

The count V(y) is bounded by 2 q k (e^2/2)^(k/2) with k = floor(log_q y); a
violation would contradict a proven statement and raises CounterexampleError.
The k = 0 edge (y < q) degenerates the bound to 0 while V can be 1 over F_2,
so the check is skipped there and the report says so.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

from .errors import CounterexampleError
from .gfpoly import FieldSpec
from .numtheory import GUARD, ilog
from .preimage import reachable_sums

#: Nodes (distinct choices of factors) one walk may keep.  A node costs
#: 3-5 us and 130-210 bytes.  On a 2-core x86-64 host the largest accepted
#: ``fqphi density`` runs take about 5 s (F_3, y = 10**26: 987,467 nodes,
#: 150 MB) and refusals up to 3 s and 210 MB; a y so large that the walk
#: must pass the limit is refused before it starts.
NODE_LIMIT = 10**6

# reachable_sums' 0/1 bytes, reversed, read as a binary numeral: the bitmask
_BINARY = bytes.maketrans(b"\0\1", b"01")


class DensityReport(NamedTuple):
    """V(y) against its ceiling at one sample point."""

    y: int
    k: int
    count: int
    bound: float
    ratio: float
    bound_checked: bool


def _over_limit(y: int, q: int) -> ValueError:
    return ValueError(
        f"counting the totient values up to {y} over F_{q} visits more "
        f"than {NODE_LIMIT} factor choices; the limit is NODE_LIMIT")


def _runs(y: int, spec: FieldSpec) -> tuple[list[int], list[list[int]]]:
    """The coprime parts R of the totient values <= y, sorted: ``free``,
    those that admit every j, and run_j, the others that admit j."""
    q = spec.q
    lowest = 2 if q == 2 else 1
    j_top = ilog(y, q)
    # The 2**k - 1 nonempty sets of the degrees lowest .. lowest + k - 1 are
    # nodes while their sum s stays <= j_top (the product is below q**s), so
    # a large y is refused before the walk.
    k = 0
    while (k + 1) * lowest + k * (k + 1) // 2 <= j_top:
        k += 1
    if 2**k - 1 > NODE_LIMIT:
        raise _over_limit(y, q)
    # (R, mask) per node, combined by sorting.  A dict keyed by R degrades once
    # R passes 2**61: int hashes are taken mod 2**61 - 1, where 2**d - 1 and
    # 2**(d mod 61) - 1 agree.  At q = 2 the root R = 1 is a node admitting
    # every j (-1: every bit set).
    found: list[tuple[int, int]] = [(1, -1)] if q == 2 else []

    def walk(prod_: int, support: tuple[int, ...], d: int) -> None:
        # extend by one degree d, d + 1, ... above the last one taken
        limit = y // prod_
        while (b := q**d - 1) <= limit:
            child = support + (d,)
            cap = spec.pi(d)
            current = prod_
            m = 0
            while m < cap:
                current *= b
                if current > y:
                    break
                m += 1
                if q == 2 or child[0] == 1:
                    found.append((current, -1))
                else:
                    reachable = reachable_sums(child, ilog(y // current, q))
                    found.append(
                        (current, int(reachable[::-1].translate(_BINARY), 2)))
                if len(found) > NODE_LIMIT:
                    raise _over_limit(y, q)
                walk(current, child, d + 1)
            d += 1

    walk(1, (), lowest)
    found.sort()  # the nodes of one R adjacent, a full mask (-1) first
    free: list[int] = []
    partial: list[list[int]] = []  # [R, the OR of its masks]
    for r, mask in found:
        if free and free[-1] == r:
            continue  # R already admits every j
        if mask == -1:
            free.append(r)
        elif partial and partial[-1][0] == r:
            partial[-1][1] |= mask
        else:
            partial.append([r, mask])
    runs = [[r for r, mask in partial if mask >> j & 1]
            for j in range(j_top + 1)]
    return free, runs


def phi_values_up_to(y: int, spec: FieldSpec) -> list[int]:
    """Sorted distinct totient values in [1, y].

    Each value is R * q**j for exactly one R prime to q (the p-adic
    valuation fixes j), so the values are the runs of ``_runs`` scaled by
    q**j and sorted once, with no deduplication.  Over F_2 every R admits
    every j, through the free degree-1 factors x and x + 1.  Raises
    ValueError for y < 1, and past ``NODE_LIMIT`` nodes of the walk.
    """
    if y < 1:
        raise ValueError(f"need y >= 1, got {y}")
    q = spec.q
    free, runs = _runs(y, spec)
    values = []
    for j, run in enumerate(runs):
        scale = q**j
        values += [r * scale for r in free[:bisect_right(free, y // scale)]]
        values += [r * scale for r in run]
    values.sort()
    return values


def density_bound(y: int, spec: FieldSpec) -> tuple[int, float]:
    """(k, 2 q k (e^2/2)^(k/2)) with k the exact integer floor of log_q y."""
    k = ilog(y, spec.q)
    return k, 2.0 * spec.q * k * (math.e**2 / 2.0) ** (k / 2.0)


def density_report(y: int, spec: FieldSpec) -> DensityReport:
    """Count totient values up to y and check them against the ceiling."""
    values = phi_values_up_to(y, spec)
    return _report_from_count(y, len(values), spec)


def _report_from_count(y: int, count: int, spec: FieldSpec) -> DensityReport:
    k, bound = density_bound(y, spec)
    checked = k >= 1
    if checked and count > bound * (1 - GUARD):
        raise CounterexampleError(
            f"V({y}) = {count} exceeds the ceiling {bound} for q = {spec.q}")
    return DensityReport(y, k, count, bound, count / y, checked)


def density_sweep(spec: FieldSpec, y_max: int) -> list[DensityReport]:
    """Reports at y = q, q**2, ... up to y_max, plus y_max itself.

    The runs are built once at y_max; V(point) is one bisection per run, so
    the sweep costs the same as the single largest report.
    """
    if y_max < 1:
        raise ValueError(f"need y_max >= 1, got {y_max}")
    q = spec.q
    free, runs = _runs(y_max, spec)
    points = []
    y = q
    while y <= y_max:
        points.append(y)
        y *= q
    if not points or points[-1] != y_max:
        points.append(y_max)
    reports = []
    for point in points:
        count = 0
        for j, run in enumerate(runs):
            top = point // q**j
            count += bisect_right(free, top) + bisect_right(run, top)
        reports.append(_report_from_count(point, count, spec))
    return reports
