"""Distribution of totient values: the set V(y) and its proven ceiling.

Every totient value is R * q**j with R = prod (q**d - 1)**m_d over the
degrees d of the irreducible factors.  Each q**d - 1 is -1 mod p, so R is
prime to q, and the p-adic valuation of a value fixes j: each value has
exactly one pair (R, j).  ``phi_values_up_to`` therefore walks the choices
of factors {m_d} (the product capped at y, m_d capped at pi_q(d)), one node
per distinct choice.  A node admits the exponents j that are non-negative
combinations of the degrees present (``preimage.reachable_sums``, a
bitmask with bit j for j), so a degree-1 factor admits every j.  At q = 2
the degree-1 factors x and x + 1 leave R alone (2 - 1 = 1) and admit every
j, so the walk leaves degree 1 out and every R admits every j.

The walk goes by levels, one per degree d from the highest with
q**d - 1 <= y down to the lowest, without recursion.  It keeps the nodes in
groups, one sorted list of R per mask.  At level d, for m = 1..pi_q(d), the
R of a group up to y // (q**d - 1)**m (found by bisection) are multiplied
by (q**d - 1)**m in one list comprehension, and join the group of the mask
closed under d: one knapsack step per group and level, not per node.
Timsort merges the new runs into each group.  A mask keeps only the j that
the group's children can reach (R * q**j <= y, R their least value), and a
mask holding all of them joins the full group, the R that admit every j:
the fewer distinct masks, the fewer groups.

Distinct choices give the same R only at q = 3, and there only as the
pair (m_1, m_2) = (3, a) and (0, a + 1) with every other m_d equal
(2**3 = 3**2 - 1: three linear factors or one quadratic), by Lemma A in
the docstring of ``preimage.count_profile``.  At q = 2 every node is in
the full group.  At q >= 3 level d = 1 closes every mask, so a node
outside it has no degree-1 factor, and R determines such a choice: the
first of the pair is in ``free``.  So the R that ``free`` holds are
dropped from the other groups, and no value is ever deduplicated.

The values then fall into runs of R: ``free`` holds the R that admit every
j, so R * q**j <= y is the only cut on them, and run_j the other R that
admit j, cut at y // q**j.  ``phi_values_up_to`` concatenates R * q**j run
by run and sorts once (Timsort merges the presorted runs);
``density_sweep`` counts V(point) as the sum over j of bisect_right over
the runs at point // q**j and builds no list of values.  A walk past
``NODE_LIMIT`` nodes raises ValueError.

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
from .field import FieldSpec
from .numtheory import GUARD, ilog
from .preimage import _FIRST_DEGREE, reachable_sums

#: Nodes (distinct choices of factors) one walk may keep.  A node costs
#: about 1 us and 80-150 bytes.  On a 2-core x86-64 host the largest
#: accepted ``fqphi density`` runs take about 1.2 s (F_3, y = 10**26:
#: 987,467 nodes, 102 MB) and refusals up to 1.3 s and 150 MB (F_13,
#: y = 13**209 - 1); a y so large that the walk must pass the limit is
#: refused before it starts.
NODE_LIMIT = 10**6


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
    lowest = _FIRST_DEGREE.get(q, 1)
    j_top = ilog(y, q)
    # The 2**k - 1 nonempty sets of the degrees lowest .. lowest + k - 1 are
    # nodes while their sum s stays <= j_top (the product is below q**s), so
    # a large y is refused before the walk.
    k = 0
    while (k + 1) * lowest + k * (k + 1) // 2 <= j_top:
        k += 1
    if 2**k - 1 > NODE_LIMIT:
        raise _over_limit(y, q)
    # At q > 2 the root R = 1 (the constant 1, no node) starts the walk
    # with the mask of j = 0; at q = 2 it is the node of x and x + 1.
    full = (1 << j_top + 1) - 1
    groups = {full if q == 2 else 1: [1]}
    nodes = 1 if q == 2 else 0
    for d in range(ilog(y + 1, q), lowest - 1, -1):
        b = q**d - 1
        cap = spec.pi(d)
        powers = []  # (q**d - 1)**m <= y for m = 1..pi_q(d), with y // it
        power = b
        while power <= y and len(powers) < cap:
            powers.append((power, y // power))
            power *= b
        born: dict[int, list[int]] = {}
        for mask, group in groups.items():
            if group[0] > powers[0][1]:
                continue
            room = ilog(powers[0][1] // group[0], q)  # any child's j
            closed = reachable_sums((d,), room, mask & (1 << room + 1) - 1)
            if closed == (1 << room + 1) - 1:
                closed = full
            for power, top in powers:
                cut = bisect_right(group, top)
                if not cut:
                    break
                nodes += cut
                if nodes > NODE_LIMIT:
                    raise _over_limit(y, q)
                born.setdefault(closed, []).extend(
                    [r * power for r in group[:cut]])
        for mask, new in born.items():
            group = groups.setdefault(mask, [])
            group += new
            group.sort()
    if q != 2:
        del groups[1][0]  # the root
    found = groups.pop(full, [])
    # one R per distinct choice giving it; a dict keyed by R would degrade
    # once R passes 2**61: int hashes are taken mod 2**61 - 1, where
    # 2**d - 1 and 2**(d mod 61) - 1 agree
    free = [r for r, after in zip(found, found[1:]) if r != after]
    free += found[-1:]
    # Outside the full group each R has one choice (module docstring), so
    # only an R that free also holds can repeat there: drop those.  A node
    # has R >= q - 1, which free holds, so an R below all of free reads
    # free[-1], which is larger.
    for mask, group in groups.items():
        groups[mask] = [r for r in group
                        if free[bisect_right(free, r) - 1] != r]
    runs = []
    for j in range(j_top + 1):
        top = y // q**j
        run = []
        for mask, group in groups.items():
            if mask >> j & 1:
                run += group[:bisect_right(group, top)]
        run.sort()
        runs.append(run)
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
