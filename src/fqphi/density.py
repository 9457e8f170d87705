"""Distribution of totient values: the set V(y) and its proven ceiling.

``phi_values_up_to`` enumerates every totient value <= y directly from the
factored forms (no polynomial enumeration; the q-power exponents come from
``preimage.reachable_sums``), deduplicating exact integers because distinct
factored forms can collide for q in {2, 3}.  The count V(y) is bounded by
2 q k (e^2/2)^(k/2) with k = floor(log_q y); a violation would contradict a
proven statement and raises CounterexampleError.  The k = 0 edge (y < q)
degenerates the bound to 0 while V can be 1 over F_2, so the check is
skipped there and the report says so.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

from .errors import CounterexampleError
from .gfpoly import FieldSpec
from .numtheory import GUARD, ilog
from .preimage import reachable_sums


class DensityReport(NamedTuple):
    """V(y) against its ceiling at one sample point."""

    y: int
    k: int
    count: int
    bound: float
    ratio: float
    bound_checked: bool


def phi_values_up_to(y: int, spec: FieldSpec) -> list[int]:
    """Sorted distinct totient values in [1, y].

    Depth-first search over factored forms (j, {m_d}) with the running
    product capped at y, m_d capped at pi_q(d), and the q-power exponent
    restricted to combinations of degrees actually present.
    """
    if y < 1:
        raise ValueError(f"need y >= 1, got {y}")
    q = spec.q
    values: set[int] = set()

    def emit(prod_: int, support: tuple[int, ...]) -> None:
        if not support:
            return  # no irreducible factor: the constant polynomial
        if 1 in support:  # every j is reachable: walk the q-powers
            value = prod_
            while value <= y:
                values.add(value)
                value *= q
            return
        j_max = ilog(y // prod_, q)  # the largest j with prod_ * q**j <= y
        for j, reachable in enumerate(reachable_sums(support, j_max)):
            if reachable:
                values.add(prod_ * q**j)

    def rec(d: int, prod_: int, support: tuple[int, ...]) -> None:
        if d == 0:
            emit(prod_, support)
            return
        b = q**d - 1
        cap = spec.pi(d)
        rec(d - 1, prod_, support)
        current = prod_
        m = 0
        while m < cap:
            current *= b
            if current > y:
                break
            m += 1
            rec(d - 1, current, support + (d,))

    rec(ilog(y + 1, q), 1, ())  # the largest d with q**d - 1 <= y
    return sorted(values)


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

    The value set is enumerated once at y_max and prefix-counted, so the
    sweep costs the same as the single largest report.
    """
    if y_max < 1:
        raise ValueError(f"need y_max >= 1, got {y_max}")
    values = phi_values_up_to(y_max, spec)
    points = []
    y = spec.q
    while y <= y_max:
        points.append(y)
        y *= spec.q
    if not points or points[-1] != y_max:
        points.append(y_max)
    return [
        _report_from_count(point, bisect_right(values, point), spec)
        for point in points
    ]
