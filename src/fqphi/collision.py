"""When do two monic polynomials share a totient value?

The answer depends only on signatures, never on evaluated integers:

* q not in {2, 3}:  equal degree and identical signature counts.
* q = 3:            m_d equal for d >= 3, m_1 + 3*m_2 equal, deg + m_2 equal.
* q = 2:            m_d equal for d >= 2, deg - m_1 equal.

``same_phi`` implements exactly that criterion, so testing it against actual
totient evaluations is a genuine check and not a tautology.  The collisions
suite of ``verify`` tests it on every monic pair up to its degree grids,
with signatures and phi values read by position off the field's cached
sieve build in ``preimage``, the one brute-force oracle: phi there comes
from the sieve's recurrence, not from the signature formula.
``tests/test_acceptance.py`` repeats the check with ``signature`` and
``phi``, i.e. through ``factor``.  The phi classes themselves, every
monic up to a degree bucketed by its totient value, are
``preimage.phi_table``, read off the same cached build.
"""

from __future__ import annotations

from .field import FieldSpec
from .totient import Signature


def same_phi(a: Signature, b: Signature, spec: FieldSpec) -> bool:
    """Decide phi-equality purely from signatures via the field-size cases."""
    q = spec.q
    if q == 2:
        if a.degree - a.count(1) != b.degree - b.count(1):
            return False
        return _counts_from(a, 2) == _counts_from(b, 2)
    if q == 3:
        if a.count(1) + 3 * a.count(2) != b.count(1) + 3 * b.count(2):
            return False
        if a.degree + a.count(2) != b.degree + b.count(2):
            return False
        return _counts_from(a, 3) == _counts_from(b, 3)
    return a.degree == b.degree and a.counts == b.counts


def _counts_from(sig: Signature, d_min: int) -> dict[int, int]:
    return {d: m for d, m in sig.counts.items() if d >= d_min}
