"""The collisions suite of ``verify`` on its sieve-built signature classes,
the lemmas suite without factoring, and the failure rows of the
sierpinski and density suites.

The collisions suite reads signatures and phi values by position off the
field's cached sieve build and runs the criterion once per class pair;
these tests pin it to the per-pair counts it replaces and show that it
needs no ``factor`` and decodes no position to a ``Poly``.  The lemmas
suite factors no large integer: its primitive-divisor row runs on gcds.
The last two tests break a count or the ceiling and check that every row
that reads it reports the failure.
"""

import pytest

from fqphi import (
    collision,
    density,
    enumerate_monic,
    field,
    gfpoly,
    numtheory,
    phi,
    preimage,
    signature,
    totient,
    verify,
)

GRIDS = ((2, 7), (3, 5), (4, 4), (5, 3))


@pytest.mark.parametrize("q,max_deg", GRIDS)
def test_sieve_signatures_match_factor(q, max_deg):
    spec = verify._spec(q)
    monics = (f for d in range(1, max_deg + 1)
              for f in enumerate_monic(spec, d))
    seen = 0
    for f, (sig, value) in zip(monics,
                               verify._sieve_signatures(spec, max_deg),
                               strict=True):
        assert sig == signature(f), f
        assert value == phi(f).value, f
        seen += 1
    assert seen == sum(q**d for d in range(1, max_deg + 1))


def test_wrong_criterion_counts_every_monic_pair(monkeypatch):
    # the q >= 4 rule everywhere: wrong at q = 2 and 3.  The counts are
    # those of a comparison of all monic pairs one by one.
    monkeypatch.setattr(
        collision, "same_phi",
        lambda a, b, spec: a.degree == b.degree and a.counts == b.counts)
    rows = verify.run_suite("collisions")
    assert [(row.ok, row.detail) for row in rows] == [
        (False, "254 monics, 644 mismatches"),
        (False, "363 monics, 30 mismatches"),
        (True, "340 monics, 0 mismatches"),
        (True, "155 monics, 0 mismatches"),
    ]


def test_collisions_suite_never_factors(monkeypatch):
    def no_factor(*args, **kwargs):
        raise AssertionError("factor called")

    monkeypatch.setattr(gfpoly, "factor", no_factor)
    monkeypatch.setattr(totient, "factor", no_factor)
    rows = verify.run_suite("collisions")
    assert len(rows) == 4 and all(row.ok for row in rows), rows


def test_collisions_suite_decodes_no_position(monkeypatch):
    def no_monic(*args, **kwargs):
        raise AssertionError("a sieve position decoded to a Poly")

    monkeypatch.setattr(preimage, "_monic", no_monic)
    rows = verify.run_suite("collisions")
    assert len(rows) == 4 and all(row.ok for row in rows), rows


def test_lemmas_suite_factors_no_large_integer(monkeypatch):
    # the lemmas suite's primitive-divisor row decides a**n - 1 by gcd
    # elimination, and no suite may factor more than small integers (the
    # degrees behind pi_q(d) and q - 1), far inside factor_int's 2**24
    factor_int = numtheory.factor_int
    seen = []

    def small_only(n):
        if n > 10**4:
            raise AssertionError(f"factored {n}")
        seen.append(n)
        return factor_int(n)

    for module in (numtheory, field, preimage):
        monkeypatch.setattr(module, "factor_int", small_only)
    rows = verify.run_suite("all")
    assert len(rows) == 30 and all(row.ok for row in rows), rows
    assert seen


def test_sierpinski_suite_reports_a_wrong_count(monkeypatch):
    # one preimage too many everywhere: every construction misses its
    # count, and every scan meets a count inside a gap (over F_4 and F_5 a
    # count 1 or q turns into 2 or q + 1, over F_2 a count 0 into 1)
    count = preimage.preimage_count
    monkeypatch.setattr(preimage, "preimage_count",
                        lambda n, spec: count(n, spec) + 1)
    rows = verify.run_suite("sierpinski")
    assert len(rows) == 6 and not any(row.ok for row in rows), rows
    assert [row.detail.split()[0] for row in rows] == [
        "failed", "failed", "failed", "violations", "violations",
        "violations"]


def test_density_ceiling_rows_report_a_counterexample(monkeypatch):
    # a ceiling of 0 makes every checked sample point a counterexample
    bound = density.density_bound
    monkeypatch.setattr(density, "density_bound",
                        lambda y, spec: (bound(y, spec)[0], 0.0))
    rows = [row for row in verify.run_suite("density")
            if row.name.startswith("value count ceiling")]
    assert len(rows) == 4 and not any(row.ok for row in rows), rows
    assert all("exceeds the ceiling 0.0" in row.detail for row in rows)
