"""The benchmark's own test: every checker must count a wrong answer, and
the per-segment floor must sum what it should.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Each case first passes a correct output
(no failure may be counted), then the same output with one deliberate
error (at least one failure must be counted).  Exits 1 if any case misses.
"""

from __future__ import annotations

import os
import sys

import checks
from timing import per_job_best

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from fqphi import (  # noqa: E402
    Factorization, FieldSpec, factor, is_irreducible, phi, sigma, signature)


def failures(check, *args) -> int:
    tally = checks.Tally()
    check(tally, *args)
    return tally.failed


def cases():
    """(name, checker, good arguments, wrong arguments)."""
    names = ["a", "b"]
    rows = [("a", True, ""), ("b", True, "")]
    yield ("verify: a failing row", checks.check_verify,
           (rows, names), ([("a", True, ""), ("b", False, "")], names))
    yield ("verify: a renamed check", checks.check_verify,
           (rows, names), ([("a", True, ""), ("c", True, "")], names))

    # Over F_2: 3 is a totient value with 4 preimages and a sigma value,
    # 4 = 2**2 has 5 preimages, and 5 is not a value.
    values, members = {1, 2, 3, 4}, {3}
    good = [("range", 3, (4, 4, True)), ("structured", 3, (4, 4, True)),
            ("range", 4, (5, 5, False)), ("random", 5, (0, 0, False))]
    for label, wrong in (
        ("count: profile disagrees", ("range", 3, (4, 5, True))),
        ("count: power of two off the construction",
         ("range", 4, (6, 6, False))),
        ("count: realizable value counted 0", ("structured", 7, (0, 0, False))),
        ("count: nonzero count for a non-value", ("random", 5, (2, 2, False))),
        ("count: member disagrees", ("random", 5, (0, 0, True))),
        ("count: a call raised", ("range", 3, (checks.ERROR, "boom"))),
    ):
        yield (label, checks.check_counts,
               (2, good, values, members, 10),
               (2, good[:-1] + [wrong], values, members, 10))

    # Counts for n = 1..5 over F_2: 1..4 are values, 5 is not.
    range_counts = [3, 4, 4, 5, 0]
    yield ("density: wrong value count", checks.check_density,
           (2, [(2, 2), (4, 4), (8, 6)], range_counts),
           (2, [(2, 2), (4, 3), (8, 6)], range_counts))
    yield ("density: no report within the range items", checks.check_density,
           (2, [(2, 2), (4, 4), (8, 6)], range_counts),
           (2, [(8, 6)], range_counts))

    spec = FieldSpec(5)
    f = spec.parse("x+1") * spec.parse("x^2+2") * spec.parse("x^2+3")
    out = (signature(f), phi(f), sigma(f), factor(f))
    lying_fac = Factorization(spec, 1, ((f, 1),))  # "f is irreducible"
    short_fac = Factorization(spec, 1, out[3].parts[:1])
    yield ("query: wrong sigma", checks.check_query,
           (f, out, is_irreducible),
           (f, out[:2] + (out[2] + 1, out[3]), is_irreducible))
    yield ("query: reducible factor", checks.check_query,
           (f, out, is_irreducible),
           (f, (signature(f), phi(f), sigma(f), lying_fac), is_irreducible))
    yield ("query: factorization does not expand", checks.check_query,
           (f, out, is_irreducible),
           (f, out[:3] + (short_fac,), is_irreducible))

    yield ("same: warm pass differs", checks.check_same,
           ([1, 2], [1, 2], "x"), ([1, 2], [1, 3], "x"))
    checked = checks.digest([(4, 4, True), (0, 0, False)])
    yield ("cycle: outputs differ from the checked cycle", checks.check_cycle,
           (2, checks.digest([(4, 4, True), (0, 0, False)]), checked),
           (2, checks.digest([(4, 4, True), (1, 1, False)]), checked))
    yield ("cli: wrong field", checks.check_cli,
           ("pi", 0, '{"pi": "2"}', {"pi": "2"}),
           ("pi", 0, '{"pi": "3"}', {"pi": "2"}))
    yield ("cli: nonzero exit", checks.check_cli,
           ("pi", 0, '{"pi": "2"}', {"pi": "2"}),
           ("pi", 2, '{"pi": "2"}', {"pi": "2"}))


def timing_cases():
    """(name, passes, expected floors): per_job_best on hand-made timings.
    Each pass is a list of jobs, each job a list of segment times."""
    yield ("timing: segment floors summed",
           [[[3, 5], [7]], [[4, 2], [6]]], [5, 6])
    yield ("timing: unaligned segments fall back to the whole job",
           [[[3, 5]], [[4, 2, 1]]], [7])
    yield ("timing: a prefix cycle adds samples to the first jobs only",
           [[[3, 5], [7]], [[4, 2]]], [5, 7])


def main() -> int:
    missed = []
    total = 0
    for name, passes, expected in timing_cases():
        total += 1
        got = per_job_best(passes)
        if got != expected:
            missed.append(f"{name}: got {got}, expected {expected}")
    for name, check, good, wrong in cases():
        total += 1
        got_good, got_wrong = failures(check, *good), failures(check, *wrong)
        if got_good != 0 or got_wrong < 1:
            missed.append(f"{name}: {got_good} failures on the correct "
                          f"output, {got_wrong} on the wrong one")
    for line in missed:
        print("MISSED", line)
    print(f"selftest: {total - len(missed)} of {total} cases pass")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
