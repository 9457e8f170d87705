"""Self-verification suites: every headline counting statement checked
against an independent brute-force computation at full desk scale.

The brute-force side of the collisions, preimage, erdos and density suites
is the sieve of ``preimage._sieve_levels``, which constructs every monic
from its prime factors and reads phi and sigma off the construction,
without calling ``factor`` or building a ``Poly``.  Every suite reads it
through the per-field cache of ``preimage``, which extends one sieve per
field for deeper requests and serves shallower ones from its first levels:
a cold pass starts one build per field, and a second pass builds nothing.
The preimage, erdos and density suites read only values, the number of
monics per phi value from ``preimage.phi_counts`` and the sigma values
from ``preimage.sigma_values``.  The collision suite reads each monic's
signature off the construction by position, takes phi from the sieve's
recurrence (not from the signature formula), and compares the distinct
(signature, phi) classes, weighting each class pair by the number of
monic pairs in it.

Each suite returns a list of CheckResult rows; the CLI prints them and turns
any failure into a nonzero exit.  Budgets shrink the sweeps for quick runs;
the defaults are the full verification grids, which live only here:
``tests/test_acceptance.py`` pins every row these grids produce.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from math import comb
from typing import NamedTuple

from . import collision, density, erdos, numtheory, preimage
from .errors import CounterexampleError
from .gfpoly import FieldSpec, enumerate_irreducibles, pi_divisibility_holds
from .totient import Signature


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class Budgets(namedtuple("Budgets", ("degree", "n", "y"))):
    """Caps for the sweeps; None means the full default grid.

    Each field is set by the CLI flag ``--budget-<field>`` and must be >= 1.
    """

    __slots__ = ()

    def __new__(cls, degree: int | None = None, n: int | None = None,
                y: int | None = None):
        self = super().__new__(cls, degree, n, y)
        for name, value in zip(self._fields, self):
            if value is not None and value < 1:
                raise ValueError(f"--budget-{name} must be >= 1, got {value}")
        return self

    def cap(self, name: str, default: int) -> int:
        """The sweep bound for ``name``: its default, lowered to the budget."""
        value = getattr(self, name)
        return default if value is None else min(default, value)


SUITES = ("collisions", "preimage", "sierpinski", "erdos", "density", "lemmas")

_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 9: (3, 2)}


def _spec(q: int) -> FieldSpec:
    p, s = _FIELDS[q]
    return FieldSpec(p, s)


def _oracle_phi_values(spec: FieldSpec, y: int) -> set[int]:
    counts = preimage.phi_counts(spec, preimage.degree_bound(y, spec))
    return {value for value in counts if value <= y}


def _sieve_signatures(spec: FieldSpec, max_deg: int):
    """(signature, phi) for every monic of degree 1..max_deg, in
    enumeration order, read off the cached sieve build by position.

    The sieve builds a reducible f as P * g with P its smallest prime
    factor, after g.  P divides g exactly when g's smallest factor is P too,
    so f has g's signature counts, plus one at deg P when P does not divide g.
    """
    # The degree of the irreducible with each index: the sieve raises
    # unless degree d has exactly pi_q(d) of them.
    degree_of: list[int] = []
    # Per degree below max_deg: each monic's smallest factor and counts.
    built: list[tuple[list[int], list[dict[int, int]]]] = [([], [])]
    for d, (smallest, _, phis, cofactors) in enumerate(
            preimage._sieve_build(spec, max_deg), 1):
        degree_of += [d] * spec.pi(d)
        level = []
        for i, phi, k in zip(smallest, phis, cofactors):
            if k < 0:
                counts = {d: 1}
            else:
                e = degree_of[i]
                g_small, g_counts = built[d - e]
                counts = g_counts[k]
                if g_small[k] != i:
                    counts = {**counts, e: counts.get(e, 0) + 1}
            level.append(counts)
            yield Signature(d, counts), phi
        built.append((smallest, level))


def suite_collisions(budgets: Budgets = Budgets()) -> list[CheckResult]:
    """Signature criterion vs exact totient equality, all monic pairs.

    Monics with the same degree, signature counts and phi value form one
    class and answer every comparison alike, so the criterion runs once per
    class pair, and a mismatch counts the monic pairs it stands for.
    """
    results = []
    for q, default_deg in ((2, 7), (3, 5), (4, 4), (5, 3)):
        spec = _spec(q)
        max_deg = budgets.cap("degree", default_deg)
        sizes = Counter(
            (sig.degree, tuple(sorted(sig.counts.items())), value)
            for sig, value in _sieve_signatures(spec, max_deg))
        classes = [
            (Signature(degree, dict(counts)), value, n)
            for (degree, counts, value), n in sizes.items()]
        mismatches = 0
        for i, (sig_a, val_a, n_a) in enumerate(classes):
            for j, (sig_b, val_b, n_b) in enumerate(classes[i:], i):
                if collision.same_phi(sig_a, sig_b, spec) != (val_a == val_b):
                    mismatches += n_a * (n_a + 1) // 2 if j == i else n_a * n_b
        results.append(CheckResult(
            f"collision criterion q={q} deg<={max_deg}",
            mismatches == 0,
            f"{sizes.total()} monics, {mismatches} mismatches"))
    return results


def suite_preimage(budgets: Budgets = Budgets()) -> list[CheckResult]:
    """Count formula vs oracle enumeration, plus the q = 2 floor at n = 1."""
    results = []
    for q, default_n in ((2, 200), (3, 500), (5, 1000)):
        spec = _spec(q)
        n_max = budgets.cap("n", default_n)
        counts = preimage.phi_counts(
            spec, preimage.degree_bound(n_max, spec))
        bad = [
            n for n in range(1, n_max + 1)
            if preimage.preimage_count(n, spec) != counts.get(n, 0)
        ]
        results.append(CheckResult(
            f"count formula vs oracle q={q} n<={n_max}",
            not bad,
            f"first mismatch at n={bad[0]}" if bad else "exact agreement"))
    spec2 = _spec(2)
    ones = preimage.preimage_list(1, spec2)
    expected = [spec2.parse("x"), spec2.parse("x+1"), spec2.parse("x^2+x")]
    results.append(CheckResult(
        "preimages of 1 over F_2",
        ones == expected,
        "{" + ", ".join(str(f) for f in ones) + "}"))
    return results


def suite_sierpinski(budgets: Budgets = Budgets()) -> list[CheckResult]:
    """Prescribed-count constructions and the proven count gaps."""
    results = []
    spec2 = _spec(2)
    bad = []
    for l in range(3, 13):
        n, want = preimage.sierpinski_witness(spec2, "exact", l)
        if preimage.preimage_count(n, spec2) != want:
            bad.append(l)
    results.append(CheckResult(
        "exact-count construction q=2 l=3..12", not bad, f"failed l={bad}"
        if bad else "all counts hit"))
    bad = []
    for q, ls in ((3, (1, 2)),):
        spec = _spec(q)
        for l in ls:
            n, want = preimage.sierpinski_witness(spec, "power", l)
            if preimage.preimage_count(n, spec) != want:
                bad.append((q, l))
    results.append(CheckResult(
        "q-power construction q=3 l=1,2", not bad, f"failed {bad}"
        if bad else "all counts hit"))
    bad = []
    for q in (3, 5):
        spec = _spec(q)
        for l in (0, 1, 2):
            n, want = preimage.sierpinski_witness(spec, "binomial", l)
            if preimage.preimage_count(n, spec) != want:
                bad.append((q, l))
    results.append(CheckResult(
        "binomial construction q=3,5 l=0..2", not bad, f"failed {bad}"
        if bad else "all counts hit"))

    for q in (4, 5):
        spec = _spec(q)
        n_max = budgets.cap("n", 10**4)
        allowed_failures = []
        for n in range(1, n_max + 1):
            count = preimage.preimage_count(n, spec)
            if not (count in (0, 1, q) or count >= comb(q, 2)):
                allowed_failures.append((n, count))
        results.append(CheckResult(
            f"count gap scan q={q} n<={n_max}",
            not allowed_failures,
            f"violations {allowed_failures[:3]}"
            if allowed_failures else "no count in a forbidden gap"))
    spec2 = _spec(2)
    n_max = budgets.cap("n", 10**3)
    floor_bad = []
    for n in range(1, n_max + 1):
        count = preimage.preimage_count(n, spec2)
        if count not in (0,) and count < 3:
            floor_bad.append((n, count))
        if (count == 3) != (n == 1):
            floor_bad.append((n, count))
    results.append(CheckResult(
        f"q=2 floor scan n<={n_max}",
        not floor_bad,
        f"violations {floor_bad[:3]}" if floor_bad
        else "count 0 or >= 3, equality only at n=1"))
    return results


def suite_erdos(budgets: Budgets = Budgets()) -> list[CheckResult]:
    """Double enumeration of totient and sigma values vs the family answer."""
    results = []
    for q, default_y in ((5, 10**4), (3, 10**3), (2, 10**3)):
        spec = _spec(q)
        y = budgets.cap("y", default_y)
        # One sieve build holds both value sets: degree_bound(y) >=
        # floor(log_q y), and sigma(g) >= |g| puts every sigma value <= y
        # at a degree <= floor(log_q y).
        max_deg = preimage.degree_bound(y, spec)
        phi_values = preimage.phi_counts(spec, max_deg)
        sigma_values = preimage.sigma_values(spec, max_deg)
        both = sorted(v for v in phi_values if v <= y and v in sigma_values)
        claimed = erdos.intersection_up_to(y, spec)
        ok = both == claimed
        results.append(CheckResult(
            f"value-set intersection q={q} y<={y}",
            ok,
            f"{len(both)} common values"
            if ok else f"oracle {both[:5]}... vs families {claimed[:5]}..."))
    return results


def suite_density(budgets: Budgets = Budgets()) -> list[CheckResult]:
    """Value-set size checks: exact small case, ceiling sweep, dual count."""
    results = []
    spec2 = _spec(2)
    v10 = density.phi_values_up_to(10, spec2)
    results.append(CheckResult(
        "V(10) over F_2", len(v10) == 7 and v10 == [1, 2, 3, 4, 6, 7, 8],
        f"values {v10}"))
    for q in (2, 3, 4, 5):
        spec = _spec(q)
        y_max = budgets.cap("y", 10**5)
        try:
            reports = density.density_sweep(spec, y_max)
            checked = sum(1 for r in reports if r.bound_checked)
            results.append(CheckResult(
                f"value count ceiling q={q} y<={y_max}", True,
                f"{checked} sample points within bound"))
        except CounterexampleError as exc:
            results.append(CheckResult(
                f"value count ceiling q={q} y<={y_max}", False, str(exc)))
    for q in (2, 3):
        spec = _spec(q)
        y = budgets.cap("y", 10**3)
        direct = set(density.phi_values_up_to(y, spec))
        oracle = _oracle_phi_values(spec, y)
        results.append(CheckResult(
            f"value set dual enumeration q={q} y<={y}",
            direct == oracle,
            f"{len(direct)} values"
            if direct == oracle
            else f"diff {sorted(direct ^ oracle)[:5]}"))
    return results


def suite_lemmas(budgets: Budgets = Budgets()) -> list[CheckResult]:
    """Irreducible counts, their divisibility, and the integer-side bounds."""
    results = []
    spec2 = _spec(2)
    want = (2, 1, 2, 3, 6, 9)
    formula = tuple(spec2.pi(d) for d in range(1, 7))
    enum = tuple(
        sum(1 for _ in enumerate_irreducibles(spec2, d)) for d in range(1, 7))
    results.append(CheckResult(
        "irreducible counts over F_2, d=1..6",
        formula == want and enum == want,
        f"formula {formula}, enumeration {enum}"))
    bad = []
    for q in (3, 4, 5, 7, 9):
        spec = _spec(q)
        bad += [(q, d) for d in range(1, 25)
                if not pi_divisibility_holds(spec, d)]
    results.append(CheckResult(
        "p | pi_q(d) or 4 | pi_q(d), q in {3,4,5,7,9}, d<=24",
        not bad, f"failures {bad}" if bad else "holds on the whole grid"))

    exceptions = {(2, 6), (3, 2), (7, 2)}
    found = {
        (a, n)
        for a in range(2, 13)
        for n in range(2, 21)
        if not numtheory.zsigmondy_has_primitive(a, 1, n)
    }
    results.append(CheckResult(
        "primitive-divisor exceptions, a<=12, n<=20, b=1",
        found == exceptions,
        f"exception set {sorted(found)}"))

    bad_n = [n for n in range(1, 31) if not numtheory.stirling_sandwich_holds(n)]
    results.append(CheckResult(
        "factorial sandwich n<=30", not bad_n, f"failures {bad_n}"
        if bad_n else "lower < n! < upper throughout"))

    rng = random.Random(1732)
    bad_q = []
    for _ in range(200):
        k = rng.randint(1, 4)
        weights = [rng.randint(1, 6) for _ in range(k)]
        budget = rng.randint(0, 40)
        if not numtheory.solution_count_sandwich_holds(weights, budget):
            bad_q.append((weights, budget))
    results.append(CheckResult(
        "solution-count sandwich, 200 random instances",
        not bad_q, f"failures {bad_q[:3]}" if bad_q else "all inside"))

    bad_n = [n for n in range(1, 61) if not numtheory.triangular_bound_holds(n)]
    results.append(CheckResult(
        "triangular solution count ceiling n<=60",
        not bad_n, f"failures {bad_n}" if bad_n else "strictly below ceiling"))
    return results


_SUITE_FUNCS = {
    "collisions": suite_collisions,
    "preimage": suite_preimage,
    "sierpinski": suite_sierpinski,
    "erdos": suite_erdos,
    "density": suite_density,
    "lemmas": suite_lemmas,
}


def run_suite(name: str, budgets: Budgets = Budgets()) -> list[CheckResult]:
    """Run one named suite, or all of them for name = "all"."""
    if name == "all":
        out = []
        for suite in SUITES:
            out.extend(_SUITE_FUNCS[suite](budgets))
        return out
    if name not in _SUITE_FUNCS:
        raise ValueError(
            f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    return _SUITE_FUNCS[name](budgets)
