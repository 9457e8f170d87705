"""Seeded inputs for the three workloads.

Nothing here imports fqphi, so the inputs never depend on the code under
test: the same seed gives byte-identical inputs on every commit, and
``digest`` proves it.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("verify-full", "count-sweep", "poly-query")

# The verify suites in run order, and the check names they return at the
# default grids.  A commit that renames, drops or adds a check fails here.
VERIFY_SUITES = ("collisions", "preimage", "sierpinski", "erdos", "density",
                 "lemmas")
VERIFY_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2))
VERIFY_CHECKS = (
    "collision criterion q=2 deg<=7",
    "collision criterion q=3 deg<=5",
    "collision criterion q=4 deg<=4",
    "collision criterion q=5 deg<=3",
    "count formula vs oracle q=2 n<=200",
    "count formula vs oracle q=3 n<=500",
    "count formula vs oracle q=5 n<=1000",
    "preimages of 1 over F_2",
    "exact-count construction q=2 l=3..12",
    "q-power construction q=3 l=1,2",
    "binomial construction q=3,5 l=0..2",
    "count gap scan q=4 n<=10000",
    "count gap scan q=5 n<=10000",
    "q=2 floor scan n<=1000",
    "value-set intersection q=5 y<=10000",
    "value-set intersection q=3 y<=1000",
    "value-set intersection q=2 y<=1000",
    "V(10) over F_2",
    "value count ceiling q=2 y<=100000",
    "value count ceiling q=3 y<=100000",
    "value count ceiling q=4 y<=100000",
    "value count ceiling q=5 y<=100000",
    "value set dual enumeration q=2 y<=1000",
    "value set dual enumeration q=3 y<=1000",
    "irreducible counts over F_2, d=1..6",
    "p | pi_q(d) or 4 | pi_q(d), q in {3,4,5,7,9}, d<=24",
    "primitive-divisor exceptions, a<=12, n<=20, b=1",
    "factorial sandwich n<=30",
    "solution-count sandwich, 200 random instances",
    "triangular solution count ceiling n<=60",
)

# The suites before erdos and the rows they return (4 + 4 + 6).  They run
# for about 2 s together, so each verify-full round also runs them alone in
# a fresh interpreter (a prefix cycle): the same cold work, in the same
# state, sampled twice as often.
VERIFY_PREFIX_SUITES = 3
VERIFY_PREFIX_CHECKS = 14

# count-sweep: (p, s, largest signature degree, structured values).  Item
# cost grows steeply with degree and varies with the signature, so a few
# heavy values would decide a pass's time and make it depend on the seed.
# Caps of 70-80 keep the heaviest item near 50 ms; q = 4 gets the lowest
# cap because one degree-150 signature there took 22 s.
COUNT_FIELDS = (
    (2, 1, 80, 300),
    (3, 1, 80, 300),
    (2, 2, 70, 300),
    (5, 1, 75, 300),
    (7, 1, 75, 300),
    (3, 2, 75, 300),
)
COUNT_N_MAX = 1000          # every n in 1..N is an item, per field
COUNT_Y = 10**12            # density sweep ceiling and check range
ERDOS_QS = (2, 3)           # fields with a nonempty phi/sigma intersection

# poly-query: (p, s, queries, lowest degree, highest degree).  Degrees are
# spread by a fixed quartic schedule, so every seed has the same number of
# queries at each degree and only the coefficients vary.  The top degrees
# keep one query (signature + phi + sigma + factor) near 0.5 s or below;
# F_729 stays low because factoring there runs on per-digit arithmetic.
QUERY_FIELDS = (
    (2, 1, 160, 8, 48),
    (2, 2, 300, 8, 11),
    (5, 1, 300, 8, 11),
    (3, 2, 110, 8, 9),
    (2, 8, 80, 6, 6),
    (3, 6, 10, 3, 3),
    (10007, 1, 40, 6, 6),
)


def _mobius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def irreducible_count(q: int, d: int) -> int:
    """pi_q(d) by the Mobius formula, independent of fqphi."""
    total = sum(_mobius(e) * q ** (d // e)
                for e in range(1, d + 1) if d % e == 0)
    return total // d


def realizable_value(rng: random.Random, q: int, degree: int) -> int:
    """phi of a random signature of a monic polynomial of about this degree.

    The distinct irreducible factors weigh a random share of 1/2 to all of
    ``degree``, with m_d <= pi_q(d) for every d in the support.  The q-power
    exponent j then adds random support degrees while one still fits, so j
    is a sum of support degrees: a preimage of degree <= degree exists and
    the preimage count must be at least 1.  The total degree is ``degree``
    unless no support degree fits the rest, so an item's size, and with it
    most of its cost, is much the same on every seed.
    """
    target = rng.randint((degree + 1) // 2, degree)
    counts: dict[int, int] = {}
    weight = 0
    for _ in range(4 * target):
        if weight >= target:
            break
        d = rng.randint(1, target - weight)
        if counts.get(d, 0) < irreducible_count(q, d):
            counts[d] = counts.get(d, 0) + 1
            weight += d
    j = 0
    fits = [d for d in sorted(counts) if weight + d <= degree]
    while fits:
        j += rng.choice(fits)
        fits = [d for d in fits if weight + j + d <= degree]
    value = q**j
    for d, m in counts.items():
        value *= (q**d - 1) ** m
    return value


def _count_sweep(rng: random.Random) -> dict:
    fields = []
    for p, s, max_deg, k in COUNT_FIELDS:
        q = p**s
        # Degrees spread evenly over 1..max_deg, the same for every seed:
        # the cost of an item grows with its size, so only the signature
        # varies with the seed.
        structured = [
            realizable_value(rng, q, 1 + (max_deg - 1) * i // (k - 1))
            for i in range(k)]
        # Random integers of the same bit length: almost all are non-values.
        random_ns = [rng.randrange(1 << (v.bit_length() - 1),
                                   1 << v.bit_length())
                     for v in structured]
        fields.append({"p": p, "s": s, "structured": structured,
                       "random": random_ns})
    return {"n_max": COUNT_N_MAX, "y": COUNT_Y, "erdos_qs": list(ERDOS_QS),
            "fields": fields}


def _poly_query(rng: random.Random) -> dict:
    fields = []
    for p, s, k, lo, hi in QUERY_FIELDS:
        q = p**s
        polys = []
        for i in range(k):
            deg = lo + round((hi - lo) * (i / (k - 1)) ** 4)
            polys.append([rng.randrange(q) for _ in range(deg)] + [1])
        rng.shuffle(polys)
        fields.append({"p": p, "s": s, "polys": polys})
    return {"fields": fields}


def generate(workload: str, seed: int) -> dict:
    """The workload's inputs for this seed (JSON-serialisable).

    ``specs`` lists the (p, s) of every FieldSpec the workload constructs
    during set-up.
    """
    rng = random.Random(seed)
    if workload == "verify-full":
        return {"suites": list(VERIFY_SUITES), "checks": list(VERIFY_CHECKS),
                "specs": [list(f) for f in VERIFY_FIELDS]}
    if workload == "count-sweep":
        data = _count_sweep(rng)
    elif workload == "poly-query":
        data = _poly_query(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    data["specs"] = [[f["p"], f["s"]] for f in data["fields"]]
    return data


def verify_prefix(data: dict) -> dict:
    """verify-full's inputs cut to the suites before erdos."""
    return dict(data, suites=data["suites"][:VERIFY_PREFIX_SUITES],
                checks=data["checks"][:VERIFY_PREFIX_CHECKS])


def digest(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# cli_cold_s: fixed `fqphi ...` invocations per workload, each run in a
# fresh interpreter, with the JSON fields each must print.  The counts were
# confirmed against the brute-force preimage oracle and the factorizations
# by expansion and the Rabin test.
_MEMBERS_3 = [4, 16, 52, 64, 160, 208, 484, 640, 676, 1456, 1936, 2080, 4372,
              5824, 6292, 6400, 13120, 17488, 18928, 19360, 39364, 52480,
              56836, 58240, 58564]
CLI_COMMANDS = {
    "verify-full": (
        ("verify lemmas --p 2", {"passed": 6, "failed": 0}),
        ("verify sierpinski --p 2", {"passed": 6, "failed": 0}),
        ("verify preimage --p 2 --budget-n 100", {"passed": 4, "failed": 0}),
        ("verify density --p 2 --budget-y 100", {"passed": 7, "failed": 0}),
        ("verify erdos --p 2 --budget-y 100", {"passed": 3, "failed": 0}),
        ("verify collisions --p 2 --budget-degree 3",
         {"passed": 4, "failed": 0}),
        ("erdos witness --p 2 --n 21",
         {"member": True, "f": "x^5+x^4+1", "g": "x^3+x^2"}),
        ("preimage list --p 3 --n 48", {"count": "9"}),
    ),
    "count-sweep": (
        ("preimage count --p 2 --n 4096", {"count": "15"}),
        ("preimage profile --p 5 --n 9600",
         {"count": "400", "class": "at-least-binom"}),
        ("preimage count --p 2 --s 2 --n 2025", {"count": "90"}),
        ("preimage profile --p 3 --n 2496",
         {"count": "144", "class": "at-least-binom"}),
        ("erdos member --p 2 --n 1905",
         {"member": True, "params": {"d1": 4, "d2": 7}}),
        ("erdos scan --p 3 --y 100000",
         {"members": [str(v) for v in _MEMBERS_3]}),
        ("sierpinski --p 2 --kind exact --l 12", {"n": "512", "ok": True}),
        ("pi --p 7 --d 12", {"pi": "1153430600"}),
    ),
    "poly-query": (
        ("pi --p 2 --d 40", {"pi": "27487764474"}),
        ("preimage count --p 5 --n 9600", {"count": "400"}),
        ("phi --p 2 --s 8 --poly x^9+17*x^4+200*x+3",
         {"value": str(255**3 * (256**3 - 1) ** 2),
          "factored": {"j": 0, "m": {"1": 3, "3": 2}}}),
        ("factor --p 3 --s 6 --poly x^5+400*x^3+17*x+5",
         {"factors": [{"poly": "x+144", "exp": 1},
                      {"poly": "x^4+207*x^3+68*x^2+123*x+453", "exp": 1}]}),
        ("sigma --p 5 --poly x^20+3*x^7+x+2",
         {"value": str(126 * (5**17 + 1))}),
        ("signature --p 2 --poly x^32+x^9+x^5+x^2+1",
         {"degree": 32, "m": {"3": 1, "14": 1, "15": 1}}),
        ("same-phi --p 3 --s 2 --f x^6+5*x+1 --g x^6+2*x^3+7",
         {"same_phi": False}),
        ("factor --p 10007 --poly x^10+9000*x^3+123*x+1",
         {"factors": [
             {"poly": "x^2+1967*x+5657", "exp": 1},
             {"poly": "x^2+150*x+9357", "exp": 1},
             {"poly": "x^6+7890*x^5+8713*x^4+3509*x^3+49*x^2+2423*x+1762",
              "exp": 1}]}),
    ),
}
