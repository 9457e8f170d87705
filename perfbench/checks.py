"""Output checkers.  Each one records into a Tally and never raises, so a
wrong answer costs one failed check instead of the whole run.

A checker sees only the workload's recorded outputs and oracles computed
outside the timed region; selftest.py feeds each one a wrong answer.
"""

from __future__ import annotations

import hashlib
import json

ERROR = "error"  # first field of an output whose call raised


class Tally:
    """Checks attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)


def is_error(out) -> bool:
    return isinstance(out, tuple) and len(out) == 2 and out[0] == ERROR


def digest(outputs) -> str:
    """Fingerprint of a pass's outputs (every output type has a stable
    repr), so cycles can be compared without sending the outputs."""
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def check_same(tally: Tally, cold, warm, what: str) -> None:
    """The warm pass must reproduce the cold pass exactly."""
    tally.check(cold == warm, f"{what}: warm pass differs from cold pass")


def check_cycle(tally: Tally, index: int, outputs_digest: str,
                checked_digest: str) -> None:
    """A later cycle's outputs must equal the fully checked first cycle's."""
    tally.check(outputs_digest == checked_digest,
                f"cycle {index}: outputs differ from cycle 1's, which were "
                f"checked")


def check_verify(tally: Tally, rows, expected: list[str]) -> None:
    """rows: (name, ok, detail) per check, or an error tuple per suite."""
    names = [row[0] for row in rows if not is_error(row)]
    tally.check(names == expected, "verify: check names differ from the seed's")
    for row in rows:
        if is_error(row):
            tally.check(False, f"verify: suite raised {row[1]}")
        else:
            tally.check(bool(row[1]), f"verify: {row[0]} failed: {row[2]}")


def check_counts(tally: Tally, q: int, items, values: set, members,
                 y: int) -> None:
    """count-sweep outputs for one field.

    items: (kind, n, out) with kind "range", "structured" or "random" and
    out = (count, profile count, intersection member or None).  values is
    phi_values_up_to(y); members is intersection_up_to(y) as a set, or None
    where the field has no intersection check.
    """
    for kind, n, out in items:
        where = f"q={q} n={n}"
        if is_error(out):
            tally.check(False, f"{where}: raised {out[1]}")
            continue
        count, profile_count, member = out
        tally.check(count == profile_count,
                    f"{where}: count {count} vs profile {profile_count}")
        if kind == "structured":
            tally.check(count >= 1, f"{where}: realizable value has count 0")
        if q == 2 and n & (n - 1) == 0:
            # The exact-count construction: 2**k has exactly k + 3 preimages.
            tally.check(count == n.bit_length() + 2,
                        f"{where}: count {count}, the construction gives "
                        f"{n.bit_length() + 2}")
        if n <= y:
            tally.check((count > 0) == (n in values),
                        f"{where}: count {count} vs value-set membership")
            if members is not None:
                tally.check(member == (n in members),
                            f"{where}: member {member} vs intersection_up_to")


def check_density(tally: Tally, q: int, out, range_counts: list) -> None:
    """density_sweep output: (y, V) per report, or an error tuple.

    range_counts[n - 1] is preimage_count(n) for n = 1..N (None where the
    call raised).  At every report point y <= N, V(y) must equal the number
    of n <= y with a nonzero count: the sweep enumerates the value set, the
    counts come from the representation search, so the two are independent.
    """
    if is_error(out):
        tally.check(False, f"density q={q}: raised {out[1]}")
        return
    points = [(y, v) for y, v in out if y <= len(range_counts)]
    tally.check(bool(points), f"density q={q}: no report at y <= "
                              f"{len(range_counts)}")
    for y, v in points:
        hits = sum(1 for c in range_counts[:y] if c)
        tally.check(v == hits, f"density q={q}: V({y}) = {v}, but {hits} "
                               f"n <= {y} have a preimage")


def check_query(tally: Tally, f, out, is_irreducible) -> None:
    """One poly-query: out = (signature, phi, sigma, factorization)."""
    where = f"q={f.field.q} f={f}"
    if is_error(out):
        tally.check(False, f"{where}: raised {out[1]}")
        return
    sig, ph, sg, fac = out
    tally.check(fac.expand() == f, f"{where}: factorization does not expand")
    tally.check(
        all(part.is_monic() and is_irreducible(part) for part, _ in fac.parts),
        f"{where}: a factor is not a monic irreducible")
    q = f.field.q
    counts: dict[int, int] = {}
    sigma = 1
    for part, exp in fac.parts:
        d = part.degree
        counts[d] = counts.get(d, 0) + 1
        sigma *= (q ** (d * (exp + 1)) - 1) // (q**d - 1)
    phi = q ** (f.degree - sum(d * m for d, m in counts.items()))
    for d, m in counts.items():
        phi *= (q**d - 1) ** m
    tally.check(
        sig.degree == f.degree and sig.counts == counts
        and ph.value == phi and ph.counts == counts and sg == sigma,
        f"{where}: signature/phi/sigma disagree with the factorization")


def check_cli(tally: Tally, command: str, returncode: int, stdout: str,
              expected: dict) -> None:
    """One `fqphi` invocation: exit 0 and the expected JSON fields."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        payload = None
    ok = (returncode == 0 and isinstance(payload, dict)
          and all(payload.get(k) == v for k, v in expected.items()))
    tally.check(ok, f"fqphi {command}: exit {returncode}, {stdout[:120]!r}")
