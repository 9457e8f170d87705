"""The job list of each workload and the checks on its outputs.

A job object is built after set-up.  ``run(span, timer)`` executes the job
list once and returns its outputs; it times each item and each other job
with the pass's ``timing.PassTimer``, so the timings cover the whole pass
and have the same length on every pass.  ``check`` runs outside the
timed region.  Library functions are looked up on their modules at call
time, so a traced run calls the tracer's wrappers.
"""

from __future__ import annotations

from contextlib import nullcontext

import checks

_NO_SPAN = nullcontext()


def no_span(name: str):
    return _NO_SPAN


def _error(exc: Exception) -> tuple[str, str]:
    return (checks.ERROR, f"{type(exc).__name__}: {exc}")


class VerifyFull:
    """verify.run_suite for each suite in order, which is what
    run_suite("all") does; one item is one suite."""

    def __init__(self, fq, specs, data) -> None:
        self.verify = fq.verify
        self.data = data

    def run(self, span, timer):
        rows = []
        for suite in self.data["suites"]:
            with timer.item(), span(f"verify.{suite}"):
                try:
                    out = self.verify.run_suite(suite)
                except Exception as exc:  # counted as a failed check
                    out = None
                    rows.append(_error(exc))
            rows.extend((r.name, r.ok, r.detail) for r in out or ())
        return rows

    def check(self, tally, cold, warm) -> None:
        checks.check_verify(tally, cold, self.data["checks"])
        checks.check_verify(tally, warm, self.data["checks"])


class CountSweep:
    """Formula-only counting: every n is one item through preimage_count,
    count_profile and, for q = 2, 3, intersection_member; then a density
    sweep and intersection_up_to per field."""

    def __init__(self, fq, specs, data) -> None:
        self.fq = fq
        self.y = data["y"]
        self.erdos_qs = set(data["erdos_qs"])
        self.fields = []
        for spec, field in zip(specs, data["fields"]):
            items = [("range", n) for n in range(1, data["n_max"] + 1)]
            items += [("structured", n) for n in field["structured"]]
            items += [("random", n) for n in field["random"]]
            self.fields.append((spec, items))

    def run(self, span, timer):
        fq, y = self.fq, self.y
        count = fq.preimage.preimage_count
        profile = fq.preimage.count_profile
        member = fq.erdos.intersection_member
        outs = []
        for spec, items in self.fields:
            erdos = spec.q in self.erdos_qs
            field_out = []
            for _kind, n in items:
                with timer.item():
                    try:
                        out = (count(n, spec), profile(n, spec).count,
                               member(n, spec).member if erdos else None)
                    except Exception as exc:  # counted as a failed check
                        out = _error(exc)
                field_out.append(out)
            with timer.job():
                try:
                    density = [(r.y, r.count)
                               for r in fq.density.density_sweep(spec, y)]
                except Exception as exc:  # counted as a failed check
                    density = _error(exc)
            members = None
            if erdos:
                with timer.job():
                    try:
                        members = fq.erdos.intersection_up_to(y, spec)
                    except Exception as exc:  # counted as a failed check
                        members = _error(exc)
            outs.append((field_out, density, members))
        return outs

    def check(self, tally, cold, warm) -> None:
        checks.check_same(tally, cold, warm, "count-sweep")
        for (spec, items), (field_out, density, members) in zip(
                self.fields, cold):
            q = spec.q
            try:
                values = self.fq.density.phi_values_up_to(self.y, spec)
            except Exception as exc:  # counted as a failed check
                tally.check(False, f"oracle q={q}: {_error(exc)[1]}")
                continue
            if checks.is_error(members):
                tally.check(False, f"intersection_up_to q={q}: {members[1]}")
                members = None
            checks.check_counts(
                tally, q,
                [(kind, n, out) for (kind, n), out in zip(items, field_out)],
                set(values), None if members is None else set(members),
                self.y)
            range_counts = [None if checks.is_error(out) else out[0]
                            for (kind, _n), out in zip(items, field_out)
                            if kind == "range"]
            checks.check_density(tally, q, density, range_counts)


class PolyQuery:
    """One item is one polynomial through signature, phi, sigma and factor."""

    def __init__(self, fq, specs, data) -> None:
        self.fq = fq
        self.queries = [fq.Poly(spec, coeffs)
                        for spec, field in zip(specs, data["fields"])
                        for coeffs in field["polys"]]

    def run(self, span, timer):
        tot, gf = self.fq.totient, self.fq.gfpoly
        outs = []
        for f in self.queries:
            with timer.item(), span("query"):
                try:
                    out = (tot.signature(f), tot.phi(f), tot.sigma(f),
                           gf.factor(f))
                except Exception as exc:  # counted as a failed check
                    out = _error(exc)
            outs.append(out)
        return outs

    def check(self, tally, cold, warm) -> None:
        checks.check_same(tally, cold, warm, "poly-query")
        for f, out in zip(self.queries, cold):
            checks.check_query(tally, f, out, self.fq.gfpoly.is_irreducible)


JOBS = {"verify-full": VerifyFull, "count-sweep": CountSweep,
        "poly-query": PolyQuery}
