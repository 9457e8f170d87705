"""One measured cycle in a fresh interpreter, so no cache state (the
lru_cache on phi tables, the trial-division primes) carries over between
cycles or workloads.

    python3 perfbench/worker.py MODE SPAWN_STAMP < payload.json

MODE is "measure" (set-up, cold pass, warm pass, checks, with a burst of
the reference kernel before, between and after the passes), "trace" (the same
with the layers timed from before set-up) or "count" (the same with only
the field element operations counted).  When the payload's "check" is
false, the only check is that the warm pass equals the cold pass; the
result's outputs_digest lets the parent compare the outputs with those of
a cycle that was fully checked.  SPAWN_STAMP is the parent's
time.perf_counter() just before it started this process; both read the same
system-wide monotonic clock, so set-up time includes interpreter start-up.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


def main() -> None:
    mode, spawned = sys.argv[1], float(sys.argv[2])
    payload = json.load(sys.stdin)
    workload, data = payload["workload"], payload["data"]

    sys.path.insert(0, SRC)
    import fqphi
    if workload == "verify-full":
        import fqphi.verify  # noqa: F401  (part of this workload's set-up)
    if not os.path.abspath(fqphi.__file__).startswith(SRC + os.sep):
        sys.exit(f"fqphi was imported from {fqphi.__file__}, not {SRC}")
    tracer = None
    if mode in ("trace", "count"):
        from tracer import Tracer
        tracer = Tracer()
        if mode == "trace":
            tracer.install(fqphi)
        else:
            tracer.install_field_op_counters(fqphi)
    specs = [fqphi.FieldSpec(p, s) for p, s in data["specs"]]
    setup_s = perf_counter() - spawned

    import checks
    import jobs
    from timing import PassTimer, reference_floor
    job = jobs.JOBS[workload](fqphi, specs, data)
    span = tracer.span if tracer else jobs.no_span
    passes, reference_ns = {}, []
    for name in ("cold", "warm"):
        reference_ns.append(reference_floor())
        with span(name), PassTimer() as timer:
            start = perf_counter()
            outputs = job.run(span, timer)
            passes[name] = {"wall_s": perf_counter() - start,
                            "items": timer.items, "other": timer.other}
        passes[name]["outputs"] = outputs
    reference_ns.append(reference_floor())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    tally = checks.Tally()
    cold, warm = passes["cold"].pop("outputs"), passes["warm"].pop("outputs")
    if payload["check"]:
        job.check(tally, cold, warm)
    else:
        checks.check_same(tally, cold, warm, workload)
    result = {
        "setup_s": setup_s, "cold": passes["cold"], "warm": passes["warm"],
        "peak_rss_mb": peak_rss_mb, "reference_ns": reference_ns,
        "outputs_digest": checks.digest(cold),
        "attempted": tally.attempted, "failed": tally.failed,
        "notes": tally.notes,
    }
    if mode == "count":
        result["field_op_calls"] = tracer.field_op_calls()
    if mode == "trace":
        from inputs import VERIFY_SUITES
        result["layers"] = tracer.metrics(VERIFY_SUITES)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{workload}-seed{payload['seed']}.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": payload["seed"],
                       "stats": tracer.stats, "spans": tracer.spans}, fh)
        result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
