"""fqphi benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fqphi is imported from its ``src``.  Each
measured cycle is a fresh interpreter (see worker.py), so caches never
carry over.  Times are per-segment floors over the cycles, scaled to a
reference host speed (timing.py).  With --trace 0 the last stdout line
holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of one traced cycle.
The line before it records the seed, the input digest, the commit and the
machine state, so the two sides of a comparison can be shown to match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import checks
import inputs
from timing import REFERENCE_NS, per_job_best

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

IMPORT_REPS = 3     # fresh interpreters timed for cli.import_s
# Nominal seconds of one round (a measured cycle and the CLI list) on the
# host the benchmark was tuned on.  A run makes round(seconds / ROUND_S)
# rounds, a count set by --seconds alone: a job's floor over the cycles
# falls as cycles are added, so a count that followed the host's speed
# would move the metrics with it.
ROUND_S = {"verify-full": 20, "count-sweep": 6, "poly-query": 14}
DEADLINE_S = 170    # a run must end well inside 180 s


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.data = inputs.generate(workload, seed)
        self.started = time.perf_counter()
        self.tally = checks.Tally()
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")

    def _timeout(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 1:
            raise BenchError(f"run exceeded {DEADLINE_S} s")
        return left

    def _run(self, argv: list[str],
             stdin: str = "") -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, input=stdin, capture_output=True,
                                  text=True, env=self.env, cwd=ROOT,
                                  timeout=self._timeout())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[1:3]} timed out") from exc
        return time.perf_counter() - start, proc

    def worker(self, mode: str, check: bool = True,
               data: dict | None = None) -> dict:
        payload = json.dumps({"workload": self.workload, "seed": self.seed,
                              "check": check, "data": data or self.data})
        stamp = time.perf_counter()
        _, proc = self._run([sys.executable, WORKER, mode, repr(stamp)],
                            payload)
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if "attempted" in result:
            self.tally.attempted += result["attempted"]
            self.tally.failed += result["failed"]
            self.tally.notes += result["notes"][:5 - len(self.tally.notes)]
        return result

    def cli_pass(self) -> list[float]:
        """Wall time of each command of the workload's CLI list, checked."""
        times = []
        for command, expected in inputs.CLI_COMMANDS[self.workload]:
            elapsed, proc = self._run(
                [sys.executable, "-m", "fqphi.cli", *command.split()])
            times.append(elapsed)
            checks.check_cli(self.tally, command, proc.returncode,
                             proc.stdout, expected)
        return times

    def import_time(self) -> float:
        code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import fqphi.cli; "
                "print(time.perf_counter() - t)")
        _, proc = self._run([sys.executable, "-c", code, SRC])
        if proc.returncode != 0:
            raise BenchError(f"import fqphi.cli failed: {proc.stderr[-500:]}")
        return float(proc.stdout)

    def measure(self, seconds: int) -> tuple[dict, dict]:
        """Repeat (cycle, CLI list) for the workload's round count, which
        takes about `seconds`; on verify-full a round adds a prefix cycle
        (inputs.verify_prefix), whose cold items join the floors of the
        full cycles' first items.  The first cycle's outputs go through
        every checker; each later cycle's must equal them, and every prefix
        cycle is checked in full."""
        cycles, prefixes, cli = [], [], []
        for _ in range(max(1, round(seconds / ROUND_S[self.workload]))):
            cycles.append(self.worker("measure", check=not cycles))
            if self.workload == "verify-full":
                prefixes.append(self.worker(
                    "measure", data=inputs.verify_prefix(self.data)))
            cli.append(self.cli_pass())
        for i, cycle in enumerate(cycles[1:], 2):
            checks.check_cycle(self.tally, i, cycle["outputs_digest"],
                               cycles[0]["outputs_digest"])
        measured = cycles + prefixes
        setups = [c["setup_s"] for c in measured]
        cold = [c["cold"]["items"] + c["cold"]["other"] for c in measured]
        warm = [c["warm"]["items"] + c["warm"]["other"] for c in cycles]
        items = sorted(per_job_best(c["cold"]["items"] for c in measured))
        p99, beyond = percentile(items, 99)
        times = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (sum(per_job_best(cold)) / 1e9, "s"),
            "warm_wall_s": (sum(per_job_best(warm)) / 1e9, "s"),
            "item_p50_ms": (percentile(items, 50)[0] / 1e6, "ms"),
            "item_p99_ms": (p99 / 1e6, "ms"),
            "cli_cold_s": (sum(min(t) for t in zip(*cli)), "s"),
        }
        reference_ns = min(min(c["reference_ns"]) for c in measured)
        speed = REFERENCE_NS / reference_ns
        metrics = {name: (value * speed, unit)
                   for name, (value, unit) in times.items()}
        metrics.update({
            "peak_rss_mb": (statistics.median(
                c["peak_rss_mb"] for c in cycles), "MB"),
            "pass_frac": (1 - self.tally.failed / self.tally.attempted,
                          "ratio"),
        })
        info = {"cycles": len(cycles), "prefix_cycles": len(prefixes),
                "items": len(items),
                "items_beyond_p99": beyond,
                "reference_ns": [c["reference_ns"] for c in measured],
                "speed": speed,
                "unscaled": {name: v for name, (v, _) in times.items()},
                "setup_s": setups,
                "pass_wall_s": [[c["cold"]["wall_s"], c["warm"]["wall_s"]]
                                for c in cycles],
                "cli_pass_s": [sum(p) for p in cli]}
        return metrics, info

    def trace(self) -> tuple[dict, dict]:
        plain = self.worker("measure")
        traced = self.worker("trace")
        counted = self.worker("count")
        metrics = {name: tuple(v) for name, v in traced["layers"].items()}
        metrics["gfpoly.field_ops.calls"] = (counted["field_op_calls"],
                                             "count")
        imports = [self.import_time() for _ in range(IMPORT_REPS)]
        metrics["cli.import_s"] = (statistics.median(imports), "s")
        metrics["trace.overhead_ratio"] = (
            traced["cold"]["wall_s"] / plain["cold"]["wall_s"], "ratio")
        info = {"untraced_wall_s": plain["cold"]["wall_s"],
                "traced_wall_s": traced["cold"]["wall_s"],
                "trace_file": traced["trace_file"]}
        return metrics, info


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """Digest of src/, which identifies the code when there is no git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "fqphi", "__init__.py")):
        print(f"no fqphi sources under {SRC}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    load_start = os.getloadavg()
    try:
        if args.trace:
            metrics, detail = runner.trace()
        else:
            metrics, detail = runner.measure(args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    tally = runner.tally
    record = {
        "workload": args.workload, "seed": args.seed,
        "input_digest": inputs.digest(runner.data),
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit(), "src_digest": source_digest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "failures": tally.notes, **detail,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
