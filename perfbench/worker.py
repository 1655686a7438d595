"""One workload run in a fresh interpreter; started by run.py.

Set-up (import pistair, build the shared tables) is timed first.  Then whole
rounds of jobs run until ``--seconds`` have passed (one round when traced),
each job timed on its own.  Peak memory is read next, and only then are the
oracles imported and every output checked.  The last line printed is a JSON
object for run.py.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pickle
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

import workloads  # this directory is sys.path[0]; it imports no pistair


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed jobs enter as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def pin_to_one_cpu():
    """Run on the last CPU this process may use.

    On the 2-CPU guest the benchmark was built on, the first CPU also ran the
    shell, the harness and interrupts while the last one sat idle.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def fingerprint(digest) -> bytes:
    return hashlib.sha256(pickle.dumps(digest)).digest()


def import_pistair():
    if not os.path.isdir(os.path.join(SRC, "pistair")):
        raise SystemExit(f"no pistair sources under {SRC}")
    sys.path.insert(0, SRC)
    import pistair

    if not os.path.abspath(pistair.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported pistair from {pistair.__file__}, not from {SRC}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    pin_to_one_cpu()

    start = perf_counter()
    import_pistair()
    state = workloads.setup(args.workload, args.seed, args.tiny)
    setup_s = perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    make_round = workloads.planner(args.workload, args.seed, args.tiny)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()

    # (key, order, digest or raw output, error or None, seconds).  The job
    # itself is dropped, so a round's table and its caches die with the
    # round, and a job that an earlier round ran keeps only a hash of its
    # digest: memory does not grow with the number of rounds.
    results = []
    seen = set()
    rounds = 0
    begin = perf_counter()
    while True:
        jobs = make_round(state, rounds)
        for job in jobs:
            call = tracer.wrap(job.call, "job") if tracer else job.call
            t0 = perf_counter()
            try:
                out = call()
                error = "failed" if job.failed(out) else None
            except Exception as exc:  # a job that raises counts as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            if error is None:
                out = job.digest(out)
                if job.key in seen:
                    out = fingerprint(out)
                seen.add(job.key)
            results.append((job.key, job.order, out, error, elapsed))
        rounds += 1
        jobs = job = call = None  # let the round's table and caches go
        if tracer or perf_counter() - begin >= args.seconds:
            break
    wall = perf_counter() - begin
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_start = perf_counter()
    import oracle

    ref = oracle.Oracle()
    problems = []
    checked = {}  # job key -> fingerprint of the digest the oracle checked
    for key, _, digest, error, _ in sorted(results, key=lambda r: r[1]):
        if error is not None:
            if not oracle.is_wall_failure(key, digest):
                problems.append(f"{key}: {error}")
        elif isinstance(digest, bytes):  # a repeat: must equal the checked output
            if digest != checked.get(key):
                problems.append(f"{key}: output differs from an earlier round")
        else:
            try:
                oracle.check(ref, key, digest)
            except oracle.CheckError as exc:
                problems.append(f"{key}: {exc}")
            checked[key] = fingerprint(digest)
    check_s = perf_counter() - check_start

    failed = sum(1 for r in results if r[3] is not None)
    latencies = [r[4] if r[3] is None else math.inf for r in results]
    report = {
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "problems": problems[:20],
        "rounds": rounds,
        "wall_s": wall,
        "check_s": check_s,
        "setup_s": setup_s,
        "jobs_per_s": (len(results) - failed) / wall,
        "latency_p50_ms": 1000 * percentile(latencies, 0.5),
        "latency_p90_ms": 1000 * percentile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        from spans import layer_metrics

        layers = layer_metrics(tracer.spans)
        layers["trace.jobs_per_s"] = report["jobs_per_s"]
        layers["cli.output_bytes"] = sum(
            len(out[1].encode()) for key, _, out, _, _ in results if key[0] == "cli" and out
        )
        report["layers"] = layers
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
