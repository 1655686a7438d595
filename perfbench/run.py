"""pistair benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Each workload runs in a fresh interpreter (``worker.py``), started from this
process, with numeric libraries pinned to one thread.  Set-up time is the
median over several fresh interpreters.  The last line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one traced
round with ``--trace 1``.  ``--smoke`` runs every workload once at tiny sizes,
traced and untraced, and exits non-zero if any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS  # imports no pistair

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Fresh interpreters timed for set-up, after one discarded warm-up that
#: fills the bytecode and file caches: some before the timed worker and some
#: after it, so the samples span the whole run rather than one stretch of
#: the machine's drifting speed.
SETUP_PROBES_BEFORE = 5
SETUP_PROBES_AFTER = 4
#: Every run, with its set-up probes and checks, ends within this.
DEADLINE_S = 170

END_TO_END = {
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class RunError(Exception):
    pass


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON report.

    ``-E`` makes the interpreter ignore PYTHON* variables, so neither
    PYTHONINTMAXSTRDIGITS nor PYTHONPATH from the caller changes what runs.
    """
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time")
    try:
        proc = subprocess.run(
            [sys.executable, "-E", WORKER, *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []

    def probe(count: int):
        for _ in range(count):
            setups.append(worker(base + ["--setup-only"], deadline)["setup_s"])

    if not trace:
        worker(base + ["--setup-only"], deadline)  # warm-up, discarded
        probe(SETUP_PROBES_BEFORE)
    report = worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(report["setup_s"])
    if not trace:
        probe(SETUP_PROBES_AFTER)
    for problem in report["problems"]:
        print(f"wrong output: {problem}", file=sys.stderr)
    if trace:
        from spans import LAYER_UNITS

        metrics = {k: {"value": report["layers"][k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        report["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": report[k], "unit": u} for k, u in END_TO_END.items()}
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as f:
        extra = ("rounds", "wall_s", "check_s")
        json.dump({**result, **{k: report[k] for k in extra}, "setup_samples": setups}, f, indent=1)
    return result


def smoke() -> int:
    """Every workload once at tiny sizes, traced and untraced."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            start = time.monotonic()
            report = worker(
                ["--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--tiny"],
                time.monotonic() + DEADLINE_S,
            )
            good = report["correct"] and report["attempted"] > 0
            ok &= good
            print(
                f"{workload:6s} trace={trace} {'ok' if good else 'WRONG'} "
                f"attempted={report['attempted']} failed={report['failed']} "
                f"({time.monotonic() - start:.1f} s)"
            )
            for problem in report["problems"]:
                print(f"  {problem}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    args = ap.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
