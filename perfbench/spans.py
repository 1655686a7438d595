"""Spans around pistair's public functions, and the per-layer metrics.

``Tracer.install`` wraps every public function of the seven modules and
rebinds the wrapper at every module binding: ``pistair.euler`` binds its own
``zeta2_enclosure``, ``pistair.cli`` its own ``sieve`` and so on.  Each call
appends one span (name, start, end, parent, argument) to a list in memory.
A span's self time is its duration minus the durations of its child spans;
calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("primes", "arith", "euler", "approx", "staircase", "verify", "cli")

#: Layer metrics with their units, the same on every workload.  A layer that
#: a workload never calls reads 0.
LAYER_UNITS = {
    "arith.zeta2_enclosure.self_s": "s",
    "arith.zeta2_enclosure.calls": "count",
    "arith.zeta2_enclosure.digits": "digits",
    "euler.euler_product.self_s": "s",
    "euler.euler_product.calls": "count",
    "euler.qn_bound_report.self_s": "s",
    "euler.approximation_gap.self_s": "s",
    "euler.approximation_gap.enclosure_rounds": "1/call",
    "staircase.theorem1_gate.self_s": "s",
    "staircase.theorem3_sequence.self_s": "s",
    "staircase.staircase_certify.self_s": "s",
    "primes.sieve.self_s": "s",
    "primes.sieve.calls": "count",
    "primes.lcm.self_s": "s",
    "approx.sondow_inequality_check.self_s": "s",
    "approx.continued_fraction.self_s": "s",
    "approx.zeta2_exponent_report.self_s": "s",
    **{f"{m}.self_s": "s" for m in MODULES},
    "cli.output_bytes": "bytes",
    "trace.job_s": "s",
    "trace.unattributed_s": "s",
    "trace.jobs_per_s": "1/s",
}

LCM_FUNCTIONS = ("primes.lcm_to", "primes.log_lcm_to", "primes.log_lcm_table")


class Tracer:
    """Records spans; one instance per traced run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        keep_arg = name == "arith.zeta2_enclosure"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                arg = (args[0] if args else kwargs.get("digits")) if keep_arg else None
                spans[i] = (name, start, end, parent, arg)

        return traced

    def install(self) -> int:
        """Wrap the public functions; returns how many were wrapped."""
        modules = {m: importlib.import_module(f"pistair.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not name.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[fn] = self.wrap(fn, f"{short}.{name}")
        for namespace in [importlib.import_module("pistair"), *modules.values()]:
            for name, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(namespace, name, wrappers[value])
        return len(wrappers)

    def write(self, path: str):
        with open(path, "w") as f:
            json.dump({"columns": ["name", "start", "end", "parent", "arg"], "spans": self.spans}, f)


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced round.

    Spans named "job" are the benchmark's own, one per job; their self time
    is what no pistair layer accounts for (``trace.unattributed_s``).
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    job_s = unattributed = 0.0
    digits = gap_rounds = 0
    for i, (name, start, end, parent, arg) in enumerate(spans):
        own = end - start - child[i]
        if name == "job":
            job_s += end - start
            unattributed += own
            continue
        self_s[name] += own
        calls[name] += 1
        if name == "arith.zeta2_enclosure":
            digits += arg
            if parent >= 0 and spans[parent][0] == "euler.approximation_gap":
                gap_rounds += 1
    gap_calls = calls["euler.approximation_gap"]
    out = {
        "arith.zeta2_enclosure.calls": calls["arith.zeta2_enclosure"],
        "arith.zeta2_enclosure.digits": digits,
        "euler.euler_product.calls": calls["euler.euler_product"],
        "euler.approximation_gap.enclosure_rounds": gap_rounds / gap_calls if gap_calls else 0.0,
        "primes.sieve.calls": calls["primes.sieve"],
        "primes.lcm.self_s": sum(self_s[f] for f in LCM_FUNCTIONS),
        "trace.job_s": job_s,
        "trace.unattributed_s": unattributed,
    }
    for metric in LAYER_UNITS:
        if metric.endswith(".self_s") and metric not in out:
            layer = metric[: -len(".self_s")]
            if layer in MODULES:
                out[metric] = sum(v for f, v in self_s.items() if f.startswith(layer + "."))
            else:
                out[metric] = self_s[layer]
    return out
