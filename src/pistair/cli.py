"""Command-line front end with machine-readable output.

Every subcommand prints one record per line (JSON by default, CSV or an
aligned table on request).  Data records never contain timestamps, so
identical invocations produce identical bytes; `--meta` adds a separate
metadata record.  Exit codes: 0 success, 1 verification/precision or
internal failure (any exception that is not a `PistairError`), 2 usage
error.  Errors carry a single-line JSON reason on stderr.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import sys

from . import __version__
from .arith import zeta2_enclosure
from .approx import (
    RVConstants,
    continued_fraction,
    lemma4_derivation,
    sondow_inequality_check,
    zeta2_exponent_report,
)
from .errors import PistairError, PrecisionExhaustedError
from .euler import approximation_gap, euler_product, qn_bound_report
from .primes import lcm_to, log_lcm_to, nth_prime_limit_estimate, sieve
from .records import decimal_str, rational_str, to_record
from .staircase import (
    euclid_baseline,
    staircase_certify,
    theorem1_gate,
    theorem2_sequence,
    theorem3_sequence,
    tower_normalize,
)
from .verify import SUITES, run_suite

FORMATS = ("json", "csv", "table")


class _Parser(argparse.ArgumentParser):
    """argparse with single-line machine-parsable usage errors."""

    def error(self, message):
        print(
            json.dumps({"error": "usage", "reason": message}, sort_keys=True),
            file=sys.stderr,
        )
        raise SystemExit(2)


def _flatten(record: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        elif isinstance(value, list):
            flat[name] = json.dumps(value, sort_keys=True)
        else:
            flat[name] = value
    return flat


def _emit(records: list[dict], fmt: str, meta: dict | None = None):
    if fmt == "json":
        if meta is not None:
            print(json.dumps({"meta": meta}, sort_keys=True))
        for record in records:
            print(json.dumps(record, sort_keys=True))
    elif fmt == "csv":
        if meta is not None:
            print("# " + json.dumps(meta, sort_keys=True))
        flats = [_flatten(r) for r in records]
        fields = sorted({k for f in flats for k in f})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for flat in flats:
            writer.writerow(flat)
        sys.stdout.write(buf.getvalue())
    else:
        if meta is not None:
            print("# " + json.dumps(meta, sort_keys=True))
        for record in records:
            flat = _flatten(record)
            width = max((len(k) for k in flat), default=0)
            for key in sorted(flat):
                print(f"{key:<{width}}  {flat[key]}")
            print("--")


def _meta(args) -> dict | None:
    if not getattr(args, "meta", False):
        return None
    return {
        "tool": "pistair",
        "version": __version__,
        "command": args.command,
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _table_for(args, minimum: int):
    limit = args.sieve_limit if getattr(args, "sieve_limit", None) else max(minimum, 3)
    return sieve(limit)


# --- subcommand handlers ---------------------------------------------------


def _cmd_euler(args):
    t = _table_for(args, args.N)
    approx = euler_product(t, args.N)
    return [{**to_record(approx), "q_digits": approx.q_digits}]


def _cmd_gap(args):
    t = _table_for(args, args.N)
    return [to_record(approximation_gap(t, args.N, args.digits))]


def _cmd_qbounds(args):
    t = _table_for(args, args.N)
    return [to_record(qn_bound_report(t, args.N))]


def _cmd_zeta2(args):
    enc = zeta2_enclosure(args.digits)
    return [{**to_record(enc), "digits": args.digits, "width": rational_str(enc.width)}]


def _cmd_cf(args):
    quotients = continued_fraction(zeta2_enclosure(args.digits), args.terms)
    return [
        {"index": k, "partial_quotient": decimal_str(a)} for k, a in enumerate(quotients)
    ]


def _cmd_exponents(args):
    records, best = zeta2_exponent_report(args.max_q, args.digits)
    out = [to_record(r) for r in records]
    out.append({"max_exponent": best, "convergents": len(records)})
    return out


def _cmd_dn(args):
    t = _table_for(args, args.n)
    record = to_record(log_lcm_to(t, args.n))
    if not args.log_only:
        record["d_n"] = decimal_str(lcm_to(t, args.n))
    return [record]


def _cmd_theorem1(args):
    t = _table_for(args, args.N)
    gate = theorem1_gate(t, args.N)
    return [{**to_record(gate), "reading": gate.reading()}]


def _cmd_theorem2(args):
    return [to_record(entry) for entry in theorem2_sequence(args.n)]


def _cmd_theorem3(args):
    t = None
    if args.sieve:
        limit = args.sieve_limit or nth_prime_limit_estimate(args.n)
        t = sieve(limit)
    return [to_record(theorem3_sequence(args.n, t))]


def _cmd_staircase(args):
    t = _table_for(args, 100_000)
    cert = staircase_certify(t, args.b, args.m, args.mode, args.start, args.steps)
    header = to_record(cert)
    steps = header.pop("steps")
    header["record"] = "staircase"
    # each lower bound's threshold is the end of its step
    bounds = [
        {"record": "lower_bound", "at": step["end"], "pi_at_least": k}
        for step, (_, k) in zip(steps, cert.lower_bounds())
    ]
    return [header] + [{"record": "step", **step} for step in steps] + bounds


def _cmd_lemma4(args):
    constants = RVConstants(a=args.a, b=args.b)
    derived = lemma4_derivation(constants, args.mode)
    bound = 1 + derived.rho / derived.sigma
    return [{**to_record(derived), "mode": args.mode, "bound": bound}]


def _cmd_sondow(args):
    t = _table_for(args, nth_prime_limit_estimate(args.n + 1))
    return [to_record(sondow_inequality_check(t, args.n, args.mu))]


def _cmd_euclid(args):
    tower = tower_normalize(args.level, args.mantissa)
    return [
        {
            "level": tower.level,
            "mantissa": tower.mantissa,
            "k": euclid_baseline(tower),
        }
    ]


def _cmd_verify(args):
    results = run_suite(args.suite)
    records = [to_record(r) for r in results]
    failures = sum(1 for r in results if not r.ok)
    records.append(
        {"suite": args.suite, "checks": len(results), "failures": failures}
    )
    return records, failures


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pistair", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pistair {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=FORMATS, default="json")
        p.add_argument("--meta", action="store_true", help="prepend a metadata record")
        return p

    p = add("euler", "exact truncated Euler product p_N/q_N")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--sieve-limit", type=int)

    p = add("gap", "enclosure of |pi^2/6 - p_N/q_N| and its exponent")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--sieve-limit", type=int)

    p = add("qbounds", "exact denominator bound chain at N")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--sieve-limit", type=int)

    p = add("zeta2", "rigorous enclosure of zeta(2)")
    p.add_argument("--digits", type=int, required=True)

    p = add("cf", "provably-correct partial quotients of zeta(2)")
    p.add_argument("--digits", type=int, default=60)
    p.add_argument("--terms", type=int, default=40)

    p = add("exponents", "measured exponents of zeta(2) convergents")
    p.add_argument("--digits", type=int, default=60)
    p.add_argument("--max-q", type=int, default=10**6)

    p = add("dn", "d_n = lcm(1..n), exact and logarithmic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--log-only", action="store_true")
    p.add_argument("--sieve-limit", type=int)

    p = add("theorem1", "factorial gate 10 q_N^6 < (N!)^14")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--sieve-limit", type=int)

    p = add("theorem2", "x_{n+1} = exp((log x_n)^e) sequence in log-log form")
    p.add_argument("--n", type=int, required=True)

    p = add("theorem3", "a_{n+1} = a_n + log a_n sequence with sandwich check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sieve", action="store_true", help="compare a_n with p_n")
    p.add_argument("--sieve-limit", type=int)

    p = add("staircase", "prime-gap staircase certificate")
    p.add_argument("--mode", choices=("factorial-squared", "power-2piN"), required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--b", type=float, default=5.45)
    p.add_argument("--start", type=int, default=2)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--sieve-limit", type=int)

    p = add("lemma4", "growth-rate measure bound 1 + rho/sigma")
    p.add_argument("--a", type=float, default=-2.55306095)
    p.add_argument("--b", type=float, default=1.70036709)
    p.add_argument("--mode", choices=("raw", "shifted"), default="raw")

    p = add("sondow", "primorial inequality p_{n+1} <= (p_1...p_n)^(2 mu)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=str, default="5.45")

    p = add("euclid", "largest k with 2^(2^k) <= exp^level(mantissa)")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--mantissa", type=float, required=True)

    p = add("verify", "run a named verification suite")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")

    return parser


_HANDLERS = {
    "euler": _cmd_euler,
    "gap": _cmd_gap,
    "qbounds": _cmd_qbounds,
    "zeta2": _cmd_zeta2,
    "cf": _cmd_cf,
    "exponents": _cmd_exponents,
    "dn": _cmd_dn,
    "theorem1": _cmd_theorem1,
    "theorem2": _cmd_theorem2,
    "theorem3": _cmd_theorem3,
    "staircase": _cmd_staircase,
    "lemma4": _cmd_lemma4,
    "sondow": _cmd_sondow,
    "euclid": _cmd_euclid,
}


def run_cli(args: list[str]) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if ns.command == "verify":
            records, failures = _cmd_verify(ns)
            _emit(records, ns.format, _meta(ns))
            return 1 if failures else 0
        records = _HANDLERS[ns.command](ns)
        _emit(records, ns.format, _meta(ns))
        return 0
    except PrecisionExhaustedError as exc:
        return _fail(exc, 1)
    except PistairError as exc:
        return _fail(exc, 2)
    except Exception as exc:
        # an internal failure, not a usage error
        return _fail(exc, 1)


def _fail(exc: Exception, code: int) -> int:
    """Report exc as one JSON line on stderr and return the exit code."""
    print(
        json.dumps({"error": type(exc).__name__, "reason": str(exc)}, sort_keys=True),
        file=sys.stderr,
    )
    return code


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
