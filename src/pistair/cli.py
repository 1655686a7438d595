"""Command-line front end: one table of subcommands, one parser.

`_DESCRIPTION` is what `pistair --help` tells the user about output and
exit codes.  Each subcommand is declared once, by `@_command(name, help,
*arguments, table=...)` on its handler, which files it in `COMMANDS`;
`build_parser` turns that table into the argparse tree, adding `--format`
and `--meta` to every subcommand and a trailing `--sieve-limit` to those
declared with a prime table.  The parser is built once, at import, and
`run_cli` only parses.  Every handler takes the parsed arguments and
returns `(records, exit_code)`; `run_cli` looks the handler up in
`COMMANDS` at call time, prints the records and returns the code, or turns
an exception into a one-line JSON reason on stderr.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import sys
from types import FunctionType
from typing import NamedTuple

from . import __version__
from .arith import zeta2_enclosure
from .approx import (
    LEMMA4_MODES, RV_PAGE102, RVConstants, continued_fraction, lemma4_bound,
    lemma4_derivation, sondow_inequality_check, zeta2_exponent_report,
)
from .errors import PistairError, PrecisionExhaustedError
from .euler import approximation_gap, euler_product, qn_bound_report
from .primes import lcm_to, log_lcm_to, nth_prime_limit_estimate, nth_primes, sieve
from .records import decimal_str, rational_str, to_record
from .staircase import (
    Q_MODES, THEOREM3_CHECKPOINTS, euclid_baseline, staircase_certify, theorem1_gate,
    theorem2_sequence, theorem3_sequence, tower_normalize,
)
from .verify import SUITES, run_suite

_DESCRIPTION = """Command-line front end with machine-readable output.

Every subcommand prints one record per line (JSON by default, CSV or an
aligned table on request).  Data records never contain timestamps, so
identical invocations produce identical bytes; `--meta` adds a separate
metadata record.  Exit codes: 0 success, 1 verification/precision or
internal failure (any exception that is not a `PistairError`), 2 usage
error.  Errors carry a single-line JSON reason on stderr.
"""

FORMATS = ("json", "csv", "table")


class _Command(NamedTuple):
    help: str
    arguments: tuple  # of (flags, options) pairs, as made by _arg
    table: bool  # takes --sieve-limit
    handler: FunctionType  # parsed arguments -> (records, exit_code)


#: subcommand name -> its declaration, in the order `--help` lists them
COMMANDS: dict[str, _Command] = {}


def _command(name: str, help: str, *arguments, table: bool = False):
    """Register the decorated handler as the subcommand `name`."""
    def register(handler):
        COMMANDS[name] = _Command(help, arguments, table, handler)
        return handler
    return register


def _arg(*flags: str, **options) -> tuple:
    """One argument of a subcommand, as passed to `add_argument`."""
    return flags, options


class _Parser(argparse.ArgumentParser):
    """argparse with single-line machine-parsable usage errors."""

    def error(self, message):
        record = {"error": "usage", "reason": message}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
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
    if meta is not None:
        line = json.dumps({"meta": meta} if fmt == "json" else meta, sort_keys=True)
        print(line if fmt == "json" else "# " + line)
    if fmt == "json":
        for record in records:
            print(json.dumps(record, sort_keys=True))
    elif fmt == "csv":
        flats = [_flatten(r) for r in records]
        fields = sorted({k for f in flats for k in f})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for flat in flats:
            writer.writerow(flat)
        sys.stdout.write(buf.getvalue())
    else:
        for record in records:
            flat = _flatten(record)
            width = max((len(k) for k in flat), default=0)
            for key in sorted(flat):
                print(f"{key:<{width}}  {flat[key]}")
            print("--")


def _meta(args) -> dict | None:
    if not args.meta:
        return None
    return {
        "tool": "pistair",
        "version": __version__,
        "command": args.command,
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _sieve_limit(args, minimum: int) -> int:
    """`--sieve-limit`, or max(minimum, 3) without it."""
    return max(minimum, 3) if args.sieve_limit is None else args.sieve_limit


def _table_for(args, minimum: int):
    """The prime table to `_sieve_limit(args, minimum)`."""
    return sieve(_sieve_limit(args, minimum))


# --- subcommands, in the order `--help` lists them ---------------------------

_N, _n = _arg("--N", type=int, required=True), _arg("--n", type=int, required=True)


@_command("euler", "exact truncated Euler product p_N/q_N", _N, table=True)
def _cmd_euler(args):
    record = to_record(euler_product(_table_for(args, args.N), args.N))
    value = record["value"]
    return [{**record, "q_digits": len(value) - value.index("/") - 1}], 0

@_command("gap", "enclosure of |pi^2/6 - p_N/q_N| and its exponent",
          _N, _arg("--digits", type=int, default=30), table=True)
def _cmd_gap(args):
    return [to_record(approximation_gap(_table_for(args, args.N), args.N, args.digits))], 0

@_command("qbounds", "exact denominator bound chain at N", _N, table=True)
def _cmd_qbounds(args):
    return [to_record(qn_bound_report(_table_for(args, args.N), args.N))], 0

@_command("zeta2", "rigorous enclosure of zeta(2)", _arg("--digits", type=int, required=True))
def _cmd_zeta2(args):
    enc = zeta2_enclosure(args.digits)
    return [{**to_record(enc), "digits": args.digits, "width": rational_str(enc.width)}], 0

@_command("cf", "provably-correct partial quotients of zeta(2)",
          _arg("--digits", type=int, default=60), _arg("--terms", type=int, default=40))
def _cmd_cf(args):
    quotients = continued_fraction(zeta2_enclosure(args.digits), args.terms)
    records = [{"index": k, "partial_quotient": decimal_str(q)} for k, q in enumerate(quotients)]
    return records, 0

@_command("exponents", "measured exponents of zeta(2) convergents",
          _arg("--digits", type=int, default=60), _arg("--max-q", type=int, default=10**6))
def _cmd_exponents(args):
    records, best = zeta2_exponent_report(args.max_q, args.digits)
    summary = {"max_exponent": best, "convergents": len(records)}
    return [to_record(r) for r in records] + [summary], 0

@_command("dn", "d_n = lcm(1..n), exact and logarithmic",
          _n, _arg("--log-only", action="store_true"), table=True)
def _cmd_dn(args):
    t = _table_for(args, args.n)
    record = to_record(log_lcm_to(t, args.n))
    if not args.log_only:
        record["d_n"] = decimal_str(lcm_to(t, args.n))
    return [record], 0

@_command("theorem1", "factorial gate 10 q_N^6 < (N!)^14", _N, table=True)
def _cmd_theorem1(args):
    gate = theorem1_gate(_table_for(args, args.N), args.N)
    return [{**to_record(gate), "reading": gate.reading()}], 0

@_command("theorem2", "x_{n+1} = exp((log x_n)^e) sequence in log-log form", _n)
def _cmd_theorem2(args):
    return [to_record(entry) for entry in theorem2_sequence(args.n)], 0

@_command("theorem3", "a_{n+1} = a_n + log a_n sequence with sandwich check",
          _n, _arg("--sieve", action="store_true", help="compare a_n with p_n"), table=True)
def _cmd_theorem3(args):
    # without --sieve nothing is sieved, and --sieve-limit goes unread; with
    # it, the checkpoints are those <= n whose p_n lies within the limit
    primes = None
    if args.sieve:
        limit = _sieve_limit(args, nth_prime_limit_estimate(args.n))
        primes = nth_primes(limit, [n for n in THEOREM3_CHECKPOINTS if n <= args.n])
    return [to_record(theorem3_sequence(args.n, primes))], 0

@_command("staircase", "prime-gap staircase certificate",
          _arg("--mode", choices=Q_MODES, required=True),
          _arg("--m", type=int, default=None), _arg("--b", type=float, default=5.45),
          _arg("--start", type=int, default=2), _arg("--steps", type=int, default=3),
          table=True)
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
    return [header] + [{"record": "step", **step} for step in steps] + bounds, 0

@_command("lemma4", "growth-rate measure bound 1 + rho/sigma",
          _arg("--a", type=float, default=RV_PAGE102.a),
          _arg("--b", type=float, default=RV_PAGE102.b),
          _arg("--mode", choices=LEMMA4_MODES, default="raw"))
def _cmd_lemma4(args):
    c = RVConstants(a=args.a, b=args.b)
    derived = lemma4_derivation(c, args.mode)
    return [{**to_record(derived), "mode": args.mode, "bound": lemma4_bound(c, args.mode)}], 0

@_command("sondow", "primorial inequality p_{n+1} <= (p_1...p_n)^(2 mu)",
          _n, _arg("--mu", type=str, default="5.45"))
def _cmd_sondow(args):
    t = sieve(nth_prime_limit_estimate(args.n + 1))
    return [to_record(sondow_inequality_check(t, args.n, args.mu))], 0

@_command("euclid", "largest k with 2^(2^k) <= exp^level(mantissa)",
          _arg("--level", type=int, required=True),
          _arg("--mantissa", type=float, required=True))
def _cmd_euclid(args):
    tower = tower_normalize(args.level, args.mantissa)
    return [{"level": tower.level, "mantissa": tower.mantissa, "k": euclid_baseline(tower)}], 0

@_command("verify", "run a named verification suite",
          _arg("--suite", choices=(*SUITES, "all"), default="all"))
def _cmd_verify(args):
    results = run_suite(args.suite)
    failures = sum(1 for r in results if not r.ok)
    summary = {"suite": args.suite, "checks": len(results), "failures": failures}
    return [to_record(r) for r in results] + [summary], 1 if failures else 0


# --- parser and dispatch -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every subcommand in COMMANDS."""
    parser = _Parser(prog="pistair", description=_DESCRIPTION)
    parser.add_argument("--version", action="version", version=f"pistair {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--format", choices=FORMATS, default="json")
        p.add_argument("--meta", action="store_true", help="prepend a metadata record")
        for flags, options in command.arguments:
            p.add_argument(*flags, **options)
        if command.table:
            p.add_argument("--sieve-limit", type=int)
    return parser


_PARSER = build_parser()


def run_cli(args: list[str]) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    try:
        ns = _PARSER.parse_args(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        records, code = COMMANDS[ns.command].handler(ns)
        _emit(records, ns.format, _meta(ns))
        return code
    except PrecisionExhaustedError as exc:
        return _fail(exc, 1)
    except PistairError as exc:
        return _fail(exc, 2)
    except Exception as exc:
        # an internal failure, not a usage error
        return _fail(exc, 1)


def _fail(exc: Exception, code: int) -> int:
    """Report exc as one JSON line on stderr and return the exit code."""
    record = {"error": type(exc).__name__, "reason": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return code


def main() -> int:
    # a reader that closes the pipe ends the process as it ends any Unix
    # filter, not as an internal failure.  signal is imported here, so that
    # importing this module for run_cli does not load it.
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
