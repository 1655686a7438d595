"""Inputs, jobs and output digests of the three benchmark workloads.

A workload is a set-up step (import pistair, build the shared prime tables)
and a round: a fixed list of jobs made from the seed.  The timed phase runs
whole rounds, so every run attempts the same operations in the same
proportions.  Each job calls pistair's public functions through their module
attributes at call time, so a tracer that rebinds those attributes sees the
calls.

A job's output is reduced to a digest before the next job starts.  Big
integers become fingerprints (residues modulo a Mersenne prime) and rationals
that are only compared by size become dyadic brackets, so the benchmark holds
kilobytes per job instead of the program's megabyte-sized integers and the
peak resident memory stays the program's own.  The oracle in ``oracle.py``
checks the digests after the timed phase.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

#: Fingerprint modulus, the Mersenne prime 2^127 - 1.  Two different integers
#: share a residue with probability about 2^-127.
MOD = (1 << 127) - 1

WORKLOADS = ("sweep", "large", "cli")

#: The five CLI invocations that stop at Python's 4300-digit int->str limit.
#: They run in every round and count as failed operations until the program
#: serializes big integers without that limit; their outputs are then checked.
WALL_INVOCATIONS = (
    ("euler", "--N", "8000"),
    ("zeta2", "--digits", "3000"),
    ("qbounds", "--N", "1000"),
    ("theorem1", "--N", "300"),
    ("dn", "--n", "20000"),
)


def fp(n: int) -> int:
    """Fingerprint of an exact integer."""
    return n % MOD


def fp_frac(q: Fraction) -> tuple[int, int]:
    return fp(q.numerator), fp(q.denominator)


def bracket(q: Fraction, bits: int) -> tuple[int, int]:
    """(floor(q * 2^bits), bits): q lies in [b, b + 1] / 2^bits."""
    return (q.numerator << bits) // q.denominator, bits


@dataclass
class Job:
    """One timed operation.

    ``call`` does the work and returns the raw output; ``digest`` reduces it
    to what the oracle needs; ``failed`` says whether the output is a failed
    operation (a CLI exit code other than 0).  ``order`` sorts jobs for the
    oracle so that its running Euler products only move forward.
    """

    key: tuple
    call: Callable[[], Any]
    digest: Callable[[Any], Any]
    failed: Callable[[Any], bool] = field(default=lambda out: False)
    order: int = 0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _near(rng: random.Random, centre: float, spread: float = 0.04) -> int:
    """An integer within +-spread (relative) of centre."""
    return int(round(centre * (1 + spread * (2 * rng.random() - 1))))


# --- digests of library outputs ---------------------------------------------


def d_enclosure(enc) -> tuple:
    # zeta(2) enclosures are few per run and a few kilobytes each: keep them
    # exact, so the oracle can check containment and width exactly.
    return (enc.lo, enc.hi)


def d_euler(a) -> tuple:
    return (a.N, fp_frac(a.value))


def d_qn(r) -> tuple:
    return (
        r.N,
        fp(r.q),
        fp(r.prod_p2_minus_1),
        fp(r.n_pow_2pi),
        fp(r.factorial_sq),
        r.chain_ok,
        r.factorial_ok,
        r.q_divides_prod,
    )


def d_gate(g) -> tuple:
    return (g.N, fp(g.q), fp(g.f), fp(g.lhs), g.holds, g.slack_log10)


def d_gap(g) -> tuple:
    # Brackets 40 decimal places finer than the enclosure the gap came from.
    bits = int((g.digits_used + 40) * 3.33) + 1
    return (
        g.N,
        fp_frac(g.value),
        fp(g.q),
        bracket(g.gap.lo, bits),
        bracket(g.gap.hi, bits),
        g.exponent,
        g.digits_used,
    )


def d_table(t) -> tuple:
    primes = t.primes
    count = len(primes)
    picks = sorted({(count - 1) * i // 8 for i in range(9)}) if count else []
    return (t.limit, count, [(k, int(primes[k])) for k in picks])


def d_lcm(n: int) -> tuple:
    return (fp(n), math.log(n))


def d_report(r) -> dict:
    return dataclasses.asdict(r)


def d_log_table(table) -> tuple:
    n_max = len(table) - 1
    picks = sorted({n_max * i // 64 for i in range(65)})
    return (len(table), [(n, float(table[n])) for n in picks])


def d_sondow(s) -> tuple:
    return (s.n, s.p_next, fp(s.primorial), s.mu, s.holds)


# --- sweep ----------------------------------------------------------------------

SWEEP_N = 2000
SWEEP_DIGITS = 30


def sweep_setup(rng: random.Random, tiny: bool):
    from pistair import primes

    # The seed sizes the shared table; the jobs themselves are the fixed
    # ascending pass N = 1..2000 that acceptance criteria 1, 3 and 7 make.
    return primes.sieve(SWEEP_N + rng.randrange(0, 1000))


def sweep_round(table, tiny: bool) -> list[Job]:
    from pistair import euler, primes, staircase

    # A fresh table object per round starts the per-table product cache
    # cold, so every round repeats the same ascending pass.
    t = primes.PrimeTable(table.limit, table.primes)

    def job(N: int) -> Job:
        def call():
            return (
                euler.euler_product(t, N),
                euler.qn_bound_report(t, N),
                staircase.theorem1_gate(t, N),
                euler.approximation_gap(t, N, SWEEP_DIGITS),
            )

        def digest(out):
            a, b, c, d = out
            return (d_euler(a), d_qn(b), d_gate(c), d_gap(d))

        return Job(("sweep", N, SWEEP_DIGITS), call, digest, order=N)

    return [job(N) for N in range(1, (40 if tiny else SWEEP_N) + 1)]


# --- large ----------------------------------------------------------------------

#: Covers every table query of a round: Euler products to 10^5, lcm to 10^5,
#: log d_n tables to 10^6, the Sondow primorials and theorem3 checkpoints to
#: p_(10^6) = 15485863.
LARGE_TABLE = 16_000_000

# Strata: each round draws one size near each centre (+-1%), so the work
# per round hardly depends on the seed.  The largest size of each kind is
# taken exactly, so every round reaches the top of the advertised ranges.
LARGE = {
    "digits": (150, 300, 500, 800, 1200, 2600, 3600, 9990),
    # Below N ~ 17900 products come from the table's dense prefix; above it
    # every query lower than its predecessor restarts from that prefix.  The
    # restarts stay near 0.01 s each, so the seeded order moves the round's
    # time by little, while the query at 10^5 costs ~1.4 s wherever it falls.
    "euler_low": (100, 400, 1000, 2000, 3500, 5000, 7000, 9000, 11000, 13000, 15000, 17000),
    "euler_high": (19000, 20000, 21000, 22500, 24000, 100_000),
    "sieve": (11_000_000, 22_000_000, 45_000_000, 100_000_000),
    "theorem3": (100_000, 1_000_000),
    "lcm": tuple(int(10 ** (3 + 2 * i / 29)) for i in range(30)),
    "log_lcm": tuple(int(10 ** (3 + 3 * i / 44)) for i in range(45)),
    "log_table": (10_000, 30_000, 100_000, 300_000, 600_000, 1_000_000),
    "sondow": (60, 150, 300, 450, 1225),
}
# Blocks of near-identical jobs (centre, count) placed so that the median and
# the 90th percentile of a round's ~200 latencies fall inside a block, not on
# the edge between two kinds of job whose ranks the seed can shuffle.
# Blocks are of calls whose own time repeats well: sieves near 10^6 vary by
# ~2% from call to call, where big-integer calls vary by 20-40%.
LARGE_BLOCKS = {"digits": (1900, 20), "sieve": (1_000_000, 70)}
SONDOW_MU = "5.45"

TINY = {
    "digits": (20, 60, 150),
    "euler_low": (10, 50, 200),
    "euler_high": (400, 700),
    "sieve": (30_000, 60_000),
    "theorem3": (1000, 5000),
    "lcm": (10, 100, 1000),
    "log_lcm": (10, 1000),
    "log_table": (100, 2000),
    "sondow": (5, 40),
}
TINY_BLOCKS = {"digits": (100, 3), "sieve": (5000, 3)}


def large_setup(rng: random.Random, tiny: bool):
    from pistair import primes

    return primes.sieve(200_000 if tiny else LARGE_TABLE)


def large_plan(rng: random.Random, tiny: bool) -> dict:
    """The seeded sizes of a round; round r shifts the digit counts by -r."""
    sizes, blocks = (TINY, TINY_BLOCKS) if tiny else (LARGE, LARGE_BLOCKS)
    plan = {
        kind: [c if c == max(centres) else _near(rng, c, 0.01) for c in centres]
        for kind, centres in sizes.items()
    }
    # Digit counts in the block are 10 apart, so shifting them by the round
    # index never repeats a count within a run of fewer than ten rounds.
    centre, count = blocks["digits"]
    offset = rng.randrange(10)
    plan["digits"] += [centre + offset + 10 * k for k in range(count)]
    centre, count = blocks["sieve"]
    plan["sieve"] += [_near(rng, centre, 0.01) for _ in range(count)]
    jobs = sum(len(v) for v in plan.values())
    plan["order"] = rng.sample(range(jobs), jobs)
    plan["segment"] = 10_000 if tiny else None
    return plan


def large_round(T, plan: dict, r: int) -> list[Job]:
    from pistair import approx, arith, euler, primes, staircase

    # One table object per round, shared by that round's Euler queries, so
    # the queries meet the product cache as one-shot users of a table do.
    t = primes.PrimeTable(T.limit, T.primes)
    jobs: list[Job] = []
    for d in plan["digits"]:
        d = d - r  # distinct digit counts across rounds defeat the enclosure cache
        jobs.append(Job(("zeta2_enclosure", d), lambda d=d: arith.zeta2_enclosure(d), d_enclosure))
    for N in plan["euler_low"] + plan["euler_high"]:
        jobs.append(Job(("euler_product", N), lambda N=N: euler.euler_product(t, N), d_euler, order=N))
    seg = plan["segment"]
    for L in plan["sieve"]:
        jobs.append(Job(("sieve", L, seg), lambda L=L: primes.sieve(L, seg), d_table))
    for n in plan["theorem3"]:
        jobs.append(
            Job(
                ("theorem3_sequence", n, T.limit),
                lambda n=n: staircase.theorem3_sequence(n, T),
                d_report,
            )
        )
    for n in plan["lcm"]:
        jobs.append(Job(("lcm_to", n), lambda n=n: primes.lcm_to(T, n), d_lcm))
    for n in plan["log_lcm"]:
        jobs.append(Job(("log_lcm_to", n), lambda n=n: primes.log_lcm_to(T, n), d_report))
    for n in plan["log_table"]:
        jobs.append(Job(("log_lcm_table", n), lambda n=n: primes.log_lcm_table(T, n), d_log_table))
    for n in plan["sondow"]:
        jobs.append(
            Job(
                ("sondow_inequality_check", n, SONDOW_MU),
                lambda n=n: approx.sondow_inequality_check(T, n, SONDOW_MU),
                d_sondow,
            )
        )
    return [jobs[i] for i in plan["order"]]


# --- cli ------------------------------------------------------------------------


def cli_setup(rng: random.Random, tiny: bool):
    import pistair.cli  # noqa: F401  (each invocation builds its own table)

    return None


def cli_plan(rng: random.Random, tiny: bool) -> list[tuple[str, ...]]:
    """Argument vectors of one round; entries with a digit count are shifted
    by the round index when the round is built (see ``cli_round``)."""
    readme = [
        "euler --N 10",
        "zeta2 --digits 40",
        "gap --N 10 --digits 30",
        "qbounds --N 5",
        "cf --digits 60 --terms 20",
        "exponents --digits 60 --max-q 1000000",
        "dn --n 5000 --log-only",
        "theorem1 --N 20",
        "theorem2 --n 10",
        "theorem3 --n 1000000 --sieve",
        "staircase --mode factorial-squared --b 5.45 --m 6 --start 2 --steps 4",
        "lemma4 --mode raw",
        "sondow --n 15 --mu 5.45",
        "euclid --level 2 --mantissa 1.0",
        "verify --suite all",
    ]
    if tiny:
        readme = [c.replace("--n 1000000", "--n 10000") for c in readme]
        return [tuple(c.split()) for c in readme] + list(WALL_INVOCATIONS)

    n = lambda c, s=0.02: str(_near(rng, c, s))  # noqa: E731
    more = []
    # Sizes run from the README examples up to just below the wall: euler
    # --N 6311, qbounds --N 860, zeta2 --digits 2141, theorem1 --N 171,
    # dn --n 9859 and sondow --n 1230 are the first that fail.
    for c in (30, 100, 300, 700, 1500, 2500, 3500, 4500, 5500, 6100):
        more.append(f"euler --N {n(c)}")
    more.append(f"euler --N {n(2000)} --format csv")
    more.append(f"euler --N {n(400)} --format table")
    for c, d in ((100, 20), (400, 30), (900, 12), (2000, 50), (3500, 30), (5000, 25)):
        more.append(f"gap --N {n(c)} --digits {n(d, 0.2)}")
    for c in (12, 40, 100, 200, 320, 450, 600, 720, 820):
        more.append(f"qbounds --N {n(c)}")
    for c in (80, 200, 400, 700, 1000, 1400, 1800, 2050):
        more.append(f"zeta2 --digits {n(c)}")
    more.append(f"zeta2 --digits {n(120)} --format table")
    more.append(f"zeta2 --digits {n(250)} --format csv")
    for d, k in ((120, 60), (300, 200), (700, 500), (1500, 1200)):
        more.append(f"cf --digits {n(d)} --terms {n(k)}")
    for d, q in ((30, 1000), (80, 10**12), (100, 10**30), (150, 10**60)):
        more.append(f"exponents --digits {n(d)} --max-q {q}")
    for c in (60, 300, 1200, 3000, 6000, 9000):
        more.append(f"dn --n {n(c)}")
    for c in (50_000, 300_000, 1_000_000):
        more.append(f"dn --n {n(c)} --log-only")
    for c in (3, 8, 40, 70, 100, 130, 160):
        more.append(f"theorem1 --N {n(c, 0.03)}")
    for c in (60, 250, 500, 700):
        more.append(f"theorem2 --n {min(700, int(n(c)))}")
    for c in (1000, 30_000, 200_000):
        more.append(f"theorem3 --n {n(c)}")
    more.append(f"theorem3 --n {n(20_000)} --sieve")
    more.append(f"staircase --mode power-2piN --b 5.45 --m 6 --start {n(3, 0.3)} --steps 4")
    more.append(f"staircase --mode factorial-squared --b 5.45 --start {n(7, 0.3)} --steps 6")
    more.append(f"staircase --mode factorial-squared --b 6.5 --m 7 --start {n(4, 0.3)} --steps 3")
    more.append("lemma4 --mode shifted")
    more.append(f"lemma4 --a=-{_near(rng, 2500, 0.05) / 1000} --b {_near(rng, 1700, 0.05) / 1000}")
    for c in (100, 300, 600, 900, 1220):
        more.append(f"sondow --n {min(1229, int(n(c, 0.005)))} --mu 5.45")
    for level, mantissa in ((0, 16.0), (0, 300.0), (1, 2.0), (3, 1.5), (4, 1.2), (5, 1.2)):
        more.append(f"euclid --level {level} --mantissa {mantissa * (1 + 0.01 * rng.random()):.6f}")
    for suite in ("arith", "primes", "euler", "approx", "staircase"):
        more.append(f"verify --suite {suite}")
    argvs = [tuple(c.split()) for c in readme + more] + list(WALL_INVOCATIONS)
    rng.shuffle(argvs)
    return argvs


#: CLI digit counts that are shifted per round: zeta2_enclosure keeps a
#: process-wide cache, so a repeated count would skip the enclosure.
_SHIFTED = {"zeta2": "--digits", "cf": "--digits", "gap": "--digits", "exponents": "--digits"}


def cli_round(plan: list, r: int) -> list[Job]:
    from pistair import cli

    jobs = []
    for argv in plan:
        if argv not in WALL_INVOCATIONS and argv[0] in _SHIFTED:
            i = argv.index(_SHIFTED[argv[0]]) + 1
            argv = argv[:i] + (str(int(argv[i]) + r),) + argv[i + 1 :]
        jobs.append(Job(("cli",) + argv, lambda argv=argv: run_cli(cli, argv), lambda out: out,
                        failed=lambda out: out[0] != 0, order=cli_order(argv)))
    return jobs


def run_cli(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run_cli(list(argv))
    return rc, out.getvalue(), err.getvalue()


def cli_order(argv) -> int:
    """The Euler cut-off an invocation needs from the oracle, or 0."""
    if argv[0] in ("euler", "gap", "qbounds", "theorem1") and "--N" in argv:
        return int(argv[argv.index("--N") + 1])
    return 0


# --- registry -------------------------------------------------------------------


def setup(workload: str, seed: int, tiny: bool):
    rng = _rng(workload, seed)
    return {"sweep": sweep_setup, "large": large_setup, "cli": cli_setup}[workload](rng, tiny)


def planner(workload: str, seed: int, tiny: bool) -> Callable[[Any, int], list[Job]]:
    """Returns round(state, r) -> jobs; the plan is drawn once from the seed."""
    rng = _rng(workload, seed)
    if workload == "sweep":
        return lambda table, r: sweep_round(table, tiny)
    if workload == "large":
        plan = large_plan(rng, tiny)
        return lambda table, r: large_round(table, plan, r)
    plan = cli_plan(rng, tiny)
    return lambda _, r: cli_round(plan, r)
