"""Self-contained verification suites behind the CLI `verify` subcommand.

Each suite re-derives its expected values from an independent route
(brute-force products, fold-lcm, trial division, Taylor bounds) at sizes
chosen to finish in seconds, and uses fixed seeds so runs are identical.
The full-scale acceptance checks live in the test suite; these are the
CI-friendly one-shot subset.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    Placement,
    RealEnclosure,
    enclosure_compare,
    exp_taylor_enclosure,
    rational_exp_upper,
    zeta2_enclosure,
)
from .approx import (
    RV_PAGE102,
    continued_fraction,
    convergents,
    lemma4_bound,
    measure_exponents,
    sondow_inequality_check,
)
from .euler import approximation_gap, euler_product, qn_bound_report, tail_product_upper
from .primes import lcm_to, log_lcm_table, log_lcm_to, nth_prime, prime_count, sieve
from .staircase import (
    Ordering,
    euclid_baseline,
    staircase_certify,
    theorem1_gate,
    theorem2_sequence,
    theorem3_sequence,
    tower_compare,
    tower_from_float,
    tower_normalize,
    tower_to_float,
)

SEED = 20240214


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _check(results: list, suite: str, name: str, ok: bool, detail: str = ""):
    results.append(CheckResult(suite, name, bool(ok), detail))


def _partial_sum(n: int) -> Fraction:
    return sum(Fraction(1, k * k) for k in range(1, n + 1))


def verify_arith() -> list[CheckResult]:
    out: list[CheckResult] = []
    enc = zeta2_enclosure(30)
    _check(out, "arith", "zeta2 width <= 1e-30", enc.width <= Fraction(1, 10**30))
    s = _partial_sum(1000)
    inside = s + Fraction(1, 1001) < enc.lo and enc.hi < s + Fraction(1, 1000)
    _check(out, "arith", "zeta2 inside the partial-sum sandwich", inside)
    finer = zeta2_enclosure(40)
    _check(out, "arith", "finer enclosure nests", enc.contains_enclosure(finer))
    _check(
        out,
        "arith",
        "compare below/above/overlap",
        enclosure_compare(enc, 1) is Placement.BELOW
        and enclosure_compare(enc, 2) is Placement.ABOVE
        and enclosure_compare(enc, enc.midpoint) is Placement.OVERLAPPING,
    )
    rng = random.Random(SEED)
    ok = True
    for _ in range(100):
        den = rng.randint(1, 1000)
        x = Fraction(rng.randint(0, den), den)
        upper = rational_exp_upper(x)
        taylor = exp_taylor_enclosure(x)
        if not (taylor.lo <= upper and upper <= 1 + x + x * x):
            ok = False
            break
    _check(out, "arith", "exp upper dominates the Taylor oracle (100 samples)", ok)
    return out


def _trial_division_primes(limit: int) -> list[int]:
    found = []
    for n in range(2, limit + 1):
        if all(n % p for p in found if p * p <= n):
            found.append(n)
    return found


def verify_primes() -> list[CheckResult]:
    out: list[CheckResult] = []
    t = sieve(10_000)
    _check(
        out,
        "primes",
        "sieve matches trial division to 1000",
        t.primes[: prime_count(t, 1000)].tolist() == _trial_division_primes(1000),
    )
    _check(out, "primes", "pi(100) = 25", prime_count(t, 100) == 25)
    _check(out, "primes", "p_4 = 7", nth_prime(t, 4) == 7)
    fold = 1
    ok = True
    for n in range(1, 501):
        fold = math.lcm(fold, n)
        if lcm_to(t, n) != fold:
            ok = False
            break
    _check(out, "primes", "lcm_to equals fold-lcm to 500", ok)
    table = log_lcm_table(t, 10_000)
    counts = [prime_count(t, n) for n in (10, 100, 1000, 10_000)]
    ok = all(
        table[n] <= c * math.log(n) + 1e-9
        for n, c in zip((10, 100, 1000, 10_000), counts)
    )
    _check(out, "primes", "log d_n <= pi(n) log n at decade marks", ok)
    rep = log_lcm_to(t, 10)
    _check(
        out,
        "primes",
        "log_lcm_to(10) = log 2520",
        abs(rep.log_lcm - math.log(2520)) < 1e-9,
    )
    rng = random.Random(SEED)
    samples = [rng.randint(2, 10_000) for _ in range(50)]
    ok = all(abs(log_lcm_to(t, n).log_lcm - table[n]) < 1e-6 for n in samples)
    _check(out, "primes", "bulk table agrees with per-n sums (50 samples)", ok)
    return out


def verify_euler() -> list[CheckResult]:
    out: list[CheckResult] = []
    t = sieve(3000)
    _check(
        out,
        "euler",
        "euler_product(10) = 1225/768",
        euler_product(t, 10).value == Fraction(1225, 768),
    )
    brute = Fraction(1)
    ok = True
    previous = Fraction(1)
    for n in range(1, 301):
        if n >= 2 and prime_count(t, n) > prime_count(t, n - 1):
            brute *= Fraction(n * n, n * n - 1)
        value = euler_product(t, n).value
        if value != brute or (n >= 2 and value < previous):
            ok = False
            break
        previous = value
    _check(out, "euler", "incremental product matches brute force to 300", ok)
    ok = True
    for n in range(1, 121):
        rep = qn_bound_report(t, n)
        if not (rep.chain_ok and rep.factorial_ok and rep.q_divides_prod):
            ok = False
            break
    _check(out, "euler", "q_N bound chain holds to 120", ok)
    limit = zeta2_enclosure(30).lo
    ok = all(euler_product(t, n).value < limit for n in range(1, 2001))
    _check(out, "euler", "products stay below zeta(2) to 2000", ok)
    ok = all(
        tail_product_upper(f) <= Fraction(10, 1) / f for f in (2, 10, 100, 1000, 10**6)
    )
    _check(out, "euler", "tail bound never exceeds 10/f", ok)
    gap = approximation_gap(t, 23, 30)
    _check(
        out,
        "euler",
        "gap at N=23 within tail bound at f=28 (no prime in (23, 28])",
        prime_count(t, 28) == prime_count(t, 23) and gap.gap.hi <= tail_product_upper(28),
    )
    gap2 = approximation_gap(t, 2, 30)
    _check(
        out,
        "euler",
        "gap exponent at N=2 near 1.0614",
        gap2.exponent is not None and abs(gap2.exponent - 1.061369) < 1e-3,
    )
    return out


def verify_approx() -> list[CheckResult]:
    out: list[CheckResult] = []
    exact = RealEnclosure(Fraction(3, 2), Fraction(3, 2))
    _check(out, "approx", "cf(3/2) = [1, 2]", continued_fraction(exact, 10) == [1, 2])
    enc30 = zeta2_enclosure(30)
    enc60 = zeta2_enclosure(60)
    q30 = continued_fraction(enc30, 100)
    q60 = continued_fraction(enc60, 100)
    _check(out, "approx", "zeta2 quotients start [1,1,1,1,4]", q60[:5] == [1, 1, 1, 1, 4])
    _check(out, "approx", "quotient prefix stable 30 -> 60 digits", q60[: len(q30)] == q30)
    records = convergents(q60)
    ok = all(
        records[k].p * records[k - 1].q - records[k - 1].p * records[k].q
        == (-1) ** (k - 1)
        for k in range(1, len(records))
    )
    _check(out, "approx", "determinant identity holds", ok)
    measured, best = measure_exponents(enc60, [r for r in records if r.q <= 10**9])
    ok = all(r.exponent > 2 for r in measured if r.q >= 2)
    _check(out, "approx", "every exponent with q >= 2 exceeds 2", ok)
    three_halves = next(r for r in measured if r.p == 3 and r.q == 2)
    _check(
        out,
        "approx",
        "exponent of 3/2 near 2.7865",
        abs(three_halves.exponent - 2.786531) < 1e-3,
    )
    _check(
        out,
        "approx",
        "growth-rate bound (raw) is 1.66601... < 2",
        abs(lemma4_bound(RV_PAGE102, "raw") - 1.6660111620) < 1e-9
        and lemma4_bound(RV_PAGE102, "raw") < 2,
    )
    _check(
        out,
        "approx",
        "growth-rate bound (shifted) near 7.6907",
        abs(lemma4_bound(RV_PAGE102, "shifted") - 7.6907039631) < 1e-9,
    )
    t = sieve(100)
    ok = all(sondow_inequality_check(t, n, "5.45").holds for n in range(1, 16))
    _check(out, "approx", "primorial inequality holds to n=15 at mu=5.45", ok)
    _check(
        out,
        "approx",
        "primorial inequality fails at mu=0.5, n=1",
        not sondow_inequality_check(t, 1, Fraction(1, 2)).holds,
    )
    return out


def verify_staircase() -> list[CheckResult]:
    out: list[CheckResult] = []
    t = sieve(100_000)
    _check(
        out,
        "staircase",
        "normalize (1, 5) -> (2, log 5)",
        tower_normalize(1, 5.0).level == 2
        and abs(tower_normalize(1, 5.0).mantissa - math.log(5)) < 1e-12,
    )
    rng = random.Random(SEED)
    towers = [
        tower_normalize(rng.randint(1, 5), rng.uniform(1.0, math.e * 0.999))
        for _ in range(300)
    ] + [tower_from_float(rng.uniform(0.1, 100.0)) for _ in range(100)]
    ok = True
    for _ in range(500):
        x, y, z = rng.choice(towers), rng.choice(towers), rng.choice(towers)
        cxy, cyx = tower_compare(x, y), tower_compare(y, x)
        if cxy.value != -cyx.value:
            ok = False
            break
        if (
            tower_compare(x, y) is not Ordering.GREATER
            and tower_compare(y, z) is not Ordering.GREATER
            and tower_compare(x, z) is Ordering.GREATER
        ):
            ok = False
            break
        fx, fy = tower_to_float(x), tower_to_float(y)
        if fx is not None and fy is not None:
            expected = (
                Ordering.LESS if fx < fy else Ordering.GREATER if fx > fy else Ordering.EQUAL
            )
            if cxy is not expected:
                ok = False
                break
    _check(out, "staircase", "tower order: antisymmetric, transitive, float-consistent", ok)
    _check(out, "staircase", "factorial gate fails at N=1", not theorem1_gate(t, 1).holds)
    _check(
        out,
        "staircase",
        "factorial gate holds for 2..50",
        all(theorem1_gate(t, n).holds for n in range(2, 51)),
    )
    seq = theorem2_sequence(100)
    ok = all(
        abs(e.loglog - e.loglog_closed) <= 1e-9 * e.loglog_closed for e in seq
    )
    _check(out, "staircase", "double-exp iteration matches closed form to n=100", ok)
    rep = theorem3_sequence(10_000, t, checkpoints=[1000])
    _check(out, "staircase", "gap recursion sandwich holds to 10^4", rep.sandwich_ok)
    _check(out, "staircase", "gap recursion increments >= 1", rep.min_increment >= 1.0)
    cert = staircase_certify(t, 5.45, 6, "factorial-squared", 2, 3)
    ok = len(cert.steps) == 3
    for step in cert.steps:
        if step.witness_mode == "exact":
            if step.q is not None and not 10 * step.q**cert.exponent < step.end:
                ok = False
            if step.sieve_confirmed:
                lo, hi = step.start, step.end
                if not any(lo < p <= hi for p in t.primes[: prime_count(t, hi)].tolist()):
                    ok = False
    _check(out, "staircase", "staircase witnesses re-verify", ok)
    _check(
        out,
        "staircase",
        "euclid baseline at 4, 16, 3",
        euclid_baseline(tower_from_float(4)) == 1
        and euclid_baseline(tower_from_float(16)) == 2
        and euclid_baseline(tower_from_float(3)) == 0,
    )
    return out


SUITES = {
    "arith": verify_arith,
    "primes": verify_primes,
    "euler": verify_euler,
    "approx": verify_approx,
    "staircase": verify_staircase,
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or all of them."""
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
