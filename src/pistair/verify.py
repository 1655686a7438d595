"""One registry of checks behind `pistair verify` and the acceptance suite.

Each check re-derives one claim of the chain by an independent route
(brute-force products, fold-lcm, trial division, Taylor bounds, exact
integer re-checks) and takes its size as its argument.  `@_check` files it
in `SUITES` under its suite and name, with the size `pistair verify` runs
it at; `tests/test_acceptance.py` calls the same functions at full size
and adds only the values frozen at that scale.  A check fails by raising
`CheckFailed`, never through `assert`, which `python -O` strips.  Some
return what they computed, for such full-scale assertions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from .approx import (
    RV_PAGE102, continued_fraction, convergents, lemma4_bound, measure_exponents,
    sondow_inequality_check, zeta2_exponent_report,
)
from .arith import RealEnclosure, as_rational, rational_exp_upper, zeta2_enclosure
from .errors import DomainError, ResourceLimitError
from .euler import approximation_gap, euler_product, qn_bound_report, tail_product_upper
from .primes import (
    count_at_most, lcm_to, log_lcm_table, log_lcm_to, nth_prime, nth_prime_limit_estimate,
    nth_primes, prime_count, sieve,
)
from .staircase import (
    euclid_baseline, staircase_certify, theorem1_gate, theorem2_sequence, theorem3_sequence,
    tower_normalize,
)

SEED = 20240214
CF_TERMS = 500  # more quotients than a 120-digit enclosure of zeta(2) resolves

#: suite -> [(name, check, size)] in run order; a size of None calls the check bare
SUITES: dict[str, list] = {}


class CheckFailed(Exception):
    """A check found the claim it tests to be false."""


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _check(suite: str, name: str, size=None):
    """Register the decorated function as the check `name` of `suite`."""
    def register(fn):
        SUITES.setdefault(suite, []).append((name, fn, size))
        return fn
    return register


def _require(ok: bool, message: str, *args) -> None:
    """Raise CheckFailed unless ok; message % args is formatted only then."""
    if not ok:
        raise CheckFailed(message % args)


def _equal(got, want) -> None:
    _require(got == want, "got %r, want %r", got, want)


def _near(got: float, want: float, tol: float) -> None:
    _require(abs(got - want) < tol, "got %r, want %r within %g", got, want, tol)


@_check("arith", "zeta2 width <= 1e-30", 30)
def zeta2_width(digits: int):
    width = zeta2_enclosure(digits).width
    _require(width <= Fraction(1, 10**digits), "width %.3g at %d digits", width, digits)

@_check("arith", "zeta2 inside the partial-sum sandwich", 30)
def zeta2_sandwich(digits: int):
    # S = sum_{k <= 1000} 1/k^2 over one common denominator; S + 1/1001 < zeta(2) < S + 1/1000
    den = math.lcm(*range(1, 1001)) ** 2
    s = Fraction(sum(den // (k * k) for k in range(1, 1001)), den)
    enc = zeta2_enclosure(digits)
    inside = s + Fraction(1, 1001) < enc.lo and enc.hi < s + Fraction(1, 1000)
    _require(inside, "the %d-digit enclosure leaves the sandwich", digits)

_check("arith", "finer enclosure nests", 30)(
    lambda d: _equal(zeta2_enclosure(d).contains_enclosure(zeta2_enclosure(d + 10)), True)
)

def exp_taylor_enclosure(x, terms: int = 30) -> RealEnclosure:
    """Two-sided exact-rational Taylor bounds on exp(x) for 0 <= x <= 1.

    Independent of rational_exp_upper: the partial sum of K = terms terms
    below, plus twice the first omitted term x^K/K! above.  The tail is at
    most (K+1)/K times that term on this domain, so K >= 1 is required.
    """
    x = as_rational(x)
    if x < 0 or x > 1:
        raise DomainError(f"Taylor enclosure requires 0 <= x <= 1, got {x}")
    if terms < 1:
        raise DomainError(f"Taylor enclosure needs terms >= 1, got {terms}")
    # Over the common denominator b^K K!, x^k/k! has the integer numerator
    # a^k b^(K-k) K!/k!; each step to k + 1 divides exactly by b (k + 1).
    a, b = x.numerator, x.denominator
    denominator = b**terms * math.factorial(terms)
    numerator, total = denominator, 0
    for k in range(terms):
        total += numerator
        numerator = numerator * a // (b * (k + 1))
    return RealEnclosure(Fraction(total, denominator), Fraction(total + 2 * numerator, denominator))

@_check("arith", "exp upper dominates the Taylor oracle (100 samples)", 100)
def exp_upper_vs_taylor(samples: int):
    rng = random.Random(SEED)
    for _ in range(samples):
        den = rng.randint(1, 1000)
        x = Fraction(rng.randint(0, den), den)
        upper = rational_exp_upper(x)
        ok = exp_taylor_enclosure(x).lo <= upper <= 1 + x + x * x
        _require(ok, "exp upper bound out of [Taylor lo, 1 + x + x^2] at x = %s", x)

@_check("primes", "sieve matches trial division to 1000", 1000)
def sieve_matches_trial_division(n_max: int):
    found = []
    for n in range(2, n_max + 1):
        if all(n % p for p in found if p * p <= n):
            found.append(n)
    _equal(sieve(n_max).primes.tolist(), found)

_check("primes", "pi(100) = 25")(lambda: _equal(prime_count(sieve(1000), 100), 25))
_check("primes", "p_4 = 7")(lambda: _equal(nth_prime(sieve(1000), 4), 7))

@_check("primes", "lcm_to equals fold-lcm to 500", 500)
def lcm_matches_fold(n_max: int):
    t, fold = sieve(n_max), 1
    for n in range(1, n_max + 1):
        fold = math.lcm(fold, n)
        _require(lcm_to(t, n) == fold, "lcm_to(%d) differs from the fold-lcm", n)

@_check("primes", "log d_n <= pi(n) log n at every n to 10^4", 10_000)
def log_lcm_bound(n_max: int):
    """log d_n <= pi(n) log n at every 2 <= n <= n_max; log d_n ~ n at n_max."""
    t = sieve(n_max)
    n = np.arange(2, n_max + 1)
    bound = count_at_most(t.primes, n) * np.log(n)
    above = np.flatnonzero(log_lcm_table(t, n_max)[2:] > bound + 1e-9) + 2
    _require(above.size == 0, "log d_n > pi(n) log n at n = %s", above[:1])
    final = log_lcm_to(t, n_max)
    ok = final.log_lcm <= final.pi_log_n and abs(final.log_lcm / n_max - 1) < 0.02
    _require(ok, "log d_n = %r, pi(n) log n = %r at n = %d", final.log_lcm, final.pi_log_n, n_max)

_check("primes", "log_lcm_to(10) = log 2520")(
    lambda: _near(log_lcm_to(sieve(100), 10).log_lcm, math.log(2520), 1e-9)
)

@_check("primes", "bulk table agrees with per-n sums (50 samples)", 10_000)
def log_lcm_samples(n_max: int):
    t = sieve(n_max)
    table = log_lcm_table(t, n_max)
    rng = random.Random(SEED)
    for n in [rng.randint(2, n_max) for _ in range(50)]:
        got, bulk = log_lcm_to(t, n).log_lcm, float(table[n])
        ok = abs(got - bulk) < 1e-6 and math.isclose(got, bulk, rel_tol=1e-9, abs_tol=1e-12)
        _require(ok, "log_lcm_to(%d) = %r, bulk table %r", n, got, bulk)

@_check("euler", "euler_product(10) = 1225/768")
def euler_product_at_10():
    _equal(euler_product(sieve(100), 10).value, Fraction(1225, 768))

@_check("euler", "incremental product matches brute force to 300", 300)
def euler_matches_brute_force(n_max: int):
    t = sieve(n_max)
    primes = set(t.primes.tolist())
    brute = previous = Fraction(1)
    for n in range(1, n_max + 1):
        if n in primes:
            brute *= Fraction(n * n, n * n - 1)
        value = euler_product(t, n).value
        ok = value == brute and value >= previous
        _require(ok, "euler_product(%d) differs from the brute force or decreases", n)
        previous = value

@_check("euler", "q_N bound chain holds to 120", 120)
def qn_bound_chain(n_max: int):
    """q_N <= prod(p^2 - 1) <= N^(2 pi(N)), q_N <= (N!)^2 and q_N | prod(p^2 - 1)
    for 1 <= N <= n_max, from the report's integers and from its flags."""
    t = sieve(n_max)
    for n in range(1, n_max + 1):
        r = qn_bound_report(t, n)
        q, prod = r.q, r.prod_p2_minus_1
        exact = q <= prod <= r.n_pow_2pi and q <= r.factorial_sq and prod % q == 0
        flags = r.chain_ok and r.factorial_ok and r.q_divides_prod
        _require(exact and flags, "the q_N bound chain fails at N=%d", n)

@_check("euler", "products stay below zeta(2) to 2000", 2000)
def products_below_zeta2(n_max: int):
    t, limit = sieve(n_max), zeta2_enclosure(30).lo
    for n in range(1, n_max + 1):
        _require(euler_product(t, n).value < limit, "p_N/q_N reaches zeta(2) at N=%d", n)

@_check("euler", "tail bound never exceeds 10/f")
def tail_bound_below_10_over_f():
    for f in (2, 10, 100, 1000, 10**6):
        _require(tail_product_upper(f) <= Fraction(10, f), "tail bound > 10/f at f=%d", f)

@_check("euler", "gap at N=23 within tail bound at f=28 (no prime in (23, 28])", 30)
def gap_at_23(digits: int):
    t = sieve(100)
    _require(prime_count(t, 28) == prime_count(t, 23), "a prime lies in (23, 28]")
    gap = approximation_gap(t, 23, digits).gap
    _require(gap.hi <= tail_product_upper(28), "the gap at N=23 exceeds the tail bound")

@_check("euler", "gap exponent at N=2 near 1.0614", 30)
def gap_exponent_at_2(digits: int):
    exponent = approximation_gap(sieve(100), 2, digits).exponent
    _require(exponent is not None, "no exponent at N=2")
    _near(exponent, 1.061369, 1e-3)

_check("approx", "cf(3/2) = [1, 2]")(
    lambda: _equal(continued_fraction(RealEnclosure(Fraction(3, 2), Fraction(3, 2)), 10), [1, 2])
)
_check("approx", "zeta2 quotients start [1,1,1,1,4]", 60)(
    lambda digits: _equal(continued_fraction(zeta2_enclosure(digits), 5), [1, 1, 1, 1, 4])
)

@_check("approx", "quotient prefix stable 30 -> 60 digits", 30)
def quotient_prefix_stable(digits: int):
    coarse = continued_fraction(zeta2_enclosure(digits), CF_TERMS)
    fine = continued_fraction(zeta2_enclosure(2 * digits), CF_TERMS)
    _require(fine[: len(coarse)] == coarse, "quotients change from %d digits", digits)

@_check("approx", "determinant identity holds", 60)
def determinant_identity(digits: int):
    """Checks p_k q_(k-1) - p_(k-1) q_k = (-1)^(k-1); returns the convergents."""
    records = convergents(continued_fraction(zeta2_enclosure(digits), CF_TERMS))
    for k in range(1, len(records)):
        det = records[k].p * records[k - 1].q - records[k - 1].p * records[k].q
        _require(det == (-1) ** (k - 1), "determinant %d at k=%d", det, k)
    return records

@_check("approx", "every exponent with q >= 2 exceeds 2", 10**9)
def exponents_exceed_two(max_q: int):
    records = convergents(continued_fraction(zeta2_enclosure(60), CF_TERMS))
    kept = [r for r in records if r.q <= max_q]
    measured, best = zeta2_exponent_report(max_q, digits=60)
    _require(len(measured) == len(kept), "%d exponents, %d convergents", len(measured), len(kept))
    low = [(r.p, r.q) for r in measured if r.q >= 2 and not r.exponent > 2]
    _require(not low and best > 2, "exponent <= 2 at %s, maximum %r", low[:1], best)

@_check("approx", "exponent of 3/2 near 2.7865", 60)
def three_halves_exponent(digits: int):
    enc = zeta2_enclosure(digits)
    measured, _ = measure_exponents(enc, convergents(continued_fraction(enc, 3)))
    _near(next(r.exponent for r in measured if (r.p, r.q) == (3, 2)), 2.786531, 1e-3)

@_check("approx", "growth-rate bound (raw) is 1.66601... < 2")
def lemma4_raw_bound() -> float:
    raw = lemma4_bound(RV_PAGE102, "raw")
    _near(raw, 1.6660111620, 1e-9)
    _require(round(raw, 5) == 1.66601 and raw < 2, "raw bound %r", raw)
    return raw

@_check("approx", "growth-rate bound (shifted) near 7.6907")
def lemma4_shifted_bound():
    shifted = lemma4_bound(RV_PAGE102, "shifted")
    _near(shifted, 7.6907039631, 1e-9)
    _require(abs(shifted - 7.6907) <= 1e-4, "shifted bound %r", shifted)

@_check("approx", "primorial inequality holds to n=15 at mu=5.45", 15)
def sondow_holds(n_max: int):
    t = sieve(nth_prime_limit_estimate(n_max + 1))
    for n in range(1, n_max + 1):
        for mu in ("5.45", 5.45):
            _require(sondow_inequality_check(t, n, mu).holds, "fails at n=%d, mu=%r", n, mu)

_check("approx", "primorial inequality fails at mu=0.5, n=1")(
    lambda: _equal(sondow_inequality_check(sieve(100), 1, Fraction(1, 2)).holds, False)
)

@_check("staircase", "normalize (1, 5) -> (2, log 5)")
def normalize_one_five():
    x = tower_normalize(1, 5.0)
    _equal(x.level, 2)
    _near(x.mantissa, math.log(5), 1e-12)

@_check("staircase", "factorial gate fails at N=1")
def gate_fails_at_one():
    _require(not theorem1_gate(sieve(100), 1).holds, "the gate holds at N=1")

@_check("staircase", "factorial gate holds for 2..50", 50)
def gate_holds(n_max: int):
    t = sieve(n_max)
    for n in range(2, n_max + 1):
        gate = theorem1_gate(t, n)
        # the flag, then a standalone integer re-check
        _require(gate.holds and 10 * gate.q**6 < gate.f, "the gate fails at N=%d", n)

@_check("staircase", "double-exp iteration matches closed form to n=100", 100)
def double_exp_closed_form(n_max: int):
    for e in theorem2_sequence(n_max):
        _require(abs(e.loglog - e.loglog_closed) <= 1e-9 * e.loglog_closed, "n=%d", e.n)

@_check("staircase", "gap recursion sandwich holds to 10^4", 10**4)
def gap_sandwich(n_max: int):
    """Checks the a_n sandwich; returns the report, with p_(n_max) at its checkpoint."""
    report = theorem3_sequence(n_max, nth_primes(nth_prime_limit_estimate(n_max), [n_max]))
    violation = report.first_sandwich_violation
    _require(report.sandwich_ok and violation is None, "sandwich fails at n=%s", violation)
    return report

@_check("staircase", "gap recursion increments >= 1", 10**4)
def gap_increments(n_max: int):
    """Runs its own loop a_2 = e, a_{n+1} = a_n + log a_n to n_max: the smallest
    float increment must be >= 1 and equal theorem3_sequence's `min_increment`."""
    a, smallest = math.e, math.inf
    for _ in range(n_max - 2):
        a_next = a + math.log(a)
        smallest, a = min(smallest, a_next - a), a_next
    _require(smallest >= 1.0, "an increment of %r", smallest)
    reported = theorem3_sequence(n_max).min_increment
    _require(reported == smallest, "theorem3_sequence reports %r, steps %r", reported, smallest)

@_check("staircase", "staircase witnesses re-verify", [("factorial-squared", 2)])
def staircase_witnesses(certificates) -> int:
    """Re-verifies the 3-step staircase at b = 5.45, m = 6 from each (mode, start);
    returns the number of sieve-confirmed steps."""
    t, confirmed = sieve(100_000), 0
    for mode, start in certificates:
        cert = staircase_certify(t, 5.45, 6, mode, start, 3)
        # only power-2piN stops early, once pi(N) is out of reach
        full = len(cert.steps) == 3 or (mode == "power-2piN" and len(cert.steps) > 0)
        _require(full, "%d steps from %d in %s", len(cert.steps), start, mode)
        for step in cert.steps:
            where = (step.index, start, mode)
            if step.witness_mode == "exact" and step.q is not None:
                ok = 10 * step.q**cert.exponent < step.end
                _require(ok, "10 q^m >= end at step %d from %d in %s", *where)
            if step.sieve_confirmed:
                confirmed += 1
                w = step.prime_witness
                ok = w is not None and step.start < w <= step.end
                ok = ok and prime_count(t, step.end) > prime_count(t, step.start)
                _require(ok, "no prime in step %d from %d in %s", *where)
    return confirmed

_check("staircase", "euclid baseline at 4, 16, 3")(
    lambda: _equal([euclid_baseline(tower_normalize(0, x)) for x in (4, 16, 3)], [1, 2, 0])
)


def _run(suite: str, name: str, fn, size) -> CheckResult:
    try:
        fn() if size is None else fn(size)
    except ResourceLimitError:
        raise  # the caps refuse the work; that is not a failed check
    except Exception as exc:
        return CheckResult(suite, name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(suite, name, True)


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or all of them.  An exception in a check fails it, with its
    type and message in `detail`, except a `ResourceLimitError`, which propagates;
    the caps are read once first, so a malformed one refuses the whole run."""
    if name != "all" and name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    for variable in config.DEFAULTS:
        config.cap(variable)
    suites = SUITES if name == "all" else [name]
    return [_run(suite, *entry) for suite in suites for entry in SUITES[suite]]
