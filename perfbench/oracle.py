"""Output checks, made apart from pistair after the timed phase.

Every reference value comes from sympy (primes, pi(x), p_n), mpmath interval
arithmetic (pi^2/6, gaps, exponents), the standard library (math.lcm folds,
factorials, exact Fractions) or a property the method must have (gates hold
for N >= 2, enclosure widths, the theorem3 sandwich).  Nothing is compared
against a stored copy of earlier output.

Importing this module loads sympy and mpmath, so the worker imports it only
after it has read its peak memory.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
from fractions import Fraction

import sympy
from mpmath import iv, mp, mpf

from workloads import MOD, WALL_INVOCATIONS, fp, fp_frac

LN10 = math.log(10)


class CheckError(Exception):
    """An output disagrees with its reference."""


def expect(cond, what: str):
    if not cond:
        raise CheckError(what)


def close(a, b, rel: float = 1e-9, tol: float = 0.0) -> bool:
    return abs(a - b) <= max(tol, rel * max(abs(a), abs(b)))


# --- exact helpers ---------------------------------------------------------------


def parse_int(s: str) -> int:
    """Decimal string to int without Python's int->str digit limit."""
    s = s.strip()
    if s.startswith("-"):
        return -parse_int(s[1:])
    if len(s) <= 2000:
        return int(s)
    k = len(s) // 2
    return parse_int(s[:-k]) * 10**k + parse_int(s[-k:])


def parse_frac(s: str) -> tuple[int, int]:
    p, q = s.split("/")
    return parse_int(p), parse_int(q)


def decimal_digits(n: int) -> int:
    d = max(1, int(n.bit_length() * math.log10(2)))
    while 10**d <= n:
        d += 1
    while d > 1 and 10 ** (d - 1) > n:
        d -= 1
    return d


def _exact(t) -> Fraction:
    sign, man, exp, _ = t
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def in_bracket_below(b: tuple[int, int], x: Fraction) -> bool:
    """True if the value bracketed by b is <= x (proved from the bracket)."""
    lo, bits = b
    return Fraction(lo + 1, 1 << bits) <= x


def in_bracket_above(b: tuple[int, int], x: Fraction) -> bool:
    lo, bits = b
    return Fraction(lo, 1 << bits) >= x


class Oracle:
    """Reference values, computed once per run and shared by the checks."""

    def __init__(self):
        self._primes: list[int] = []
        self._prime_limit = 1
        self._euler = {1: Fraction(1)}
        self._euler_keys = [1]
        self._zeta2: dict[int, tuple[Fraction, Fraction]] = {}
        self._psi_points: list[int] = []
        self._psi_sums: list[float] = []
        self._psi_limit = 0
        self._recursion: dict[int, float] = {}
        self._recursion_state = None
        self._fold = {1: 1}
        self._fold_keys = [1]
        self.memo: dict = {}

    # primes from sympy
    def primes_upto(self, n: int) -> list[int]:
        if n > self._prime_limit:
            sympy.sieve.extend(n)
            self._prime_limit = n
            self._primes = list(sympy.sieve.primerange(2, n + 1))
        return self._primes[: bisect.bisect_right(self._primes, n)]

    def euler(self, N: int) -> Fraction:
        """prod over primes p <= N of p^2/(p^2 - 1), as an exact Fraction."""
        if N in self._euler:
            return self._euler[N]
        i = bisect.bisect_right(self._euler_keys, N) - 1
        base = self._euler_keys[i]
        block = [p for p in self.primes_upto(N) if p > base]
        value = self._euler[base] * Fraction(
            math.prod(p * p for p in block), math.prod(p * p - 1 for p in block)
        )
        self._euler[N] = value
        self._euler_keys.insert(i + 1, N)
        return value

    def zeta2(self, dps: int) -> tuple[Fraction, Fraction]:
        """Exact rational bounds on pi^2/6 from mpmath interval arithmetic."""
        if dps not in self._zeta2:
            saved = iv.prec
            try:
                iv.dps = dps
                x = iv.pi**2 / 6
            finally:
                iv.prec = saved
            a, b = x._mpi_
            self._zeta2[dps] = (_exact(a), _exact(b))
        return self._zeta2[dps]

    def psi(self, n: int) -> float:
        """Chebyshev psi(n) = log lcm(1..n)."""
        if n > self._psi_limit:
            self._psi_limit = max(n, 2 * self._psi_limit)
            powers = []
            for p in self.primes_upto(self._psi_limit):
                lp, pk = math.log(p), p
                while pk <= self._psi_limit:
                    powers.append((pk, lp))
                    pk *= p
            powers.sort()
            self._psi_points = [pk for pk, _ in powers]
            acc, sums = 0.0, []
            for _, lp in powers:
                acc += lp
                sums.append(acc)
            self._psi_sums = sums
        i = bisect.bisect_right(self._psi_points, n)
        return self._psi_sums[i - 1] if i else 0.0

    def recursion(self, n: int) -> tuple[float, int | None]:
        """a_n of a_2 = e, a_(k+1) = a_k + log a_k, and the first k <= n where
        n log n - n < a_k <= 2 n log n fails (None if it never does)."""
        if self._recursion_state is None:
            self._recursion_state = (2, math.e, None)
            self._recursion[2] = math.e
        k, a, bad = self._recursion_state
        while k < n:
            a += math.log(a)
            k += 1
            lk = math.log(k)
            if bad is None and not (k * lk - k < a <= 2 * k * lk):
                bad = k
            self._recursion[k] = a
        self._recursion_state = (k, a, bad)
        first_bad = bad if bad is not None and bad <= n else None
        return self._recursion[n], first_bad

    def pi(self, x: int) -> int:
        return int(sympy.primepi(x))

    def nth_prime(self, n: int) -> int:
        return int(sympy.prime(n))

    def lcm_fold(self, n: int) -> int:
        """lcm(1..n) by a math.lcm fold, resumed from the nearest smaller n."""
        if n not in self._fold:
            i = bisect.bisect_right(self._fold_keys, n) - 1
            base = self._fold_keys[i]
            acc = self._fold[base]
            for k in range(base + 1, n + 1):
                acc = math.lcm(acc, k)
            self._fold[n] = acc
            self._fold_keys.insert(i + 1, n)
        return self._fold[n]


# --- checks of library outputs (digests from workloads.py) --------------------------


def check_enclosure(o: Oracle, digits: int, lo: Fraction, hi: Fraction):
    expect(lo <= hi, "enclosure endpoints out of order")
    expect(hi - lo <= Fraction(1, 10**digits), f"width exceeds 1e-{digits}")
    zlo, zhi = o.zeta2(digits + 30)
    expect(lo <= zlo and zhi <= hi, f"enclosure at {digits} digits misses pi^2/6")


def check_euler_fp(o: Oracle, N: int, value_fp):
    expect(value_fp == fp_frac(o.euler(N)), f"Euler product wrong at N={N}")


def check_qn(o: Oracle, d):
    N, q_fp, prod_fp, pow_fp, fact_fp, chain_ok, fact_ok, divides = d
    q = o.euler(N).denominator
    ps = o.primes_upto(N)
    prod = math.prod(p * p - 1 for p in ps)
    n_pow = N ** (2 * len(ps))
    fact_sq = math.factorial(N) ** 2
    expect(q_fp == fp(q), f"qbounds q wrong at N={N}")
    expect(prod_fp == fp(prod), f"qbounds prod(p^2-1) wrong at N={N}")
    expect(pow_fp == fp(n_pow), f"qbounds N^(2 pi(N)) wrong at N={N}")
    expect(fact_fp == fp(fact_sq), f"qbounds (N!)^2 wrong at N={N}")
    expect(q <= prod <= n_pow and chain_ok, f"bound chain fails at N={N}")
    expect(q <= fact_sq and fact_ok, f"factorial bound fails at N={N}")
    expect(prod % q == 0 and divides, f"q does not divide prod(p^2-1) at N={N}")


def gate_reference(o: Oracle, N: int):
    q = o.euler(N).denominator
    f = math.factorial(N) ** 14
    lhs = 10 * q**6
    slack = 14 * math.lgamma(N + 1) / LN10 - 1 - 6 * math.log10(q)
    return q, f, lhs, lhs < f, slack


def check_gate(o: Oracle, d):
    N, q_fp, f_fp, lhs_fp, holds, slack = d
    q, f, lhs, ref_holds, ref_slack = gate_reference(o, N)
    expect(q_fp == fp(q) and f_fp == fp(f) and lhs_fp == fp(lhs), f"gate integers wrong at N={N}")
    expect(holds == ref_holds == (N >= 2), f"factorial gate verdict wrong at N={N}")
    expect(close(slack, ref_slack, 1e-9, 1e-9), f"gate slack wrong at N={N}")


def check_gap_common(o: Oracle, N: int, q: int, below, above, exponent, digits_used, digits):
    """below(x)/above(x): the gap's lower end is <= x / upper end is >= x."""
    cap = 10_000  # pistair's default digit cap (PISTAIR_DIGIT_CAP)
    ladder = {min(digits * 2**j, cap) for j in range(16)}
    expect(digits_used in ladder, f"gap digits_used {digits_used} not on the doubling ladder")
    value = o.euler(N)
    expect(q == value.denominator, f"gap q wrong at N={N}")
    zlo, zhi = o.zeta2(digits_used + 40)
    true_lo, true_hi = zlo - value, zhi - value
    expect(true_lo > 0, f"product not below zeta(2) at N={N}")
    expect(below(true_lo) and above(true_hi), f"gap enclosure misses zeta(2) - p_N/q_N at N={N}")
    if q < 2:
        expect(exponent is None, "exponent reported for q < 2")
    else:
        saved = mp.prec
        try:
            mp.dps = 30
            ref = float(-mp.log(mpf(true_lo.numerator) / true_lo.denominator) / mp.log(q))
        finally:
            mp.prec = saved
        expect(exponent is not None and close(exponent, ref, 1e-9), f"gap exponent wrong at N={N}")


def check_gap(o: Oracle, d, digits: int):
    N, value_fp, q_fp, b_lo, b_hi, exponent, digits_used = d
    check_euler_fp(o, N, value_fp)
    q = o.euler(N).denominator
    expect(q_fp == fp(q), f"gap q wrong at N={N}")
    # relative width below 1, proved from the brackets
    lo_b, bits = b_lo
    hi_b, _ = b_hi
    expect(hi_b + 1 - lo_b < lo_b, f"gap enclosure too wide at N={N}")
    check_gap_common(
        o, N, q,
        lambda x: in_bracket_below(b_lo, x),
        lambda x: in_bracket_above(b_hi, x),
        exponent, digits_used, digits,
    )


def check_table(o: Oracle, d):
    limit, count, picks = d
    expect(count == o.pi(limit), f"sieve({limit}) holds {count} primes, pi(x) disagrees")
    expect(picks[-1][1] == sympy.prevprime(limit + 1), f"sieve({limit}) last prime wrong")
    for k, p in picks:
        expect(sympy.isprime(p) and o.pi(p) == k + 1, f"sieve({limit}) entry {k} wrong")


def check_lcm(o: Oracle, n: int, d):
    value_fp, log_value = d
    if n <= 20_000:
        ref = o.lcm_fold(n)
        expect(value_fp == fp(ref), f"lcm_to({n}) != fold lcm")
    else:
        expect(close(log_value, o.psi(n), 1e-9), f"log lcm_to({n}) != psi({n})")
        # d_n is the product of the maximal prime powers <= n, so its
        # residue is theirs
        ref = 1
        for p in o.primes_upto(n):
            pk = p
            while pk * p <= n:
                pk *= p
            ref = ref * pk % MOD
        expect(value_fp == ref, f"lcm_to({n}) wrong")


def check_log_lcm(o: Oracle, r: dict):
    n = r["n"]
    expect(close(r["log_lcm"], o.psi(n), 1e-9, 1e-12), f"log d_{n} != psi({n})")
    log_n = math.log(n) if n > 1 else 0.0
    expect(close(r["pi_log_n"], o.pi(n) * log_n, 1e-12, 1e-12), f"pi(n) log n wrong at {n}")
    expect(close(r["log_sq_n"], log_n * log_n, 1e-12, 1e-12), f"(log n)^2 wrong at {n}")
    expect(r["log_lcm"] <= r["pi_log_n"] + 1e-9, f"log d_n > pi(n) log n at {n}")


def check_log_table(o: Oracle, n_max: int, d):
    length, picks = d
    expect(length == n_max + 1, f"log_lcm_table({n_max}) has length {length}")
    for n, v in picks:
        expect(close(v, o.psi(n), 1e-9, 1e-9), f"log_lcm_table entry {n} != psi({n})")


def table_checkpoints(o: Oracle, n_max: int, table_limit: int) -> list[int]:
    """Checkpoints theorem3_sequence reports by default with a table."""
    count = o.pi(table_limit)
    return [10**k for k in range(3, 8) if 10**k <= min(n_max, count)]


def check_recursion(o: Oracle, r: dict, wanted: list[int]):
    n_max = r["n_max"]
    a, first_bad = o.recursion(n_max)
    expect(close(r["a_final"], a, 1e-12), f"theorem3 a_{n_max} wrong")
    expect(r["sandwich_ok"] and r["first_sandwich_violation"] is None, "sandwich fails")
    expect(first_bad is None, f"sandwich fails at {first_bad} in the reference")
    expect(r["min_increment"] == 1.0, "min increment is log a_2 = 1")
    for c in r["checkpoints"]:
        n = c["n"]
        expect(close(c["a_n"], o.recursion(n)[0], 1e-12), f"checkpoint a_{n} wrong")
        if c["p_n"] is not None:
            p = c["p_n"]
            expect(sympy.isprime(p) and o.pi(p) == n, f"checkpoint p_{n} wrong")
            expect(close(c["rel_diff"], abs(c["a_n"] - p) / p, 1e-12), "checkpoint rel_diff")
    expect([c["n"] for c in r["checkpoints"]] == wanted, "checkpoints missing")


def sondow_reference(o: Oracle, n: int, mu: Fraction):
    p_next = o.nth_prime(n + 1)
    ps = o.primes_upto(p_next - 1)
    expect(len(ps) == n, "prime list short")
    theta = math.fsum(math.log(p) for p in ps)
    lhs, rhs = mu.denominator * math.log(p_next), 2 * mu.numerator * theta
    if abs(lhs - rhs) > 1e-6 * max(lhs, rhs):
        holds = lhs < rhs
    else:
        holds = p_next**mu.denominator <= math.prod(ps) ** (2 * mu.numerator)
    return p_next, ps, holds


def check_sondow(o: Oracle, d, ref_mu: Fraction):
    n, p_next, prim_fp, mu, holds = d
    ref_next, ps, ref_holds = sondow_reference(o, n, ref_mu)
    expect(mu == ref_mu, f"mu is not {ref_mu}")
    expect(p_next == ref_next, f"p_{n + 1} wrong")
    ref_fp = 1
    for p in ps:
        ref_fp = ref_fp * p % MOD
    expect(prim_fp == ref_fp, f"primorial of {n} primes wrong")
    expect(holds == ref_holds and holds, f"Sondow inequality verdict wrong at n={n}")


def check_euler(o: Oracle, key, d):
    expect(d[0] == key[1], "N echoed wrong")
    check_euler_fp(o, key[1], d[1])


def check_sieve(o: Oracle, key, d):
    expect(d[0] == key[1], "limit echoed wrong")
    check_table(o, d)


LIBRARY_CHECKS = {
    "zeta2_enclosure": lambda o, key, d: check_enclosure(o, key[1], *d),
    "euler_product": check_euler,
    "sieve": check_sieve,
    "theorem3_sequence": lambda o, key, d: check_recursion(o, d, table_checkpoints(o, *key[1:])),
    "lcm_to": lambda o, key, d: check_lcm(o, key[1], d),
    "log_lcm_to": lambda o, key, d: check_log_lcm(o, d),
    "log_lcm_table": lambda o, key, d: check_log_table(o, key[1], d),
    "sondow_inequality_check": lambda o, key, d: check_sondow(o, d, Fraction(key[2])),
}


def check_sweep(o: Oracle, key, d):
    _, N, digits = key
    e, qn, gate, gap = d
    expect(e[0] == qn[0] == gate[0] == gap[0] == N, "N echoed wrong")
    check_euler_fp(o, N, e[1])
    check_qn(o, qn)
    check_gate(o, gate)
    check_gap(o, gap, digits)


# --- checks of CLI output -------------------------------------------------------


def opt(argv, name: str, default=None):
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1 :]
    return default


def cli_records(argv, out: str) -> list[dict]:
    fmt = opt(argv, "--format", "json")
    if fmt == "json":
        return [json.loads(line) for line in out.splitlines()]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(out)))
    records, current = [], {}
    for line in out.splitlines():
        if line == "--":
            records.append(current)
            current = {}
        else:
            key, _, value = line.partition("  ")
            current[key] = value.strip()
    return records


def one(records: list[dict]) -> dict:
    expect(len(records) == 1, f"expected one record, got {len(records)}")
    return records[0]


def frac_of(s: str) -> Fraction:
    return Fraction(*parse_frac(s))


def cli_euler(o: Oracle, argv, records):
    N = int(opt(argv, "--N"))
    r = one(records)
    p, q = parse_frac(r["value"])
    v = o.euler(N)
    expect(int(r["N"]) == N, "N echoed wrong")
    expect((p, q) == (v.numerator, v.denominator), f"euler --N {N} value wrong")
    expect(int(r["q_digits"]) == decimal_digits(q), f"euler --N {N} q_digits wrong")


def cli_gap(o: Oracle, argv, records):
    N, digits = int(opt(argv, "--N")), int(opt(argv, "--digits", 30))
    r = one(records)
    expect(r["N"] == N and frac_of(r["value"]) == o.euler(N), f"gap --N {N} value wrong")
    lo, hi = frac_of(r["gap"]["lo"]), frac_of(r["gap"]["hi"])
    expect(hi - lo < lo, f"gap --N {N} enclosure too wide")
    check_gap_common(
        o, N, parse_int(r["q"]), lambda x: lo <= x, lambda x: hi >= x,
        r["exponent"], r["digits_used"], max(1, digits),
    )


def cli_qbounds(o: Oracle, argv, records):
    N = int(opt(argv, "--N"))
    r = one(records)
    ps = o.primes_upto(N)
    q = o.euler(N).denominator
    ref = {
        "q": q,
        "prod_p2_minus_1": math.prod(p * p - 1 for p in ps),
        "n_pow_2pi": N ** (2 * len(ps)),
        "factorial_sq": math.factorial(N) ** 2,
    }
    expect(r["N"] == N, "N echoed wrong")
    for name, value in ref.items():
        expect(parse_int(r[name]) == value, f"qbounds --N {N} {name} wrong")
    expect(r["chain_ok"] and r["factorial_ok"] and r["q_divides_prod"], f"qbounds --N {N} flags")


def cli_zeta2(o: Oracle, argv, records):
    digits = int(opt(argv, "--digits"))
    r = one(records)
    lo, hi = frac_of(r["lo"]), frac_of(r["hi"])
    expect(int(r["digits"]) == digits, "digits echoed wrong")
    expect(frac_of(r["width"]) == hi - lo, "width is not hi - lo")
    check_enclosure(o, digits, lo, hi)


def gauss_prefix(lo: Fraction, hi: Fraction) -> list[int]:
    out = []
    while True:
        a, b = lo.numerator // lo.denominator, hi.numerator // hi.denominator
        if a != b:
            return out
        out.append(a)
        lo, hi = lo - a, hi - a
        if lo == 0 or hi == 0:
            return out
        lo, hi = 1 / hi, 1 / lo


def cf_prefix(o: Oracle, length: int) -> list[int]:
    """At least `length` partial quotients of pi^2/6, each proved by an
    mpmath enclosure."""
    dps = 64
    while True:
        key = ("cf", dps)
        if key not in o.memo:
            o.memo[key] = gauss_prefix(*o.zeta2(dps))
        if len(o.memo[key]) >= length:
            return o.memo[key]
        dps *= 2
        expect(dps <= 1 << 16, "reference continued fraction too short")


def cli_cf(o: Oracle, argv, records):
    digits, terms = int(opt(argv, "--digits", 60)), int(opt(argv, "--terms", 40))
    got = [int(r["partial_quotient"]) for r in records]
    expect([r["index"] for r in records] == list(range(len(got))), "cf indices")
    expect(got == cf_prefix(o, len(got))[: len(got)], f"cf --digits {digits} quotients wrong")
    # a width-10^-d enclosure resolves about 0.97 d quotients (Levy's constant)
    expect(len(got) == terms or len(got) >= min(terms, digits // 2), "cf prefix too short")


def cli_exponents(o: Oracle, argv, records):
    max_q = int(opt(argv, "--max-q", 10**6))
    *convs, summary = records
    ref = []
    p0, q0, p1, q1 = 1, 0, 0, 1
    quotients = cf_prefix(o, 8)
    k = 0
    while True:
        if k == len(quotients):
            quotients = cf_prefix(o, 2 * k)
        a = quotients[k]
        p0, q0, p1, q1 = a * p0 + p1, a * q0 + q1, p0, q0
        if q0 > max_q:
            break
        ref.append((k, a, p0, q0))
        k += 1
    got = [(r["index"], int(r["partial_quotient"]), parse_int(r["p"]), parse_int(r["q"]))
           for r in convs]
    expect(got == ref, f"exponents --max-q {max_q}: convergents wrong")
    dps = 2 * len(str(max_q)) + 40
    zlo, _ = o.zeta2(dps)
    exps = []
    saved = mp.prec
    try:
        mp.dps = 30
        for r, (_, _, p, q) in zip(convs, ref):
            if q < 2:
                expect(r["exponent"] is None, "exponent for q < 2")
                continue
            gap = abs(zlo - Fraction(p, q))
            e = float(-mp.log(mpf(gap.numerator) / gap.denominator) / mp.log(q))
            expect(r["exponent"] is not None and close(r["exponent"], e, 1e-9),
                   f"exponent of {p}/{q} wrong")
            exps.append(r["exponent"])
    finally:
        mp.prec = saved
    expect(summary["convergents"] == len(ref), "convergent count")
    expect(summary["max_exponent"] == (max(exps) if exps else None), "max_exponent")


def cli_dn(o: Oracle, argv, records):
    n = int(opt(argv, "--n"))
    r = one(records)
    expect(r["n"] == n, "n echoed wrong")
    check_log_lcm(o, r)
    if "--log-only" in argv:
        expect("d_n" not in r, "d_n printed with --log-only")
    else:
        expect(parse_int(r["d_n"]) == o.lcm_fold(n), f"dn --n {n}: d_n != fold lcm")


def cli_theorem1(o: Oracle, argv, records):
    N = int(opt(argv, "--N"))
    r = one(records)
    q, f, lhs, holds, slack = gate_reference(o, N)
    expect(r["N"] == N, "N echoed wrong")
    expect(parse_int(r["q"]) == q and parse_int(r["f"]) == f and parse_int(r["lhs"]) == lhs,
           f"theorem1 --N {N} integers wrong")
    expect(r["holds"] == holds == (N >= 2), f"theorem1 --N {N} verdict wrong")
    expect(close(r["slack_log10"], slack, 1e-9, 1e-9), f"theorem1 --N {N} slack wrong")
    relation = "<" if holds else ">="
    expect(f"10*q^6 {relation} (N!)^14 at N={N};" in r["reading"], "theorem1 reading")


def tower_lnln(level: int, mantissa: float):
    """log log of exp^level(mantissa) in mpmath, for level <= 5."""
    x = mpf(mantissa)
    if level >= 2:
        for _ in range(level - 2):
            x = mp.exp(x)
        return x
    for _ in range(2 - level):
        x = mp.log(x)
    return x


def cli_theorem2(o: Oracle, argv, records):
    n = int(opt(argv, "--n"))
    expect([r["n"] for r in records] == list(range(n + 1)), "theorem2 indices")
    for r in records:
        k = r["n"]
        expect(close(r["loglog"], math.exp(k), 1e-12 * (k + 1)), f"theorem2 loglog at {k}")
        expect(close(r["loglog_closed"], float(mp.exp(k)), 1e-15), f"theorem2 closed form at {k}")
        level, mantissa = r["tower"]["level"], r["tower"]["mantissa"]
        expect(level >= 1 and 1 <= mantissa < math.e, "theorem2 tower not normalized")
        x = mpf(r["loglog"])
        for _ in range(level - 2):
            x = mp.log(x)
        expect(close(float(x), mantissa, 1e-9), f"theorem2 tower value at {k}")


def cli_theorem3(o: Oracle, argv, records):
    n = int(opt(argv, "--n"))
    r = one(records)
    wanted = [10**k for k in range(3, 8) if 10**k <= n] if "--sieve" in argv else []
    expect(r["n_max"] == n, "n_max echoed wrong")
    check_recursion(o, r, wanted)


def cli_staircase(o: Oracle, argv, records):
    mode = opt(argv, "--mode")
    b = float(opt(argv, "--b", 5.45))
    m = int(opt(argv, "--m", math.floor(b) + 1))
    start, steps = int(opt(argv, "--start", 2)), int(opt(argv, "--steps", 3))
    limit = 100_000  # the CLI's table for staircases
    head = records[0]
    body = [r for r in records if r["record"] == "step"]
    bounds = [r for r in records if r["record"] == "lower_bound"]
    expect(head["record"] == "staircase" and len(records) == 1 + len(body) + len(bounds), "layout")
    expect((head["measure_bound"], head["exponent"], head["q_mode"], head["start"])
           == (b, m, mode, start), "staircase header echoes")
    expect(head["pi_at_start"] == o.pi(start), "pi_at_start wrong")
    expect(len(body) == steps or head["truncated_reason"] is not None, "steps missing")
    expect(len(body) >= 1, "no steps")
    previous = str(start)
    for i, s in enumerate(body):
        expect(s["index"] == i and s["start"] == previous, f"step {i} does not chain")
        previous = s["end"]
        if s["witness_mode"] == "exact":
            n, end = parse_int(s["start"]), parse_int(s["end"])
            if mode == "factorial-squared":
                q_bound = math.factorial(n) ** 2
            else:
                q_bound = n ** (2 * o.pi(n))
            expect(parse_int(s["q_bound"]) == q_bound, f"step {i} Q(start) wrong")
            expect(end == 10 * q_bound**m + 1, f"step {i} end wrong")
            expect(close(s["ln_q_bound"], math.log(q_bound), 1e-9, 1e-12), f"step {i} ln Q")
            expect(close(s["ln_end"], math.log(end), 1e-9), f"step {i} ln end")
            if n <= min(limit, 2000):
                q = o.euler(n).denominator
                expect(parse_int(s["q"]) == q, f"step {i} q wrong")
                expect(s["witness_ok"] is True and 10 * q**m < end, f"step {i} witness")
            if end <= limit:
                witness = int(sympy.nextprime(n))
                expect(s["sieve_confirmed"] is True and s["prime_witness"] == witness <= end,
                       f"step {i} prime witness wrong")
        else:
            expect(s["witness_mode"] == "logarithmic", "unknown witness mode")
            if isinstance(s["start"], str) and mode == "factorial-squared":
                n = parse_int(s["start"])
                if n <= 10**15:
                    expect(close(s["ln_q_bound"], 2 * math.lgamma(n + 1), 1e-9), f"step {i} ln Q")
            if s["ln_end"] is not None and s["ln_q_bound"] is not None:
                expect(close(s["ln_end"], m * s["ln_q_bound"] + LN10, 1e-9), f"step {i} ln end")
            end = s["end"]
            expect(end["level"] >= 1 and 1 <= end["mantissa"] < math.e, f"step {i} end tower")
            if s["ln_end"] is not None:
                lnx = tower_lnln(end["level"] + 1, end["mantissa"])  # log of the end
                expect(close(float(lnx), s["ln_end"], 1e-9), f"step {i} end tower value")
    pi0 = head["pi_at_start"]
    expect([(lb["at"], lb["pi_at_least"]) for lb in bounds]
           == [(s["end"], pi0 + i + 1) for i, s in enumerate(body)], "lower bounds")


def cli_lemma4(o: Oracle, argv, records):
    a, b = float(opt(argv, "--a", -2.55306095)), float(opt(argv, "--b", 1.70036709))
    mode = opt(argv, "--mode", "raw")
    r = one(records)
    rho, sigma = (b, -a) if mode == "raw" else (b + 2, -(a + 2))
    expect((r["a"], r["b"], r["mode"]) == (a, b, mode), "lemma4 echoes")
    expect(close(r["rho"], rho, 1e-15, 1e-15) and close(r["sigma"], sigma, 1e-15, 1e-15), "rho/sigma")
    expect(close(r["bound"], 1 + rho / sigma, 1e-14), "lemma4 bound")
    if opt(argv, "--a") is None:
        published = 1.6660111620 if mode == "raw" else 7.6907039631
        expect(abs(r["bound"] - published) < 1e-9, "lemma4 bound differs from the paper")


def cli_sondow(o: Oracle, argv, records):
    n = int(opt(argv, "--n"))
    mu = Fraction(opt(argv, "--mu", "5.45"))
    r = one(records)
    p_next, ps, holds = sondow_reference(o, n, mu)
    expect(r["n"] == n and r["p_next"] == p_next, f"sondow --n {n} p_next wrong")
    expect(parse_int(r["primorial"]) == math.prod(ps), f"sondow --n {n} primorial wrong")
    expect(frac_of(r["mu"]) == mu and r["holds"] == holds, f"sondow --n {n} verdict wrong")


def cli_euclid(o: Oracle, argv, records):
    level, mantissa = int(opt(argv, "--level")), float(opt(argv, "--mantissa"))
    r = one(records)
    saved = mp.prec
    try:
        mp.dps = 40
        want = tower_lnln(level, mantissa)
        got = tower_lnln(r["level"], r["mantissa"])
        expect(abs(got - want) <= 1e-12 * abs(want), "euclid tower is not the input value")
        # 2^(2^k) <= x  <=>  k <= (log log x - log log 2) / log 2
        t = (want - mp.log(mp.log(2))) / mp.log(2)
        allowed = {max(0, int(mp.floor(t)))}
        if abs(t - mp.nint(t)) < 1e-9:  # too close to a boundary for floats
            allowed |= {max(0, int(mp.nint(t)) - 1), max(0, int(mp.nint(t)))}
    finally:
        mp.prec = saved
    expect(r["k"] in allowed, f"euclid --level {level} doubling count wrong")


def cli_verify(o: Oracle, argv, records):
    *checks, summary = records
    suite = opt(argv, "--suite", "all")
    expect(all(c["ok"] for c in checks), "a verify check failed")
    expect(summary == {"suite": suite, "checks": len(checks), "failures": 0}, "verify summary")


CLI_CHECKS = {
    "euler": cli_euler,
    "gap": cli_gap,
    "qbounds": cli_qbounds,
    "zeta2": cli_zeta2,
    "cf": cli_cf,
    "exponents": cli_exponents,
    "dn": cli_dn,
    "theorem1": cli_theorem1,
    "theorem2": cli_theorem2,
    "theorem3": cli_theorem3,
    "staircase": cli_staircase,
    "lemma4": cli_lemma4,
    "sondow": cli_sondow,
    "euclid": cli_euclid,
    "verify": cli_verify,
}


def check_cli(o: Oracle, key, out):
    argv = key[1:]
    rc, stdout, stderr = out
    expect(rc == 0 and stderr == "", f"exit {rc}")
    CLI_CHECKS[argv[0]](o, argv, cli_records(argv, stdout))


def is_wall_failure(key, out) -> bool:
    """A failure of one of the five known wall invocations: exit 2 (or 1)
    with the one-line JSON error record the CLI promises."""
    if key[0] != "cli" or key[1:] not in WALL_INVOCATIONS:
        return False
    rc, stdout, stderr = out
    lines = stderr.splitlines()
    return rc in (1, 2) and stdout == "" and len(lines) == 1 and "error" in json.loads(lines[0])


def check(o: Oracle, key, digest):
    """Raises CheckError if the digest of job `key` is wrong."""
    kind = key[0]
    if kind == "sweep":
        return check_sweep(o, key, digest)
    if kind == "cli":
        return check_cli(o, key, digest)
    return LIBRARY_CHECKS[kind](o, key, digest)
