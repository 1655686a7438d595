"""Iterated-exponential arithmetic and the prime-gap staircase certifiers.

A LogTower stores a number as exp applied `level` times to a float
mantissa, which is enough to log-count and certify numbers far beyond any
materializable integer.  On top of that sit the three gate checkers (the
factorial gate, the exp((log x)^e) sequence, the a_{n+1} = a_n + log a_n
sequence), the staircase certifier, and the classic 2^2^k baseline.

Every tower built as a threshold is a proven upper bound: staircase ends
(_step) and power towers round each float up (_up, _tower_up).
tower_normalize rounds to nearest, so it only takes given values, such as
the euclid argument and the exp((log x)^e) ladder's log log, into tower form.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from . import config
from .arith import int_power
from .errors import DomainError, PrecisionExhaustedError, RangeError, ResourceLimitError
from .euler import euler_product
from .primes import PrimeTable, nth_prime, prime_count
from .records import decimal_field, decimal_str

#: euclid_baseline refuses a tower whose ln ln x is not below this in size
OVERFLOW = 1e300
#: exp() stays finite below this argument
MAX_EXP_ARG = 709.0

LN2 = math.log(2)
LN10 = math.log(10)


@dataclass(frozen=True)
class LogTower:
    """Value exp(exp(...exp(mantissa))) with `level` applications of exp.

    Normalized form keeps mantissa in [1, e) when level >= 1; level-0
    towers are plain floats and are never promoted by normalization.
    """

    level: int
    mantissa: float


def tower_normalize(level: int, mantissa: float) -> LogTower:
    """Canonical tower for exp^level(mantissa).

    Raises the level while the mantissa is >= e (mantissa -> log mantissa)
    and lowers while it is < 1 at level >= 1 (mantissa -> exp mantissa).
    """
    if level < 0:
        raise DomainError(f"tower level must be >= 0, got {level}")
    try:
        r = float(mantissa)
    except OverflowError:
        raise DomainError("tower mantissa must lie in the float range, |x| < 1.8e308") from None
    k = int(level)
    if not math.isfinite(r):
        raise DomainError(f"tower mantissa must be finite, got {r}")
    if k == 0:
        return LogTower(0, r)
    if r <= 0:
        raise DomainError(f"mantissa must be positive at level >= 1, got {r}")
    while True:
        if r >= math.e:
            r = math.log(r)
            k += 1
        elif r < 1 and k >= 1:
            r = math.exp(r)
            k -= 1
        else:
            break
    return LogTower(k, r)


def _up(x: float) -> float:
    """x moved up by two ulps, after a rounded operation whose result must not fall.

    +, -, * and / round to nearest (half an ulp), and the glibc manual's
    x86-64 table lists at most one ulp for log and exp: two ulps cover one
    of these, or two roundings to nearest in a row."""
    return math.nextafter(math.nextafter(x, math.inf), math.inf)


def _tower_up(level: int, r: float) -> LogTower:
    """A normalized tower at least exp^level(r), for a finite r >= 1:
    tower_normalize with each log rounded up, which keeps the mantissa >= 1."""
    while r >= math.e:
        r = _up(math.log(r))
        level += 1
    return LogTower(level, r)


def _exp_tower_up(x: float, ln_x: float, t: "int | LogTower") -> LogTower:
    """A tower >= exp(X) from floats x >= X >= 1 or ln_x >= ln X, else t one level up (_step)."""
    if x < math.inf:
        return _tower_up(1, x)
    if ln_x < math.inf:
        return _tower_up(2, ln_x)
    return _tower_up(t.level + 1, math.nextafter(t.mantissa, math.inf))


def _exp_up(r: float, times: int) -> float:
    """An upper bound on exp applied `times` times to r, inf once past the float range."""
    for _ in range(times):
        if r > MAX_EXP_ARG:
            return math.inf
        r = _up(math.exp(r))
    return r


def power_tower(base: float, height: int) -> LogTower:
    """A tower at least base^base^...^base with `height` copies: folded as
    t -> exp(t ln base) with every float rounded up (_up), like staircase ends.

    With c >= ln base and float bounds v >= t and ln_t >= ln t, each step takes
    one of three ways.  While x = v c is a float, the next tower is exp(x).
    Otherwise v > 2^1024 / 710, so ln t > 703 while ln c > -37 (c > 2^-53, as
    base > 1 is a float), and the next tower is exp(exp(s)), s = ln_t + ln c
    > 1, while ln_t is a float.  Beyond that ln t is at least ~e^709, and as in
    _step adding ln c moves the top mantissa by far less than one ulp: the next
    tower is t one level up with the next float as mantissa.  So any base > 1
    works at any height.
    """
    if height < 1:
        raise DomainError(f"tower height must be >= 1, got {height}")
    if base <= 1:
        raise DomainError(f"only growing towers (base > 1) are supported, got {base}")
    t = tower_normalize(0, base)
    c = _up(math.log(base))
    for _ in range(height - 1):
        if t.level == 0:
            v, ln_t = t.mantissa, _up(math.log(t.mantissa))
        else:
            ln_t = _exp_up(t.mantissa, t.level - 1)
            v = _exp_up(ln_t, 1)
        x = _up(v * c)
        if x <= MAX_EXP_ARG:
            t = LogTower(0, _up(math.exp(x)))
        else:
            t = _exp_tower_up(x, _up(ln_t + _up(math.log(c))), t)
    return t


# ---------------------------------------------------------------------------
# Theorem gates and sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorialGate:
    """Exact check of 10 * q_N^6 < (N!)^14 at a single N.

    When the gate holds and no prime lies in (N, (N!)^14], the truncated
    Euler product is within 1/q_N^6 of pi^2/6 - too close for the measure
    bound, which is what forces a prime into the interval.
    """

    N: int
    q: int = decimal_field()
    f: int = decimal_field()  # (N!)^14
    lhs: int = decimal_field()  # 10 * q^6
    holds: bool
    slack_log10: float  # log10(f) - log10(lhs), the unused room in the gate

    def reading(self) -> str:
        relation = "<" if self.holds else ">="
        return (
            f"10*q^6 {relation} (N!)^14 at N={self.N}; if it holds and no prime "
            f"lies in (N, (N!)^14], the product is within 1/q^6 of pi^2/6"
        )


def theorem1_first_passing(t: PrimeTable, n_max: int = 100) -> int | None:
    """Smallest N <= n_max where the factorial gate holds.

    The underlying argument only promises the gate "eventually"; this makes
    the threshold empirical instead.
    """
    for n in range(1, n_max + 1):
        if theorem1_gate(t, n).holds:
            return n
    return None


def theorem1_gate(t: PrimeTable, N: int) -> FactorialGate:
    """The factorial gate 10 * q_N^6 < (N!)^14 by exact integer comparison.

    f = (N!)^14 is exact, made by arith.int_power: from N = 355 on, its
    steps from FFT_FROM_BITS bits on run as checked FFT products, and at
    N = 2000 it takes ~1.5 ms against ~4.4 ms for ``math.factorial(N) ** 14``.
    lhs takes q^6 from int_power too, which strips q's factor 2^s (1189 of
    its 4390 bits at N = 2000): there 97 us against 157 us for ``q**6``
    (best of 15, Python 3.11, 2-core Xeon).
    """
    config.refuse_above(config.FACTORIAL_CAP, N, "N=")
    q = euler_product(t, N).value.denominator
    f = int_power(math.factorial(N), 14)
    lhs = 10 * int_power(q, 6)
    return FactorialGate(
        N=N,
        q=q,
        f=f,
        lhs=lhs,
        holds=lhs < f,
        slack_log10=math.log10(f) - math.log10(lhs),
    )


@dataclass(frozen=True)
class DoubleExpEntry:
    """One element x_n = exp(exp(loglog)) of the exp((log x)^e) iteration."""

    n: int
    loglog: float  # iterated: loglog_{n+1} = e * loglog_n
    loglog_closed: float  # closed form e^n
    tower: LogTower


#: the loglog seed exceeds float range above this index
DOUBLE_EXP_MAX_N = 700


def theorem2_sequence(n_max: int) -> list[DoubleExpEntry]:
    """x_0 = e^e iterated under x -> exp((log x)^e), tracked in log log.

    Applying log twice to the recursion gives loglog x_{n+1} = e * loglog
    x_n exactly, which is what gets iterated; the closed form e^n rides
    along for comparison rather than being assumed.
    """
    if n_max < 0:
        raise RangeError(f"n_max must be >= 0, got {n_max}")
    if n_max > DOUBLE_EXP_MAX_N:
        raise RangeError(
            f"n_max={n_max} exceeds {DOUBLE_EXP_MAX_N}; the log-log value "
            "e^n leaves float range"
        )
    entries = []
    loglog = 1.0  # log log e^e
    for n in range(n_max + 1):
        entries.append(
            DoubleExpEntry(
                n=n,
                loglog=loglog,
                loglog_closed=math.exp(n),
                tower=tower_normalize(2, loglog),
            )
        )
        loglog *= math.e
    return entries


@dataclass(frozen=True)
class GapRecursionCheckpoint:
    n: int
    a_n: float
    p_n: int
    rel_diff: float


@dataclass(frozen=True)
class GapRecursionReport:
    """The a_{n+1} = a_n + log a_n iteration with its sandwich verification."""

    n_max: int
    a_final: float
    sandwich_ok: bool
    first_sandwich_violation: int | None
    min_increment: float
    checkpoints: list[GapRecursionCheckpoint]


#: n at which theorem3_sequence compares a_n with p_n by default
THEOREM3_CHECKPOINTS = (10**3, 10**4, 10**5, 10**6, 10**7)
#: values of a_n the recursion produces before their sandwich check runs;
#: bounds the memory of a call independently of n_max
THEOREM3_CHUNK = 4096
#: a_n from which a block of the recursion is solved as a numpy fixed point
THEOREM3_VECTOR_FROM = 2.0**17
#: fixed-point passes before a block gives up and runs the scalar loop
THEOREM3_PASSES = 8
#: how far, in ulps of log x, np.log may lie from math.log before the
#: fixed point could differ from the scalar loop without noticing
LOG_ULPS = 64


def theorem3_sequence(
    n_max: int, t: PrimeTable | Mapping[int, int] | None = None
) -> GapRecursionReport:
    """Iterate a_2 = e, a_{n+1} = a_n + log a_n and verify the sandwich.

    n log n - n < a_n <= 2 n log n is checked at every step, and
    |a_n - p_n|/p_n is reported at the checkpoints, which come from t: a
    prime table gives those of ``THEOREM3_CHECKPOINTS`` it can answer, a
    mapping n -> p_n such as primes.nth_primes returns gives its keys, and
    None gives none.

    Every a_n is the float of the scalar loop ``a += math.log(a)``, bit for
    bit.  The recursion runs in blocks of at most ``THEOREM3_CHUNK`` values;
    each block's sandwich is then checked with numpy and its checkpoints
    are read off.  Below ``THEOREM3_VECTOR_FROM`` = 2^17 a block is that
    scalar loop.  From there on it is solved as the fixed point of
    x -> cumsum([a, fl(x_i + np.log(x_i)) - x_i]), where the differences are
    exact (Fast2Sum, as x > log x), so x is a fixed point exactly when
    x_{i+1} = fl(x_i + np.log(x_i)) at every step.  The first guess is the
    expansion of a_k in k about a to third order; a pass shrinks its error
    by about k/a <= 1/32, and the block is accepted when a pass reproduces
    the previous one bit for bit: after 5 passes at a = 2^17, 3 at 10^6 and
    2 at 10^7 for full blocks.  A block that has not converged after
    ``THEOREM3_PASSES`` passes runs the scalar loop.

    np.log may differ from math.log in the last bits, so each accepted step
    is then tested for whether such a difference could change its rounding:
    x_i + (L_i -+ d) must round to x_{i+1} at both ends, with d at least
    ``LOG_ULPS`` ulps of L_i = np.log(x_i).  That is the Fast2Sum residual
    of x_i + L_i lying more than d from a rounding midpoint; rounding is
    monotone, so a step that crosses a binade needs no case of its own.
    Each step that fails the test (47 of 4096 at a = 2^17, 6 at 10^6, about
    1 at 10^7) is redone with math.log, and any disagreement sends the
    block to the scalar loop.  So exactness rests on one assumption: np.log
    lies within ``LOG_ULPS`` = 64 ulps of math.log.  NumPy's own accuracy
    tests hold its float64 log to 1 ulp, and glibc's log is within 1 too, so
    64 is a wide margin, bought with a few more redone steps.  On the 2-core
    AVX-512 Xeon this was timed on, 62 of 2*10^6 doubles in [2^17, 2^60]
    gave different logs, none by more than 1 ulp, and a test checks 2 ulps
    on 10^6 such doubles.  There (Python 3.11, NumPy 2.4, best of 7),
    theorem3_sequence(10^6) took 40 ms against 144 ms for the scalar loop,
    and 10^5 6.6 ms against 14 ms.

    The sandwich bounds use np.log too, moving a bound by ~1e-15 relative at
    most.  That cannot flip a comparison: the smallest relative margin of
    the sandwich over 2 <= n <= 10^6 is 2.0%, at n = 2 (e against
    4 ln 2), and the lower margin, the narrower one for large n, shrinks
    only like log log n / log n (17% at 10^6).

    ``min_increment`` is the smallest float step a_{n+1} - a_n taken for
    2 <= n < n_max; with n_max = 2 no step is taken and it is 0.0.
    """
    if n_max < 2:
        raise RangeError(f"n_max must be >= 2, got {n_max}")
    if isinstance(t, PrimeTable):  # from here on, n -> p_n
        t = {n: nth_prime(t, n) for n in THEOREM3_CHECKPOINTS if n <= min(n_max, len(t.primes))}
    wanted = sorted(t or ())
    if any(c < 2 or c > n_max for c in wanted):
        raise RangeError(f"checkpoints must lie in [2, {n_max}]")

    a = math.e
    first_violation = None
    min_increment = math.inf
    marks = []
    for lo in range(2, n_max + 1, THEOREM3_CHUNK):
        hi = min(lo + THEOREM3_CHUNK, n_max + 1)
        x = _recursion_block(a, hi - lo)  # a_lo .. a_hi
        block = x[:-1]
        a = float(x[-1])
        if first_violation is None:
            first_violation = _first_sandwich_violation(lo, block)
        # the step from a_(hi-1) is taken unless hi - 1 = n_max
        steps = np.diff(x if hi <= n_max else block)
        min_increment = min(min_increment, float(steps.min(initial=math.inf)))
        for n in wanted[bisect_left(wanted, lo) : bisect_left(wanted, hi)]:
            a_n, p_n = float(x[n - lo]), t[n]
            marks.append(GapRecursionCheckpoint(n, a_n, p_n, abs(a_n - p_n) / p_n))
    return GapRecursionReport(
        n_max=n_max,
        a_final=float(block[-1]),
        sandwich_ok=first_violation is None,
        first_sandwich_violation=first_violation,
        min_increment=min_increment if n_max > 2 else 0.0,
        checkpoints=marks,
    )


def _recursion_block(a: float, m: int) -> np.ndarray:
    """x_0 = a, x_{i+1} = x_i + math.log(x_i): the m + 1 floats x_0 .. x_m."""
    if a >= THEOREM3_VECTOR_FROM:
        x = _fixed_point_block(a, m)
        if x is not None:
            return x
    values = [0.0] * (m + 1)
    log = math.log
    for i in range(m):
        values[i] = a
        a += log(a)
    values[m] = a
    return np.array(values)


def _fixed_point_block(a: float, m: int) -> np.ndarray | None:
    """_recursion_block(a, m) as a checked fixed point, or None to run the loop."""
    # the guess: a_k = a + sum_(j<k) log a_j, with log a_j expanded about
    # L = log a to third order, is a + k (L + (k - 1) (c0 + c1 k))
    k = np.arange(m + 1, dtype=np.float64)
    L = math.log(a)
    c0 = L / (2 * a) + L * (L - 4) / (12 * a * a)
    c1 = L * (1 - L) / (6 * a * a)
    x = k * c1
    x += c0
    x *= k - 1
    x += L
    x *= k
    x += a
    x[0] = a
    head, tail = x[:-1], x[1:]
    for _ in range(THEOREM3_PASSES):
        logs = np.log(head)
        sums = head + logs
        if np.array_equal(sums, tail):
            break
        tail[:] = sums - head
        np.cumsum(x, out=x)
    else:
        return None
    # (LOG_ULPS + 1) 2^-52 L_i is at least LOG_ULPS + 1 ulps of L_i, and
    # rounding L_i -+ it takes off at most one
    spread = logs * ((LOG_ULPS + 1) * 2.0**-52)
    near = np.flatnonzero((head + (logs + spread) != tail) | (head + (logs - spread) != tail))
    log = math.log
    for u, v in zip(head[near].tolist(), tail[near].tolist()):
        if u + log(u) != v:
            return None
    return x


def _first_sandwich_violation(lo: int, a: np.ndarray) -> int | None:
    """First n >= lo with a[n - lo] outside (n log n - n, 2 n log n]."""
    n = np.arange(lo, lo + len(a), dtype=np.float64)
    n_log_n = n * np.log(n)
    bad = np.flatnonzero(~((n_log_n - n < a) & (a <= 2 * n_log_n)))
    return lo + int(bad[0]) if bad.size else None


# ---------------------------------------------------------------------------
# Staircase certificates
# ---------------------------------------------------------------------------

Q_MODES = ("factorial-squared", "power-2piN")


@dataclass(frozen=True)
class StaircaseStep:
    """One certified interval (start, end] of the staircase.

    Exact steps carry re-checkable integers.  Logarithmic steps, used once
    exact witnesses would blow the big-integer budget, carry proven upper
    bounds: the end tower and, while they fit a float, ln_q_bound and ln_end.
    """

    index: int
    start: "int | LogTower" = decimal_field()
    end: "int | LogTower" = decimal_field()
    witness_mode: str  # "exact" | "logarithmic"
    q: int | None = decimal_field()  # q_start where materializable
    q_bound: int | None = decimal_field()  # Q(start), exact mode only
    witness_ok: bool | None  # 10 * q^m < end, exact re-check
    ln_q_bound: float | None
    ln_end: float | None
    sieve_confirmed: bool | None  # None when end is beyond the table
    prime_witness: int | None


@dataclass(frozen=True)
class StaircaseCertificate:
    """A chain of intervals each certified (under the stated hypothesis)
    to contain a prime, with the implied pi(x) lower bounds."""

    measure_bound: float
    exponent: int
    q_mode: str
    start: int
    pi_at_start: int
    steps: list[StaircaseStep]
    truncated_reason: str | None

    def lower_bounds(self) -> list[tuple["int | LogTower", int]]:
        """(threshold, count) pairs: pi(threshold) >= count under the hypothesis."""
        return [
            (step.end, self.pi_at_start + step.index + 1) for step in self.steps
        ]


def default_exponent(b: float) -> int:
    """Smallest integer exceeding the measure bound b (6 at the 5.45 bound)."""
    return math.floor(b) + 1


def _ln_upper(n: int) -> float:
    """An upper bound on ln n for an integer n >= 1 of any size."""
    s = max(n.bit_length() - 53, 0)
    top = (n >> s) + (s > 0)  # at least n / 2^s and at most 2^53: an exact float
    return _up(_up(math.log(top)) + _up(s * _up(LN2)))


def _log_bounds(t: PrimeTable, n: int, m: int, q_mode: str) -> tuple[float, float]:
    """Upper bounds on ln Q(n) and on ln(10 Q(n)^m + 1), for an integer n >= 2.

    power-2piN bounds ln Q = 2 pi(n) ln n.
    factorial-squared takes Robbins's bound ln n! < n ln n - n + ln(2 pi n)/2
    + 1/(12 n), n >= 1 (H. Robbins, "A remark on Stirling's formula", Amer.
    Math. Monthly 62, 1955), with n between the floats next to float(n); from
    n = 2^1000 on, where 2 n ln n nears the float range, both bounds are inf.
    With u >= ln(10 Q^m) from these, ln(10 Q^m + 1) <= u + 1/(10 Q^m) <=
    u + e^(-u/2), since u overshoots ln(10 Q^m) >= ln 10 by far less than 2x.
    """
    if q_mode == "power-2piN":
        ln_q = _up(2 * prime_count(t, n) * _ln_upper(n))
    elif n.bit_length() > 1000:
        return math.inf, math.inf
    else:
        x = float(n)  # rounded to nearest
        lo, hi = math.nextafter(x, 0.0), math.nextafter(x, math.inf)
        ln_q = _up(
            _up(_up(2 * hi * _ln_upper(n)) - 2 * lo)
            + _up(math.log(_up(math.tau * hi)))
            + _up(1 / (6 * lo))
        )
    u = _up(_up(m * ln_q) + _up(LN10))
    return ln_q, _up(u + math.exp(-u / 2))


def _step(t: PrimeTable, index: int, start: "int | LogTower", m: int, q_mode: str,
          budget: int, q_cap: int) -> tuple[StaircaseStep | None, str | None]:
    """(the step from start, None), or (None, why there is none).

    The step is exact while 10 Q^m + 1, Q = Q(start), fits the digit budget
    by the bound of _log_bounds.  Otherwise its end is a tower at least
    10 Q^m + 1, as every float on the way is rounded up (_up):

    - while ln(10 Q^m + 1) has a float bound ln_end, the end is (1, ln_end);
    - else, for factorial-squared while ln N has one (ints from 2^1000,
      towers to about level 4), ln ln end <= ln(2m) + ln N + ln ln N:
      Robbins's bound, increasing in N and so also for a real N, gives
      ln(10 Q^m + 1) < 2mN ln N + m (ln(2 pi N) + 1/(6N) - 2N) + ln 10 +
      1/640, and for N >= 2, m >= 3 the middle term is <= -1.38 m < -ln 11;
    - beyond that ln N > 2^1020 (a float bound overflowed), and the end is
      the start one level up with the next float as mantissa.  With x_k the
      k-th iterated log of N, ln^(k+1) end < x_k + d_k, d_1 = ln(2m) + x_2
      < 711 + x_2 and d_(k+1) = d_k / x_k, as ln(x + d) <= ln x + d/x; so
      d_2 < 2^-1000, and as every x_k >= 1 the top mantissa grows by less
      than that, below one ulp.  Int starts never get here: their ln fits.
    """
    q = q_bound = witness_ok = sieve_confirmed = prime_witness = None
    ln_q = ln_end = math.inf
    if isinstance(start, int):
        if q_mode == "power-2piN" and start > t.limit:
            return None, f"pi({decimal_str(start)}) unknown beyond the sieve limit {t.limit}"
        ln_q, ln_end = _log_bounds(t, start, m, q_mode)
    if ln_end <= budget * LN10:
        if q_mode == "factorial-squared":
            q_bound = math.factorial(start) ** 2
        else:
            q_bound = start ** (2 * prime_count(t, start))
        end = 10 * q_bound**m + 1
        ln_q, ln_end = math.log(q_bound), math.log(end)
        if start <= min(t.limit, q_cap):
            q = euler_product(t, start).value.denominator
            witness_ok = 10 * q**m < end
        if end <= t.limit:
            lo_count = prime_count(t, start)
            sieve_confirmed = prime_count(t, end) > lo_count
            if sieve_confirmed:
                prime_witness = int(t.primes[lo_count])
    elif q_mode == "power-2piN" and ln_end == math.inf:
        return None, "pi(N) unknown at tower scale"
    else:
        # ln ln end is read only once ln_end overflowed, so in factorial-squared mode
        ln_n = (_ln_upper(start) if isinstance(start, int)
                else _exp_up(start.mantissa, start.level - 1))
        end = _exp_tower_up(ln_end, _up(_up(_ln_upper(2 * m) + ln_n) + _up(math.log(ln_n))), start)
        if ln_end == math.inf:
            ln_q = ln_end = None
    step = StaircaseStep(
        index=index, start=start, end=end,
        witness_mode="logarithmic" if q_bound is None else "exact",
        q=q, q_bound=q_bound, witness_ok=witness_ok, ln_q_bound=ln_q, ln_end=ln_end,
        sieve_confirmed=sieve_confirmed, prime_witness=prime_witness,
    )
    return step, None


def staircase_certify(t: PrimeTable, b: float, m: int | None, q_mode: str, N_start: int,
                      steps: int) -> StaircaseCertificate:
    """Build a staircase of intervals (N_i, N_{i+1}] with N_{i+1} just above
    10 * Q(N_i)^m, where Q bounds the Euler denominator per q_mode.

    Under the hypothesis that the measure bound b holds (with m > b) and
    that Q really bounds q_N, each interval must contain a prime; steps
    inside the sieve range are confirmed unconditionally.  Witnesses are
    exact integers while they fit the config.BIGINT_DIGITS budget and,
    beyond it, upper bounds in log and tower form (see _step).
    """
    if q_mode not in Q_MODES:
        raise DomainError(f"q_mode must be one of {Q_MODES}, got {q_mode!r}")
    if not math.isfinite(b):
        raise DomainError(f"measure bound b must be finite, got {b}")
    if b < 2:
        # Dirichlet: every irrational has irrationality measure >= 2
        raise DomainError(f"measure bound b must be >= 2, got {b}")
    if m is None:
        m = default_exponent(b)
    if not isinstance(m, int):
        raise DomainError(f"exponent m must be an integer, got {m}")
    if not m > b:
        raise DomainError(f"need exponent m > measure bound b, got m={m}, b={b}")
    if N_start < 2:
        raise RangeError(f"N_start must be >= 2, got {N_start}")
    pi_at_start = prime_count(t, N_start)
    if steps < 1:
        raise RangeError(f"steps must be >= 1, got {steps}")
    try:
        ln_end_start = _log_bounds(t, N_start, m, q_mode)[1]
    except OverflowError:  # m itself is beyond the float range
        ln_end_start = math.inf
    if ln_end_start == math.inf:
        raise DomainError(
            f"m ln Q({N_start}) overflows a float: measure bound b={b}, "
            f"exponent m ~ 10^{math.log10(m):.1f}"
        )

    budget = config.cap(config.BIGINT_DIGITS)
    q_cap = config.cap(config.FACTORIAL_CAP)
    chain: list[StaircaseStep] = []
    truncated = None
    current: "int | LogTower" = N_start
    for index in range(steps):
        step, truncated = _step(t, index, current, m, q_mode, budget, q_cap)
        if step is None:
            break
        chain.append(step)
        current = step.end
    return StaircaseCertificate(
        measure_bound=b,
        exponent=m,
        q_mode=q_mode,
        start=N_start,
        pi_at_start=pi_at_start,
        steps=chain,
        truncated_reason=truncated,
    )


def euclid_baseline(x: LogTower | int) -> int:
    """Largest k >= 0 with 2^(2^k) <= x (0 when even k = 0 fails), exact at every level.

    An int n counts exactly from its bit length: 2^(2^k) <= n exactly when
    2^k <= n.bit_length() - 1, so k = (n.bit_length() - 1).bit_length() - 1
    for n >= 2.
    At level 0, 2^(2^k) <= x exactly when 2^(2^k) <= floor(x): bit lengths.
    At level L >= 1, k = max(0, floor t), t = (ln ln x - ln ln 2)/ln 2, where
    ln ln x is ln r at level 1 and exp^(L-2)(r) above (r the mantissa).  t is
    computed in decimal at (digits of floor t) + 20 digits, doubled until both
    ends of t +- 10^(e + 8 - prec), e the exponent of max(|t|, 1), give one
    count: every op rounds correctly, and the exps amplify a relative error
    less than 2.1e4-fold while ln ln x fits a float.  That ends at level 1,
    as e^r != 2^(2^k) for a rational r != 0 (Lindemann); above it only
    Schanuel's conjecture says so, and the digit cap stops the doubling.
    A negative level or a non-finite mantissa is refused, as tower_normalize
    refuses them.
    """
    if not isinstance(x, int) and x.level < 0:
        raise DomainError(f"tower level must be >= 0, got {x.level}")
    if not isinstance(x, int) and not math.isfinite(x.mantissa):
        raise DomainError(f"tower mantissa must be finite, got {x.mantissa}")
    if isinstance(x, int) or x.level == 0:
        n = x if isinstance(x, int) else math.floor(x.mantissa)
        return 0 if n < 2 else (n.bit_length() - 1).bit_length() - 1
    if x.level <= 2 and x.mantissa < 2 - x.level:
        return 0  # ln ln x < 0, so x < e < 4
    lnln = math.log(x.mantissa) if x.level == 1 else x.mantissa  # sizes the first precision
    levels = x.level - 2
    while levels > 0 and lnln <= MAX_EXP_ARG:  # past it, exp overflows at the next level
        lnln, levels = math.exp(lnln), levels - 1
    if levels > 0 or not abs(lnln) < OVERFLOW:
        raise ResourceLimitError("tower too deep: the doubling count exceeds float range")
    prec = len(str(abs(math.floor(lnln / LN2)))) + 20
    while prec <= config.cap(config.DIGIT_CAP):
        with localcontext() as ctx:
            ctx.prec = prec
            v = Decimal(x.mantissa).ln() if x.level == 1 else Decimal(x.mantissa)
            for _ in range(x.level - 2):
                v = v.exp()
            ln2 = Decimal(2).ln()
            lnln2 = ln2.ln()
            t = (v - lnln2) / ln2
            err = Decimal(1).scaleb(max(t.adjusted(), 0) + 8 - prec)
            k = max(0, math.floor(t - err))
            if k == max(0, math.floor(t + err)):
                return k
        prec *= 2
    raise PrecisionExhaustedError(f"doubling count of {x} not resolved within the digit cap")
