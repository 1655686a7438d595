"""Prime sieve, counting, and the lcm(1..n) growth sequence d_n.

The table is an odd-only, segmented Eratosthenes sieve held as a sorted
numpy array, int32 below 2^31 and int64 above; everything else is a pure
function over it.  Every lookup in it goes through count_at_most, which
hands numpy the key in the table's dtype.  Exponents in d_n are found by
integer comparisons only, so prime-power boundaries (n = p^k exactly) are
never at the mercy of floating-point log division.
Big products, d_n among them, go by one balanced product tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import DomainError, RangeError, ResourceLimitError


class PrimeTable:
    """Immutable sieve result: all primes <= limit, strictly increasing.

    Safe for concurrent reads; construct through :func:`sieve`.
    """

    __slots__ = ("limit", "primes")

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = limit
        self.primes = primes
        self.primes.setflags(write=False)

    def __len__(self) -> int:
        return len(self.primes)

    def __repr__(self) -> str:
        return f"PrimeTable(limit={self.limit}, count={len(self.primes)})"


#: Odd primes struck by the precomputed pattern instead of by slices.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
#: Period of the pattern in odd flags: 2i + 1 mod 3*5*7*11*13 = 15015
#: repeats with period 15015 in i.
_WHEEL = math.prod(_WHEEL_PRIMES)
#: Default segment: 2^21 integers, that is 2^20 odd flags (1 MiB).
DEFAULT_SEGMENT_SIZE = 1 << 21


def _wheel_pattern() -> np.ndarray:
    odd = np.arange(1, 2 * _WHEEL, 2)
    keep = np.ones(_WHEEL, dtype=bool)
    for p in _WHEEL_PRIMES:
        keep &= odd % p != 0
    return np.concatenate((keep, keep))


#: Two periods of the pattern, so that any rotation is one slice.
_PATTERN = _wheel_pattern()
#: Flags of 1, 3, ..., 13 in the first segment: the flag of 1 stands for 2,
#: and the wheel primes, which the pattern clears, are set back.
_FIRST_FLAGS = np.array([True, True, True, True, False, True, True])


def _fill(flags: np.ndarray, low: int) -> None:
    """flags[i] = whether low + 2i is prime to 3*5*7*11*13, for odd low."""
    n = len(flags)
    offset = (low // 2) % _WHEEL
    filled = min(n, _WHEEL)
    flags[:filled] = _PATTERN[offset : offset + filled]
    while filled < n:  # doubling copies; filled stays a multiple of the period
        step = min(filled, n - filled)
        flags[filled : filled + step] = flags[:step]
        filled += step


def int_dtype(limit: int) -> type:
    """int32 if every integer in [0, limit] fits it, that is limit < 2^31; else int64.

    The dtype of a table of the primes <= limit: 4 bytes a prime up to the
    2*10^8 sieve cap, 8 only past 2^31.
    """
    return np.int32 if limit < 2**31 else np.int64


def count_at_most(values: np.ndarray, key):
    """The number of entries <= key in the sorted array values, per entry of an array key.

    The one route to np.searchsorted over a table.  The key reaches numpy in
    values' own dtype: under NumPy 2's promotion rules (NEP 50) a Python int
    key casts an int32 table to int64 on every call: one lookup in 10^6
    entries took 523 us so, against 1.6 us with a typed key (NumPy 2.4.6).
    Every key must fit that dtype, as every key <= t.limit does for a table
    from sieve.
    """
    return np.searchsorted(values, np.asarray(key, dtype=values.dtype), side="right")


#: Flags that _collect hands np.nonzero at a time, so that no sieve holds
#: the int64 positions of a whole segment's primes.
_COLLECT_SLICE = 1 << 18


def _collect(flags: np.ndarray, low: int, out: np.ndarray) -> int:
    """Write the odd numbers low + 2i whose flag is set to the front of out; return their count.

    They are found in int64, as np.nonzero gives them, one slice of
    _COLLECT_SLICE flags at a time, and cast into out's dtype only as they
    are stored.  In the first segment (low = 1) the flag of 1 stands for 2,
    and 2 is what is written.
    """
    count = 0
    for start in range(0, len(flags), _COLLECT_SLICE):
        found = flags[start : start + _COLLECT_SLICE].nonzero()[0]
        found *= 2
        found += low + 2 * start
        out[count : count + len(found)] = found
        count += len(found)
    if low == 1:
        out[0] = 2
    return count


def _checked_page(limit: int, segment_size: int | None) -> int:
    """Odd flags per segment, once limit and segment_size are known to be sieveable."""
    if limit < 2:
        raise RangeError(f"sieve limit must be >= 2, got {limit}")
    if segment_size is None:
        segment_size = DEFAULT_SEGMENT_SIZE
    elif segment_size < 2:
        raise RangeError(f"segment size must be >= 2 integers, got {segment_size}")
    cap = config.sieve_limit_cap()
    if limit > cap:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds the configured cap {cap} "
            f"(raise {config.ENV_SIEVE_LIMIT} to override)"
        )
    return segment_size // 2


def _segments(limit: int, page: int):
    """Yield (low, flags) per segment: flags[i] is whether low + 2i <= limit is prime.

    In the first segment, low = 1 and the flag of 1 stands for 2.  The
    flags are one buffer, refilled for the next segment once the consumer
    asks for it.
    """
    root = math.isqrt(limit)
    odds = (limit + 1) // 2  # flags of 1, 3, ..., the last odd number <= limit
    first = min(odds, max(page, (root + 1) // 2, len(_FIRST_FLAGS)))
    flags = np.empty(max(first, min(page, odds - first)), dtype=bool)

    view = flags[:first]
    _fill(view, 1)
    view[: len(_FIRST_FLAGS)] = _FIRST_FLAGS[:first]
    # Strike by p = 2i + 1 from 17 on, in rounds: the flags below p^2 are
    # final once every prime below p has struck, so one nonzero over them
    # gives the next round's primes.  Reading one flag per odd p instead
    # cost about 2% of a sieve to 10^6, as much as the int32 table adds.
    i, end = 8, (math.isqrt(2 * first - 1) + 1) // 2
    while i < end:
        top = min(end, 2 * i * (i + 1))  # the flag of p^2 = 2(2i(i+1)) + 1
        for k in view[i:top].nonzero()[0].tolist():
            p = 2 * (i + k) + 1
            view[p * p // 2 :: p] = False
        i = top
    if first == odds:
        yield 1, view
        return
    # the striking primes 17..sqrt(limit), past 2, 3, 5, 7, 11 and 13, in
    # int64 like all the striking arithmetic
    base = 2 * view[8 : (root + 1) // 2].nonzero()[0] + 17
    squares = base * base
    yield 1, view
    for low in range(2 * first + 1, limit + 1, 2 * page):
        view = flags[: min(page, (limit - low) // 2 + 1)]
        _fill(view, low)
        strikers = base[: int(count_at_most(squares, low + 2 * len(view) - 2))]
        starts = np.maximum(squares[: len(strikers)], (low + strikers - 1) // strikers * strikers)
        starts += strikers * (starts % 2 == 0)  # the first odd multiple
        for p, j in zip(strikers.tolist(), ((starts - low) // 2).tolist()):
            view[j::p] = False
        yield low, view


def sieve(limit: int, segment_size: int | None = None) -> PrimeTable:
    """Sieve of Eratosthenes up to limit (inclusive), odd-only and segmented.

    One bool flag per odd number, in segments of segment_size integers
    (rounded down to even; DEFAULT_SEGMENT_SIZE when None).  Each segment
    starts as a copy of a precomputed pattern of period 15015 flags that
    clears the multiples of 3, 5, 7, 11 and 13, so those five primes cost
    no strikes.  Every other odd prime p <= sqrt(limit) strikes its odd
    multiples from max(p^2, low) with one slice of step p.  The first
    segment reaches at least sqrt(limit) and 13, and sieves itself; its
    primes up to sqrt(limit) strike all later segments.  A table that fits
    in one segment is therefore one pattern copy, a few slices and one
    nonzero per slice of flags.  The segments come from one generator,
    which nth_primes reads too.

    The default of 2^21 integers is 1 MiB of flags, half the 2 MiB
    per-core L2 cache of the 2-core Xeon it was timed on (Python 3.11;
    sizes 2^17 .. 2^23 interleaved, best of 7).  At 10^8 it took 0.16 s
    against 0.49 s at 2^17, 0.22 s at 2^19, 0.18 s at 2^20, 0.19 s at 2^22
    and 0.25 s at 2^23; at 2*10^8, 0.36 s against 0.43 s at 2^20 and
    0.39 s at 2^22.  Smaller segments pay Python work per segment and
    striking prime; larger ones outgrow the cache.  At 1.1*10^7 and
    4.5*10^7, 2^20 was 3 to 5% faster than 2^21, and 2^22 within 8%.

    Peak memory is one segment of flags, the int64 positions of the primes
    in one slice of _COLLECT_SLICE flags, and the table itself, int32 below
    2^31: 4 pi(limit) bytes, about 44 MB at the 2*10^8 cap.  The striking
    arithmetic (the primes to sqrt(limit), their squares and first
    multiples) stays int64, where low + p cannot wrap.
    """
    page = _checked_page(limit, segment_size)
    # Rosser and Schoenfeld (1962), Corollary 1: pi(x) < 1.25506 x / log x
    # for x > 1, tightest at x = 113.  Pages past the last prime are never
    # touched, so they take address space but no memory.
    table = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=int_dtype(limit))
    count = 0
    for low, flags in _segments(limit, page):
        count += _collect(flags, low, table[count:])
    return PrimeTable(limit, table[:count])


def nth_primes(limit: int, ns) -> dict[int, int]:
    """{n: p_n} for each index n in ns whose prime p_n is <= limit, by a sieve that keeps no table.

    Each segment of sieve is counted with np.count_nonzero, and only a
    segment that holds a wanted p_n is collected, so memory stays at one
    segment of flags and the primes of one segment, whatever the limit:
    `theorem3 --n 1000000 --sieve`, which wants p_(10^6) from a sieve to
    1.66*10^7, traces ~2.3 MB, where the table alone took 4.2 MB.  The
    sieve stops at the segment of the largest wanted p_n.  limit is checked
    as sieve checks it, before any work.
    """
    wanted = sorted(set(ns), reverse=True)  # popped from the end, smallest first
    if wanted and wanted[-1] < 1:
        raise RangeError(f"prime index must be >= 1, got {wanted[-1]}")
    page = _checked_page(limit, None)
    found: dict[int, int] = {}
    if not wanted:
        return found
    count = 0  # primes below this segment
    for low, flags in _segments(limit, page):
        here = int(np.count_nonzero(flags))
        if wanted[-1] <= count + here:
            primes = np.empty(here, dtype=int_dtype(limit))
            _collect(flags, low, primes)
            while wanted and wanted[-1] <= count + here:
                n = wanted.pop()
                found[n] = int(primes[n - count - 1])
            if not wanted:
                break
        count += here
    return found


def prime_count(t: PrimeTable, x) -> int:
    """pi(x): the number of primes <= x, for real x <= t.limit."""
    if x != x:  # NaN
        raise DomainError(f"pi(x) needs a number x, got x = {x}")
    if x > t.limit:
        raise RangeError(f"pi({x}) needs a sieve beyond limit {t.limit}")
    if x < 2:
        return 0
    return int(count_at_most(t.primes, math.floor(x)))


def nth_prime(t: PrimeTable, n: int) -> int:
    """The n-th prime, 1-indexed (p_1 = 2)."""
    if n < 1:
        raise RangeError(f"prime index must be >= 1, got {n}")
    if n > len(t.primes):
        estimate = nth_prime_limit_estimate(n)
        raise RangeError(
            f"table holds {len(t.primes)} primes (limit {t.limit}); "
            f"p_{n} needs a sieve to roughly {estimate}"
        )
    return int(t.primes[n - 1])


def nth_prime_limit_estimate(n: int) -> int:
    # Rosser-style upper bound n (log n + log log n), valid for n >= 6.
    if n < 6:
        return 13
    ln = math.log(n)
    return int(n * (ln + math.log(ln))) + 1


def max_power_at_most(p: int, n: int) -> tuple[int, int]:
    """(k, p^k) with the largest k such that p^k <= n, by integer multiplies."""
    if p < 2 or n < p:
        raise RangeError(f"need 2 <= p <= n, got p={p}, n={n}")
    k, pk = 1, p
    while pk * p <= n:
        pk *= p
        k += 1
    return k, pk


#: Factors that product_tree multiplies flat, in one math.prod per leaf.
PRODUCT_LEAF = 128


def product_tree(ints: list[int]) -> int:
    """The product of ints by a balanced product tree; 1 for an empty list.

    A flat product of n factors of similar size costs time quadratic in the
    length of the result, since every step multiplies the whole partial
    product by one small factor.  The tree (Bernstein, "Fast multiplication
    and its applications", 2008) multiplies runs of PRODUCT_LEAF factors
    flat, then neighbours pairwise, level by level, so the large
    multiplications are of operands of equal size, where Karatsuba pays.
    A list of at most PRODUCT_LEAF factors is one math.prod.

    Timed on the prime powers of d_n (Python 3.11, 2-core Xeon, best of 3),
    leaves of 16 to 256 factors were within 10% of each other above 10^4
    factors; d_(10^5) took 9.8 ms against 39 ms flat and d_(10^6) 0.23 to
    0.28 s against 2.9 s.  Below ~100 factors the flat product is as fast,
    so a leaf of 128 keeps short lists, such as d_n for n < 727, flat.
    """
    level = [math.prod(ints[i : i + PRODUCT_LEAF]) for i in range(0, len(ints), PRODUCT_LEAF)]
    while len(level) > 1:
        level = [math.prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0] if level else 1


def lcm_to(t: PrimeTable, n: int) -> int:
    """d_n = lcm(1..n) as the exact product of maximal prime powers <= n."""
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    if n > t.limit:
        raise RangeError(f"lcm to {n} needs a sieve beyond limit {t.limit}")
    factors = t.primes[: int(count_at_most(t.primes, n))].tolist()
    for i, p in enumerate(factors[: int(count_at_most(t.primes, math.isqrt(n)))]):
        factors[i] = max_power_at_most(p, n)[1]
    return product_tree(factors)


@dataclass(frozen=True)
class LcmLogReport:
    """log d_n together with the two comparison quantities it is bounded by."""

    n: int
    log_lcm: float
    pi_log_n: float  # pi(n) * log n
    log_sq_n: float  # (log n)^2


def log_lcm_to(t: PrimeTable, n: int) -> LcmLogReport:
    """log d_n = sum over primes p <= n of floor(log_p n) * log p.

    Never forms d_n itself; exponents still come from integer comparisons.
    """
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    if n > t.limit:
        raise RangeError(f"log lcm to {n} needs a sieve beyond limit {t.limit}")
    log_n = math.log(n)
    cut = int(count_at_most(t.primes, n))
    primes = t.primes[:cut]
    root = math.isqrt(n)
    small_cut = int(count_at_most(primes, root))
    total = float(np.log(primes[small_cut:]).sum())
    for p in primes[:small_cut].tolist():
        k, _ = max_power_at_most(p, n)
        total += k * math.log(p)
    return LcmLogReport(n, total, cut * log_n, log_n * log_n)


def log_lcm_table(t: PrimeTable, n_max: int) -> np.ndarray:
    """Array L with L[n] = log d_n for 0 <= n <= n_max.

    d_n only changes at prime powers (by a factor p at n = p^k), so the
    whole sequence is one scatter of log p onto prime-power indices plus a
    cumulative sum, taken in place.  Bulk counterpart of log_lcm_to for sweeps.
    """
    if n_max < 0:
        raise RangeError(f"n_max must be >= 0, got {n_max}")
    if n_max > t.limit:
        raise RangeError(f"table limit {t.limit} is below n_max {n_max}")
    increments = np.zeros(n_max + 1, dtype=np.float64)
    ps = t.primes[: int(count_at_most(t.primes, n_max))]
    # math.log, not np.log, which may differ in the last ulp; each index
    # receives at most one increment, so the sums are those of a loop.
    increments[ps] = np.fromiter(map(math.log, ps.tolist()), dtype=np.float64, count=len(ps))
    for p in ps[: int(count_at_most(ps, math.isqrt(n_max)))].tolist():
        log_p, pk = math.log(p), p * p
        while pk <= n_max:
            increments[pk] = log_p
            pk *= p
    return np.cumsum(increments, out=increments)
