"""Prime sieve, counting, and the lcm(1..n) growth sequence d_n.

The table is a plain Eratosthenes sieve held as a sorted numpy array;
everything else is a pure function over it.  Exponents in d_n are found
by integer comparisons only, so prime-power boundaries (n = p^k exactly)
are never at the mercy of floating-point log division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import RangeError, ResourceLimitError

#: Above this limit the sieve runs in fixed-size segments to bound memory.
SEGMENT_THRESHOLD = 10_000_000


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

    def __iter__(self):
        return iter(self.primes.tolist())

    def __repr__(self) -> str:
        return f"PrimeTable(limit={self.limit}, count={len(self.primes)})"


def _flat_sieve(limit: int) -> np.ndarray:
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


def _segmented_sieve(limit: int, segment_size: int) -> np.ndarray:
    base = _flat_sieve(math.isqrt(limit))
    chunks = [base[base <= limit]]
    low = math.isqrt(limit) + 1
    while low <= limit:
        high = min(low + segment_size - 1, limit)
        mask = np.ones(high - low + 1, dtype=bool)
        for p in base.tolist():
            if p * p > high:
                break
            start = max(p * p, ((low + p - 1) // p) * p)
            mask[start - low :: p] = False
        chunks.append((np.flatnonzero(mask) + low).astype(np.int64))
        low = high + 1
    return np.concatenate(chunks)


def sieve(limit: int, segment_size: int | None = None) -> PrimeTable:
    """Sieve of Eratosthenes up to limit (inclusive).

    Runs segmented above SEGMENT_THRESHOLD (or always, when segment_size
    is given) so peak memory stays at one boolean page per segment.
    """
    if limit < 2:
        raise RangeError(f"sieve limit must be >= 2, got {limit}")
    cap = config.sieve_limit_cap()
    if limit > cap:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds the configured cap {cap} "
            f"(raise {config.ENV_SIEVE_LIMIT} to override)"
        )
    if segment_size is None and limit <= SEGMENT_THRESHOLD:
        primes = _flat_sieve(limit)
    else:
        primes = _segmented_sieve(limit, segment_size or SEGMENT_THRESHOLD)
    return PrimeTable(limit, primes)


def prime_count(t: PrimeTable, x) -> int:
    """pi(x): the number of primes <= x, for x <= t.limit."""
    if x > t.limit:
        raise RangeError(f"pi({x}) needs a sieve beyond limit {t.limit}")
    if x < 2:
        return 0
    return int(np.searchsorted(t.primes, math.floor(x), side="right"))


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


def lcm_to(t: PrimeTable, n: int) -> int:
    """d_n = lcm(1..n) as the exact product of maximal prime powers <= n."""
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    if n > t.limit:
        raise RangeError(f"lcm to {n} needs a sieve beyond limit {t.limit}")
    if n == 1:
        return 1
    cut = int(np.searchsorted(t.primes, n, side="right"))
    factors = []
    for p in t.primes[:cut].tolist():
        if p * p > n:
            factors.append(p)
        else:
            factors.append(max_power_at_most(p, n)[1])
    return math.prod(factors)


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
    log_n = math.log(n) if n > 1 else 0.0
    if n == 1:
        return LcmLogReport(1, 0.0, 0.0, 0.0)
    cut = int(np.searchsorted(t.primes, n, side="right"))
    primes = t.primes[:cut]
    root = math.isqrt(n)
    small_cut = int(np.searchsorted(primes, root, side="right"))
    total = float(np.log(primes[small_cut:]).sum())
    for p in primes[:small_cut].tolist():
        k, _ = max_power_at_most(p, n)
        total += k * math.log(p)
    return LcmLogReport(n, total, cut * log_n, log_n * log_n)


def log_lcm_table(t: PrimeTable, n_max: int) -> np.ndarray:
    """Array L with L[n] = log d_n for 0 <= n <= n_max.

    d_n only changes at prime powers (by a factor p at n = p^k), so the
    whole sequence is one scatter of log p onto prime-power indices plus a
    cumulative sum.  Bulk counterpart of log_lcm_to for sweeps.
    """
    if n_max < 0:
        raise RangeError(f"n_max must be >= 0, got {n_max}")
    if n_max > t.limit:
        raise RangeError(f"table limit {t.limit} is below n_max {n_max}")
    increments = np.zeros(n_max + 1, dtype=np.float64)
    cut = int(np.searchsorted(t.primes, n_max, side="right"))
    for p in t.primes[:cut].tolist():
        log_p = math.log(p)
        pk = p
        while pk <= n_max:
            increments[pk] += log_p
            pk *= p
    return np.cumsum(increments)
