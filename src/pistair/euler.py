"""Exact partial Euler products for zeta(2) and their approximation quality.

The truncated product over primes p <= N of (1 - p^-2)^-1 is an exact
reduced rational p_N/q_N, formed afresh as prod p^2 / prod (p^2 - 1) with one
gcd reduction.  Only the last product (and the table it came from) is kept,
keyed on the table and the prime count rather than on N, so the reports that
share one N, and every N between two primes, form it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import config
from .arith import (
    RealEnclosure, as_rational, digit_ladder, neg_log_gaps, rational_exp_upper, zeta2_enclosure,
)
from .errors import DomainError, PrecisionExhaustedError, RangeError, ResourceLimitError
from .primes import PrimeTable, prime_count
from .records import decimal_field


@lru_cache(maxsize=1)
def _product(t: PrimeTable, n_primes: int) -> Fraction:
    ps = t.primes[:n_primes].tolist()
    return Fraction(math.prod(p * p for p in ps), math.prod(p * p - 1 for p in ps))


@dataclass(frozen=True)
class EulerApproximation:
    """The reduced truncated Euler product p_N/q_N at cutoff N."""

    N: int
    value: Fraction

    @property
    def q_digits(self) -> int:
        """Decimal digits of q_N, from its bit length and powers of ten.

        0.30102999566 < log10(2) and q >= 2^(bits-1), so d starts at or
        below floor(log10 q) and climbs to it.
        """
        q = self.value.denominator
        d = (q.bit_length() - 1) * 30102999566 // 10**11
        while q >= 10 ** (d + 1):
            d += 1
        return d + 1


def euler_product(t: PrimeTable, N: int) -> EulerApproximation:
    """Exact product of p^2/(p^2 - 1) over primes p <= N; empty product is 1."""
    if N < 1:
        raise RangeError(f"N must be >= 1, got {N}")
    if N > t.limit:
        raise RangeError(f"Euler product to {N} needs a sieve beyond {t.limit}")
    return EulerApproximation(N, _product(t, prime_count(t, N)))


@dataclass(frozen=True)
class QnBoundReport:
    """Exact integers and flags for the denominator bound chain at N."""

    N: int
    q: int = decimal_field()
    prod_p2_minus_1: int = decimal_field()
    n_pow_2pi: int = decimal_field()
    factorial_sq: int = decimal_field()
    chain_ok: bool  # q <= prod(p^2-1) <= N^(2 pi(N))
    factorial_ok: bool  # q <= (N!)^2
    q_divides_prod: bool


def qn_bound_report(t: PrimeTable, N: int) -> QnBoundReport:
    """Check q_N <= prod_{p<=N}(p^2-1) <= N^(2 pi(N)) and q_N <= (N!)^2 exactly."""
    if N < 1:
        raise RangeError(f"N must be >= 1, got {N}")
    if N > t.limit:
        raise RangeError(f"bound report at {N} needs a sieve beyond {t.limit}")
    cap = config.factorial_cap()
    if N > cap:
        raise ResourceLimitError(
            f"N={N} exceeds the factorial cap {cap} "
            f"(raise {config.ENV_FACTORIAL_CAP} to override)"
        )
    q = euler_product(t, N).value.denominator
    k = prime_count(t, N)
    prod = math.prod(p * p - 1 for p in t.primes[:k].tolist()) if k else 1
    n_pow = N ** (2 * k)
    fact_sq = math.factorial(N) ** 2
    return QnBoundReport(
        N=N,
        q=q,
        prod_p2_minus_1=prod,
        n_pow_2pi=n_pow,
        factorial_sq=fact_sq,
        chain_ok=q <= prod <= n_pow,
        factorial_ok=q <= fact_sq,
        q_divides_prod=prod % q == 0,
    )


def tail_product_upper(f_value) -> Fraction:
    """Rational U bounding |pi^2/6 - p_N/q_N| when (N, f] holds no prime.

    Two bounds are combined: the coarse 10/f and the sharper chain
    zeta2_hi * (exp_upper(1/f^2 + 1/f) - 1); the smaller is returned.
    """
    f = as_rational(f_value)
    if f < 2:
        raise DomainError(f"tail bound requires f >= 2, got {f}")
    s = 1 / f + 1 / (f * f)
    sharper = zeta2_enclosure(30).hi * (rational_exp_upper(s) - 1)
    return min(Fraction(10) / f, sharper)


@dataclass(frozen=True)
class GapReport:
    """Enclosure of |pi^2/6 - p_N/q_N| and the implied measure-style exponent.

    The exponent -log(gap)/log(q_N) uses the gap midpoint and is only
    reported when the gap enclosure is relatively tight (width < lo) and
    q_N >= 2.
    """

    N: int
    value: Fraction
    q: int = decimal_field()
    gap: RealEnclosure
    exponent: float | None
    digits_used: int


def approximation_gap(t: PrimeTable, N: int, digits: int) -> GapReport:
    """Outward enclosure of the gap to zeta(2), refining digits as needed.

    The digit count doubles internally (up to the configured cap) until the
    enclosure separates p_N/q_N from zeta(2) with relative width below 1.
    """
    ladder = digit_ladder(digits)
    value = euler_product(t, N).value
    q = value.denominator
    for d in ladder:
        z = zeta2_enclosure(d)
        [neg_log] = neg_log_gaps(z, [(value.numerator, q)])
        if neg_log is not None:
            exponent = neg_log / math.log(q) if q >= 2 else None
            return GapReport(N, value, q, z.abs_distance_to(value), exponent, d)
    raise PrecisionExhaustedError(f"gap at N={N} not separated from 0 within {ladder[-1]} digits")
