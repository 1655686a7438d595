"""Exact partial Euler products for zeta(2) and their approximation quality.

The truncated product over primes p <= N of (1 - p^-2)^-1 is an exact
reduced rational p_N/q_N.  For a few hundred primes it is formed as
prod p^2 / prod (p^2 - 1) with one gcd reduction; beyond that it is built
already reduced from the prime exponents of prod (p^2 - 1), by product
trees and with no gcd.  Only the last product is kept, keyed on the bytes
of the primes it multiplies rather than on N or on their table, so the
reports that share one N, every N between two primes, and any two tables
that agree up to N form it once; the memo never holds the rest of a table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import config
from .arith import (
    RealEnclosure, _coprime_fraction, as_rational, digit_ladder, neg_log_gaps, rational_exp_upper,
    zeta2_enclosure,
)
from .errors import DomainError, PrecisionExhaustedError, RangeError
from .primes import PrimeTable, count_at_most, int_dtype, prime_count, product_tree
from .records import decimal_field


#: Prime count from which _product builds p_N and q_N from prime exponents
#: instead of reducing the flat products by a gcd (see _product).
FACTORED_FROM = 400


@lru_cache(maxsize=1)
def _product(primes: bytes, dtype: str) -> Fraction:
    """p_N/q_N over the primes p <= N, given as the raw bytes of their
    array and its dtype string (ndarray.tobytes() and dtype.str), which are
    what the memo keys on and all it keeps besides the product.

    Below FACTORED_FROM primes this is Fraction(prod p^2, prod (p^2 - 1)),
    flat products reduced by one gcd.  From there on the product is built
    already reduced.  Let e_r be the exponent of the prime r in
    prod (p^2 - 1), and d_r = 2 [r <= N] - e_r its exponent in the product,
    so that

        p_N = prod r^max(0, d_r),    q_N = prod r^max(0, -d_r).

    Both are positive, and no prime divides both, since at most one of
    max(0, d_r) and max(0, -d_r) is positive: gcd(p_N, q_N) = 1.  So the
    Fraction is made by _coprime_fraction, with no gcd.  The products go
    by product trees (_power_product), which is what makes large N fast: at
    N = 10^5 (9592 primes) the flat route took 0.31 to 0.52 s, this one
    0.03 to 0.05 s; at N = 10^6, 38 s against 0.42 to 0.43 s (seven runs,
    2-core Xeon, Python 3.11, NumPy 2.4).

    The crossover was timed on Python 3.11, 2-core Xeon, best of 9, in
    runs that differed by up to 30%: at 10 primes 0.005 ms flat against
    0.08 to 0.11 ms factored, at 300 primes (N ~ 2000) 0.17 to 0.26 against
    0.17 to 0.30 ms, at 400 primes (N ~ 2750) 0.29 to 0.39 against 0.22 to
    0.35 ms, and at 500 primes 0.57 to 0.69 against 0.37 to 0.44 ms.  The
    two meet between 300 and 500 primes; 400 keeps every N <= 2000 flat.
    """
    ps = np.frombuffer(primes, dtype=dtype)
    if len(ps) < FACTORED_FROM:
        ps = ps.tolist()
        return Fraction(math.prod(p * p for p in ps), math.prod(p * p - 1 for p in ps))
    d = 2 - _p2_minus_1_exponents(ps)
    num, den = _power_product(ps, np.maximum(d, 0)), _power_product(ps, np.maximum(-d, 0))
    return _coprime_fraction(num, den)


def _p2_minus_1_exponents(ps: np.ndarray) -> np.ndarray:
    """e[i] = the exponent of ps[i] in prod (p^2 - 1) over p in ps.

    ps holds the first k >= 2 primes, so every prime factor of a p^2 - 1
    is in ps.  For odd p, p^2 - 1 = 4 a (a + 1) with a = (p - 1)/2, and
    2^2 - 1 = 3.  So the a and a + 1, all at most h = (ps[-1] + 1)/2, are
    factored at once by lookups in an int32 array (int64 from h = 2^31 on)
    that holds a prime factor of every composite up to h, one division per
    prime factor, and the factors are counted by one np.bincount.

    Scratch space, per integer up to N: 2 bytes for the factor array (over
    h), freed before the 8 of the int64 counts; per prime factor found, 16
    bytes (int32, the np.concatenate copy and the int64 copy np.bincount
    takes), about 110 bytes per prime in ps.  The traced peak at N = 10^6
    was 18 MB.
    """
    top = int(ps[-1]) // 2 + 1
    half = (ps[1:] // 2).astype(int_dtype(top), copy=False)
    factor = np.zeros(top + 1, dtype=half.dtype)  # 0 at primes, 0 and 1
    for r in ps[: int(count_at_most(ps, math.isqrt(top)))].tolist():
        factor[r * r :: r] = r
    rest = np.concatenate((half, half + 1))
    rest = rest[rest > 1]
    found = []
    while len(rest):
        f = factor[rest]
        f = np.where(f == 0, rest, f)
        found.append(f)
        rest //= f
        rest = rest[rest > 1]
    del factor  # before the counts are allocated
    counts = np.bincount(np.concatenate(found), minlength=int(ps[-1]) + 1)
    counts[2] += 2 * len(half)
    counts[3] += 1
    return counts[ps]


def _power_product(rs: np.ndarray, exps: np.ndarray) -> int:
    """prod r^a over rs and exps, as prod_j (prod of the r with bit j of a set)^(2^j).

    Horner's rule over the bits, from the top: square, then multiply by one
    product_tree of the r with that bit set.  Every tree multiplies primes
    of similar size, and the big steps are squarings of balanced operands.
    Taking each r^a apart instead gives factors from 40 to 3*10^5 bits at
    N = 10^6, which a tree ordered by count pairs badly: 1.4 s for q_N
    there, against 0.3 s this way.
    """
    result = 1
    for j in reversed(range(int(exps.max(initial=0)).bit_length())):
        result = result * result * product_tree(rs[(exps >> j) & 1 == 1].tolist())
    return result


@dataclass(frozen=True)
class EulerApproximation:
    """The reduced truncated Euler product p_N/q_N at cutoff N."""

    N: int
    value: Fraction


def euler_product(t: PrimeTable, N: int) -> EulerApproximation:
    """Exact product of p^2/(p^2 - 1) over primes p <= N; empty product is 1."""
    if N < 1:
        raise RangeError(f"N must be >= 1, got {N}")
    ps = t.primes[: prime_count(t, N)]
    return EulerApproximation(N, _product(ps.tobytes(), ps.dtype.str))


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
    config.refuse_above(config.FACTORIAL_CAP, N, "N=")
    q = euler_product(t, N).value.denominator
    k = prime_count(t, N)
    prod = product_tree([p * p - 1 for p in t.primes[:k].tolist()])
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

    U = zeta2_hi * (exp_upper(s) - 1) = zeta2_hi * (s + s^2) with
    s = 1/f + 1/f^2.  It is below the coarse bound 10/f for every f >= 2:
    there s <= 1.5/f and s <= 0.75, so s + s^2 <= 1.75 s <= 2.625/f and
    U < 1.645 * 2.625/f < 4.32/f.  The ratio U f / 10 falls with f, so its
    largest value is 0.432, at f = 2.
    """
    f = as_rational(f_value)
    if f < 2:
        raise DomainError(f"tail bound requires f >= 2, got {f}")
    s = 1 / f + 1 / (f * f)
    return zeta2_enclosure(30).hi * (rational_exp_upper(s) - 1)


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
