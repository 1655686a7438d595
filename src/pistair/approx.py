"""Continued fractions of enclosed reals and irrationality-exponent arithmetic.

Partial quotients are emitted only while the Gauss map, run on integer
numerator/denominator pairs, agrees on both enclosure endpoints, so every
quotient is provably correct for every real the enclosure brackets.
Exponents come from integer cross-products over one common denominator,
logged unreduced, with no gcd (arith.neg_log_gaps); the growth-rate bound
mu <= 1 + rho/sigma with the published page-102 constants is exact-rational
at the decision points.  The primorial inequality check compares logarithms
of logarithms, with a margin far above float rounding, and falls back to
exact integer powers only near a tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import config
from .arith import RealEnclosure, as_rational, digit_ladder, neg_log_gaps, zeta2_enclosure
from .errors import DomainError, PrecisionExhaustedError, RangeError
from .primes import PrimeTable, nth_prime, product_tree
from .records import decimal_field


def continued_fraction(x: RealEnclosure, max_terms: int) -> list[int]:
    """Longest provably-correct prefix of partial quotients for x.

    Runs the Gauss map a/b -> b/(a - floor(a/b) b) on both endpoints as
    integer pairs, which stay in lowest terms, and stops at the first
    disagreeing floor (or when an endpoint terminates).  An exact rational
    (lo == hi) yields its full canonical expansion, up to max_terms.
    """
    if x.lo <= 0:
        raise DomainError("continued fraction requires a positive enclosure")
    if max_terms < 1:
        raise DomainError(f"max_terms must be >= 1, got {max_terms}")
    (a, b), (c, e) = x.lo.as_integer_ratio(), x.hi.as_integer_ratio()
    quotients: list[int] = []
    while len(quotients) < max_terms:
        k, rest_lo = divmod(a, b)
        k_hi, rest_hi = divmod(c, e)
        if k != k_hi:
            break
        quotients.append(k)
        if rest_lo == 0 or rest_hi == 0:
            # An endpoint is exactly rational here; interior points may
            # continue with arbitrarily large quotients, so stop.
            break
        # the new lo is 1/frac(hi) and the new hi is 1/frac(lo)
        a, b, c, e = e, rest_hi, b, rest_lo
    return quotients


@dataclass(frozen=True)
class ConvergentRecord:
    """One convergent p/q with its quotient and (optionally) its exponent."""

    index: int
    partial_quotient: int = decimal_field()
    p: int = decimal_field()
    q: int = decimal_field()
    exponent: float | None = None


def convergents(quotients: list[int]) -> list[ConvergentRecord]:
    """Convergents via p_k = a_k p_{k-1} + p_{k-2} (and likewise for q).

    Consecutive convergents satisfy p_k q_{k-1} - p_{k-1} q_k = (-1)^(k-1),
    so each p/q is automatically in lowest terms.
    """
    if not quotients:
        raise DomainError("quotient list must be nonempty")
    if quotients[0] < 0:
        raise DomainError(f"leading quotient must be >= 0, got {quotients[0]}")
    records = []
    p_prev, q_prev = 1, 0
    p, q = quotients[0], 1
    records.append(ConvergentRecord(0, quotients[0], p, q))
    for k, a in enumerate(quotients[1:], start=1):
        if a < 1:
            raise DomainError(f"quotient at index {k} must be >= 1, got {a}")
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        records.append(ConvergentRecord(k, a, p, q))
    return records


def measure_exponents(
    x: RealEnclosure, records: list[ConvergentRecord]
) -> tuple[list[ConvergentRecord], float | None]:
    """Fill exponent = -log|x - p/q| / log q for each convergent with q >= 2.

    The enclosure must separate every p/q with relative width below 1
    (arith.neg_log_gaps); otherwise the measurement is meaningless and
    PrecisionExhaustedError asks the caller for a finer enclosure.  Also
    returns the maximum exponent.
    """
    pairs = [(r.p, r.q) for r in records if r.q >= 2]
    neg_logs = neg_log_gaps(x, pairs)
    if None in neg_logs:
        p, q = pairs[neg_logs.index(None)]
        raise PrecisionExhaustedError(f"enclosure does not resolve the gap to convergent {p}/{q}")
    it = iter(neg_logs)
    out = [replace(r, exponent=next(it) / math.log(r.q) if r.q >= 2 else None) for r in records]
    return out, max((r.exponent for r in out if r.exponent is not None), default=None)


def zeta2_exponent_report(
    max_q: int, digits: int = 60
) -> tuple[list[ConvergentRecord], float | None]:
    """Measured exponents for all zeta(2) convergents with q <= max_q.

    q_k >= phi^(k-1), so floor(log_phi max_q) + 3 quotients reach past max_q
    (1441/1000 > log_phi 2).  Doubles the working digits (up to the
    configured cap) only until the provable quotient prefix reaches a
    denominator q_K > max_q; that enclosure then separates every convergent
    with q <= max_q:

    - continued_fraction emits a_0..a_K only while both endpoints agree, so
      the enclosure lies in the closed cylinder I_K of a_0..a_K, whose width
      is 1/(q_K (q_K + q_(K-1))).
    - Every measured convergent has 2 <= q_k <= max_q < q_K, so 1 <= k < K
      and q_(k+1) > q_k.
    - Every x in I_K, a subset of I_(k+1), has
      |x - p_k/q_k| >= 1/(q_k (q_(k+1) + q_k)), which is more than
      |I_K| <= 1/(q_(k+1) (q_(k+1) + q_k)).
    - So neg_log_gaps separates every pair with relative width below 1,
      and measure_exponents never refuses here.
    """
    ladder = digit_ladder(digits)
    terms = max(max_q, 1).bit_length() * 1441 // 1000 + 3
    for d in ladder:
        enc = zeta2_enclosure(d)
        all_records = convergents(continued_fraction(enc, terms))
        # The prefix provably covers max_q only once it reaches past it.
        if all_records[-1].q > max_q:
            return measure_exponents(enc, [r for r in all_records if r.q <= max_q])
    raise PrecisionExhaustedError(
        f"convergents up to q <= {max_q} not resolvable within {ladder[-1]} digits"
    )


@dataclass(frozen=True)
class RVConstants:
    """Growth-rate constants (a, b) and the derived (rho, sigma) pair."""

    a: float
    b: float
    rho: float | None = None
    sigma: float | None = None


#: Published page-102 values used throughout the gates.
RV_PAGE102 = RVConstants(a=-2.55306095, b=1.70036709)

LEMMA4_MODES = ("raw", "shifted")


def lemma4_derivation(c: RVConstants, mode: str = "raw") -> RVConstants:
    """Derive (rho, sigma) from (a, b) for the requested mode.

    raw:     rho = b,     sigma = -a       (bound 1 - b/a)
    shifted: rho = b + 2, sigma = -(a + 2) (bound (a - b)/(a + 2))
    """
    if not (math.isfinite(c.a) and math.isfinite(c.b)):
        raise DomainError(f"a and b must be finite, got a = {c.a}, b = {c.b}")
    if mode == "raw":
        rho, sigma = c.b, -c.a
    elif mode == "shifted":
        rho, sigma = c.b + 2, -(c.a + 2)
    else:
        raise DomainError(f"mode must be one of {LEMMA4_MODES}, got {mode!r}")
    if not sigma > 0:
        raise DomainError(f"mode {mode!r} needs sigma > 0, got sigma = {sigma}")
    if not math.isfinite(rho / sigma):
        raise DomainError(f"rho/sigma overflows: rho = {rho}, sigma = {sigma}")
    return RVConstants(a=c.a, b=c.b, rho=rho, sigma=sigma)


def lemma4_bound(c: RVConstants, mode: str = "raw") -> float:
    """The measure bound 1 + rho/sigma for the requested mode."""
    derived = lemma4_derivation(c, mode)
    return 1 + derived.rho / derived.sigma


#: relative gap between the log-log sides of the Sondow inequality above
#: which float rounding (a few ulps) cannot flip their order
SONDOW_LOG_MARGIN = 1e-9


@dataclass(frozen=True)
class SondowCheck:
    """Exact witness for p_{n+1} <= (p_1 ... p_n)^(2 mu)."""

    n: int
    p_next: int
    primorial: int = decimal_field()
    mu: Fraction
    holds: bool


def sondow_inequality_check(t: PrimeTable, n: int, mu_bound) -> SondowCheck:
    """Test p_{n+1} <= (p_1 ... p_n)^(2 mu) without needless cross-powers.

    With mu = num/den the inequality is p_{n+1}^den <= primorial^(2 num),
    that is ln den + ln ln p_{n+1} <= ln(2 num) + ln ln primorial.  Each side
    is a float within a few ulps of its value, so when the sides differ by
    more than SONDOW_LOG_MARGIN relative the order of the floats decides.
    Near a tie the two powers are compared exactly if their digit count fits
    the config.BIGINT_DIGITS budget; otherwise ResourceLimitError is raised
    before either power is built.
    """
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    mu = as_rational(mu_bound)
    if mu <= 0:
        raise DomainError(f"mu bound must be positive, got {mu}")
    p_next = nth_prime(t, n + 1)
    primorial = product_tree(t.primes[:n].tolist())
    lhs = math.log(mu.denominator) + math.log(math.log(p_next))
    rhs = math.log(2 * mu.numerator) + math.log(math.log(primorial))
    if abs(lhs - rhs) > SONDOW_LOG_MARGIN * max(1.0, abs(lhs), abs(rhs)):
        holds = lhs < rhs
    else:
        # the larger power has about exp(max(lhs, rhs)) / ln 10 digits; the
        # exponent is clamped below exp's overflow, still ~10^307 digits
        digits = math.exp(min(max(lhs, rhs), 709.78)) / math.log(10)
        config.refuse_above(config.BIGINT_DIGITS, digits, f"near tie at n = {n}: power digits ")
        holds = p_next**mu.denominator <= primorial ** (2 * mu.numerator)
    return SondowCheck(n=n, p_next=p_next, primorial=primorial, mu=mu, holds=holds)
