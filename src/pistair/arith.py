"""Exact rationals and rigorous two-sided enclosures of zeta(2) = pi^2/6.

Rationals are stdlib ``fractions.Fraction`` values (arbitrary-precision,
always reduced, denominator positive).  An enclosure is a pair of exact
rational endpoints known to bracket a real number; the zeta(2) enclosure
is produced from Machin's identity pi/4 = 4 arctan(1/5) - arctan(1/239)
with every rounding step accounted for, so the endpoints are proofs, not
estimates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import config
from .errors import DomainError, ResourceLimitError
from .records import rational_str

#: Extra decimal places carried through the fixed-point summation.  They
#: absorb the per-term floor rounding and the final squaring, keeping the
#: output width comfortably below 10^-digits (checked before returning).
GUARD_DIGITS = 10


def as_rational(value) -> Fraction:
    """Coerce value to an exact Fraction.

    Floats go through their shortest decimal repr, so ``as_rational(5.45)``
    is 109/20, not the 53-bit binary neighbour of 5.45.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"cannot interpret {value!r} as an exact rational") from None
    raise DomainError(f"cannot interpret {value!r} as an exact rational")


def log_rational(q: Fraction) -> float:
    """Natural log of a positive rational, safe for huge numerator/denominator."""
    if q <= 0:
        raise DomainError(f"log of non-positive rational {rational_str(q)}")
    return math.log(q.numerator) - math.log(q.denominator)


class Placement(enum.Enum):
    """Position of a rational relative to an enclosure."""

    BELOW = "below"
    ABOVE = "above"
    OVERLAPPING = "overlapping"


@dataclass(frozen=True)
class RealEnclosure:
    """Exact rational endpoints lo <= hi bracketing a real number."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(
                f"enclosure endpoints out of order: {rational_str(self.lo)} > "
                f"{rational_str(self.hi)}"
            )

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains_enclosure(self, other: "RealEnclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def abs_distance_to(self, r: Fraction) -> "RealEnclosure":
        """Enclosure of |x - r| over all x in this enclosure.

        Requires r to lie on or outside the endpoints; a rational interior
        to the enclosure is not separated from the bracketed real, so no
        positive lower bound on the distance exists.
        """
        r = as_rational(r)
        if r <= self.lo:
            return RealEnclosure(self.lo - r, self.hi - r)
        if r >= self.hi:
            return RealEnclosure(r - self.hi, r - self.lo)
        raise DomainError(
            "rational lies inside the enclosure; refine the enclosure first"
        )


def neg_log_gaps(x: RealEnclosure, pairs) -> list[float | None]:
    """-ln of the midpoint of the enclosure of |x - p/q| for each (p, q), q > 0.

    None where p/q is not strictly outside x or the gap enclosure's width is
    not below its lower end.  Over D = lcm of the endpoint denominators the
    gap is [near/(Dq), far/(Dq)] for integers near, far; its midpoint takes
    one gcd and equals abs_distance_to(p/q).midpoint, so the logs agree.
    """
    D = math.lcm(x.lo.denominator, x.hi.denominator)
    lo = x.lo.numerator * (D // x.lo.denominator)
    hi = x.hi.numerator * (D // x.hi.denominator)
    out: list[float | None] = []
    for p, q in pairs:
        near, far = lo * q - p * D, hi * q - p * D
        if near <= 0:  # p/q is not below lo, so measure it from above hi
            near, far = -far, -near
        separated = near > 0 and far < 2 * near
        out.append(-log_rational(Fraction(near + far, 2 * D * q)) if separated else None)
    return out


def enclosure_compare(x: RealEnclosure, r) -> Placement:
    """Classify rational r against enclosure x: BELOW means r < x.lo."""
    r = as_rational(r)
    if r < x.lo:
        return Placement.BELOW
    if r > x.hi:
        return Placement.ABOVE
    return Placement.OVERLAPPING


def _arctan_recip_scaled(x: int, scale: int) -> tuple[int, int]:
    """Integer bounds [lo, hi] on scale * arctan(1/x) for integer x >= 2.

    Sums the alternating series arctan(1/x) = sum (-1)^k / ((2k+1) x^(2k+1))
    in floor-rounded fixed point.  Each floored term underestimates its true
    value by less than one unit, counted per sign; the omitted tail is
    bounded by the first omitted term (alternating, strictly decreasing),
    which is below one unit at the stopping point.

    The terms cost linear time each: ``power`` carries floor(scale / x^(2k+1))
    from term to term by ``power //= x*x``, and the term is ``power // (2k+1)``.
    For positive integers a, b, c, floor(floor(a/b)/c) = floor(a/(bc)): write
    a = qb + r with 0 <= r < b and q = sc + u with 0 <= u < c; then
    a = s(bc) + (ub + r) with 0 <= ub + r <= (c-1)b + b - 1 < bc.  Applied
    once per division, this gives power = floor(scale / x^(2k+1)) and
    t = floor(scale / ((2k+1) x^(2k+1))) exactly, the same floored term as a
    direct division, so the sum and the unit counts above are unchanged.
    """
    x2 = x * x
    power = scale // x  # floor(scale / x^(2k+1))
    k = 0
    acc = 0
    n_pos = 0
    n_neg = 0
    while True:
        t = power // (2 * k + 1)
        if t == 0:
            break
        if k % 2 == 0:
            acc += t
            n_pos += 1
        else:
            acc -= t
            n_neg += 1
        k += 1
        power //= x2
    lo = acc - n_neg
    hi = acc + n_pos
    if k % 2 == 0:
        hi += 1  # omitted tail is positive and < 1 unit
    else:
        lo -= 1  # omitted tail is negative and > -1 unit
    return lo, hi


def zeta2_enclosure(digits: int) -> RealEnclosure:
    """Enclosure of zeta(2) = pi^2/6 with width at most 10^-digits.

    Machin's identity gives integer bounds on pi at ``digits + GUARD_DIGITS``
    decimal places; squaring and dividing by 6 stays exact on the rational
    endpoints, so the only error sources are the accounted series roundings.
    """
    if digits < 1:
        raise DomainError(f"digits must be >= 1, got {digits}")
    cap = config.digit_cap()
    if digits > cap:
        raise ResourceLimitError(
            f"digits={digits} exceeds the configured cap {cap} "
            f"(raise {config.ENV_DIGIT_CAP} to override)"
        )
    return _zeta2_cached(digits)


def digit_ladder(digits: int) -> list[int]:
    """Working digits for refining an enclosure: digits, doubled up to the cap."""
    if digits < 1:
        raise DomainError(f"digits must be >= 1, got {digits}")
    ladder, cap = [digits], config.digit_cap()
    while ladder[-1] < cap:
        ladder.append(min(2 * ladder[-1], cap))
    return ladder


@lru_cache(maxsize=64)
def _zeta2_cached(digits: int) -> RealEnclosure:
    scale = 10 ** (digits + GUARD_DIGITS)
    a5_lo, a5_hi = _arctan_recip_scaled(5, scale)
    a239_lo, a239_hi = _arctan_recip_scaled(239, scale)
    # pi = 16 arctan(1/5) - 4 arctan(1/239); integer scaling is exact.
    pi_lo = 16 * a5_lo - 4 * a239_hi
    pi_hi = 16 * a5_hi - 4 * a239_lo
    enclosure = RealEnclosure(
        Fraction(pi_lo * pi_lo, 6 * scale * scale),
        Fraction(pi_hi * pi_hi, 6 * scale * scale),
    )
    # The guard digits make this unreachable; keep it as a hard contract.
    assert enclosure.width <= Fraction(1, 10**digits)
    return enclosure


def rational_exp_upper(x) -> Fraction:
    """Rational upper bound 1 + x + x^2 on exp(x) for 0 <= x <= 1.

    Valid because exp(x) = 1 + x + x^2 * sum_{k>=2} x^(k-2)/k! and the sum
    is at most e - 2 < 1 on this domain.  Exact at x = 0.
    """
    x = as_rational(x)
    if x < 0 or x > 1:
        raise DomainError(f"exp upper bound requires 0 <= x <= 1, got {x}")
    return 1 + x + x * x


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
