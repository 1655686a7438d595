"""Exact rationals and rigorous two-sided enclosures of zeta(2) = pi^2/6.

Rationals are stdlib ``fractions.Fraction`` values (arbitrary-precision,
always reduced, denominator positive).  An enclosure is a pair of exact
rational endpoints known to bracket a real number; the zeta(2) enclosure
is produced from Machin's identity pi/4 = 4 arctan(1/5) - arctan(1/239)
with every rounding step accounted for, so the endpoints are proofs, not
estimates.

The arctan series is summed in floor-rounded fixed point, one term at a
time from a running quotient, or, while that quotient is large, a block
of ARCTAN_BLOCK terms from one division: with D = x^(2j) prod (2k+2i+1)
divisible by each term's divisor e_i, floor(power / e_i) =
Q (D/e_i) + floor(R / e_i) for power = QD + R (proved in
_arctan_recip_scaled).  Both give the same integers.  The endpoints
pi^2 / (6 10^(2m)) have the {2, 3, 5}-smooth denominator
2^(2m+1) 3 5^(2m), so they are reduced by stripping those primes, with
no gcd (_fraction_over_smooth).  A 1900-digit enclosure took 4.5 ms
before both changes and 1.7 ms after them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from . import config
from .errors import DomainError, PrecisionExhaustedError, ResourceLimitError
from .records import rational_str

#: Extra decimal places carried through the fixed-point summation.  They
#: absorb the per-term floor rounding and the final squaring, keeping the
#: output width comfortably below 10^-digits (checked before returning).
GUARD_DIGITS = 10

#: Terms of the arctan series that _arctan_recip_scaled takes from one
#: division, while the running quotient has at least ARCTAN_BLOCK_FROM_BITS
#: bits (both measured in _arctan_recip_scaled).
ARCTAN_BLOCK = 16
ARCTAN_BLOCK_FROM_BITS = 1536


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

    While ``power`` has at least ARCTAN_BLOCK_FROM_BITS bits, the j =
    ARCTAN_BLOCK terms from k on come from one division by a small number
    instead of 2j passes over ``power``.  The term k + i is
    floor(power / e_i) with e_i = x^(2i) (2k+2i+1) for i < j, and the next
    running quotient is floor(power / e_j) with e_j = x^(2j), by the
    identity above.  Every e_i divides D = x^(2j) P, P = prod (2k+2i+1).
    With power = QD + R, 0 <= R < D, and D/e_i an integer,
    floor(power / e_i) = Q (D/e_i) + floor(R / e_i), since QD/e_i is an
    integer and 0 <= R/e_i.  So the block adds Q c + r, with the small
    c = sum (-1)^i D/e_i and r = sum (-1)^i floor(R/e_i) (its floors again
    by the running quotient, on R), and the next running quotient is
    QP + floor(R / x^(2j)).  If Q >= 1 every term of the block is at least
    D/e_i >= 1, so none is the zero that ends the series; Q = 0, or a
    ``power`` below the crossover, hands the rest to the per-term loop,
    which alone decides where the series stops.  The integers are the same
    as the per-term loop's, term by term.

    A block costs one division and two multiplications of ``power`` by
    numbers of about j (2 log2 x + log2 2k) bits, against 2j single-limb
    passes, plus ~2j small-integer operations.  Timed on Python 3.11, 2-core
    Xeon, best of 3 to 9 in runs that differed by up to 25%: at 2000
    digits, x = 5 took 3.3 ms term by term and 1.5 to 1.7 ms in blocks of
    j = 8 to 32, x = 239 1.06 ms and 0.62 to 0.72 ms; at 10^4 digits, x = 5
    took 81 ms term by term, 30 ms for j = 8 and 19 to 21 ms for j = 12 to
    32.  j = 16 is within the spread of the best from 10^3 to 10^4 digits.
    One block of 16 against 16 single terms broke even at a ``power`` of
    ~800 bits (x = 5) to ~1500 bits (x = 239, k ~ 1400).  With blocks from
    768 or 1024 bits, x = 239 at 300 to 400 digits was 10 to 27% slower
    than term by term; from 1536 bits no size from 100 to 2000 digits was
    slower beyond the spread.
    """
    x2 = x * x
    power = scale // x  # floor(scale / x^(2k+1))
    k = acc = 0
    if power.bit_length() >= ARCTAN_BLOCK_FROM_BITS:
        k, acc, power = _arctan_blocks(x2, power)
    n_pos = (k + 1) // 2
    n_neg = k // 2
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


def _arctan_blocks(x2: int, power: int) -> tuple[int, int, int]:
    """The block phase of _arctan_recip_scaled from k = 0, power = scale // x.

    Returns (k, acc, power): the number of terms summed, which is a multiple
    of ARCTAN_BLOCK, their signed sum, and floor(scale / x^(2k+1)).
    """
    j = ARCTAN_BLOCK
    x2_pows = [x2**i for i in range(j + 1)]
    k = acc = 0
    while power.bit_length() >= ARCTAN_BLOCK_FROM_BITS:
        odds = range(2 * k + 1, 2 * k + 2 * j, 2)
        p = math.prod(odds)
        q, r = divmod(power, x2_pows[j] * p)
        if q == 0:
            break
        c = s = 0
        for i, o in enumerate(odds):
            if i % 2:
                c -= x2_pows[j - i] * (p // o)
                s -= r // o
            else:
                c += x2_pows[j - i] * (p // o)
                s += r // o
            r //= x2
        acc += -(q * c + s) if k % 2 else q * c + s
        power = q * p + r
        k += j
    return k, acc, power


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
    m = digits + GUARD_DIGITS
    scale = 10**m
    a5_lo, a5_hi = _arctan_recip_scaled(5, scale)
    a239_lo, a239_hi = _arctan_recip_scaled(239, scale)
    # pi = 16 arctan(1/5) - 4 arctan(1/239); integer scaling is exact.
    pi_lo = 16 * a5_lo - 4 * a239_hi
    pi_hi = 16 * a5_hi - 4 * a239_lo
    # The width (pi_hi^2 - pi_lo^2) / (6 scale^2) is at most 10^-digits iff
    # (pi_hi^2 - pi_lo^2) 10^digits <= 6 scale^2, here divided through by
    # 10^digits.  The guard digits make this unreachable; it is a contract.
    if (pi_hi - pi_lo) * (pi_hi + pi_lo) > 6 * scale * 10**GUARD_DIGITS:
        raise PrecisionExhaustedError(
            f"zeta(2) enclosure at {digits} digits is wider than 10^-{digits}"
        )
    # 6 scale^2 = 2^(2m+1) 3 5^(2m)
    return RealEnclosure(
        _fraction_over_smooth(pi_lo * pi_lo, 2 * m + 1, 1, 2 * m),
        _fraction_over_smooth(pi_hi * pi_hi, 2 * m + 1, 1, 2 * m),
    )


def digit_ladder(digits: int) -> list[int]:
    """Working digits for refining an enclosure: digits, doubled up to the cap."""
    if digits < 1:
        raise DomainError(f"digits must be >= 1, got {digits}")
    ladder, cap = [digits], config.digit_cap()
    while ladder[-1] < cap:
        ladder.append(min(2 * ladder[-1], cap))
    return ladder


def _fraction_over_smooth(numerator: int, twos: int, threes: int, fives: int) -> Fraction:
    """numerator / (2^twos 3^threes 5^fives) for numerator > 0, with no gcd.

    The common 2s go by the numerator's trailing zero bits, the 3s and 5s by
    trial division, each up to its exponent in the denominator.  What is
    left is coprime: a prime 2, 3 or 5 stays in the denominator only if the
    numerator has no more of it.  On the two zeta(2) endpoints, squares and
    all, this took 0.12 ms at 1900 digits and 1.9 ms at 9990, where
    Fraction(pi^2, 6 scale^2) took 0.98 and 18 ms (Python 3.11, best of 15).
    """
    n = numerator
    shift = min((n & -n).bit_length() - 1, twos)
    n >>= shift
    odd = 1
    for prime, cap in ((3, threes), (5, fives)):
        while cap and n % prime == 0:
            n //= prime
            cap -= 1
        odd *= prime**cap
    return _coprime_fraction(n, odd << (twos - shift))


def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """The Fraction numerator/denominator, for coprime ints with denominator > 0.

    Fraction() reduces by a gcd, which for the Euler products p_N/q_N and
    the zeta(2) endpoints costs more than building their parts.
    Fraction._from_coprime_ints skips it, but exists only on Python 3.12+,
    so this does what it does: object.__new__(Fraction) with the two slots
    _numerator and _denominator set.
    """
    value = object.__new__(Fraction)
    value._numerator = numerator
    value._denominator = denominator
    return value


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
