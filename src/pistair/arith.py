"""Exact rationals and rigorous two-sided enclosures of zeta(2) = pi^2/6.

Rationals are stdlib ``fractions.Fraction`` values (arbitrary-precision,
always reduced, denominator positive); a ratio that is only logged stays
two unreduced ints (_log_ratio).  An enclosure is a pair of exact
rational endpoints known to bracket a real number; the zeta(2) enclosure
is produced from the Chudnovsky series for 1/pi with every rounding step
accounted for, so the endpoints are proofs, not estimates.

The series is summed exactly by binary splitting, as one fraction of
integers; its tail is bracketed by the next partial sum, since the terms
alternate and shrink by more than 10^13 each (_chudnovsky_sums), and
sqrt(10005) by ``math.isqrt``, so pi is rounded once each way
(_pi_scaled).  The endpoints pi^2 / (6 10^(2m)) have the {2, 3, 5}-smooth
denominator 2^(2m+1) 3 5^(2m), so they are reduced by stripping those
primes, with no gcd (_fraction_over_smooth).  A 2000-digit enclosure
took 2.1 ms with Machin's arctan series in floor-rounded fixed point and
1.0 ms this way (best of 15, Python 3.11, 2-core Xeon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from .errors import DomainError, PrecisionExhaustedError, ResourceLimitError
from .records import rational_str

#: Extra decimal places carried in the integer bounds on pi.  They absorb
#: the bounds' rounding and the final squaring, keeping the output width
#: comfortably below 10^-digits (checked before returning).
GUARD_DIGITS = 10

#: Bit length of the running power from which int_power squares and
#: multiplies by FFT.  Chosen from interleaved best-of-7 timings of
#: int_power(N!, 14) summed over N = 25, 50, ..., 2000, in two runs (ms):
#: 87.1/62.7 from 8000 bits, 86.1/60.5 from 10000, 86.7/61.4 from 12000,
#: 84.9/61.8 from 14000, 87.8/61.9 from 16000, 87.3/63.2 from 18000,
#: 87.5/62.9 from 20000 and 89.3/63.9 from 24000, against 132/170 for
#: N! ** 14 (the host's speed drifted between the runs).  From 10000 to
#: 20000 bits the sums agree within the spread; 15000, in the middle, puts
#: the gate on the FFT path from N = 355 on.
FFT_FROM_BITS = 15_000
#: Largest error bound at which int_power accepts an FFT product; rounding
#: the coefficients is exact while the error stays below 1/2.
FFT_ERROR_LIMIT = 0.25
#: Bits of a digit of an FFT operand; digits are balanced, in [-2^15, 2^15).
_DIGIT_BITS = 16
_HALF_DIGIT = 1 << (_DIGIT_BITS - 1)
#: FFT products are checked modulo 2^32 - 1, where 2^32 = 1, so a number's
#: residue is its even digits' sum plus 2^16 times its odd digits' sum.
_CHECK_MODULUS = (1 << 2 * _DIGIT_BITS) - 1


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


def _log_ratio(a: int, b: int) -> float:
    """Natural log of a/b for ints a, b > 0, of any size, with no gcd.

    Int true division rounds the exact quotient once, whatever factors a
    and b share, so in the normal range the log is that of the reduced
    quotient's float.  Outside it, a/b is scaled by 2^-s into (1/2, 2),
    rounded once there, and s ln 2 is added back.
    """
    s = a.bit_length() - b.bit_length()  # 2^(s-1) < a/b < 2^(s+1)
    if -1021 <= s < 1023:  # 2^-1022 < a/b < 2^1023
        return math.log(a / b)
    scaled = a / (b << s) if s > 0 else (a << -s) / b
    return math.log(scaled) + s * math.log(2)


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
    gap is [near/(Dq), far/(Dq)] for integers near, far; its midpoint
    (near + far)/(2Dq) equals abs_distance_to(p/q).midpoint, and its log is
    taken from the two ints unreduced (_log_ratio), with no Fraction.
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
        out.append(-_log_ratio(near + far, 2 * D * q) if separated else None)
    return out


def _chudnovsky_sums(terms: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """S_K and S_(K+1) for K = terms >= 1, as (numerator, denominator) pairs
    of positive ints, the smaller first: S lies strictly between them.

    The Chudnovsky series (D. V. and G. V. Chudnovsky, 1988) gives
    pi = 426880 sqrt(10005) / S with S = sum a_k over k >= 0, where
    a_k = (-1)^k (6k)! (13591409 + 545140134 k) / ((3k)! (k!)^3 640320^(3k)),
    and S_K is the sum of a_0 .. a_(K-1).

    The terms alternate in sign and shrink by more than 10^13 each:
    a_k / a_(k-1) = -24 (6k-5)(2k-1)(6k-1) L(k) / (k^3 640320^3 L(k-1)),
    L(k) = 13591409 + 545140134 k.  At k = 1 its size is
    120 L(1) / (640320^3 L(0)) < 2e-14.  For k >= 2, (6k-5)(2k-1)(6k-1)
    < 72 k^3 and L(k) / L(k-1) <= L(2) / L(1) < 2, so its size is below
    3456 / 640320^3 < 2e-14.  By Leibniz's rule S therefore lies strictly
    between S_K and S_(K+1), and S_(K+1) is the larger when a_K > 0, that
    is when K is even.

    Binary splitting (Haible and Papanikolaou, 1998) gives S_K exactly as
    T(0, K) / Q(0, K).  Term k contributes the ratio p(k) / q(k) with
    p(k) = (6k-5)(2k-1)(6k-1) and q(k) = k^3 640320^3 / 24 (p(0) = q(0) = 1)
    and t(k) = (-1)^k p(k) L(k); over a range [a, b) split at c,
    P = P(a, c) P(c, b), Q = Q(a, c) Q(c, b) and
    T = T(a, c) Q(c, b) + P(a, c) T(c, b), so the integers stay exact and
    no term is rounded.  S_(K+1) adds the leaf k = K to (P, Q, T)(0, K).
    """
    def split(a: int, b: int) -> tuple[int, int, int]:
        if b - a == 1:
            if a == 0:
                return 1, 1, 13591409
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            t = p * (13591409 + 545140134 * a)
            return p, a * a * a * 10939058860032000, -t if a % 2 else t
        c = (a + b) // 2
        p1, q1, t1 = split(a, c)
        p2, q2, t2 = split(c, b)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2

    p, q, t = split(0, terms)
    _, q_k, t_k = split(terms, terms + 1)
    s_k, s_next = (t, q), (t * q_k + p * t_k, q * q_k)
    return (s_next, s_k) if terms % 2 else (s_k, s_next)


def _pi_scaled(scale: int) -> tuple[int, int]:
    """Integer bounds lo < pi * scale < hi for an integer scale >= 1.

    pi = 426880 sqrt(10005) / S for the Chudnovsky sum S, which lies
    strictly between the partial sums S_lo < S_hi from _chudnovsky_sums.
    With r = isqrt(10005 scale^2), r <= sqrt(10005) scale < r + 1, so
    426880 r / S_hi < pi scale < 426880 (r + 1) / S_lo; lo and hi are their
    floor and ceiling, the only roundings.

    The term count K sets only the width.  (6k)! / ((3k)! (k!)^3) < 1728^k,
    so |a_K| < L(K) / 151931373056000^K < L(K) 2^(-47.1 K).  K =
    bits(scale) // 47 + 2 makes 47.1 K > bits(scale) + 48, so
    scale |a_K| < L(K) 2^-48 and the two partial sums move pi scale by far
    less than a unit.  The sqrt bracket adds at most 426880 / S < 0.04, so
    hi - lo <= 2.
    """
    small, large = _chudnovsky_sums(scale.bit_length() // 47 + 2)
    r = math.isqrt(10005 * scale * scale)
    lo = 426880 * r * large[1] // large[0]
    hi = -(-426880 * (r + 1) * small[1] // small[0])
    return lo, hi


def zeta2_enclosure(digits: int) -> RealEnclosure:
    """Enclosure of zeta(2) = pi^2/6 with width at most 10^-digits.

    _pi_scaled gives integer bounds on pi at ``digits + GUARD_DIGITS``
    decimal places; squaring and dividing by 6 stays exact on the rational
    endpoints, so the only error sources are the bounds' two roundings.
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
    pi_lo, pi_hi = _pi_scaled(scale)
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


def int_power(x: int, e: int) -> int:
    """x ** e exactly, for ints x and e >= 0, by a checked FFT squaring chain.

    With x = 2^s o, o odd, the power is o^e << e s: the factor 2^s costs a
    shift.  o^e goes by left-to-right binary powering: square, and multiply
    by o at each 1 bit of e after the first.  Python multiplies while the
    running power has fewer than FFT_FROM_BITS bits; the remaining steps
    run in numpy (_fft_chain).  If any FFT product fails a guard, the whole
    power is computed again as x ** e, so the result is exact either way.

    Timed on a 2-core Xeon (Python 3.11, NumPy 2.4, interleaved best of 7
    to 15): (2000!)^14 took 1.5 ms, against 4.4 to 8.3 ms for
    ``math.factorial(2000) ** 14`` and 3.9 ms for the Python chain with the
    2s stripped; (1000!)^14 took 0.65 ms against 1.2 ms.
    """
    if x <= 0 or e < 2:
        return x**e
    s = (x & -x).bit_length() - 1
    o = x >> s
    r = o
    bits = bin(e)[3:]
    for i, bit in enumerate(bits):
        if r.bit_length() >= FFT_FROM_BITS:
            r = _fft_chain(r, o, bits[i:])
            if r is None:
                return x**e
            break
        r *= r
        if bit == "1":
            r *= o
    return r << (e * s)


def _fft_chain(r: int, o: int, bits: str) -> int | None:
    """r squared once per character of bits, and multiplied by o after each
    "1", all by _fft_product; None if any product fails a guard.

    The digits stay in numpy from step to step: one conversion of r and o
    in, and one of the result out.
    """
    a, b = _to_digits(r), _to_digits(o)
    ra, rb = _residue(a), _residue(b)
    for bit in bits:
        step = _fft_product(a, ra, a, ra)
        if step is not None and bit == "1":
            step = _fft_product(*step, b, rb)
        if step is None:
            return None
        a, ra = step
    return _from_digits(a)


def _fft_product(a: np.ndarray, ra: int, b: np.ndarray, rb: int) -> tuple[np.ndarray, int] | None:
    """(digits, residue) of the product of the numbers with balanced digits
    a and b and residues ra and rb, or None if a guard refuses it.

    The product's n + m coefficients (n, m = len(a), len(b); the last is 0)
    are the convolution of a and b, taken by rfft and irfft of a
    power-of-two length `size` >= n + m, rounded to integers and carried
    (_carry).  It is accepted only if:

    (a) Percival's bound on the convolution's error, at most
        ||a|| ||b|| ((1 + u)^(3k) (1 + u sqrt 5)^(3k + 1) (1 + w)^(3k) - 1)
        for size = 2^k, unit roundoff u = 2^-53 and roots of unity off by
        at most w, here 2^-53 (C. Percival, Math. Comp. 72, 2003; R. Brent
        and P. Zimmermann, Modern Computer Arithmetic, §3.3), is below
        FFT_ERROR_LIMIT = 1/4.  The digits have magnitude at most 2^15, so
        ||a|| ||b|| <= 2^30 sqrt(n m), and 1 + t <= e^t bounds the rest by
        expm1((6k + (3k + 1) sqrt 5) u);
    (b) every coefficient lies within 1/8 of an integer;
    (c) the residue of the carried digits mod 2^32 - 1 is ra rb mod 2^32 - 1.

    (a) is proved for a radix-2 complex FFT in the model of correctly
    rounded operations; NumPy's pocketfft is a mixed-radix real transform,
    so (b) and (c) check the result that was actually computed.  An error
    of 1/2 or more in a coefficient either leaves it more than 1/8 from an
    integer, or rounds it to a wrong integer k 2^(16j) away, k != 0, which
    (c) sees unless errors at several digits cancel mod 2^32 - 1.

    Digits, coefficients and carries are float64 integers below 2^53, so
    rounding, carrying and the residue's sums are exact.  The transforms
    are multiplied in place and each array is dropped once used, to keep
    the peak memory of a step small.
    """
    n, m = len(a), len(b)
    size = 1 << (n + m - 1).bit_length()
    k = size.bit_length() - 1
    bound = 2.0**30 * math.sqrt(n * m) * math.expm1((6 * k + (3 * k + 1) * math.sqrt(5)) * 2.0**-53)
    if not bound < FFT_ERROR_LIMIT:
        return None
    fa = np.fft.rfft(a, size)
    fa *= fa if b is a else np.fft.rfft(b, size)
    z = np.fft.irfft(fa, size)[: n + m]
    del fa
    digits = np.rint(z)
    z -= digits
    np.abs(z, out=z)
    if not z.max() <= 0.125:  # a NaN fails too
        return None
    del z
    _carry(digits)
    rc = _residue(digits)
    if rc != ra * rb % _CHECK_MODULUS:
        return None
    top = n + m
    while top > 1 and digits[top - 1] == 0:
        top -= 1
    return digits[:top], rc


def _carry(c: np.ndarray) -> None:
    """Normalize integer coefficients c, in place, to balanced digits of the
    same number.

    Each pass moves floor((c_j + 2^15) / 2^16) from every c_j to c_(j+1),
    until no carry is left.  Coefficients below 2^47 settle in about four
    passes; a carry that runs along digits at the edge of the range takes
    one pass per digit.  A product of n and m balanced digits has magnitude
    below 2^(16(n + m) - 2) (1 + 2^-15), well inside the range of its n + m
    digits, so a carry out of the last one, which is dropped, comes only
    from wrong coefficients; the residue check (c) of _fft_product sees it.
    """
    carry = np.empty_like(c)
    while True:
        np.add(c, _HALF_DIGIT, out=carry)
        carry *= 2.0**-_DIGIT_BITS
        np.floor(carry, out=carry)
        if not carry.any():
            return
        c -= carry * 2.0**_DIGIT_BITS
        c[1:] += carry[:-1]


def _to_digits(x: int) -> np.ndarray:
    """Balanced base-2^16 digits of x > 0, least significant first, as float64.

    The digits of x + O, O = 2^15 (1 + 2^16 + ... + 2^(16(n-1))), less 2^15
    each.  n digits hold x when x + O < 2^(16n), and O < 2^(16n - 1) +
    2^(16n - 16), so every x < 2^(16n - 2) fits.
    """
    n = (x.bit_length() + 1) // _DIGIT_BITS + 1
    offset = int.from_bytes(b"\x00\x80" * n, "little")
    u = np.frombuffer((x + offset).to_bytes(2 * n, "little"), dtype="<u2")
    return u - float(_HALF_DIGIT)


def _from_digits(d: np.ndarray) -> int:
    """The number with balanced base-2^16 digits d: _to_digits inverted."""
    offset = int.from_bytes(b"\x00\x80" * len(d), "little")
    return int.from_bytes((d + _HALF_DIGIT).astype("<u2").tobytes(), "little") - offset


def _residue(d: np.ndarray) -> int:
    """The number with balanced base-2^16 digits d, mod 2^32 - 1."""
    return (int(d[0::2].sum()) + (int(d[1::2].sum()) << _DIGIT_BITS)) % _CHECK_MODULUS
