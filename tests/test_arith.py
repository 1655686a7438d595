import fractions
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pistair import (
    DomainError,
    PrecisionExhaustedError,
    RealEnclosure,
    ResourceLimitError,
    as_rational,
    log_rational,
    rational_exp_upper,
    rational_str,
    zeta2_enclosure,
)
from pistair import arith
from pistair.arith import (
    FFT_FROM_BITS, GUARD_DIGITS, _chudnovsky_sums, _fraction_over_smooth, _pi_scaled,
    digit_ladder, int_power, neg_log_gaps,
)
from pistair.verify import exp_taylor_enclosure


def partial_sum(n):
    return sum(Fraction(1, k * k) for k in range(1, n + 1))


# Exact rational sandwich: S_N + 1/(N+1) < zeta(2) < S_N + 1/N.  This is the
# independent oracle every enclosure is checked against.
S1000 = partial_sum(1000)
SANDWICH_LO = S1000 + Fraction(1, 1001)
SANDWICH_HI = S1000 + Fraction(1, 1000)


class TestRealEnclosure:
    def test_orders_endpoints(self):
        with pytest.raises(DomainError):
            RealEnclosure(Fraction(2), Fraction(1))

    def test_width_and_midpoint(self):
        enc = RealEnclosure(Fraction(3, 2), Fraction(5, 3))
        assert enc.width == Fraction(1, 6)
        assert enc.midpoint == Fraction(19, 12)

    def test_abs_distance_requires_separation(self):
        enc = RealEnclosure(Fraction(3, 2), Fraction(5, 3))
        assert enc.abs_distance_to(Fraction(1)).lo == Fraction(1, 2)
        assert enc.abs_distance_to(Fraction(2)).lo == Fraction(1, 3)
        with pytest.raises(DomainError):
            enc.abs_distance_to(Fraction(8, 5))


def reference_neg_log_gap(x, r):
    """The Fraction path: abs_distance_to, width < lo, -log_rational(midpoint)."""
    if x.lo < r < x.hi:
        return None
    gap = x.abs_distance_to(r)
    if not gap.width < gap.lo:
        return None
    return -log_rational(gap.midpoint)


def rationals(max_value=10**12):
    return st.builds(
        Fraction, st.integers(-max_value, max_value), st.integers(1, max_value)
    )


@st.composite
def enclosures_and_targets(draw):
    """An enclosure (lo == hi one time in four) and rationals around it:
    below, above, on either endpoint and inside, at gaps from tiny to huge."""
    lo = draw(rationals())
    exact = draw(st.integers(0, 3)) == 0
    hi = lo if exact else lo + abs(draw(rationals())) + Fraction(1, 10**40)
    x = RealEnclosure(lo, hi)
    offsets = st.builds(
        lambda r, k: abs(r) * Fraction(10) ** k + Fraction(1, 10**50),
        rationals(10**6),
        st.integers(-30, 30),
    )
    targets = [lo, hi, (lo + hi) / 2]
    targets += [lo - d for d in draw(st.lists(offsets, min_size=1, max_size=4))]
    targets += [hi + d for d in draw(st.lists(offsets, min_size=1, max_size=4))]
    return x, targets


class TestNegLogGaps:
    @given(enclosures_and_targets(), st.integers(1, 5))
    @settings(max_examples=400, deadline=None)
    def test_matches_fraction_path(self, case, scale):
        x, targets = case
        # p/q need not be in lowest terms
        pairs = [(scale * r.numerator, scale * r.denominator) for r in targets]
        assert neg_log_gaps(x, pairs) == [reference_neg_log_gap(x, r) for r in targets]

    @pytest.mark.parametrize("digits", [30, 700])
    def test_euler_like_targets_on_zeta2(self, digits):
        enc = zeta2_enclosure(digits)
        targets = [Fraction(3, 2), Fraction(5, 3), Fraction(1225, 768), enc.lo, enc.hi]
        targets += [enc.lo - Fraction(1, 10**k) for k in range(1, digits + 30, 7)]
        got = neg_log_gaps(enc, [r.as_integer_ratio() for r in targets])
        want = [reference_neg_log_gap(enc, r) for r in targets]
        assert got == want
        for g, r in zip(got[:3], targets[:3]):
            assert g == pytest.approx(-math.log(abs(float(r) - math.pi**2 / 6)), rel=1e-12)
        # the offsets run from separated gaps to ones narrower than the enclosure
        assert None in want[5:] and any(w is not None for w in want[5:])

    def test_inside_and_endpoints_refused(self):
        enc = RealEnclosure(Fraction(3, 2), Fraction(5, 3))
        assert neg_log_gaps(enc, [(8, 5), (3, 2), (5, 3)]) == [None, None, None]
        # 0 is separated by 3/2 against a width of 1/6
        assert neg_log_gaps(enc, [(0, 1)]) == [-log_rational(Fraction(19, 12))]
        # a gap enclosure as wide as its lower end is refused on either side
        unit = RealEnclosure(Fraction(1), Fraction(2))
        got = neg_log_gaps(unit, [(0, 1), (3, 1), (-1, 1)])
        assert got == [None, None, -log_rational(Fraction(5, 2))]


class TestDigitLadder:
    def test_doubles_up_to_the_cap(self, monkeypatch):
        monkeypatch.setenv("PISTAIR_DIGIT_CAP", "1000")
        assert digit_ladder(60) == [60, 120, 240, 480, 960, 1000]
        assert digit_ladder(1000) == [1000]
        assert digit_ladder(2000) == [2000]

    @pytest.mark.parametrize("digits", [0, -3])
    def test_nonpositive_refused(self, digits):
        with pytest.raises(DomainError, match="digits must be >= 1"):
            digit_ladder(digits)


class TestZeta2Enclosure:
    def test_two_digit_request(self):
        enc = zeta2_enclosure(2)
        assert enc.width <= Fraction(1, 100)
        assert enc.lo >= Fraction(164, 100)
        assert enc.hi <= Fraction(165, 100)

    def test_one_digit_contains_true_value(self):
        enc = zeta2_enclosure(1)
        # the sandwich pins zeta(2) inside (SANDWICH_LO, SANDWICH_HI)
        assert enc.lo <= SANDWICH_HI and SANDWICH_LO <= enc.hi

    def test_sandwich_consistency(self):
        enc = zeta2_enclosure(30)
        assert SANDWICH_LO < enc.hi
        assert SANDWICH_HI > enc.lo
        assert SANDWICH_LO < enc.lo and enc.hi < SANDWICH_HI

    @pytest.mark.parametrize("digits", [1, 5, 15, 40])
    def test_refinement_nests(self, digits):
        coarse = zeta2_enclosure(digits)
        fine = zeta2_enclosure(digits + 10)
        assert coarse.contains_enclosure(fine)
        assert coarse.width <= Fraction(1, 10**digits)

    def test_rejects_bad_digits(self):
        with pytest.raises(DomainError):
            zeta2_enclosure(0)

    def test_digit_cap(self, monkeypatch):
        monkeypatch.setenv("PISTAIR_DIGIT_CAP", "50")
        with pytest.raises(ResourceLimitError):
            zeta2_enclosure(51)

    @staticmethod
    def widened_pi(scale):
        # a pi bracket 10^GUARD_DIGITS units wide breaks the width contract
        lo, hi = _pi_scaled(scale)
        return lo - 10**GUARD_DIGITS, hi + 10**GUARD_DIGITS

    def test_width_contract_raises(self, monkeypatch):
        # an explicit raise, not an assert, so python -O keeps it
        monkeypatch.setattr(arith, "_pi_scaled", self.widened_pi)
        with pytest.raises(PrecisionExhaustedError, match="wider than 10\\^-20"):
            zeta2_enclosure(20)

    def test_every_call_recomputes(self, monkeypatch):
        # no enclosure is kept between calls: after a good call at 20 digits,
        # a widened pi bracket still reaches the width contract at 20 digits
        zeta2_enclosure(20)
        monkeypatch.setattr(arith, "_pi_scaled", self.widened_pi)
        with pytest.raises(PrecisionExhaustedError, match="wider than 10\\^-20"):
            zeta2_enclosure(20)

    @pytest.mark.parametrize("counts", [range(1, 401), [1900], [2100], [9990]], ids=str)
    def test_endpoints_equal_the_gcd_path(self, counts):
        for digits in counts:
            scale = 10 ** (digits + GUARD_DIGITS)
            pi_lo, pi_hi = _pi_scaled(scale)
            enc = zeta2_enclosure(digits)
            for end, pi in ((enc.lo, pi_lo), (enc.hi, pi_hi)):
                expected = Fraction(pi * pi, 6 * scale * scale)
                assert (end.numerator, end.denominator) == (expected.numerator, expected.denominator)
                assert end.denominator > 0 and math.gcd(end.numerator, end.denominator) == 1

    def test_endpoints_take_no_gcd(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("gcd called")

        monkeypatch.setattr(fractions.math, "gcd", refuse)
        enc = zeta2_enclosure(1900)
        assert SANDWICH_LO < enc.lo < enc.hi < SANDWICH_HI

    @pytest.mark.parametrize("counts", [range(1, 401), [1900, 2100]], ids=str)
    def test_contains_mpmath_and_nests(self, counts):
        assert_contains_mpmath_and_nests(counts)

    def test_default_cap_contains_mpmath_value(self):
        assert_contains_mpmath_and_nests([9990, 10_000])


def assert_contains_mpmath_and_nests(counts):
    """Each zeta2_enclosure(d), d in counts, contains mpmath's interval at
    d + 30 digits (an independent oracle), is at most 10^-d wide, and holds
    the next, finer one."""
    mpmath = pytest.importorskip("mpmath")
    coarse = None
    saved = mpmath.iv.prec
    try:
        for digits in counts:
            enc = zeta2_enclosure(digits)
            mpmath.iv.dps = digits + 30
            lo, hi = (mpmath.iv.pi**2 / 6)._mpi_
            assert enc.lo <= mpf_fraction(lo) and mpf_fraction(hi) <= enc.hi
            assert enc.width <= Fraction(1, 10**digits)
            assert coarse is None or coarse.contains_enclosure(enc)
            coarse = enc
    finally:
        mpmath.iv.prec = saved


def mpf_fraction(value) -> Fraction:
    """The exact value of an mpmath mpf tuple (sign, mantissa, exponent, bc)."""
    sign, man, exp, _ = value
    man = -man if sign else man
    return Fraction(man * 2**exp) if exp >= 0 else Fraction(man, 2**-exp)


def arctan_recip_per_term_division(x, scale):
    """Reference: each floored term as scale // ((2k+1) x^(2k+1))."""
    x2 = x * x
    denom_pow = x
    k = acc = n_pos = n_neg = 0
    while True:
        t = scale // ((2 * k + 1) * denom_pow)
        if t == 0:
            break
        if k % 2 == 0:
            acc += t
            n_pos += 1
        else:
            acc -= t
            n_neg += 1
        k += 1
        denom_pow *= x2
    lo = acc - n_neg
    hi = acc + n_pos
    if k % 2 == 0:
        hi += 1
    else:
        lo -= 1
    return lo, hi


def chudnovsky_term(k):
    """a_k = (-1)^k (6k)! (13591409 + 545140134 k) / ((3k)! (k!)^3 640320^(3k)),
    as an unreduced (numerator, denominator) pair."""
    numerator = (-1) ** k * math.factorial(6 * k) * (13591409 + 545140134 * k)
    return numerator, math.factorial(3 * k) * math.factorial(k) ** 3 * 640320 ** (3 * k)


def machin_pi_bounds(scale):
    """Reference bounds on pi * scale from pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    a5 = arctan_recip_per_term_division(5, scale)
    a239 = arctan_recip_per_term_division(239, scale)
    return 16 * a5[0] - 4 * a239[1], 16 * a5[1] - 4 * a239[0]


class TestPiScaled:
    @staticmethod
    def assert_inside_machin(scale):
        machin_lo, machin_hi = machin_pi_bounds(scale)
        lo, hi = _pi_scaled(scale)
        assert machin_lo <= lo < hi <= machin_hi
        assert hi - lo <= 2

    @pytest.mark.parametrize("counts", [range(1, 401), [1900], [2100], [9990], [10_000]], ids=str)
    def test_inside_the_machin_bounds(self, counts):
        for digits in counts:
            self.assert_inside_machin(10 ** (digits + GUARD_DIGITS))

    @given(scale=st.integers(1, 10**300))
    @settings(max_examples=300, deadline=None)
    def test_any_scale(self, scale):
        self.assert_inside_machin(scale)

    def test_partial_sums_are_exact_and_bracket_the_series(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(700):
            series = 426880 * mpmath.sqrt(10005) / mpmath.pi  # the sum S
            partial = Fraction(0)
            for terms in range(1, 41):
                partial += Fraction(*chudnovsky_term(terms - 1))
                following = partial + Fraction(*chudnovsky_term(terms))
                small, large = _chudnovsky_sums(terms)
                assert small[1] > 0 and large[1] > 0
                assert Fraction(*small) == min(partial, following)
                assert Fraction(*large) == max(partial, following)
                assert mpmath.mpf(small[0]) / small[1] < series < mpmath.mpf(large[0]) / large[1]

    def test_each_bound_from_its_own_partial_sum(self, monkeypatch):
        # partial sums moved 0.1% away from S, each on its own side, move
        # each bound ~0.1% outward, past the Machin bounds; a bound taken
        # from the other side's sum would move inward, across them
        sums = arith._chudnovsky_sums

        def widened(terms):
            (n_small, d_small), (n_large, d_large) = sums(terms)
            return (999 * n_small, 1000 * d_small), (1001 * n_large, 1000 * d_large)

        monkeypatch.setattr(arith, "_chudnovsky_sums", widened)
        scale = 10**40
        machin_lo, machin_hi = machin_pi_bounds(scale)
        lo, hi = _pi_scaled(scale)
        assert lo < machin_lo and machin_hi < hi
        assert hi - lo > scale // 1000

    def test_terms_alternate_and_shrink(self):
        # the premise of the bracket between consecutive partial sums, for
        # the 709 terms at the digit cap and the term a_709 that brackets them
        terms = (10 ** (10_000 + GUARD_DIGITS)).bit_length() // 47 + 2
        assert terms == 709
        num, den = chudnovsky_term(0)
        assert num > 0
        for k in range(1, terms + 1):
            next_num, next_den = chudnovsky_term(k)
            assert (next_num > 0) != (num > 0)
            # |a_k| 10^13 < |a_(k-1)|, cross-multiplied
            assert abs(next_num) * den * 10**13 < abs(num) * next_den
            num, den = next_num, next_den


SMOOTH_OFFSETS = st.sampled_from([-2, -1, 0, 1, 2]) | st.integers(-1000, 1000)
# the caps of 6 * 10^(2m) = 2^(2m+1) 3 5^(2m), or any caps
SMOOTH_CAPS = st.integers(1, 2000).map(lambda m: (2 * m + 1, 1, 2 * m)) | st.tuples(
    st.integers(0, 60), st.integers(0, 60), st.integers(0, 60)
)


@given(
    core=st.integers(1, 10**60),
    caps=SMOOTH_CAPS,
    offsets=st.tuples(SMOOTH_OFFSETS, SMOOTH_OFFSETS, SMOOTH_OFFSETS),
)
@settings(max_examples=500, deadline=None)
def test_fraction_over_smooth_with_planted_factors(core, caps, offsets):
    # planted exponents at, below and above each cap
    a, b, c = (max(0, cap + off) for cap, off in zip(caps, offsets))
    numerator = core * 2**a * 3**b * 5**c
    value = _fraction_over_smooth(numerator, *caps)
    expected = Fraction(numerator, 2 ** caps[0] * 3 ** caps[1] * 5 ** caps[2])
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
    assert math.gcd(value.numerator, value.denominator) == 1


class TestRationalExpUpper:
    def test_zero(self):
        assert rational_exp_upper(0) == 1

    def test_half(self):
        assert rational_exp_upper(Fraction(1, 2)) == Fraction(7, 4)
        # exp(1/2) = 1.6487... <= 7/4 against the independent Taylor oracle
        assert exp_taylor_enclosure(Fraction(1, 2)).hi <= Fraction(7, 4)

    def test_one(self):
        assert rational_exp_upper(1) == 3
        assert exp_taylor_enclosure(1).hi <= 3

    def test_domain(self):
        with pytest.raises(DomainError):
            rational_exp_upper(Fraction(-1, 10))
        with pytest.raises(DomainError):
            rational_exp_upper(Fraction(11, 10))

    @given(st.fractions(min_value=0, max_value=1))
    @settings(max_examples=150, deadline=None)
    def test_dominates_exp(self, x):
        upper = rational_exp_upper(x)
        oracle = exp_taylor_enclosure(x)
        assert oracle.lo <= upper
        assert upper <= 1 + x + x * x

    def test_monotone(self):
        values = [rational_exp_upper(Fraction(k, 20)) for k in range(21)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_as_rational_float_uses_decimal_repr():
    assert as_rational(5.45) == Fraction(109, 20)
    assert as_rational("3/7") == Fraction(3, 7)
    assert rational_str(Fraction(3)) == "3/1"


@pytest.mark.parametrize("text", ["abc", "1/0", ""])
def test_as_rational_rejects_malformed_string(text):
    with pytest.raises(DomainError):
        as_rational(text)


def test_taylor_oracle_brackets_known_values():
    # widen the oracle beyond float precision before comparing with float e
    enc = exp_taylor_enclosure(1, terms=10)
    e = Fraction(math.e)
    assert enc.lo < e < enc.hi
    assert exp_taylor_enclosure(1).width < Fraction(1, 10**25)


@given(st.fractions(min_value=0, max_value=1), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_taylor_enclosure_equals_stepwise_sum(x, terms):
    # the Fraction-per-step loop the common-denominator sum replaces
    total, term = Fraction(0), Fraction(1)
    for k in range(terms):
        total += term
        term = term * x / (k + 1)
    enc = exp_taylor_enclosure(x, terms)
    assert (enc.lo, enc.hi) == (total, total + 2 * term)


@pytest.mark.parametrize("terms", [-1, 0])
def test_taylor_enclosure_refuses_fewer_than_one_term(terms):
    # with no terms the bounds would be [0, 2], which misses exp(1)
    with pytest.raises(DomainError, match="terms"):
        exp_taylor_enclosure(1, terms)


@st.composite
def powers(draw):
    """(x, e): x from 1 bit to 200k bits, odd part times 2^shift, 2 <= e <= 20.

    Many of the odd parts start below FFT_FROM_BITS and cross it on the way
    to x^e; x e stays within ~1.2M bits, so the reference x ** e stays cheap.
    """
    bits = draw(st.one_of(st.integers(1, 64), st.integers(1_000, 40_000),
                          st.integers(40_000, 200_000)))
    odd = random.Random(draw(st.integers(0, 2**32))).getrandbits(bits) | 1 | 1 << (bits - 1)
    shift = draw(st.one_of(st.just(0), st.integers(1, 5_000)))
    e = draw(st.integers(2, max(2, min(20, 1_200_000 // bits))))
    return odd << shift, e


class TestIntPower:
    # the gate's largest power: 2000! = 2^1994 o, o of 17059 bits, so every
    # step of o^14 runs by FFT: "110" are the bits of 14 after the top one
    X = math.factorial(2000)
    O = X >> 1994

    @given(powers())
    @settings(max_examples=80, deadline=None)
    def test_equals_builtin_power(self, xe):
        x, e = xe
        assert int_power(x, e) == x**e

    @pytest.mark.parametrize(
        "x", [-(3**20), -1, 0, 1, 2**5000, 3**20000, 2**31 - 1, 2**20015 - 1],
        ids=["-3^20", "-1", "0", "1", "2^5000", "3^20000", "2^31-1", "2^20015-1"],
    )
    @pytest.mark.parametrize("e", [0, 1, 2, 3, 14])
    def test_edge_bases_and_exponents(self, x, e):
        # 2^(16k + 15) - 1 needs k + 2 balanced digits, one more than its bits suggest
        assert int_power(x, e) == x**e

    def test_gate_power_runs_by_fft(self):
        assert self.O.bit_length() >= FFT_FROM_BITS
        assert arith._fft_chain(self.O, self.O, "110") == self.O**14

    def planted_irfft(self, monkeypatch, delta):
        irfft, calls = np.fft.irfft, []

        def faulty(*args, **kwargs):
            z = irfft(*args, **kwargs)
            z[len(z) // 4] += delta  # len(z) < 2 (len(a) + len(b)): a product coefficient
            calls.append(len(z))
            return z

        monkeypatch.setattr(np.fft, "irfft", faulty)
        return calls

    def assert_falls_back(self):
        assert arith._fft_chain(self.O, self.O, "110") is None
        assert int_power(self.X, 14) == self.X**14

    def test_bound_guard_refuses_the_last_square(self, monkeypatch):
        # Percival's bound is 0.02 for the first FFT square and 0.16 for the last
        calls = self.planted_irfft(monkeypatch, 0.0)
        monkeypatch.setattr(arith, "FFT_ERROR_LIMIT", 0.1)
        self.assert_falls_back()
        assert calls and max(calls) < 16384

    def test_fraction_guard_catches_an_off_integer_coefficient(self, monkeypatch):
        self.planted_irfft(monkeypatch, 0.3)
        monkeypatch.setattr(arith, "_residue", lambda d: 0)  # guard (c) off
        self.assert_falls_back()

    def test_residue_guard_catches_a_wrong_integer(self, monkeypatch):
        self.planted_irfft(monkeypatch, 1.0)
        self.assert_falls_back()
        # unchecked, the planted integer would be in the product
        monkeypatch.setattr(arith, "_residue", lambda d: 0)
        wrong = arith._fft_chain(self.O, self.O, "110")
        assert wrong is not None and wrong != self.O**14
