import fractions
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pistair import (
    DomainError,
    EulerApproximation,
    RangeError,
    ResourceLimitError,
    approximation_gap,
    euler_product,
    prime_count,
    qn_bound_report,
    rational_exp_upper,
    sieve,
    tail_product_upper,
    zeta2_enclosure,
)
from pistair.arith import _coprime_fraction
from pistair.euler import FACTORED_FROM
from pistair.primes import PrimeTable


def fresh(t):
    # a new table object misses the one-entry product cache
    return PrimeTable(t.limit, t.primes)


def brute_force_product(primes, N):
    num = den = 1
    for p in primes:
        if p > N:
            break
        num *= p * p
        den *= p * p - 1
    return Fraction(num, den)


class TestEulerProduct:
    def test_empty_product(self, table3k):
        assert euler_product(table3k, 1).value == Fraction(1)

    def test_small_cases(self, table3k):
        assert euler_product(table3k, 3).value == Fraction(3, 2)
        assert euler_product(table3k, 5).value == Fraction(25, 16)
        assert euler_product(table3k, 10).value == Fraction(1225, 768)

    def test_q_digits(self, table3k):
        assert euler_product(table3k, 10).q_digits == 3

    @pytest.mark.parametrize("k", [0, 1, 2, 15, 16, 17, 300, 4299, 4300, 4301, 20_000])
    def test_q_digits_at_powers_of_ten(self, k):
        for q in (10**k - 1, 10**k, 10**k + 1):
            if q >= 1:
                digits = len(str(Decimal(q)))
                assert EulerApproximation(1, Fraction(1, q)).q_digits == digits

    def test_q_digits_past_the_int_str_limit(self):
        approx = euler_product(sieve(10_000), 10_000)
        assert approx.q_digits == len(str(Decimal(approx.value.denominator)))

    def test_brute_force_agreement(self, table3k):
        primes = table3k.primes.tolist()
        for N in range(1, 301):
            assert euler_product(table3k, N).value == brute_force_product(primes, N)

    def test_incremental_identity(self, table3k):
        # value changes by exactly p^2/(p^2-1) at primes, else not at all
        previous = euler_product(table3k, 1).value
        prime_set = set(table3k.primes.tolist())
        for N in range(2, 501):
            current = euler_product(table3k, N).value
            if N in prime_set:
                assert current == previous * Fraction(N * N, N * N - 1)
                assert current > previous
            else:
                assert current == previous
            previous = current

    def test_monotone_below_zeta2(self):
        t = sieve(10_000)
        limit = zeta2_enclosure(30).lo
        previous = Fraction(0)
        for p in t.primes.tolist():
            value = euler_product(t, p).value
            assert previous < value < limit
            previous = value
        assert euler_product(t, 10_000).value < limit

    def test_range_error(self, table3k):
        with pytest.raises(RangeError):
            euler_product(table3k, 3001)

    def test_out_of_order_queries(self):
        t = sieve(200)
        primes = t.primes.tolist()
        expected = {N: brute_force_product(primes, N) for N in range(1, 101)}
        for N in (100, 40, 13, 60, 100, 7, 99):
            assert euler_product(t, N).value == expected[N]

    def test_shuffled_and_descending_queries_match_ascending(self):
        t = sieve(60_000)
        ascending = list(range(20_000, 60_001, 5_000))
        expected = {N: euler_product(t, N).value for N in ascending}
        shuffled = [35_000, 60_000, 20_000, 50_000, 25_000, 45_000, 30_000, 55_000, 40_000]
        assert sorted(shuffled) == ascending
        for N in shuffled + ascending[::-1]:
            assert euler_product(t, N).value == expected[N]

    def test_interleaved_tables(self):
        small, large = sieve(200), sieve(5_000)
        primes = large.primes.tolist()
        for N in (100, 3, 200, 50, 199, 2):
            assert euler_product(small, N).value == brute_force_product(primes, N)
            assert euler_product(large, N).value == brute_force_product(primes, N)
            assert euler_product(large, 25 * N).value == brute_force_product(
                primes, 25 * N
            )

    def test_gap_against_live_high_precision_oracle(self, table3k):
        # independent oracle: mpmath at 60 significant digits
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        z2 = mp.mpf(mp.pi) ** 2 / 6
        for N in (2, 3, 10, 50):
            report = approximation_gap(table3k, N, 30)
            v = report.value
            oracle_gap = abs(z2 - mp.mpf(v.numerator) / mp.mpf(v.denominator))
            assert float(report.gap.midpoint) == pytest.approx(
                float(oracle_gap), rel=1e-12
            )
            if report.q >= 2:
                oracle_exp = float(-mp.log(oracle_gap) / mp.log(report.q))
                assert report.exponent == pytest.approx(oracle_exp, abs=1e-9)


def assert_reduced_product(t, N):
    value = euler_product(t, N).value
    assert type(value) is Fraction
    assert value == brute_force_product(t.primes.tolist(), N)
    assert math.gcd(value.numerator, value.denominator) == 1
    assert value.denominator > 0
    built = Fraction(value.numerator, value.denominator)
    assert value == built and hash(value) == hash(built)


@pytest.fixture(scope="module")
def table30k():
    return sieve(30_000)


class TestFactoredProduct:
    def test_every_prime_count_around_the_crossover(self, table30k):
        for k in range(FACTORED_FROM - 20, FACTORED_FROM + 21):
            assert_reduced_product(table30k, int(table30k.primes[k - 1]))

    @given(st.integers(1, 30_000))
    @settings(max_examples=25, deadline=None)
    def test_random_cutoffs(self, table30k, N):
        assert_reduced_product(table30k, N)

    def test_no_gcd_above_the_crossover(self, table30k, monkeypatch):
        N = int(table30k.primes[FACTORED_FROM + 10])
        expected = brute_force_product(table30k.primes.tolist(), N)

        def refuse(*args):
            raise AssertionError("gcd called")

        monkeypatch.setattr(fractions.math, "gcd", refuse)
        value = euler_product(fresh(table30k), N).value
        monkeypatch.undo()
        assert value.numerator == expected.numerator
        assert value.denominator == expected.denominator

    def test_coprime_fraction_is_a_fraction(self):
        # the slots Fraction._from_coprime_ints sets on Python 3.12+
        assert {"_numerator", "_denominator"} <= set(Fraction.__slots__)
        for p, q in ((1, 1), (0, 1), (-3, 4), (1225, 768), (10**40 + 1, 10**39)):
            value = _coprime_fraction(p, q)
            assert type(value) is Fraction
            assert (value.numerator, value.denominator) == (p, q)
            assert value == Fraction(p, q) and hash(value) == hash(Fraction(p, q))
            assert value * 2 == Fraction(2 * p, q) and str(value) == str(Fraction(p, q))


class TestQnBounds:
    def test_n_equals_2(self, table3k):
        rep = qn_bound_report(table3k, 2)
        assert (rep.q, rep.prod_p2_minus_1, rep.n_pow_2pi, rep.factorial_sq) == (3, 3, 4, 4)
        assert rep.chain_ok and rep.factorial_ok and rep.q_divides_prod

    def test_n_equals_5(self, table3k):
        rep = qn_bound_report(table3k, 5)
        assert (rep.q, rep.prod_p2_minus_1, rep.n_pow_2pi, rep.factorial_sq) == (
            16,
            576,
            15625,
            14400,
        )
        assert rep.chain_ok and rep.factorial_ok and rep.q_divides_prod

    def test_n_equals_1_trivial_chain(self, table3k):
        rep = qn_bound_report(table3k, 1)
        assert rep.q == 1
        assert rep.chain_ok and rep.factorial_ok and rep.q_divides_prod

    def test_divisibility_sweep(self, table3k):
        for N in range(2, 201):
            rep = qn_bound_report(table3k, N)
            assert rep.q_divides_prod
            assert rep.chain_ok and rep.factorial_ok

    def test_q_divides_product_to_2000(self, table3k):
        # direct incremental check, no factorials needed
        prod = 1
        for p in table3k.primes.tolist():
            if p > 2000:
                break
            prod *= p * p - 1
            q = euler_product(table3k, p).value.denominator
            assert prod % q == 0

    def test_product_on_both_sides_of_the_crossover(self, table30k, monkeypatch):
        monkeypatch.setenv("PISTAIR_FACTORIAL_CAP", "30000")
        primes = table30k.primes.tolist()
        for k in (1, 2, FACTORED_FROM - 1, FACTORED_FROM, FACTORED_FROM + 1, 3000):
            N = primes[k - 1]
            rep = qn_bound_report(fresh(table30k), N)
            assert rep.prod_p2_minus_1 == math.prod(p * p - 1 for p in primes[:k])
            assert rep.q == brute_force_product(primes, N).denominator

    def test_factorial_cap(self, table3k, monkeypatch):
        monkeypatch.setenv("PISTAIR_FACTORIAL_CAP", "100")
        with pytest.raises(ResourceLimitError):
            qn_bound_report(table3k, 101)


class TestTailProductUpper:
    def test_coarse_bound_at_10(self):
        assert tail_product_upper(10) <= 1

    def test_paper_scale_at_1000(self):
        assert tail_product_upper(1000) <= Fraction(1, 100)

    def test_sharper_chain_at_100(self):
        u = tail_product_upper(100)
        assert u <= Fraction(10, 100)
        assert u >= Fraction(164, 10000)  # (pi^2/6)/100 = 0.01644...

    def test_never_exceeds_coarse(self):
        for f in (2, 3, 10, 50, 1000, 10**6):
            assert tail_product_upper(f) <= Fraction(10, f)

    def test_domain(self):
        with pytest.raises(DomainError):
            tail_product_upper(Fraction(3, 2))

    def test_bounds_true_gap_over_prime_free_interval(self, table3k):
        # (23, 28] and (199, 210] contain no prime, so the chain hypothesis
        # holds with f at the interval's top and must dominate the true gap
        for n, f in ((23, 28), (199, 210)):
            assert prime_count(table3k, f) == prime_count(table3k, n)
            gap = approximation_gap(table3k, n, 30)
            assert gap.gap.hi <= tail_product_upper(f)

    def test_matches_manual_chain(self):
        f = Fraction(100)
        s = 1 / f + 1 / f**2
        manual = zeta2_enclosure(30).hi * (rational_exp_upper(s) - 1)
        assert tail_product_upper(100) == min(Fraction(10, 100), manual)


class TestApproximationGap:
    # expected values frozen from a 60-digit independent subtraction oracle
    CASES = {
        2: (0.3116007335, 3, 1.061369),
        3: (0.1449340668, 2, 2.786531),
        10: (0.0498819835, 768, 0.451263),
    }

    @pytest.mark.parametrize("N", sorted(CASES))
    def test_frozen_cases(self, table3k, N):
        gap_value, q, exponent = self.CASES[N]
        report = approximation_gap(table3k, N, 30)
        assert report.q == q
        assert float(report.gap.midpoint) == pytest.approx(gap_value, abs=1e-9)
        assert report.exponent == pytest.approx(exponent, abs=1e-5)

    def test_gap_is_tight(self, table3k):
        report = approximation_gap(table3k, 50, 30)
        assert report.gap.lo > 0
        assert report.gap.width < report.gap.lo

    def test_exponent_none_for_unit_denominator(self, table3k):
        report = approximation_gap(table3k, 1, 10)
        assert report.q == 1
        assert report.exponent is None

    @pytest.mark.parametrize("digits", [0, -3])
    def test_nonpositive_digits_refused(self, table3k, digits):
        with pytest.raises(DomainError, match="digits must be >= 1"):
            approximation_gap(table3k, 5, digits)

    def test_small_digit_request_still_separates(self, table3k):
        report = approximation_gap(table3k, 300, 1)
        assert report.digits_used >= 1
        assert report.gap.width < report.gap.lo
