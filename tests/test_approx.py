import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pistair import (
    RV_PAGE102,
    DomainError,
    PrecisionExhaustedError,
    RangeError,
    RealEnclosure,
    ResourceLimitError,
    RVConstants,
    continued_fraction,
    convergents,
    lemma4_bound,
    lemma4_derivation,
    log_rational,
    measure_exponents,
    sieve,
    sondow_inequality_check,
    zeta2_enclosure,
    zeta2_exponent_report,
)


def exact(p, q=1):
    r = Fraction(p, q)
    return RealEnclosure(r, r)


class TestContinuedFraction:
    def test_exact_three_halves(self):
        assert continued_fraction(exact(3, 2), 10) == [1, 2]

    def test_exact_one(self):
        assert continued_fraction(exact(1), 10) == [1]

    def test_zeta2_prefix(self):
        quotients = continued_fraction(zeta2_enclosure(50), 30)
        assert quotients[:5] == [1, 1, 1, 1, 4]
        # longer prefix frozen from a 60-digit Gauss-map oracle
        assert quotients[:14] == [1, 1, 1, 1, 4, 2, 4, 7, 1, 4, 2, 3, 4, 10]

    def test_immediate_disagreement_gives_empty(self):
        assert continued_fraction(RealEnclosure(Fraction(1), Fraction(2)), 10) == []

    def test_truncates_at_max_terms(self):
        assert continued_fraction(zeta2_enclosure(50), 3) == [1, 1, 1]

    def test_requires_positive(self):
        with pytest.raises(DomainError):
            continued_fraction(RealEnclosure(Fraction(-1), Fraction(1)), 5)

    @pytest.mark.parametrize("d", [30, 60, 120])
    def test_prefix_stable_under_refinement(self, d):
        coarse = continued_fraction(zeta2_enclosure(d), 500)
        fine = continued_fraction(zeta2_enclosure(2 * d), 500)
        assert fine[: len(coarse)] == coarse
        assert len(fine) > len(coarse)

    def test_every_emitted_quotient_correct_for_rational_probes(self):
        # any rational inside the enclosure must start with the same quotients
        enc = zeta2_enclosure(20)
        emitted = continued_fraction(enc, 50)
        probe = continued_fraction(exact(enc.midpoint), len(emitted))
        assert probe == emitted

    def test_against_live_gauss_map_oracle(self):
        # independent oracle: Gauss map run on an 80-digit mpmath value
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 80
        x = mp.mpf(mp.pi) ** 2 / 6
        oracle = []
        for _ in range(25):
            a = int(mp.floor(x))
            oracle.append(a)
            x = 1 / (x - a)
        assert continued_fraction(zeta2_enclosure(60), 25) == oracle


def reference_continued_fraction(x, max_terms):
    """The Gauss map on both endpoints in Fraction arithmetic."""
    lo, hi = x.lo, x.hi
    quotients = []
    while len(quotients) < max_terms:
        a_lo, a_hi = math.floor(lo), math.floor(hi)
        if a_lo != a_hi:
            break
        quotients.append(a_lo)
        if lo == a_lo or hi == a_hi:
            break
        lo, hi = 1 / (hi - a_hi), 1 / (lo - a_lo)
    return quotients


def cf_value(quotients):
    value = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        value = a + 1 / value
    return value


@st.composite
def positive_enclosures(draw):
    """Random positive enclosures, exact rationals, and pairs that share a
    quotient prefix where one endpoint terminates mid-expansion."""
    kind = draw(st.sampled_from(["random", "exact", "prefix"]))
    if kind == "prefix":
        head = draw(st.lists(st.integers(1, 10**3), min_size=1, max_size=30))
        tail = draw(st.lists(st.integers(1, 10**3), min_size=1, max_size=30))
        lo, hi = sorted([cf_value(head), cf_value(head + tail)])
        return RealEnclosure(lo, hi)
    lo = Fraction(draw(st.integers(1, 10**40)), draw(st.integers(1, 10**40)))
    if kind == "exact":
        return RealEnclosure(lo, lo)
    width = Fraction(draw(st.integers(1, 10**6)), 10 ** draw(st.integers(0, 40)))
    return RealEnclosure(lo, lo + width)


class TestIntegerGaussMap:
    @given(positive_enclosures(), st.integers(1, 80))
    @settings(max_examples=400, deadline=None)
    def test_matches_fraction_gauss_map(self, x, max_terms):
        assert continued_fraction(x, max_terms) == reference_continued_fraction(x, max_terms)

    @pytest.mark.parametrize("digits", [60, 700, 2100])
    def test_zeta2_matches_fraction_gauss_map(self, digits):
        enc = zeta2_enclosure(digits)
        got = continued_fraction(enc, 20000)
        assert got == reference_continued_fraction(enc, 20000)
        # the prefix ends where the endpoints disagree, near 0.97 quotients per digit
        assert 0.9 * digits < len(got) < 20000


class TestConvergents:
    def test_single(self):
        records = convergents([1])
        assert (records[0].p, records[0].q) == (1, 1)

    def test_golden_prefix(self):
        records = convergents([1, 1, 1, 1])
        assert [(r.p, r.q) for r in records] == [(1, 1), (2, 1), (3, 2), (5, 3)]

    def test_zeta2_head(self):
        records = convergents([1, 1, 1, 1, 4])
        assert (records[-1].p, records[-1].q) == (23, 14)

    def test_rejects_nonpositive_inner_quotient(self):
        with pytest.raises(DomainError):
            convergents([1, 0, 3])
        with pytest.raises(DomainError):
            convergents([])

    def test_determinant_identity_on_zeta2(self):
        records = convergents(continued_fraction(zeta2_enclosure(120), 500))
        for k in range(1, len(records)):
            det = records[k].p * records[k - 1].q - records[k - 1].p * records[k].q
            assert det == (-1) ** (k - 1)

    @given(
        st.lists(st.integers(1, 10**6), min_size=1, max_size=25).map(
            lambda body: [abs(body[0]) - 1] + body[1:]
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_determinant_identity_random(self, quotients):
        records = convergents(quotients)
        for k in range(1, len(records)):
            det = records[k].p * records[k - 1].q - records[k - 1].p * records[k].q
            assert det == (-1) ** (k - 1)
        qs = [r.q for r in records]
        assert all(a < b for a, b in zip(qs[1:], qs[2:]))


class TestMeasureExponents:
    def test_three_halves_matches_gap_report(self):
        # 3/2 is both a convergent and the N=3 Euler product
        enc = zeta2_enclosure(40)
        records = convergents([1, 1, 1])
        filled, best = measure_exponents(enc, records)
        three_halves = filled[-1]
        assert three_halves.exponent == pytest.approx(2.786531, abs=1e-5)
        assert best == pytest.approx(2.786531, abs=1e-5)

    def test_five_thirds_frozen_value(self):
        enc = zeta2_enclosure(40)
        filled, _ = measure_exponents(enc, convergents([1, 1, 1, 1]))
        assert filled[-1].q == 3
        assert filled[-1].exponent == pytest.approx(3.485253, abs=1e-5)

    def test_unit_denominators_skipped(self):
        filled, best = measure_exponents(zeta2_enclosure(20), convergents([1, 1]))
        assert all(r.exponent is None for r in filled)
        assert best is None

    def test_convergent_exponents_exceed_two(self):
        records, best = zeta2_exponent_report(10**6, digits=60)
        assert records
        assert all(r.exponent > 2 for r in records if r.q >= 2)
        assert best > 2

    def test_reproducible_across_precisions(self):
        first, _ = zeta2_exponent_report(10**6, digits=60)
        second, _ = zeta2_exponent_report(10**6, digits=120)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert (a.p, a.q) == (b.p, b.q)
            assert a.exponent == pytest.approx(b.exponent, abs=1e-6)

    @pytest.mark.parametrize("digits", [0, -3])
    def test_nonpositive_digits_refused(self, digits):
        with pytest.raises(DomainError, match="digits must be >= 1"):
            zeta2_exponent_report(100, digits=digits)

    def test_exponents_within_two_ulps_of_mpmath(self):
        # log_rational takes the log of the gap's correctly rounded quotient;
        # the difference of the logs of its ~140-digit numerator and
        # denominator was up to 104 ulps off (1640/997) by cancellation
        mp = pytest.importorskip("mpmath")
        records, _ = zeta2_exponent_report(10**12, 60)
        measured = [r for r in records if r.q >= 2]
        assert len(measured) == 28
        with mp.workdps(50):
            zeta2 = mp.pi**2 / 6
            for r in measured:
                exact = float(-mp.log(abs(zeta2 - mp.mpf(r.p) / r.q)) / mp.log(r.q))
                assert abs(r.exponent - exact) <= 2 * math.ulp(exact), (r.p, r.q)

    def test_huge_max_q_matches_fraction_reference(self):
        # 594 convergents lie below 10^300, so the report needs far more
        # than 200 partial quotients
        max_q = 10**300
        records, best = zeta2_exponent_report(max_q)
        kept, exponents = reference_exponent_report(max_q)
        assert len(records) == len(kept) == 594
        assert [(r.index, r.partial_quotient, r.p, r.q) for r in records] == [
            (r.index, r.partial_quotient, r.p, r.q) for r in kept
        ]
        assert [r.exponent for r in records] == exponents
        assert best == max(e for e in exponents if e is not None)

    def test_unseparated_raises(self):
        enc = zeta2_enclosure(10)
        mid = enc.midpoint
        fake = [r for r in convergents([1, 2]) if r.q >= 2]
        wide = RealEnclosure(mid - Fraction(1, 10), mid + Fraction(1, 10))
        with pytest.raises(PrecisionExhaustedError):
            measure_exponents(wide, fake)


class TestOneRungSeparates:
    """Once the provable quotient prefix reaches a denominator q_K > max_q, its
    enclosure lies in the cylinder of that prefix and so separates every
    convergent with q <= max_q (the proof is in zeta2_exponent_report)."""

    def test_zeta2_first_rung_measures(self, monkeypatch):
        for digits in range(1, 41):
            # a cap equal to the digits leaves the ladder one rung
            monkeypatch.setenv("PISTAIR_DIGIT_CAP", str(digits))
            prefix = convergents(continued_fraction(zeta2_enclosure(digits), 10**4))
            last = prefix[-1].q
            for max_q in sorted({r.q + s for r in prefix for s in (-1, 0)}):
                if max_q >= last:
                    with pytest.raises(PrecisionExhaustedError, match=f"within {digits} digits"):
                        zeta2_exponent_report(max_q, digits)
                    continue
                records, _ = zeta2_exponent_report(max_q, digits)
                assert [(r.p, r.q) for r in records] == [
                    (r.p, r.q) for r in prefix if r.q <= max_q
                ]

    @given(positive_enclosures(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_rational_enclosures(self, x, data):
        quotients = continued_fraction(x, 10**4)
        assume(quotients)
        prefix = convergents(quotients)
        k = data.draw(st.integers(0, len(prefix) - 1))
        max_q = prefix[k].q - data.draw(st.integers(0, 1))
        if max_q < prefix[-1].q:
            measure_exponents(x, [r for r in prefix if r.q <= max_q])


def reference_exponent_report(max_q, digits=60):
    """The digit-doubling loop on the Fraction Gauss map and Fraction gaps."""
    while True:
        enc = zeta2_enclosure(digits)
        records = convergents(reference_continued_fraction(enc, 20000))
        if records[-1].q > max_q:
            kept = [r for r in records if r.q <= max_q]
            exponents = []
            for r in kept:
                target = Fraction(r.p, r.q)
                if r.q < 2:
                    exponents.append(None)
                    continue
                if enc.lo < target < enc.hi:
                    break
                gap = enc.abs_distance_to(target)
                if not gap.width < gap.lo:
                    break
                exponents.append(-log_rational(gap.midpoint) / math.log(r.q))
            else:
                return kept, exponents
        digits *= 2


class TestLemma4:
    def test_raw_value(self):
        bound = lemma4_bound(RV_PAGE102, "raw")
        # exact arithmetic: 1 - b/a = 425342804/255306095
        assert bound == pytest.approx(425342804 / 255306095, abs=1e-12)
        assert bound < 2

    def test_shifted_value(self):
        assert lemma4_bound(RV_PAGE102, "shifted") == pytest.approx(7.690704, abs=1e-4)

    def test_zero_rho(self):
        assert lemma4_bound(RVConstants(a=-3.0, b=0.0), "raw") == 1.0

    def test_derivation_fields(self):
        derived = lemma4_derivation(RV_PAGE102, "raw")
        assert derived.rho == RV_PAGE102.b
        assert derived.sigma == -RV_PAGE102.a

    def test_sigma_domain_errors(self):
        with pytest.raises(DomainError):
            lemma4_bound(RVConstants(a=1.0, b=1.0), "raw")
        with pytest.raises(DomainError):
            lemma4_bound(RVConstants(a=-2.0, b=1.0), "shifted")
        with pytest.raises(DomainError):
            lemma4_bound(RV_PAGE102, "sideways")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mode", ["raw", "shifted"])
    def test_non_finite_constants_refused(self, bad, mode):
        with pytest.raises(DomainError):
            lemma4_derivation(RVConstants(a=bad, b=1.0), mode)
        with pytest.raises(DomainError):
            lemma4_derivation(RVConstants(a=-3.0, b=bad), mode)

    @pytest.mark.parametrize("mode", ["raw", "shifted"])
    def test_overflowing_bound_refused(self, mode):
        # sigma = 1e-320 is positive and finite, but 1/sigma overflows
        a = -1e-320 if mode == "raw" else -2 - 1e-15
        with pytest.raises(DomainError):
            lemma4_derivation(RVConstants(a=a, b=1e300), mode)
        with pytest.raises(DomainError):
            lemma4_bound(RVConstants(a=a, b=1e300), mode)


def exact_sondow(t, n, mu):
    p_next = int(t.primes[n])
    primorial = math.prod(int(p) for p in t.primes[:n])
    return p_next**mu.denominator <= primorial ** (2 * mu.numerator)


class TestSondow:
    def test_small_cases(self, table3k):
        assert sondow_inequality_check(table3k, 1, 5.45).holds
        assert sondow_inequality_check(table3k, 2, 5.45).holds
        assert not sondow_inequality_check(table3k, 1, 0.5).holds

    def test_witness_fields(self, table3k):
        check = sondow_inequality_check(table3k, 2, 5.45)
        assert check.p_next == 5
        assert check.primorial == 6
        assert check.mu == Fraction(109, 20)

    def test_published_bound_through_fifteen(self, table3k):
        assert all(
            sondow_inequality_check(table3k, n, 5.45).holds for n in range(1, 16)
        )

    def test_table_too_small(self):
        tiny = sieve(10)
        with pytest.raises(RangeError):
            sondow_inequality_check(tiny, 4, 5.45)

    def test_mu_must_be_positive(self, table3k):
        with pytest.raises(DomainError):
            sondow_inequality_check(table3k, 1, 0)

    def test_log_decision_matches_exact_powers(self, table3k):
        for n in range(1, 61):
            for k in range(1, 121):
                mu = Fraction(k, 20)
                assert sondow_inequality_check(table3k, n, mu).holds == exact_sondow(
                    table3k, n, mu
                ), (n, mu)

    @pytest.mark.parametrize(
        "mu, holds",
        [
            (Fraction(25254, 31867), False),
            (Fraction(150997, 190537), True),
            (Fraction(24727, 31202), True),
        ],
    )
    def test_near_tie_within_budget_decided_exactly(self, table3k, monkeypatch, mu, holds):
        # convergents of log 3 / log 4, where 3 = 2^(2 mu) ties at n = 1
        check = sondow_inequality_check(table3k, 1, mu)
        assert check.holds is holds
        assert holds == exact_sondow(table3k, 1, mu)
        # a near tie: a budget too small for the powers refuses it
        monkeypatch.setenv("PISTAIR_BIGINT_DIGITS", "1000")
        with pytest.raises(ResourceLimitError):
            sondow_inequality_check(table3k, 1, mu)

    def test_tiny_mu_fails_without_powers(self, table3k):
        check = sondow_inequality_check(table3k, 5, "1e-400")
        assert check.holds is False
        assert check.mu == Fraction(1, 10**400)

    def test_near_tie_beyond_budget_refused(self, table3k):
        # 0.792481250361 is within 1e-12 of log 3 / log 4; deciding it exactly
        # needs powers of about 10^12 digits
        with pytest.raises(ResourceLimitError):
            sondow_inequality_check(table3k, 1, "0.792481250361")
