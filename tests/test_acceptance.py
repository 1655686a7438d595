"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion calls the checks of `pistair.verify` at full size (`pistair verify`
runs them small) and asserts here only the values frozen at full scale.  Run
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines and timings.
"""

import time
from contextlib import contextmanager

import pytest

from pistair import sieve, theorem1_gate, verify


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
        )
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")


def test_criterion_1_exact_euler_products():
    with criterion(1, "Euler products match brute force to N=2000", 10):
        verify.euler_product_at_10()
        verify.euler_matches_brute_force(2000)


def test_criterion_2_enclosure_sandwich():
    with criterion(2, "zeta(2) enclosure at 60 digits sits in the sandwich", 5):
        verify.zeta2_width(60)
        verify.zeta2_sandwich(60)


def test_criterion_3_qn_bound_chain():
    with criterion(3, "q_N chain and factorial bound hold for 2..500", 30):
        verify.qn_bound_chain(500)


def test_criterion_4_lcm_growth():
    with criterion(4, "d_n matches fold-lcm to 5000; log d_n <= pi(n) log n to 10^6", 60):
        verify.lcm_matches_fold(5000)
        verify.log_lcm_bound(10**6)
        verify.log_lcm_samples(10**6)


def test_criterion_5_gap_recursion_numerics():
    with criterion(5, "a_{10^6} near 15479041, 0.044% from p_{10^6}, sandwich", 120):
        report = verify.gap_sandwich(10**6)  # sieves inside, so timed per the budget
        assert abs(report.a_final - 15479041) / 15479041 < 0.001
        checkpoint = report.checkpoints[-1]
        assert checkpoint.p_n == 15485863
        assert 0.0003 <= checkpoint.rel_diff <= 0.0006


def test_criterion_6_growth_rate_arithmetic():
    with criterion(6, "measure bound 1 - b/a to 5 decimals and < 2; shifted value", 5):
        raw = verify.lemma4_raw_bound()
        # frozen from exact arithmetic on the page-102 constants:
        # 1 - b/a = 425342804/255306095 = 1.66601116...
        assert raw == pytest.approx(425342804 / 255306095, abs=1e-12)
        verify.lemma4_shifted_bound()


def test_criterion_7_factorial_gate():
    with criterion(7, "gate fails at N=1 and holds for 2..200", 10):
        verify.gate_fails_at_one()
        verify.gate_holds(200)


def test_gate_power_is_exact_to_the_factorial_cap():
    # f comes from the checked FFT chain from N = 355 on; the reference is
    # the running product N!^14 = (N-1)!^14 N^14, with no power of a big int.
    # lhs = 10 q^6 comes from int_power too; its reference is the builtin power
    t, reference = sieve(2000), 1
    for N in range(1, 2001):
        reference *= N**14
        gate = theorem1_gate(t, N)
        assert gate.f == reference
        assert gate.lhs == 10 * gate.q**6


def test_criterion_8_continued_fractions():
    with criterion(8, "determinant identity, exponents > 2, prefix stability", 10):
        records = verify.determinant_identity(60)
        assert records[-1].q > 10**12  # prefix provably covers q <= 10^12
        verify.exponents_exceed_two(10**12)
        verify.quotient_prefix_stable(60)


def test_criterion_9_staircase_certificates():
    with criterion(9, "witnesses re-verify, confirmed steps hold primes, Sondow", 10):
        modes = ("factorial-squared", "power-2piN")
        confirmed = verify.staircase_witnesses([(m, s) for m in modes for s in (2, 5, 11)])
        assert confirmed >= 2  # from N=2 both modes' first gaps land inside the table
        verify.sondow_holds(15)
