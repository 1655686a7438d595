import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pistair import (
    DomainError,
    RangeError,
    ResourceLimitError,
    lcm_to,
    log_lcm_table,
    log_lcm_to,
    max_power_at_most,
    nth_prime,
    nth_primes,
    prime_count,
    sieve,
    verify,
)
from pistair.euler import FACTORED_FROM, euler_product
from pistair import primes
from pistair.primes import (
    _COLLECT_SLICE, DEFAULT_SEGMENT_SIZE, PRODUCT_LEAF, _collect, int_dtype, product_tree,
)


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % p for p in out if p * p <= n):
            out.append(n)
    return out


def flat_sieve(limit):
    # Byte-per-integer Eratosthenes: the reference every table must equal.
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


SEGMENT_SIZES = (2, 3, 4, 5, 1000, 30030)
REFERENCE = flat_sieve(16 * 15015 + 2)


def assert_sieve(limit, segment_size=None, reference=REFERENCE):
    got = sieve(limit, segment_size).primes
    want = reference[: np.searchsorted(reference, limit, side="right")]
    assert got.dtype == np.int32  # every limit here is below 2^31
    assert np.array_equal(got, want), (limit, segment_size)


def fold_lcm(n):
    value = 1
    for k in range(2, n + 1):
        value = math.lcm(value, k)
    return value


class TestSieve:
    def test_small_tables(self):
        assert sieve(10).primes.tolist() == [2, 3, 5, 7]
        assert sieve(2).primes.tolist() == [2]

    def test_against_trial_division(self):
        assert sieve(1000).primes.tolist() == trial_division_primes(1000)

    def test_hundred_has_25_primes(self):
        assert len(sieve(100)) == 25

    def test_rejects_tiny_limit(self):
        with pytest.raises(RangeError):
            sieve(1)

    def test_resource_cap(self, monkeypatch):
        monkeypatch.setenv("PISTAIR_SIEVE_LIMIT", "1000")
        with pytest.raises(ResourceLimitError):
            sieve(2000)

    def test_segmented_matches_flat(self):
        plain = sieve(50_000)
        segmented = sieve(50_000, segment_size=1_000)
        assert np.array_equal(plain.primes, segmented.primes)

    def test_table_is_readonly(self):
        t = sieve(100)
        with pytest.raises(ValueError):
            t.primes[0] = 1

    def test_reference_is_trial_division(self):
        assert REFERENCE[REFERENCE <= 2000].tolist() == trial_division_primes(2000)

    def test_every_limit_to_2000(self):
        for limit in range(2, 2001):
            assert_sieve(limit)
            assert_sieve(limit, 1000)

    def test_every_limit_small_segments(self):
        # one or two odd flags per segment: edges on every odd and even position
        for segment_size in (2, 3, 4, 5):
            for limit in range(2, 300):
                assert_sieve(limit, segment_size)

    def test_wheel_period_edges(self):
        for k in range(1, 17):
            for limit in range(15015 * k - 2, 15015 * k + 3):
                for segment_size in (None, 1000, 30030):
                    assert_sieve(limit, segment_size)

    def test_around_prime_squares(self):
        for p in REFERENCE[REFERENCE < 230].tolist():
            for limit in (p * p - 1, p * p, p * p + 1):
                for segment_size in (None, 1000, 30030) if p > 31 else (None,) + SEGMENT_SIZES:
                    assert_sieve(max(limit, 2), segment_size)

    def test_wheel_primes_as_limits(self):
        for limit in (3, 5, 7, 11, 13):
            for segment_size in (None,) + SEGMENT_SIZES:
                assert_sieve(limit, segment_size)

    def test_segment_edges_land_on_squares(self):
        # 2p and 2p + 1 put one odd multiple of p in every segment; p^2 - 1 and
        # p^2 + 1 end the first segment just below p^2 and exactly on it
        for p in (17, 19, 23, 97):
            for segment_size in (2 * p, 2 * p + 1, p * p - 1, p * p, p * p + 1):
                assert_sieve(20_000, segment_size)

    def test_default_segment_boundary(self):
        size = DEFAULT_SEGMENT_SIZE
        reference = flat_sieve(2 * size + 3)
        for limit in (size - 1, size, size + 1, size + 2, 2 * size + 3):
            assert_sieve(limit, reference=reference)

    def test_pi_of_10_to_8(self):
        t = sieve(10**8)
        assert len(t) == 5761455
        assert int(t.primes[-1]) == 99999989
        assert t.primes.dtype == np.int32  # 4 bytes a prime below 2^31

    @pytest.mark.parametrize("segment_size", [-5, 0, 1])
    def test_rejects_bad_segment_size(self, segment_size):
        with pytest.raises(RangeError, match="segment size"):
            sieve(100, segment_size)

    def test_none_is_the_default_segment(self):
        assert np.array_equal(sieve(100, None).primes, sieve(100).primes)

    def test_dtype_switches_at_2_to_31(self):
        # the rule sieve applies, checked without sieving that far;
        # 2^31 - 1 is itself prime and the largest int32
        assert int_dtype(2**31 - 1) is np.int32
        assert int_dtype(2**31) is np.int64

    def test_collect_past_2_to_31(self):
        # the int64 path, which only a raised sieve cap reaches
        flags = np.random.default_rng(0).random(10_000) < 0.1
        out = np.empty(len(flags), dtype=np.int64)
        count = _collect(flags, 2**31 + 1, out)
        assert out[:count].tolist() == [2**31 + 1 + 2 * i for i in np.flatnonzero(flags).tolist()]


    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_collect_across_slice_edges(self, dtype):
        flags = np.random.default_rng(1).random(2 * _COLLECT_SLICE + 5) < 0.1
        flags[[0, _COLLECT_SLICE - 1, _COLLECT_SLICE, 2 * _COLLECT_SLICE]] = True
        out = np.empty(len(flags), dtype=dtype)
        count = _collect(flags, 1001, out)
        assert out[:count].tolist() == (1001 + 2 * np.flatnonzero(flags)).tolist()


class TestTypedKeys:
    """Every lookup in a table hands numpy its key in the table's dtype.

    Under NumPy 2 (NEP 50) a Python int key casts a whole int32 table to
    int64 on every np.searchsorted, which costs as much as a scan.
    """

    @pytest.fixture
    def lookups(self, monkeypatch):
        seen = []
        searchsorted = np.searchsorted

        def spy(a, v, *args, **kwargs):
            seen.append((np.asarray(a).dtype, np.asarray(v).dtype))
            return searchsorted(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", spy)
        return seen

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: prime_count(sieve(3000), 1000.5), id="prime_count"),
            pytest.param(lambda: lcm_to(sieve(3000), 2999), id="lcm_to"),
            pytest.param(lambda: log_lcm_to(sieve(3000), 2999), id="log_lcm_to"),
            pytest.param(lambda: log_lcm_table(sieve(3000), 3000), id="log_lcm_table"),
            pytest.param(lambda: sieve(10**5, 1000), id="sieve"),
            # a fresh table misses the product cache; N = 3000 has 430 primes
            pytest.param(lambda: euler_product(sieve(3000), 3000), id="euler_product"),
            pytest.param(lambda: verify.log_lcm_bound(1000), id="verify_log_lcm_bound"),
        ],
    )
    def test_key_in_table_dtype(self, lookups, call):
        call()
        assert lookups
        assert all(table == key for table, key in lookups), lookups

    def test_euler_product_takes_the_factored_route(self):
        assert prime_count(sieve(3000), 3000) >= FACTORED_FROM


class TestPrimeCount:
    def test_examples(self, table3k):
        assert prime_count(table3k, 10) == 4
        assert prime_count(table3k, 1) == 0
        assert prime_count(table3k, 100) == 25

    def test_real_argument(self, table3k):
        assert prime_count(table3k, 10.5) == 4
        assert prime_count(table3k, 2.0) == 1

    def test_range_error(self, table3k):
        with pytest.raises(RangeError):
            prime_count(table3k, 3001)

    def test_nan_is_a_domain_error(self):
        with pytest.raises(DomainError, match="nan"):
            prime_count(sieve(100), float("nan"))

    def test_inverse_adjacency(self, table3k):
        for x in (10, 97, 98, 1000, 2500):
            k = prime_count(table3k, x)
            assert nth_prime(table3k, k) <= x < nth_prime(table3k, k + 1)


class TestNthPrime:
    def test_examples(self, table3k):
        assert nth_prime(table3k, 1) == 2
        assert nth_prime(table3k, 4) == 7

    def test_millionth_prime(self, bigtable):
        assert nth_prime(bigtable, 1_000_000) == 15485863

    def test_error_carries_estimate(self, table3k):
        with pytest.raises(RangeError, match="roughly"):
            nth_prime(table3k, 10**6)


class TestNthPrimes:
    def test_every_index_in_one_segment(self):
        limit = 20_000
        table = sieve(limit).primes.tolist()
        ns = range(1, len(table) + 3)
        assert nth_primes(limit, ns) == {n: table[n - 1] for n in range(1, len(table) + 1)}

    def test_default_segment_edges(self):
        # the first two segments end at 2^21 and 2^22: the primes on both sides
        limit = 2 * DEFAULT_SEGMENT_SIZE + 1000
        table = sieve(limit).primes
        ns = [1, 2, 3, 6, 7, len(table) - 1, len(table)]
        for edge in (DEFAULT_SEGMENT_SIZE, 2 * DEFAULT_SEGMENT_SIZE):
            i = int(np.searchsorted(table, edge))
            ns += [i - 1, i, i + 1, i + 2]
        assert nth_primes(limit, ns) == {n: int(table[n - 1]) for n in ns}

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_limits_around_p_10_to_k(self, bigtable, k):
        # the CLI's checkpoints: 10^j whose prime lies within the limit
        ns = [10**j for j in range(3, 8)]
        p = nth_prime(bigtable, 10**k)
        for limit in (p - 1, p, p + 1):
            count = prime_count(bigtable, limit)
            expected = {n: nth_prime(bigtable, n) for n in ns if n <= count}
            assert nth_primes(limit, ns) == expected
            assert (10**k in expected) == (limit >= p)

    def test_nothing_wanted_sieves_nothing(self, monkeypatch):
        monkeypatch.setattr(primes, "_segments", None)
        assert nth_primes(10**6, []) == {}

    def test_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(primes, "_segments", None)  # any sieving would raise
        monkeypatch.setenv("PISTAIR_SIEVE_LIMIT", "1000")
        with pytest.raises(ResourceLimitError):
            nth_primes(2000, [10])
        with pytest.raises(RangeError, match="sieve limit must be >= 2"):
            nth_primes(1, [1])
        with pytest.raises(RangeError, match="prime index"):
            nth_primes(100, [0, 5])


class TestMaxPower:
    def test_exact_boundaries(self):
        assert max_power_at_most(2, 8) == (3, 8)
        assert max_power_at_most(2, 7) == (2, 4)
        assert max_power_at_most(3, 81) == (4, 81)

    @given(st.integers(2, 50), st.integers(2, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_tight(self, p, n):
        if p > n:
            return
        k, pk = max_power_at_most(p, n)
        assert pk == p**k <= n < p ** (k + 1)


class TestLcmTo:
    def test_examples(self, table3k):
        assert lcm_to(table3k, 1) == 1
        assert lcm_to(table3k, 5) == 60
        assert lcm_to(table3k, 10) == 2520

    def test_against_fold_oracle(self, table3k):
        value = 1
        for n in range(1, 401):
            value = math.lcm(value, n)
            assert lcm_to(table3k, n) == value

    def test_step_rule_exhaustive(self):
        # d_{n+1}/d_n is p when n+1 = p^k, else 1; exhaustive to 5000
        t = sieve(5001)
        prime_set = set(t.primes.tolist())
        previous = 1
        for n in range(2, 5001):
            current = math.lcm(previous, n)
            assert current % previous == 0
            ratio = current // previous
            if ratio != 1:
                assert ratio in prime_set
                k, pk = max_power_at_most(ratio, n)
                assert pk == n  # n is exactly ratio^k
            else:
                # n must not be a prime power
                assert not any(
                    max_power_at_most(p, n)[1] == n
                    for p in prime_set
                    if p <= n and n % p == 0
                )
            previous = current
        # the incremental chain is the same object lcm_to computes
        assert previous == lcm_to(t, 5000)

    def test_range_error(self, table3k):
        with pytest.raises(RangeError):
            lcm_to(table3k, 3001)

    def test_against_fold_lcm_past_one_leaf(self, table3k):
        # d_n for n >= 1000 has more factors than one tree leaf holds
        assert prime_count(table3k, 1000) > PRODUCT_LEAF
        for n in (719, 727, 1000, 1024, 2048, 2187, 3000):
            assert lcm_to(table3k, n) == fold_lcm(n)


class TestProductTree:
    def test_empty_and_single(self):
        assert product_tree([]) == 1
        assert product_tree([7]) == 7
        assert product_tree([0]) == 0

    @pytest.mark.parametrize("length", [2, 3, PRODUCT_LEAF - 1, PRODUCT_LEAF, PRODUCT_LEAF + 1,
                                        2 * PRODUCT_LEAF, 2 * PRODUCT_LEAF + 1, 5 * PRODUCT_LEAF + 3])
    def test_odd_and_even_lengths(self, length):
        ints = [3 * k + 1 for k in range(length)]
        assert product_tree(ints) == math.prod(ints)

    @given(st.lists(st.integers(-(2**70), 2**70), max_size=3 * PRODUCT_LEAF))
    @settings(max_examples=100, deadline=None)
    def test_equals_flat_product(self, ints):
        assert product_tree(ints) == math.prod(ints)


class TestLogLcm:
    def test_examples(self, table3k):
        assert log_lcm_to(table3k, 10).log_lcm == pytest.approx(math.log(2520), abs=1e-12)
        assert log_lcm_to(table3k, 2).log_lcm == pytest.approx(math.log(2), abs=1e-12)

    def test_reports_comparison_values(self, table3k):
        rep = log_lcm_to(table3k, 100)
        assert rep.pi_log_n == pytest.approx(25 * math.log(100), abs=1e-9)
        assert rep.log_sq_n == pytest.approx(math.log(100) ** 2, abs=1e-9)
        assert rep.log_lcm <= rep.pi_log_n

    def test_matches_exact_lcm(self, table3k):
        for n in (2, 17, 128, 720, 2999):
            exact = math.log(lcm_to(table3k, n))
            assert log_lcm_to(table3k, n).log_lcm == pytest.approx(exact, rel=1e-12)

    def test_bulk_table_consistent(self, table3k):
        table = log_lcm_table(table3k, 3000)
        assert table[0] == 0 and table[1] == 0
        for n in (2, 10, 100, 999, 3000):
            assert table[n] == pytest.approx(log_lcm_to(table3k, n).log_lcm, rel=1e-12)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 8, 9, 25, 10**4, 10**5 + 3])
    def test_bulk_table_bit_identical_to_loop(self, n_max):
        t = sieve(10**5 + 3)
        increments = np.zeros(n_max + 1, dtype=np.float64)
        for p in t.primes[t.primes <= n_max].tolist():
            log_p = math.log(p)
            pk = p
            while pk <= n_max:
                increments[pk] += log_p
                pk *= p
        assert log_lcm_table(t, n_max).tobytes() == np.cumsum(increments).tobytes()

    def test_log_square_bound_under_hypothesis(self, table3k):
        # wherever pi(n) <= log n holds, log d_n <= (log n)^2 follows
        for n in range(2, 3001):
            if prime_count(table3k, n) <= math.log(n):
                rep = log_lcm_to(table3k, n)
                assert rep.log_lcm <= rep.log_sq_n + 1e-9
