import contextlib
import dataclasses
import json
import math
import random
import signal
import types
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pistair import (
    DomainError,
    LogTower,
    PrecisionExhaustedError,
    RangeError,
    ResourceLimitError,
    default_exponent,
    euclid_baseline,
    power_tower,
    prime_count,
    staircase_certify,
    theorem1_first_passing,
    theorem1_gate,
    theorem2_sequence,
    theorem3_sequence,
    tower_normalize,
)
from pistair import staircase, verify
from pistair.cli import run_cli
from pistair.primes import nth_prime
from pistair.staircase import (
    LOG_ULPS,
    THEOREM3_CHUNK,
    THEOREM3_VECTOR_FROM,
    GapRecursionCheckpoint,
    GapRecursionReport,
    _first_sandwich_violation,
)


def iterated_ln(v, k):
    """ln^k of v, an int or a LogTower, in mpmath at 60 digits, taken as
    perfbench/oracle.py's tower_lnln takes ln ln of a tower: exp^(level - k) of
    the mantissa, or k - level logs of it.  -inf stands for ln of a value <= 0."""
    mpmath = pytest.importorskip("mpmath")
    level, x = (0, v) if isinstance(v, int) else (v.level, v.mantissa)
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        for _ in range(level - k):
            x = mpmath.exp(x)
        for _ in range(k - level):
            x = mpmath.log(x) if x > 0 else mpmath.mpf("-inf")
    return x


def value_less(x, y):
    """x < y for ints and towers, an order independent of the library's floats:
    ints compare exactly, anything else by ln^k, k two below the higher level."""
    if isinstance(x, int) and isinstance(y, int):
        return x < y
    k = max(0, max(v.level for v in (x, y) if isinstance(v, LogTower)) - 2)
    return iterated_ln(x, k) < iterated_ln(y, k)


class TestTowerNormalize:
    def test_level_zero_untouched(self):
        assert tower_normalize(0, 5.0) == LogTower(0, 5.0)
        assert tower_normalize(0, -3.0) == LogTower(0, -3.0)

    def test_raises_level(self):
        t = tower_normalize(1, 5.0)
        assert t.level == 2
        assert t.mantissa == pytest.approx(math.log(5), abs=1e-12)

    def test_already_normal(self):
        assert tower_normalize(2, 1.0) == LogTower(2, 1.0)

    def test_lowers_level(self):
        t = tower_normalize(2, 0.5)
        assert t.level == 1
        assert t.mantissa == pytest.approx(math.exp(0.5), abs=1e-12)

    def test_rejects_nonpositive_mantissa(self):
        with pytest.raises(DomainError):
            tower_normalize(1, -1.0)
        with pytest.raises(DomainError):
            tower_normalize(3, 0.0)

    @pytest.mark.parametrize("level", [0, 1, 3])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_mantissa(self, level, bad):
        # log(inf) = inf, so raising the level would never end
        with pytest.raises(DomainError):
            tower_normalize(level, bad)

    @given(st.integers(0, 4), st.floats(0.01, 500.0))
    @settings(max_examples=200, deadline=None)
    def test_value_preserved(self, level, mantissa):
        t = tower_normalize(level, mantissa)
        if t.level >= 1:
            assert 1 <= t.mantissa < math.e
        # compared at the lower of the two levels, where both values are small
        k = min(level, t.level)
        before = LogTower(level, mantissa)
        assert float(iterated_ln(t, k)) == pytest.approx(float(iterated_ln(before, k)), rel=1e-9)

    def test_int_beyond_float_range_refused(self):
        with pytest.raises(DomainError, match="float range"):
            tower_normalize(0, 10**400)
        with pytest.raises(DomainError, match="float range"):
            power_tower(10**400, 2)


class TestTowerArithmetic:
    def test_power_tower(self):
        assert float(iterated_ln(power_tower(2, 2), 0)) == pytest.approx(4.0)
        assert float(iterated_ln(power_tower(2, 3), 0)) == pytest.approx(16.0)
        assert float(iterated_ln(power_tower(2, 4), 0)) == pytest.approx(65536.0)
        t5 = power_tower(2, 5)  # 2^65536
        assert float(iterated_ln(t5, 1)) == pytest.approx(65536 * math.log(2), rel=1e-9)

    # bases above e^(1/e), whose towers leave the float range, at heights 1..30
    GRID_BASES = (
        [float(b) for b in np.linspace(math.exp(1 / math.e), math.e, 42)[1:-1]]
        + [float(b) for b in np.linspace(153.3, 154.0, 15)]
        + [float(b) for b in np.geomspace(3.0, 1e300, 40)]
    )

    def test_power_tower_keeps_every_earlier_answer(self):
        # the generic fold rounds to nearest; power_tower rounds up, which on this
        # grid moves no level and no mantissa by more than 8e-11 of itself
        returned = raised = 0
        for base in self.GRID_BASES:
            refs = []
            try:
                for ref in power_towers_generic(base, 30):
                    refs.append(ref)
            except DomainError:
                pass  # the generic path took the log of ln ln base < 0
            below = None
            for height in range(1, 31):
                t = power_tower(base, height)
                if height > len(refs):
                    raised += 1
                    assert value_less(below, t), (base, height)
                else:
                    returned += 1
                    ref = refs[height - 1]
                    assert t.level == ref.level, (base, height)
                    assert t.mantissa == pytest.approx(ref.mantissa, rel=1e-9), (base, height)
                below = t
        assert returned > 1000 and raised > 500

    @pytest.mark.parametrize(
        "base, height",
        [(2.0, 6), (2.0, 7), (2.5, 6), (2.7, 6), (1.5, 16), (3.0, 5), (5.0, 4)],
    )
    def test_power_tower_against_mpmath(self, base, height):
        mpmath = pytest.importorskip("mpmath")
        t = power_tower(base, height)
        with mpmath.workprec(400):
            b = mpmath.mpf(base)
            c = mpmath.log(b)

            def iterated_log(h, k):
                """ln^k of the height-h tower, exponentiating only the towers below it."""
                if h == 1:
                    x = b
                elif k == 0:
                    return mpmath.exp(iterated_log(h, 1))
                elif k == 1:
                    return c * iterated_log(h - 1, 0)
                else:
                    x, k = mpmath.log(c) + iterated_log(h - 1, 1), k - 2
                for _ in range(k):
                    x = mpmath.log(x)
                return x

            exact = iterated_log(height, t.level)
            assert 1 <= exact < mpmath.e
            # rounded up at every step: 8 to 380 ulps above, the most at (1.5, 16)
            assert exact <= t.mantissa <= exact * (1 + 1e-12), (t, exact)

    @pytest.mark.parametrize(
        "base, height",
        [
            (b, h)
            for b in (1.05, 1.3, 1.5, 2.0, math.e, 3.0, 7.5, 10.0, 42.5, 100.0)
            for h in (2, 3, 4)
        ]
        + [(2.0, 7)],  # ln 2^^6 overflows floats: the last step raises the level
    )
    def test_power_tower_is_an_upper_bound(self, base, height):
        # ln ln base^^h = ln base * base^^(h - 2) + ln ln base, with base^^0 = 1
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            b = mpmath.mpf(base)
            below = mpmath.mpf(1)
            for _ in range(height - 2):
                below = b**below
            exact = mpmath.log(b) * below + mpmath.log(mpmath.log(b))
        assert iterated_ln(power_tower(base, height), 2) >= exact


def power_towers_generic(base, max_height):
    """Reference: the towers of heights 1..max_height, folded through generic
    round-to-nearest tower + and *; raises once it takes the log of a
    nonpositive ln ln base (base < e)."""

    def to_float(x):
        """exp^level(mantissa) as a float, or None past 1e300."""
        v = x.mantissa
        for _ in range(x.level):
            if v > 709.0:
                return None
            v = math.exp(v)
        return v if abs(v) < 1e300 else None

    def ln(x):
        if x.level >= 1:
            return LogTower(x.level - 1, x.mantissa)
        if x.mantissa <= 0:
            raise DomainError(f"log of non-positive value {x.mantissa}")
        return LogTower(0, math.log(x.mantissa))

    def exp(x):
        if x.level == 0 and x.mantissa <= 709.0:
            return LogTower(0, math.exp(x.mantissa))
        return tower_normalize(x.level + 1, x.mantissa)

    def add(x, y):
        fx, fy = to_float(x), to_float(y)
        if fx is not None and fy is not None and fx + fy < 1e300:
            return tower_normalize(0, fx + fy)
        if value_less(x, y):
            x, y = y, x
        flx, fly = to_float(ln(x)), to_float(ln(y))
        if flx is not None and fly is not None:
            return exp(tower_normalize(0, flx + math.log1p(math.exp(min(fly - flx, 0.0)))))
        return x

    def mul(x, y):
        fx, fy = to_float(x), to_float(y)
        if fx is not None and fy is not None and abs(fx * fy) < 1e300:
            return tower_normalize(0, fx * fy)
        return exp(add(ln(x), ln(y)))

    ln_base = tower_normalize(0, math.log(base))
    t = tower_normalize(0, base)
    yield t
    for _ in range(max_height - 1):
        t = exp(mul(t, ln_base))
        yield t


class TestFactorialGate:
    def test_fails_at_one(self, table3k):
        gate = theorem1_gate(table3k, 1)
        assert not gate.holds
        assert (gate.q, gate.f, gate.lhs) == (1, 1, 10)

    def test_holds_at_two(self, table3k):
        gate = theorem1_gate(table3k, 2)
        assert gate.holds
        assert (gate.q, gate.lhs, gate.f) == (3, 7290, 16384)

    def test_holds_at_five(self, table3k):
        gate = theorem1_gate(table3k, 5)
        assert gate.holds
        assert gate.lhs == 167772160
        assert gate.f == 120**14

    def test_slack_grows(self, table3k):
        slacks = [theorem1_gate(table3k, n).slack_log10 for n in range(2, 40)]
        assert all(b > a for a, b in zip(slacks, slacks[1:]))

    def test_first_passing_is_two(self, table3k):
        assert theorem1_first_passing(table3k) == 2


class TestDoubleExpSequence:
    def test_seed_and_first_steps(self):
        seq = theorem2_sequence(3)
        assert seq[0].loglog == 1.0
        assert seq[1].loglog == pytest.approx(math.e, rel=1e-15)
        assert seq[3].loglog == pytest.approx(math.e**3, rel=1e-12)

    def test_closed_form_agreement(self):
        for entry in theorem2_sequence(100):
            assert abs(entry.loglog - entry.loglog_closed) <= 1e-9 * entry.loglog_closed

    def test_u_level_recursion_in_float_range(self):
        # u = log x obeys u_{n+1} = u_n^e directly while floats last
        seq = theorem2_sequence(6)
        u = [math.exp(entry.loglog) for entry in seq]
        for n in range(5):
            assert u[n + 1] == pytest.approx(u[n] ** math.e, rel=1e-9)

    def test_towers_increase(self):
        seq = theorem2_sequence(50)
        for a, b in zip(seq, seq[1:]):
            assert value_less(a.tower, b.tower)

    def test_range_cap(self):
        with pytest.raises(RangeError):
            theorem2_sequence(701)


class TestGapRecursion:
    def test_first_terms(self):
        rep = theorem3_sequence(3)
        assert rep.a_final == pytest.approx(math.e + 1, rel=1e-15)

    def test_sandwich_holds_small(self):
        rep = theorem3_sequence(20_000)
        assert rep.sandwich_ok
        assert rep.first_sandwich_violation is None
        assert rep.min_increment >= 1.0

    def test_checkpoints_against_primes(self, table100k):
        rep = theorem3_sequence(5000, {n: nth_prime(table100k, n) for n in (1000, 5000)})
        assert [c.n for c in rep.checkpoints] == [1000, 5000]
        for c in rep.checkpoints:
            assert c.p_n == int(table100k.primes[c.n - 1])
            assert c.rel_diff == pytest.approx(abs(c.a_n - c.p_n) / c.p_n)

    def test_extended_precision_consistency(self):
        # re-run in 80-bit floats; the recursion is well-conditioned, so the
        # double path must track it closely at every decade checkpoint
        targets = (10**3, 10**4, 10**5, 10**6)
        doubles = {n: theorem3_sequence(n).a_final for n in targets}
        a80 = np.longdouble(math.e)
        for n in range(2, 10**6 + 1):
            if n in targets:
                assert abs(float(a80) - doubles[n]) / float(a80) < 1e-12
            if n == 10**6:
                break
            a80 = a80 + np.log(a80)

    def test_rejects_bad_range(self):
        with pytest.raises(RangeError):
            theorem3_sequence(1)

    # the first block holds n = 2 .. THEOREM3_CHUNK + 1
    EDGE = THEOREM3_CHUNK + 1

    @pytest.mark.parametrize(
        "n_max", [2, 3, THEOREM3_CHUNK - 1, THEOREM3_CHUNK, EDGE, EDGE + 1, 10**5, 10**6]
    )
    def test_matches_stepwise_loop(self, n_max):
        assert dataclasses.asdict(theorem3_sequence(n_max)) == dataclasses.asdict(
            gap_recursion_stepwise(n_max)
        )

    @pytest.mark.parametrize("n_max", [2, 3, THEOREM3_CHUNK, EDGE, EDGE + 1, 10**5, 10**6])
    def test_matches_stepwise_loop_with_table(self, bigtable, n_max):
        ours = theorem3_sequence(n_max, bigtable)
        marks = [c.n for c in ours.checkpoints]
        assert marks == [n for n in (10**3, 10**4, 10**5, 10**6) if n <= n_max]
        ref = gap_recursion_stepwise(n_max, bigtable, checkpoints=marks)
        assert dataclasses.asdict(ours) == dataclasses.asdict(ref)
        floats = [ours.a_final, ours.min_increment] + [c.a_n for c in ours.checkpoints]
        assert all(type(v) is float for v in floats)

    def test_prime_mapping_as_table(self, table100k):
        # table100k answers the default checkpoints up to 5000: 10^3 only
        ours = theorem3_sequence(5000, {1000: nth_prime(table100k, 1000)})
        assert dataclasses.asdict(ours) == dataclasses.asdict(theorem3_sequence(5000, table100k))

    @pytest.mark.parametrize("n", [3, 100, EDGE, 2 * EDGE - 1, 2 * EDGE + 4])
    def test_min_increment_is_measured(self, monkeypatch, n):
        # a planted recursion steps by 0.5 from a_n, below the first step log e = 1;
        # the step from a_(n_max) is never taken
        n_max = 2 * self.EDGE + 4
        a_n = theorem3_sequence(n).a_final
        planted = types.SimpleNamespace(
            **{**vars(math), "log": lambda a: 0.5 if a == a_n else math.log(a)}
        )
        monkeypatch.setattr(staircase, "math", planted)
        smallest = 1.0 if n == n_max else (a_n + 0.5) - a_n
        assert theorem3_sequence(n_max).min_increment == smallest

    def test_min_increment_is_measured_in_the_vector_regime(self, monkeypatch):
        # the planted step is the last of a block solved as a fixed point, so
        # its error reaches only the start of the next block
        n = 2 + 5 * THEOREM3_CHUNK - 1
        n_max = n + THEOREM3_CHUNK
        a_n = theorem3_sequence(n).a_final
        assert a_n > 1.2 * THEOREM3_VECTOR_FROM
        real_log = np.log
        monkeypatch.setattr(staircase, "math", types.SimpleNamespace(
            **{**vars(math), "log": lambda a: 0.5 if a == a_n else math.log(a)}
        ))
        monkeypatch.setattr(staircase, "np", types.SimpleNamespace(
            **{**vars(np), "log": lambda x: np.where(x == a_n, 0.5, real_log(x))}
        ))
        solved = []
        real_block = staircase._fixed_point_block
        monkeypatch.setattr(
            staircase, "_fixed_point_block",
            lambda a, m: solved.append(real_block(a, m)) or solved[-1],
        )
        assert theorem3_sequence(n_max).min_increment == (a_n + 0.5) - a_n
        assert len(solved) == 2 and all(x is not None for x in solved)
        assert any(np.any(np.diff(x) == 0.5) for x in solved)

    def test_gap_sandwich_keeps_no_table(self, monkeypatch):
        # p_n comes from nth_primes, which sieves segment by segment
        def refuse(*args, **kwargs):
            raise AssertionError("gap_sandwich built a prime table")

        monkeypatch.setattr(verify, "sieve", refuse)
        report = verify.gap_sandwich(10**4)
        assert [(c.n, c.p_n) for c in report.checkpoints] == [(10**4, 104729)]

    def test_checkpoints_across_block_edges(self, table100k):
        edge = self.EDGE  # the second block holds edge + 1 .. 2 * edge - 1
        n_max = 2 * edge + 1
        marks = [2, edge, edge + 1, 2 * edge - 1, 2 * edge, n_max]
        ours = theorem3_sequence(n_max, {n: nth_prime(table100k, n) for n in marks})
        ref = gap_recursion_stepwise(n_max, table100k, checkpoints=marks)
        assert dataclasses.asdict(ours) == dataclasses.asdict(ref)


def scalar_block(a, m):
    """The scalar loop a += math.log(a): a_0 .. a_m."""
    out = [a]
    for _ in range(m):
        a += math.log(a)
        out.append(a)
    return out


class TestFixedPointBlock:
    @given(
        a=st.floats(THEOREM3_VECTOR_FROM, 2.0**50, allow_nan=False, allow_infinity=False),
        m=st.integers(1, 5000),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_loop(self, a, m):
        x = staircase._fixed_point_block(a, m)
        assert x is not None  # converged and every re-checked step agreed
        assert x.tolist() == scalar_block(a, m)

    @pytest.fixture
    def planted_np(self, monkeypatch):
        def plant(log):
            monkeypatch.setattr(staircase, "np", types.SimpleNamespace(**{**vars(np), "log": log}))
        return plant

    def test_log_off_by_fewer_than_log_ulps_keeps_the_scalar_bits(self, planted_np):
        # a third of the steps, picked by floor(x), get a log off by
        # LOG_ULPS - 1 ulps either way, the most the check allows; the scalar
        # loop keeps math.log.  floor(x) settles after a pass or two, so the
        # passes still converge
        real_log = np.log

        def off_log(x):
            y = real_log(x)
            key = np.floor(x).astype(np.int64)
            ulps = np.where(key % 2 == 0, LOG_ULPS - 1, 1 - LOG_ULPS)
            ulps[key % 3 != 0] = 0
            return y + ulps * np.spacing(y)

        planted_np(off_log)
        for a in (THEOREM3_VECTOR_FROM, 3.1e5, 1e6, 2.0**40):
            for m in (1, 100, THEOREM3_CHUNK):
                assert staircase._recursion_block(a, m).tolist() == scalar_block(a, m)
        assert dataclasses.asdict(theorem3_sequence(60_000)) == dataclasses.asdict(
            gap_recursion_stepwise(60_000)
        )

    def test_log_off_by_fewer_than_log_ulps_at_the_margin(self, planted_np):
        # at one step the planted log is LOG_ULPS - 1 ulps above math.log, whose
        # sum rounds the other way within LOG_ULPS / 4 ulps: a check with a
        # margin below 3/4 of LOG_ULPS sees both ends of its bracket round as
        # the planted log does, and accepts the planted path
        a, m = THEOREM3_VECTOR_FROM, THEOREM3_CHUNK
        xs = scalar_block(a, m)
        logs = [math.log(u) for u in xs[:-1]]
        j = next(
            i for i in range(m)
            if xs[i] + (logs[i] + LOG_ULPS // 4 * math.ulp(logs[i])) != xs[i + 1]
        )
        planted = logs[j] + (LOG_ULPS - 1) * math.ulp(logs[j])
        real_log = np.log
        planted_np(lambda x: np.where(x == xs[j], planted, real_log(x)))
        assert staircase._recursion_block(a, m).tolist() == xs

    def test_passes_that_never_converge_run_the_loop(self, planted_np, monkeypatch):
        # every call moves the log by a different relative 1e-9
        calls = []
        real_log = np.log
        planted_np(lambda x: calls.append(1) or real_log(x) * (1 + 1e-9 * len(calls)))
        a = 1e6
        assert staircase._fixed_point_block(a, THEOREM3_CHUNK) is None
        assert len(calls) == staircase.THEOREM3_PASSES
        logs = []
        monkeypatch.setattr(staircase, "math", types.SimpleNamespace(
            **{**vars(math), "log": lambda v: logs.append(1) or math.log(v)}
        ))
        assert staircase._recursion_block(a, THEOREM3_CHUNK).tolist() == scalar_block(
            a, THEOREM3_CHUNK
        )
        assert len(logs) >= THEOREM3_CHUNK  # every step, by the scalar loop

    def test_disagreeing_recheck_runs_the_loop(self, monkeypatch):
        # a math.log that differs from np.log at every step where the rounding
        # could depend on it: the block must be the scalar loop of that log
        odd = types.SimpleNamespace(**{**vars(math), "log": lambda v: math.log(v) + 2e-9})
        monkeypatch.setattr(staircase, "math", odd)
        a = float(THEOREM3_VECTOR_FROM)
        got = staircase._recursion_block(a, THEOREM3_CHUNK).tolist()
        ref = [a]
        for _ in range(THEOREM3_CHUNK):
            a += math.log(a) + 2e-9
            ref.append(a)
        assert got == ref


def test_np_log_agrees_with_math_log():
    # the fixed point's one assumption, far inside its LOG_ULPS margin: np.log
    # within 2 ulps of math.log on 10^6 doubles in [2^17, 2^60]
    x = np.exp2(np.random.default_rng(20261019).uniform(17, 60, 10**6))
    ref = np.fromiter(map(math.log, x.tolist()), dtype=np.float64, count=len(x))
    assert np.max(np.abs(np.log(x) - ref) / np.spacing(ref)) <= 2


def test_first_sandwich_violation_is_the_first_failing_n():
    lo = 10
    n = np.arange(lo, lo + 20, dtype=np.float64)
    n_log_n = n * np.log(n)  # the bounds exactly as the check computes them
    values = list(1.5 * n_log_n)
    values[3] = float(2 * n_log_n[3])  # upper bound itself is allowed
    assert _first_sandwich_violation(lo, values) is None
    values[12] = float(n_log_n[12] - n[12])  # lower bound is not
    values[15] = 0.0
    assert _first_sandwich_violation(lo, values) == lo + 12
    values[5] = 3 * (lo + 5) * math.log(lo + 5)  # above the upper bound
    assert _first_sandwich_violation(lo, values) == lo + 5


def gap_recursion_stepwise(n_max, t=None, checkpoints=()):
    """Reference: the sandwich, checkpoints and increments checked at every step."""
    a = math.e
    first_violation = None
    min_increment = math.inf
    marks = []
    for n in range(2, n_max + 1):
        log_n = math.log(n)
        if not (n * log_n - n < a <= 2 * n * log_n) and first_violation is None:
            first_violation = n
        if n in checkpoints:
            p_n = nth_prime(t, n)
            marks.append(GapRecursionCheckpoint(n, a, p_n, abs(a - p_n) / p_n))
        if n == n_max:
            break
        a_next = a + math.log(a)
        min_increment = min(min_increment, a_next - a)
        a = a_next
    return GapRecursionReport(
        n_max=n_max,
        a_final=a,
        sandwich_ok=first_violation is None,
        first_sandwich_violation=first_violation,
        min_increment=min_increment if min_increment is not math.inf else 0.0,
        checkpoints=marks,
    )


class TestStaircase:
    def test_factorial_mode_first_step_exact(self, table100k):
        cert = staircase_certify(table100k, 5.45, 6, "factorial-squared", 5, 1)
        step = cert.steps[0]
        assert step.witness_mode == "exact"
        assert step.q_bound == 14400
        assert step.end == 10 * 14400**6 + 1
        assert step.q == 16
        assert step.witness_ok

    def test_power_mode_first_step_exact(self, table100k):
        cert = staircase_certify(table100k, 5.45, 6, "power-2piN", 5, 1)
        step = cert.steps[0]
        assert step.q_bound == 15625
        assert step.end == 10 * 15625**6 + 1
        assert step.witness_ok

    def test_requested_step_count(self, table100k):
        cert = staircase_certify(table100k, 5.45, 6, "factorial-squared", 2, 5)
        assert len(cert.steps) == 5
        assert [s.index for s in cert.steps] == list(range(5))

    def test_overflowing_log_end_refused(self, table100k):
        # m ln Q(1000) overflows to inf at b = 1e308
        with pytest.raises(DomainError):
            staircase_certify(table100k, 1e308, None, "factorial-squared", 1000, 1)

    @pytest.mark.parametrize("mode", ["factorial-squared", "power-2piN"])
    def test_exponent_beyond_float_refused(self, table100k, mode):
        # m * ln Q(2) cannot even be formed as a float
        with pytest.raises(DomainError, match=r"b=5\.45, exponent m ~ 10\^309"):
            staircase_certify(table100k, 5.45, 10**309, mode, 2, 1)

    def test_steps_strictly_increase(self, table100k):
        cert = staircase_certify(table100k, 5.45, 6, "factorial-squared", 2, 6)
        assert [s.end.level for s in cert.steps[1:]] == [4, 5, 6, 7, 8]
        for step in cert.steps:
            assert value_less(step.start, step.end)
        for a, b in zip(cert.steps, cert.steps[1:]):
            assert value_less(a.end, b.end)

    def test_exact_witnesses_reverify(self, table100k):
        for mode in ("factorial-squared", "power-2piN"):
            cert = staircase_certify(table100k, 5.45, 6, mode, 2, 3)
            for step in cert.steps:
                if step.witness_mode == "exact" and step.q is not None:
                    assert 10 * step.q**cert.exponent < step.end
                    assert step.q <= step.q_bound

    def test_sieve_confirmed_steps_contain_prime(self, table100k):
        cert = staircase_certify(table100k, 5.45, 6, "factorial-squared", 2, 3)
        confirmed = [s for s in cert.steps if s.sieve_confirmed]
        assert confirmed
        for step in confirmed:
            assert step.prime_witness is not None
            assert step.start < step.prime_witness <= step.end
            assert prime_count(table100k, step.end) > prime_count(table100k, step.start)

    def test_power_mode_dominated_by_factorial(self, table100k):
        # from starts where N^(2 pi(N)) <= (N!)^2, the power staircase grows
        # no faster at every common step index
        for start in (2, 8, 10):
            fact = staircase_certify(table100k, 5.45, 6, "factorial-squared", start, 3)
            powr = staircase_certify(table100k, 5.45, 6, "power-2piN", start, 3)
            for fs, ps in zip(fact.steps, powr.steps):
                assert not value_less(fs.end, ps.end)

    def test_power_mode_truncates_beyond_sieve(self, table100k):
        cert = staircase_certify(table100k, 5.45, 6, "power-2piN", 5, 4)
        assert len(cert.steps) == 1
        assert cert.truncated_reason is not None

    def test_lower_bound_staircase(self, table100k):
        cert = staircase_certify(table100k, 5.45, 6, "factorial-squared", 10, 3)
        bounds = cert.lower_bounds()
        assert len(bounds) == 3
        pi_start = prime_count(table100k, 10)
        assert [k for _, k in bounds] == [pi_start + 1, pi_start + 2, pi_start + 3]
        # the sieve-confirmed step really achieves its bound
        first_end = cert.steps[0].end
        assert prime_count(table100k, min(first_end, table100k.limit)) >= pi_start + 1

    def test_default_exponent_rule(self, table100k):
        assert default_exponent(5.45) == 6
        assert default_exponent(2.0) == 3
        cert = staircase_certify(table100k, 5.45, None, "factorial-squared", 2, 1)
        assert cert.exponent == 6

    def test_parameter_validation(self, table100k):
        with pytest.raises(DomainError):
            staircase_certify(table100k, 5.45, 5, "factorial-squared", 2, 1)
        with pytest.raises(DomainError):
            staircase_certify(table100k, 5.45, 6, "bogus", 2, 1)
        with pytest.raises(RangeError):
            staircase_certify(table100k, 5.45, 6, "factorial-squared", 1, 1)

    @pytest.mark.parametrize("b", [-1.0, 0.0, 1.0, 1.99])
    def test_measure_bound_below_two_refused(self, table100k, b):
        # no irrational has irrationality measure below 2
        with pytest.raises(DomainError):
            staircase_certify(table100k, b, None, "power-2piN", 2, 1)

    def test_refusal_uses_the_bound_on_ln_q(self, table100k):
        # m ln 4 is a float at b = 1.2965e308; Robbins's bound on m ln Q(2) is not
        with pytest.raises(DomainError, match=r"b=1\.2965e\+308, exponent m ~ 10\^308\.1"):
            staircase_certify(table100k, 1.2965e308, None, "factorial-squared", 2, 1)

    def test_measure_bound_two_accepted(self, table100k):
        cert = staircase_certify(table100k, 2.0, None, "power-2piN", 2, 1)
        assert cert.exponent == 3
        assert cert.steps


class TestDirectedEnds:
    """Every logarithmic end is at least 10 Q(start)^m, so pi(end) >= k is proven."""

    @pytest.mark.parametrize("b, m", [(5.45, 6), (2, 3), (3.5, 4), (7, 8)])
    def test_log_ends_bound_the_exact_end(self, table100k, b, m):
        mpmath = pytest.importorskip("mpmath")
        checked = 0
        for n in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            cert = staircase_certify(table100k, b, m, "factorial-squared", n, 4)
            ends = [n] + [step.end for step in cert.steps]
            for lower, upper in zip(ends, ends[1:]):
                assert value_less(lower, upper)
            for step in cert.steps:
                if step.witness_mode == "exact":
                    continue
                start, end = step.start, step.end
                if isinstance(start, LogTower) and start.level > 4:
                    # beyond mpmath: one level up, the mantissa strictly above
                    assert end.level == start.level + 1 and end.mantissa > start.mantissa
                    continue
                with mpmath.workprec(600):
                    x = mpmath.mpf(start if isinstance(start, int) else start.mantissa)
                    for _ in range(0 if isinstance(start, int) else start.level):
                        x = mpmath.exp(x)
                    ln_q = 2 * mpmath.loggamma(x + 1)
                    ln_end = mpmath.log(10) + m * ln_q  # ln(10 Q^m)
                    assert step.ln_q_bound is None or step.ln_q_bound >= ln_q
                    assert step.ln_end is None or step.ln_end >= ln_end
                    for _ in range(end.level - 1):
                        ln_end = mpmath.log(ln_end)
                    assert end.mantissa >= ln_end, (n, step.index)
                checked += 1
        assert checked >= 18  # an int start and a level-4 start per chain


with localcontext() as _ctx:
    _ctx.prec = 60
    LN2_60 = Decimal(2).ln()
    LNLN2_60 = LN2_60.ln()


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run for seconds, so a
    loop that should not run at all fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestEuclidBaseline:
    def test_examples(self):
        assert euclid_baseline(tower_normalize(0, 4)) == 1
        assert euclid_baseline(tower_normalize(0, 16)) == 2
        assert euclid_baseline(tower_normalize(0, 3)) == 0
        assert euclid_baseline(tower_normalize(0, 1)) == 0

    def test_exact_boundaries(self):
        assert euclid_baseline(65536) == 4
        assert euclid_baseline(65535) == 3
        assert euclid_baseline(2) == 0
        assert euclid_baseline(4) == 1

    def test_e_to_the_e(self):
        assert euclid_baseline(tower_normalize(2, 1.0)) == 1

    def test_ints_count_exactly(self):
        def exact(n):
            k = 0
            while n >= 1 << (1 << (k + 1)):
                k += 1
            return k

        for k in range(25):
            x = 1 << (1 << k)  # 2^(2^k)
            for n in (x - 1, x, x + 1):
                assert euclid_baseline(n) == exact(n) == (k if n >= x else max(k - 1, 0)), n
        assert [euclid_baseline(n) for n in (-5, 0, 1)] == [0, 0, 0]
        assert euclid_baseline(2**64 - 1) == 5

    def test_level_zero_is_exact(self):
        def exact(x):
            n, k = int(x), 0
            while 2 ** (2 ** (k + 1)) <= n:
                k += 1
            return k

        # the floats just below 2^64, 2^128, 2^256 and 2^512
        below = [math.nextafter(float(2 ** 2**k), 0.0) for k in (6, 7, 8, 9)]
        assert [euclid_baseline(tower_normalize(0, x)) for x in below] == [5, 6, 7, 8]
        for k in range(10):
            assert euclid_baseline(tower_normalize(0, 2 ** 2**k)) == k
        rng = random.Random(20240214)
        xs = [2.0 ** rng.uniform(1, 1020) for _ in range(2000)]
        for k in range(10):
            x = float(2 ** 2**k)
            xs += [x + d * math.ulp(x) for d in range(-3, 4) if x + d * math.ulp(x) >= 2]
        for x in xs:
            assert euclid_baseline(tower_normalize(0, x)) == exact(x), x

    def test_negative_level_refused(self):
        # a negative level has no meaning; tower_normalize refuses it too
        with pytest.raises(DomainError, match="tower level must be >= 0, got -1"):
            euclid_baseline(LogTower(-1, 5.0))

    def test_deep_tower_refused_at_the_first_overflow(self, monkeypatch):
        # exp^3(1.5) > 709, so the fourth exp would overflow; the 2^31 - 5
        # levels above it add no work before the refusal
        exps = []
        monkeypatch.setattr(staircase, "math", types.SimpleNamespace(
            **{**vars(math), "exp": lambda v: exps.append(v) or math.exp(v)}
        ))
        with deadline(5), pytest.raises(ResourceLimitError, match="tower too deep"):
            euclid_baseline(LogTower(2**31, 1.5))
        assert len(exps) == 3

    def test_deep_tower_refused_by_the_cli(self, capsys):
        with deadline(5):
            code = run_cli(["euclid", "--level", str(2**31), "--mantissa", "1.5"])
        err = json.loads(capsys.readouterr().err)
        assert (code, err["error"]) == (2, "ResourceLimitError")
        assert "tower too deep" in err["reason"]

    def test_huge_tower(self):
        t = tower_normalize(3, 1.5)  # exp(exp(exp(1.5)))
        # log2 log2 = (lnln - lnln2)/ln2 with lnln = exp(1.5)
        expected = math.floor((math.exp(1.5) - math.log(math.log(2))) / math.log(2))
        assert euclid_baseline(t) == expected

    def test_consistency_with_pi_floor(self, table100k):
        # pi(x) >= k whenever 2^(2^k) <= x: check against the actual table
        for x in (4, 16, 256, 65536):
            k = euclid_baseline(x)
            assert prime_count(table100k, x) >= k

    @staticmethod
    def exact_count(level, r):
        """max(0, floor t), t = (ln ln x - ln ln 2)/ln 2, x = exp^level(r), in
        decimal at 60 digits; refuses a t within 1e-30 of an integer."""
        with localcontext() as ctx:
            ctx.prec = 60
            lnln = Decimal(r).ln() if level == 1 else Decimal(r)
            for _ in range(level - 2):
                lnln = lnln.exp()
            t = (lnln - LNLN2_60) / LN2_60
            k = math.floor(t)
            assert min(t - k, k + 1 - t) > Decimal("1e-30"), (level, r)
        return max(0, k)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_doubling_boundaries(self, level):
        # mantissas within 2 ulps of exp^-level(2^(2^k)), for every k < 1000
        cases = 0
        with localcontext() as ctx:
            ctx.prec = 60
            for k in range(1000):
                r = Decimal(2) ** k * LN2_60  # ln 2^(2^k)
                for _ in range(level - 1):
                    r = r.ln() if r > 0 else None
                if r is None:
                    continue
                mid = float(r)
                for m in [mid + d * math.ulp(mid) for d in range(-2, 3)]:
                    assert euclid_baseline(LogTower(level, m)) == self.exact_count(level, m), (k, m)
                    cases += 1
        assert cases == 5000 if level < 3 else 4995

    def test_workload_shapes(self):
        # the CLI's tower_normalize(level, mantissa) at the benchmark's mantissas
        rng = random.Random(20261019)
        for level, mantissa in ((1, 2.0), (3, 1.5), (4, 1.2), (5, 1.2)):
            for _ in range(300):
                x = tower_normalize(level, float(f"{mantissa * (1 + 0.01 * rng.random()):.6f}"))
                assert euclid_baseline(x) == self.exact_count(x.level, x.mantissa), x

    def test_cli_below_ln_4(self, capsys):
        # 1.3862943611198906 < ln 4 = 1.38629436111989061883..., so x < 4
        assert run_cli(["euclid", "--level", "1", "--mantissa", "1.3862943611198906"]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == 0

    def test_out_of_float_range_refused(self):
        with pytest.raises(ResourceLimitError):
            euclid_baseline(tower_normalize(6, 1.0))

    def test_float_range_boundary(self):
        # adjacent mantissas: ln ln x = exp^3(m) is 9.99999999999749e299, under the
        # 1e300 float bound, and then at or past it
        mpmath = pytest.importorskip("mpmath")
        x = LogTower(5, 1.8776029995354924)
        with mpmath.workdps(360):  # t has 301 integer digits
            lnln = mpmath.mpf(x.mantissa)
            for _ in range(3):
                lnln = mpmath.exp(lnln)
            t = (lnln - mpmath.log(mpmath.log(2))) / mpmath.log(2)
            assert euclid_baseline(x) == int(mpmath.floor(t))
        with pytest.raises(ResourceLimitError):
            euclid_baseline(LogTower(5, math.nextafter(x.mantissa, 2.0)))

    def test_precision_stops_at_the_digit_cap(self, monkeypatch):
        # one ulp below ln 4 needs a second, 42-digit round; 2.0 is settled in the first
        monkeypatch.setenv("PISTAIR_DIGIT_CAP", "30")
        assert euclid_baseline(LogTower(1, 2.0)) == 1
        with pytest.raises(PrecisionExhaustedError):
            euclid_baseline(LogTower(1, math.nextafter(math.log(4), 0.0)))
