import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

import pistair
from pistair import (
    euler_product,
    lcm_to,
    nth_prime_limit_estimate,
    qn_bound_report,
    sieve,
    staircase_certify,
    theorem1_gate,
    theorem3_sequence,
    to_record,
    zeta2_enclosure,
)
from pistair import cli, verify
from pistair.approx import LEMMA4_MODES
from pistair.cli import run_cli
from pistair.errors import DomainError
from pistair.staircase import Q_MODES


def run(capsys, *args):
    code = run_cli(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def shape(value):
    """The JSON type of value, recursively through objects and arrays."""
    if isinstance(value, dict):
        return {k: shape(v) for k, v in value.items()}
    if isinstance(value, list):
        return [shape(v) for v in value]
    return {str: S, int: I, float: F, bool: B, type(None): NULL}[type(value)]


S, I, F, B, NULL = "string", "integer", "float", "bool", "null"
TOWER = {"level": I, "mantissa": F}
STAIRCASE_HEADER = {
    "exponent": I,
    "measure_bound": F,
    "pi_at_start": I,
    "q_mode": S,
    "record": S,
    "start": I,
    "truncated_reason": NULL,
}
EXACT_STEP = {
    "end": S,
    "index": I,
    "ln_end": F,
    "ln_q_bound": F,
    "prime_witness": I,
    "q": S,
    "q_bound": S,
    "record": S,
    "sieve_confirmed": B,
    "start": S,
    "witness_mode": S,
    "witness_ok": B,
}
LOG_STEP = {
    **EXACT_STEP,
    "end": TOWER,
    "prime_witness": NULL,
    "q": NULL,
    "q_bound": NULL,
    "sieve_confirmed": NULL,
    "witness_ok": NULL,
}
CONVERGENT = {"exponent": F, "index": I, "p": S, "partial_quotient": S, "q": S}

#: each invocation's distinct record shapes, in order of first appearance:
#: big integers and rationals are strings, counts, flags and floats keep
#: their JSON type
RECORD_SHAPES = {
    "euler --N 30": [{"N": I, "q_digits": I, "value": S}],
    "gap --N 5 --digits 15": [
        {
            "N": I,
            "digits_used": I,
            "exponent": F,
            "gap": {"hi": S, "lo": S},
            "q": S,
            "value": S,
        }
    ],
    "qbounds --N 7": [
        {
            "N": I,
            "chain_ok": B,
            "factorial_ok": B,
            "factorial_sq": S,
            "n_pow_2pi": S,
            "prod_p2_minus_1": S,
            "q": S,
            "q_divides_prod": B,
        }
    ],
    "zeta2 --digits 4": [{"digits": I, "hi": S, "lo": S, "width": S}],
    "cf --digits 30 --terms 6": [{"index": I, "partial_quotient": S}],
    "exponents --digits 40 --max-q 100": [
        {**CONVERGENT, "exponent": NULL},
        CONVERGENT,
        {"convergents": I, "max_exponent": F},
    ],
    "dn --n 12": [{"d_n": S, "log_lcm": F, "log_sq_n": F, "n": I, "pi_log_n": F}],
    "theorem1 --N 6": [
        {
            "N": I,
            "f": S,
            "holds": B,
            "lhs": S,
            "q": S,
            "reading": S,
            "slack_log10": F,
        }
    ],
    "theorem2 --n 2": [{"loglog": F, "loglog_closed": F, "n": I, "tower": TOWER}],
    "theorem3 --n 100": [
        {
            "a_final": F,
            "checkpoints": [],
            "first_sandwich_violation": NULL,
            "min_increment": F,
            "n_max": I,
            "sandwich_ok": B,
        }
    ],
    "theorem3 --n 2000 --sieve --sieve-limit 20000": [
        {
            "a_final": F,
            "checkpoints": [{"a_n": F, "n": I, "p_n": I, "rel_diff": F}],
            "first_sandwich_violation": NULL,
            "min_increment": F,
            "n_max": I,
            "sandwich_ok": B,
        }
    ],
    "staircase --mode factorial-squared --steps 2": [
        STAIRCASE_HEADER,
        EXACT_STEP,
        LOG_STEP,
        {"at": S, "pi_at_least": I, "record": S},
        {"at": TOWER, "pi_at_least": I, "record": S},
    ],
    "staircase --mode factorial-squared --steps 4": [
        STAIRCASE_HEADER,
        EXACT_STEP,
        LOG_STEP,
        {**LOG_STEP, "start": TOWER, "ln_end": NULL, "ln_q_bound": NULL},
        {"at": S, "pi_at_least": I, "record": S},
        {"at": TOWER, "pi_at_least": I, "record": S},
    ],
    "lemma4 --mode shifted": [
        {"a": F, "b": F, "bound": F, "mode": S, "rho": F, "sigma": F}
    ],
    "sondow --n 3 --mu 5.45": [
        {"holds": B, "mu": S, "n": I, "p_next": I, "primorial": S}
    ],
    "euclid --level 1 --mantissa 2.5": [{"k": I, "level": I, "mantissa": F}],
    "verify --suite arith": [
        {"detail": S, "name": S, "ok": B, "suite": S},
        {"checks": I, "failures": I, "suite": S},
    ],
}


class TestDispatch:
    def test_euler_json(self, capsys):
        code, out, _ = run(capsys, "euler", "--N", "10")
        assert code == 0
        (record,) = json_lines(out)
        assert record["value"] == "1225/768"
        assert record["N"] == 10

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run(capsys, "badflag")
        assert code == 2
        reason = json.loads(err.strip().splitlines()[0])
        assert reason["error"] == "usage"

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run(capsys, "euler", "--N", "10", "--bogus")
        assert code == 2
        assert "reason" in json.loads(err.strip().splitlines()[0])

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "euler")
        assert code == 2

    def test_zeta2(self, capsys):
        code, out, _ = run(capsys, "zeta2", "--digits", "5")
        assert code == 0
        (record,) = json_lines(out)
        assert set(record) == {"lo", "hi", "digits", "width"}
        assert "/" in record["lo"]

    def test_gap(self, capsys):
        code, out, _ = run(capsys, "gap", "--N", "3", "--digits", "20")
        assert code == 0
        (record,) = json_lines(out)
        assert record["q"] == "2"
        assert record["exponent"] == pytest.approx(2.786531, abs=1e-4)

    def test_qbounds(self, capsys):
        code, out, _ = run(capsys, "qbounds", "--N", "5")
        assert code == 0
        (record,) = json_lines(out)
        assert record["q"] == "16"
        assert record["chain_ok"] and record["factorial_ok"]

    def test_cf_streams_quotients(self, capsys):
        code, out, _ = run(capsys, "cf", "--digits", "30", "--terms", "5")
        assert code == 0
        records = json_lines(out)
        assert [r["partial_quotient"] for r in records] == ["1", "1", "1", "1", "4"]

    def test_exponents(self, capsys):
        code, out, _ = run(capsys, "exponents", "--digits", "60", "--max-q", "1000")
        assert code == 0
        records = json_lines(out)
        assert records[-1]["max_exponent"] > 2
        assert all(
            r["exponent"] > 2 for r in records[:-1] if int(r["q"]) >= 2
        )

    def test_exponents_past_200_quotients(self, capsys):
        # proving that the 200 convergents below 10^99 are all of them takes
        # a 201st partial quotient, so the quotient count must follow max_q
        code, out, _ = run(capsys, "exponents", "--max-q", str(10**99))
        assert code == 0
        records = json_lines(out)
        assert records[-1]["convergents"] == len(records) - 1 == 200
        assert int(records[-2]["q"]) <= 10**99

    def test_dn(self, capsys):
        code, out, _ = run(capsys, "dn", "--n", "10")
        assert code == 0
        (record,) = json_lines(out)
        assert record["d_n"] == "2520"

    def test_dn_log_only(self, capsys):
        code, out, _ = run(capsys, "dn", "--n", "10", "--log-only")
        assert code == 0
        (record,) = json_lines(out)
        assert "d_n" not in record

    def test_theorem1(self, capsys):
        code, out, _ = run(capsys, "theorem1", "--N", "2")
        assert code == 0
        (record,) = json_lines(out)
        assert record["holds"] is True
        assert record["lhs"] == "7290"

    def test_theorem2(self, capsys):
        code, out, _ = run(capsys, "theorem2", "--n", "3")
        assert code == 0
        records = json_lines(out)
        assert len(records) == 4
        assert records[0]["loglog"] == 1.0
        assert records[1]["tower"]["level"] == 3

    def test_theorem3(self, capsys):
        code, out, _ = run(capsys, "theorem3", "--n", "1000")
        assert code == 0
        (record,) = json_lines(out)
        assert record["sandwich_ok"] is True

    def test_theorem3_with_sieve(self, capsys):
        code, out, _ = run(
            capsys, "theorem3", "--n", "2000", "--sieve", "--sieve-limit", "20000"
        )
        assert code == 0
        (record,) = json_lines(out)
        assert record["checkpoints"]
        assert record["checkpoints"][0]["p_n"] == 7919  # p_1000

    @pytest.mark.parametrize("limit", [7918, 7919, 104728, 104729, 10**6])
    def test_theorem3_sieve_limit_matches_a_table(self, capsys, limit):
        # p_1000 = 7919 and p_10000 = 104729: the checkpoints are the 10^k <= n
        # whose p_n lies within the limit, as with the whole table
        code, out, _ = run(capsys, "theorem3", "--n", "20000", "--sieve", "--sieve-limit", str(limit))
        assert code == 0
        assert json_lines(out) == [to_record(theorem3_sequence(20_000, sieve(limit)))]

    def test_theorem3_sieve_counts_primes_in_little_memory(self, capsys, monkeypatch):
        # no prime table: the sieve's segments are counted, and one is kept
        monkeypatch.setattr(cli, "sieve", None)
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "theorem3", "--n", "1000000", "--sieve")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert [c["p_n"] for c in json_lines(out)[0]["checkpoints"]] == [
            7919, 104729, 1299709, 15485863
        ]
        assert peak <= 3_000_000

    def test_theorem3_sieve_past_the_cap_refused_before_any_work(self, capsys, monkeypatch):
        monkeypatch.setenv("PISTAIR_SIEVE_LIMIT", "5000")
        monkeypatch.setattr(pistair.primes, "_segments", None)
        monkeypatch.setattr(cli, "theorem3_sequence", None)
        code, out, err = run(capsys, "theorem3", "--n", "1000", "--sieve")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ResourceLimitError"

    def test_staircase(self, capsys):
        code, out, _ = run(
            capsys,
            "staircase",
            "--mode",
            "factorial-squared",
            "--start",
            "2",
            "--steps",
            "2",
        )
        assert code == 0
        records = json_lines(out)
        kinds = [r["record"] for r in records]
        assert kinds == ["staircase", "step", "step", "lower_bound", "lower_bound"]
        assert records[1]["end"] == "40961"
        assert records[1]["sieve_confirmed"] is True

    def test_staircase_truncates_past_the_int_str_limit(self, capsys):
        # the first step's end has ~20000 digits and lies beyond the sieve,
        # so the second step is refused, naming that end in full
        code, out, _ = run(
            capsys, "staircase", "--mode", "power-2piN", "--m", "20", "--start", "1000",
            "--steps", "2",
        )
        assert code == 0
        header, step, _ = json_lines(out)
        assert len(step["end"]) > 20_000
        assert header["truncated_reason"] == (
            f"pi({step['end']}) unknown beyond the sieve limit 100000"
        )

    def test_staircase_2000_steps_pinned(self, capsys):
        # the steps past the float range of ln N stay the same bytes, and
        # take linear time: each step's tower loop stops once ln N is inf
        code, out, _ = run(capsys, "staircase", "--mode", "factorial-squared", "--steps", "2000")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "25d59bfa01adc571e703df8407f35476f7246e696e898358fe6d3d68ec7137e2"
        )

    def test_lemma4(self, capsys):
        code, out, _ = run(capsys, "lemma4", "--mode", "raw")
        assert code == 0
        (record,) = json_lines(out)
        assert record["bound"] == pytest.approx(1.6660112, abs=1e-6)

    def test_sondow(self, capsys):
        code, out, _ = run(capsys, "sondow", "--n", "2", "--mu", "5.45")
        assert code == 0
        (record,) = json_lines(out)
        assert record["holds"] is True
        assert record["mu"] == "109/20"

    def test_euclid(self, capsys):
        code, out, _ = run(capsys, "euclid", "--level", "0", "--mantissa", "16")
        assert code == 0
        (record,) = json_lines(out)
        assert record["k"] == 2


class TestErrors:
    def test_range_error_exit_2(self, capsys):
        code, _, err = run(capsys, "dn", "--n", "100", "--sieve-limit", "50")
        assert code == 2
        reason = json.loads(err.strip().splitlines()[0])
        assert reason["error"] == "RangeError"
        assert reason["reason"]

    def test_resource_error_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PISTAIR_DIGIT_CAP", "10")
        code, _, err = run(capsys, "zeta2", "--digits", "50")
        assert code == 2
        assert json.loads(err.strip().splitlines()[0])["error"] == "ResourceLimitError"

    def test_precision_exhausted_exit_1(self, capsys, monkeypatch):
        # 20 digits give no provable quotient prefix that reaches q > 10^30
        monkeypatch.setenv("PISTAIR_DIGIT_CAP", "20")
        max_q = str(10**30)
        code, out, err = run(capsys, "exponents", "--digits", "10", "--max-q", max_q)
        assert code == 1
        assert out == ""
        expected = {
            "error": "PrecisionExhaustedError",
            "reason": f"convergents up to q <= {max_q} not resolvable within 20 digits",
        }
        assert err == json.dumps(expected, sort_keys=True) + "\n"


    @pytest.mark.parametrize(
        "error", [ValueError, OverflowError, ZeroDivisionError], ids=lambda e: e.__name__
    )
    def test_internal_failure_exit_1(self, capsys, monkeypatch, error):
        # an exception that is not a PistairError is a failure of the program
        def broken(args):
            raise error("internal failure")

        euler = cli.COMMANDS["euler"]._replace(handler=broken)
        monkeypatch.setitem(cli.COMMANDS, "euler", euler)
        code, out, err = run(capsys, "euler", "--N", "10")
        assert code == 1
        assert out == ""
        (line,) = err.strip().splitlines()
        record = json.loads(line)
        assert set(record) == {"error", "reason"}
        assert record["error"] == error.__name__

    def test_malformed_env_cap_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PISTAIR_DIGIT_CAP", "abc")
        code, _, err = run(capsys, "zeta2", "--digits", "5")
        assert code == 2
        assert "PISTAIR_DIGIT_CAP" in json.loads(err.strip().splitlines()[0])["reason"]

    @pytest.mark.parametrize(
        "args",
        [
            ("sondow", "--n", "10", "--mu", "abc"),
            ("sondow", "--n", "10", "--mu", "1/0"),
            ("staircase", "--mode", "power-2piN", "--b", "nan"),
            ("staircase", "--mode", "power-2piN", "--b", "inf"),
            ("staircase", "--mode", "power-2piN", "--b", "-1", "--steps", "1"),
            ("staircase", "--mode", "power-2piN", "--b", "1.99", "--steps", "1"),
            ("lemma4", "--a", "nan", "--b", "1"),
            ("lemma4", "--a", "inf", "--b", "1"),
            ("lemma4", "--a=-inf", "--b", "1"),
            ("lemma4", "--b", "nan"),
            ("lemma4", "--b", "inf"),
            ("lemma4", "--b=-inf", "--mode", "shifted"),
            ("gap", "--N", "5", "--digits", "-3"),
            ("gap", "--N", "5", "--digits", "0"),
            ("exponents", "--digits", "0", "--max-q", "100"),
            ("exponents", "--digits", "-3", "--max-q", "100"),
            ("euclid", "--level", "1", "--mantissa", "inf"),
            ("euclid", "--level", "0", "--mantissa", "inf"),
            ("euclid", "--level", "0", "--mantissa", "nan"),
            ("euclid", "--level", "2", "--mantissa=-inf"),
            ("staircase", "--mode", "factorial-squared", "--b", "1e308", "--start", "1000"),
            ("lemma4", "--a=-1e-320", "--b", "1"),
            ("lemma4", "--a=-2.000000000000001", "--b", "1e300", "--mode", "shifted"),
        ],
    )
    def test_malformed_value_exit_2(self, capsys, args):
        code, _, err = run(capsys, *args)
        assert code == 2
        assert json.loads(err.strip().splitlines()[0])["error"] == "DomainError"

    def test_sondow_near_tie_beyond_budget_exit_2(self, capsys):
        code, out, err = run(capsys, "sondow", "--n", "1", "--mu", "0.792481250361")
        assert code == 2
        assert out == ""
        assert json.loads(err.strip().splitlines()[0])["error"] == "ResourceLimitError"

    def test_sondow_tiny_mu_answers(self, capsys):
        code, out, _ = run(capsys, "sondow", "--n", "5", "--mu", "1e-400")
        assert code == 0
        (record,) = json_lines(out)
        assert record["holds"] is False
        assert record["mu"] == "1/1" + "0" * 400


class TestOutputContracts:
    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "staircase", "--mode", "power-2piN", "--steps", "2")
        _, second, _ = run(capsys, "staircase", "--mode", "power-2piN", "--steps", "2")
        assert first == second

    def test_meta_record_is_separate(self, capsys):
        code, out, _ = run(capsys, "euler", "--N", "10", "--meta")
        assert code == 0
        records = json_lines(out)
        assert "meta" in records[0]
        assert records[1]["value"] == "1225/768"

    def test_json_round_trips_every_subcommand(self, capsys):
        for argv, shapes in RECORD_SHAPES.items():
            args = argv.split()
            code, out, _ = run(capsys, *args)
            assert code == 0, args
            assert out.strip(), args
            seen = []
            for record in json_lines(out):
                assert json.loads(json.dumps(record)) == record
                if shape(record) not in seen:
                    seen.append(shape(record))
            assert seen == shapes, args

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "euler", "--N", "10", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",") == ["N", "q_digits", "value"]
        assert row.split(",") == ["10", "3", "1225/768"]

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "lemma4", "--format", "table")
        assert code == 0
        assert "bound" in out

    def test_csv_flattens_a_nested_record(self, capsys):
        # theorem2's tower field is a dataclass: one dotted column per field
        records = json_lines(run(capsys, "theorem2", "--n", "3")[1])
        code, out, _ = run(capsys, "theorem2", "--n", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0]) == ["loglog", "loglog_closed", "n", "tower.level", "tower.mantissa"]
        assert len(rows) == len(records) == 4
        for row, record in zip(rows, records):
            assert float(row["loglog"]) == record["loglog"]
            assert int(row["tower.level"]) == record["tower"]["level"]
            assert float(row["tower.mantissa"]) == record["tower"]["mantissa"]

    def test_table_prints_a_list_field_as_json(self, capsys):
        # theorem3's checkpoints field is a list of dataclasses: one JSON cell
        args = ("theorem3", "--n", "20000", "--sieve")
        (record,) = json_lines(run(capsys, *args)[1])
        code, out, _ = run(capsys, *args, "--format", "table")
        assert code == 0
        *lines, end = out.splitlines()
        assert end == "--"
        table = dict(line.split(None, 1) for line in lines)
        assert sorted(table) == sorted(record)
        assert json.loads(table["checkpoints"]) == record["checkpoints"]
        assert [c["n"] for c in record["checkpoints"]] == [1000, 10000]
        assert table["sandwich_ok"] == "True"


class TestVerifySubcommand:
    def test_arith_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "arith")
        assert code == 0
        records = json_lines(out)
        assert records[-1]["failures"] == 0
        assert all(r["ok"] for r in records[:-1])

    def test_verify_all_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0
        assert json_lines(out)[-1]["failures"] == 0

    def test_planted_error_fails_its_checks(self, capsys, monkeypatch):
        def broken(digits):
            raise DomainError("planted")

        monkeypatch.setattr(verify, "zeta2_enclosure", broken)
        code, out, err = run(capsys, "verify", "--suite", "arith")
        assert (code, err) == (1, "")
        *checks, summary = json_lines(out)
        failed = [c for c in checks if not c["ok"]]
        # every arith check reads the enclosure but the exp/Taylor one
        assert [c["name"] for c in checks if c["ok"]] == [checks[-1]["name"]]
        assert all(c["detail"] == "DomainError: planted" for c in failed)
        assert checks[-1]["detail"] == ""
        assert summary == {"suite": "arith", "checks": 4, "failures": 3}

    def test_planted_wrong_value_exit_1(self, capsys, monkeypatch):
        real = verify.euler_product
        monkeypatch.setattr(
            verify,
            "euler_product",
            lambda t, N: dataclasses.replace(real(t, N), value=real(t, N).value + 1),
        )
        code, out, _ = run(capsys, "verify", "--suite", "euler")
        assert code == 1
        *checks, summary = json_lines(out)
        failed = {c["name"] for c in checks if not c["ok"]}
        assert failed == {
            "euler_product(10) = 1225/768",
            "incremental product matches brute force to 300",
            "products stay below zeta(2) to 2000",
        }
        assert all(c["detail"].startswith("CheckFailed: ") for c in checks if not c["ok"])
        assert summary["failures"] == 3

    def test_planted_increment_fails_its_check(self, capsys, monkeypatch):
        real = verify.theorem3_sequence
        monkeypatch.setattr(
            verify,
            "theorem3_sequence",
            lambda *a, **k: dataclasses.replace(real(*a, **k), min_increment=1.5),
        )
        code, out, _ = run(capsys, "verify", "--suite", "staircase")
        assert code == 1
        *checks, summary = json_lines(out)
        (failed,) = [c for c in checks if not c["ok"]]
        assert failed["name"] == "gap recursion increments >= 1"
        assert failed["detail"] == "CheckFailed: theorem3_sequence reports 1.5, steps 1.0"
        assert summary["failures"] == 1

    def test_sieve_cap_refuses_the_run(self, capsys, monkeypatch):
        monkeypatch.setenv("PISTAIR_SIEVE_LIMIT", "5000")
        code, out, err = run(capsys, "verify", "--suite", "primes")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ResourceLimitError"

    def test_malformed_cap_refuses_the_run(self, capsys, monkeypatch):
        # the arith suite never reads this cap, but the runner reads every cap first
        monkeypatch.setenv("PISTAIR_FACTORIAL_CAP", "abc")
        code, out, err = run(capsys, "verify", "--suite", "arith")
        assert (code, out) == (2, "")
        assert "PISTAIR_FACTORIAL_CAP" in json.loads(err)["reason"]

    def test_failures_survive_python_O(self):
        # python -O strips assert statements; a check must fail without them
        script = textwrap.dedent(
            """
            import dataclasses, sys
            from pistair import verify
            from pistair.cli import run_cli

            if not sys.flags.optimize:
                sys.exit(3)
            real = verify.euler_product
            verify.euler_product = lambda t, N: dataclasses.replace(
                real(t, N), value=real(t, N).value + 1
            )
            sys.exit(run_cli(["verify", "--suite", "euler"]))
            """
        )
        src = pathlib.Path(pistair.__file__).resolve().parent.parent
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert json_lines(proc.stdout)[-1]["failures"] == 3


def parse_int(s):
    """Nonnegative decimal string to int, in pieces below the int<-str limit."""
    if len(s) <= 600:
        return int(s)
    k = len(s) // 2
    return parse_int(s[:-k]) * 10**k + parse_int(s[-k:])


def parse_frac(s):
    p, q = s.split("/")
    return Fraction(parse_int(p), parse_int(q))


class TestPastTheIntStrDigitLimit:
    """Records holding integers of more than 4300 digits, the default limit
    of Python's int->str conversion, print and parse back exactly."""

    def test_euler(self, capsys):
        code, out, _ = run(capsys, "euler", "--N", "8000")
        assert code == 0
        (record,) = json_lines(out)
        value = euler_product(sieve(8000), 8000).value
        assert parse_frac(record["value"]) == value
        assert record["q_digits"] == len(str(Decimal(value.denominator))) > 4300

    def test_zeta2(self, capsys):
        code, out, _ = run(capsys, "zeta2", "--digits", "3000")
        assert code == 0
        (record,) = json_lines(out)
        enc = zeta2_enclosure(3000)
        assert parse_frac(record["lo"]) == enc.lo
        assert parse_frac(record["hi"]) == enc.hi
        assert parse_frac(record["width"]) == enc.width
        assert len(record["lo"]) > 4300

    def test_qbounds(self, capsys):
        code, out, _ = run(capsys, "qbounds", "--N", "1000")
        assert code == 0
        (record,) = json_lines(out)
        report = qn_bound_report(sieve(1000), 1000)
        for key in ("q", "prod_p2_minus_1", "n_pow_2pi", "factorial_sq"):
            assert parse_int(record[key]) == getattr(report, key), key
        assert len(record["factorial_sq"]) > 4300

    def test_theorem1(self, capsys):
        code, out, _ = run(capsys, "theorem1", "--N", "300")
        assert code == 0
        (record,) = json_lines(out)
        gate = theorem1_gate(sieve(300), 300)
        for key in ("q", "f", "lhs"):
            assert parse_int(record[key]) == getattr(gate, key), key
        assert record["reading"] == gate.reading()
        assert len(record["f"]) > 4300

    def test_dn(self, capsys):
        code, out, _ = run(capsys, "dn", "--n", "20000")
        assert code == 0
        (record,) = json_lines(out)
        assert parse_int(record["d_n"]) == lcm_to(sieve(20000), 20000)
        assert len(record["d_n"]) > 4300

    def test_sondow(self, capsys):
        code, out, _ = run(capsys, "sondow", "--n", "1300")
        assert code == 0
        (record,) = json_lines(out)
        t = sieve(nth_prime_limit_estimate(1301))
        primorial = math.prod(t.primes[:1300].tolist())
        assert parse_int(record["primorial"]) == primorial
        assert len(record["primorial"]) > 4300

    def test_staircase(self, capsys):
        code, out, _ = run(
            capsys, "staircase", "--mode", "factorial-squared", "--start", "300",
            "--steps", "1",
        )
        assert code == 0
        header, step, bound = json_lines(out)
        cert = staircase_certify(sieve(100_000), 5.45, None, "factorial-squared", 300, 1)
        (expected,) = cert.steps
        assert step["start"] == "300"
        for key in ("end", "q", "q_bound"):
            assert parse_int(step[key]) == getattr(expected, key), key
        assert bound["at"] == step["end"]
        assert bound["pi_at_least"] == cert.pi_at_start + 1
        assert len(step["end"]) > 4300


class TestRefusals:
    @pytest.mark.parametrize(
        "args",
        [
            ("gap", "--N", "5", "--digits", "-3"),
            ("exponents", "--digits", "0", "--max-q", "100"),
        ],
    )
    def test_nonpositive_digits_refused_like_zeta2(self, capsys, args):
        code, _, err = run(capsys, *args)
        digits = args[args.index("--digits") + 1]
        _, _, zeta2_err = run(capsys, "zeta2", "--digits", digits)
        assert code == 2
        assert json.loads(err) == json.loads(zeta2_err)

    @pytest.mark.parametrize("mode", ["factorial-squared", "power-2piN"])
    @pytest.mark.parametrize(
        "trigger",
        [("--b", "1e308", "--start", "1000"), ("--steps", "1", "--m", "1" + "0" * 309)],
        ids=["huge-b", "huge-m"],
    )
    def test_overflowing_exponent_refused_by_name(self, capsys, mode, trigger):
        code, out, err = run(capsys, "staircase", "--mode", mode, *trigger)
        assert (code, out) == (2, "")
        (line,) = err.strip().splitlines()
        record = json.loads(line)
        assert record["error"] == "DomainError"
        assert "measure bound b=" in record["reason"]
        assert "exponent m ~ 10^" in record["reason"]

    @pytest.mark.parametrize(
        "mode, digest",
        [
            ("factorial-squared", "671be96560d7ffd46c49e4019db74bef952c0c5701c2504ac53ddb9d9203dc9e"),
            ("power-2piN", "e0d74a932f779a63a0603b861109b7c565591d1672cbe9d57f5abfe6e5706879"),
        ],
        ids=["factorial-squared", "power-2piN"],
    )
    def test_largest_finite_exponent_keeps_its_bytes(self, capsys, mode, digest):
        # m ln Q(2) = 1.386e308 is still a float; the refusal leaves this run alone
        args = ("--b", "1e308", "--start", "2", "--steps", "1")
        code, out, _ = run(capsys, "staircase", "--mode", mode, *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_refusal_uses_the_bound_on_ln_q(self, capsys):
        # m ln 4 = 1.7973e308 is a float, Robbins's bound m ln Q(2) ~ 1.7981e308 is not
        args = ("--b", "1.2965e308", "--start", "2", "--steps", "1")
        code, out, err = run(capsys, "staircase", "--mode", "factorial-squared", *args)
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["error"] == "DomainError"
        assert "measure bound b=1.2965e+308, exponent m ~ 10^308.1" in record["reason"]

    @pytest.mark.parametrize(
        "args",
        [("euler", "--N", "10"), ("theorem3", "--n", "100", "--sieve")],
        ids=["euler", "theorem3"],
    )
    def test_sieve_limit_zero_refused(self, capsys, args):
        # like every limit below 2, not read as "no limit given"
        code, out, err = run(capsys, *args, "--sieve-limit", "0")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "RangeError",
            "reason": "sieve limit must be >= 2, got 0",
        }

    def test_sieve_limit_unread_without_sieve(self, capsys):
        # theorem3 builds no table without --sieve
        _, expected, _ = run(capsys, "theorem3", "--n", "100")
        code, out, _ = run(capsys, "theorem3", "--n", "100", "--sieve-limit", "0")
        assert (code, out) == (0, expected)

    def test_measure_bound_two_is_accepted(self, capsys):
        code, out, _ = run(
            capsys, "staircase", "--mode", "power-2piN", "--b", "2", "--steps", "1"
        )
        assert code == 0
        header = json_lines(out)[0]
        assert (header["measure_bound"], header["exponent"]) == (2.0, 3)


class TestCommandTable:
    def test_readme_commands_parse(self):
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
        parser = cli.build_parser()
        commands = set()
        for argv in lines:
            assert argv[0] == "pistair", argv
            commands.add(parser.parse_args(argv[1:]).command)
        assert commands == set(cli.COMMANDS)

    def test_mode_choices_are_the_library_declarations(self):
        def choices(name):
            (options,) = [o for flags, o in cli.COMMANDS[name].arguments if flags == ("--mode",)]
            return options["choices"]

        assert choices("staircase") is Q_MODES
        assert choices("lemma4") is LEMMA4_MODES

    @pytest.mark.parametrize("mode", Q_MODES)
    def test_every_declared_staircase_mode_certifies(self, table100k, mode):
        cert = staircase_certify(table100k, 5.45, 6, mode, 2, 1)
        assert (cert.q_mode, len(cert.steps)) == (mode, 1)

    def test_parser_is_built_once(self, capsys, monkeypatch):
        def rebuilt():
            raise AssertionError("run_cli rebuilt the parser")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert run(capsys, "euler", "--N", "10")[0] == 0
