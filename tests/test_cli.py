import json

import pytest

from pistair.cli import run_cli


def run(capsys, *args):
    code = run_cli(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


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


    def test_internal_failure_exit_1(self, capsys):
        # past Python's int->str digit limit: a failure of the program, not of the call
        code, out, err = run(capsys, "euler", "--N", "8000")
        assert code == 1
        assert out == ""
        (line,) = err.strip().splitlines()
        record = json.loads(line)
        assert set(record) == {"error", "reason"}
        assert record["error"] == "ValueError"

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
        ],
    )
    def test_malformed_value_exit_2(self, capsys, args):
        code, _, err = run(capsys, *args)
        assert code == 2
        assert json.loads(err.strip().splitlines()[0])["error"] == "DomainError"


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
        for args in (
            ["euler", "--N", "30"],
            ["gap", "--N", "5", "--digits", "15"],
            ["qbounds", "--N", "7"],
            ["zeta2", "--digits", "4"],
            ["cf", "--digits", "30", "--terms", "6"],
            ["exponents", "--digits", "40", "--max-q", "100"],
            ["dn", "--n", "12"],
            ["theorem1", "--N", "6"],
            ["theorem2", "--n", "2"],
            ["theorem3", "--n", "100"],
            ["staircase", "--mode", "factorial-squared", "--steps", "2"],
            ["lemma4", "--mode", "shifted"],
            ["sondow", "--n", "3", "--mu", "5.45"],
            ["euclid", "--level", "1", "--mantissa", "2.5"],
            ["verify", "--suite", "arith"],
        ):
            code, out, _ = run(capsys, *args)
            assert code == 0, args
            assert out.strip(), args
            for record in json_lines(out):
                assert json.loads(json.dumps(record)) == record

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
