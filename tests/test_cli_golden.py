"""CLI output pinned byte for byte.

Each invocation's stdout is hashed and compared with a recorded sha256, so
a refactor that changes any printed byte fails here.  The set is the 15
README commands plus four large ones: Euler products over 2762 and 3245
primes, and the factorial-capped reports at their cap N = 2000.  Each
`verify` suite is pinned on its own, and the whole run once more as CSV.
Every pinned output but the CSV run is also checked by the benchmark's
oracle (`perfbench/oracle.py`), which recomputes it from sympy and mpmath,
so a recorded hash pins only output that the oracle accepts.

The parser is pinned too: the help text of the program and of each
subcommand (at a fixed 80-column width), the version line, and the exact
stderr line of each kind of usage error.
"""

import hashlib
import json
import pathlib

import pytest

from pistair.cli import run_cli

GOLDEN = {
    "euler --N 10": "c3ba4d37af8e6e0f89922da4f1536553147e61e5093219ee7d70e1edc7656e49",
    "zeta2 --digits 40": "feb1a1743d91ad2822bbb6f1bd3158217bf8cd6ba4f721fc23b41e1ca947887c",
    "gap --N 10 --digits 30": "713708023865e456c5439989a1c8daae67a8c0a3027fdd738c27dfc2e051b4b4",
    "qbounds --N 5": "b30583179d81df59dd89305e7197ffe104fd731074716fb3884861f114609e62",
    "cf --digits 60 --terms 20": "a0135b0be06cf15e384e9313ef5c722fd964e04c97c72f51eb4a30c77fe50f98",
    "exponents --digits 60 --max-q 1000000": "1bb4b6dc3dbdf13630bbb3400114e1dca5ea6077656899f93aee28f811862167",
    "dn --n 5000 --log-only": "e65b7bfdb7a5200c8d744f54c56fc1d4e8ce48f5a35526c6a4592ee6d8f88099",
    "theorem1 --N 20": "70eca1e5ca477b6106252599463f98f07274ca7b6febaed312ef0e3f9ffccd9f",
    "theorem2 --n 10": "77f8f3ca49eea11c3ec03305d47b1023202de6ea90a4d65886acf8a92fa51a80",
    "theorem3 --n 1000000 --sieve": "cde62ab2583dbb838f27880cd9520061666ad445e9d01b6a154e25c49b563850",
    "staircase --mode factorial-squared --b 5.45 --m 6 --start 2 --steps 4": "38fbda7dcece3320da86b73a500c2c6f20f163ac180c10963e309dc69e5c271e",
    "lemma4 --mode raw": "e1a3e4561991d8d42f13db9ba8194fb758e0880b01d4564b67b2a6576e6be82e",
    "sondow --n 15 --mu 5.45": "51046e05819e0fa85ee596400e44ed632b11f0b6e02e69ee98658946e60324e0",
    "euclid --level 2 --mantissa 1.0": "7f19177a5a7a027ee5f51d792c1160c870cc2dfb58dec7eccd6d34eebfa44215",
    "verify --suite all": "130ada35ab1e8ef0f27c31e51174abb740ee501945ee679dd92034703ae48272",
    "euler --N 30000": "264ff11aecd354fea7173d2c7587579ae5e7bac5dc05b8c3ef99de5c45655cb5",
    "gap --N 25000 --digits 30": "e297259c02bf621aabd393726e3b4449ddd0eabc13ecf934ac6aad3c0968d163",
    "qbounds --N 2000": "8bcc3ad30f953e1f8cfcdef70841df7fb57deb277ae8e3d5c7d34502166aa910",
    "theorem1 --N 2000": "ca5b83b9a88aaaeb6907e03a511ada3cb30d6d47580fcc3da450b9c4a1ccc406",
    "verify --suite arith": "d773d6132351cbdebc351ec75f4e4bd38b5de328884fb4642433a0d1e9ca98ed",
    "verify --suite primes": "6937645611c9a294d82799247e607eaa4b1c539fc0d82581c6c3f857158ea61a",
    "verify --suite euler": "1508e55c9bda9930c8084c71172261c6e2a885a4fbb2f7af6794cfd3c043333d",
    "verify --suite approx": "7a0206f5717841d9e9196e4f984ca9d4b8985d4b31f593ab6c616a3f60614dab",
    "verify --suite staircase": "679e293d3c1301ecb15a368cd401c3fb0cc77b521a52ea32fd2edf0f7e7ceecb",
    "verify --suite all --format csv": "440762dbc5b59cda0f56a7e8f3b2a97d71c6039a1d22068a3e9a16db76dd5b77",
}


HELP = {
    "--help": "73eeb4c43dce3b02af26c6faa783b4c66b44ce32bab33bbc83867df9eec09c61",
    "--version": "b96a6523aa47673ab7989a437e369a9176b7ac539a422c620e3a3fb52db2fb05",
    "euler --help": "33f0f8ef7df0103470967785e5e6c483b2868e89d19527b52d94b94b6b0ce6ae",
    "gap --help": "ff9cb023b6aa24da9ea1624832879c3818ff0eb6e702af515a8d1933de520157",
    "qbounds --help": "048989ef93e46f565cc2b4b94ac03b627a658e97951693c7bd740028abc99332",
    "zeta2 --help": "42d4bb860ad32d203f0a89a797932c4c9e42443f1b32b42f52e263224d8fc628",
    "cf --help": "878c7f5c5e239461cd6d129d10e3b9efe009f5d6230fd72c4d06e4544e2b747e",
    "exponents --help": "44edeecab5b4d06a495b349ea5ce91219405c02ef5803eb6d0b3321c2e48672f",
    "dn --help": "ebeb30284691af5a68fc4cad56f4e32c4623f26d99ae0cf230c7d8f06612aa97",
    "theorem1 --help": "6b9dda4a5c7e85ca6a9feaca906d02806d905dbe11484c88fda7aa49e1daea38",
    "theorem2 --help": "b1e820539e0e87bf815c09ffeea823a3d6387f9656968a1db388abdbd62143a2",
    "theorem3 --help": "0cf2225d26beb6adefa980c6b5f43371bf35adc574d20fcc13b0d4354f3a9f05",
    "staircase --help": "4dddbe3a02be97ec72e4ffb1a918226e65bddbf1589b8e3c393762f712b4b5e6",
    "lemma4 --help": "e2b22cbb643425e069ef33603b067d7ee672c43ce3a0a9d7073890273465d1fb",
    "sondow --help": "c4ef45f602bcf84859255fe0398c73e72d12296bf4d1c1342f097597a331db27",
    "euclid --help": "86bc2490d17a4a207210355675bcbf307a245236569fa82a12e3d721e8a7a128",
    "verify --help": "f7f8cbcf9909a6c4134aae6b2a2ba6cfe9eb209d6be34775940ab6f779fc4b4f",
}

COMMANDS = (
    "'euler', 'gap', 'qbounds', 'zeta2', 'cf', 'exponents', 'dn', 'theorem1', "
    "'theorem2', 'theorem3', 'staircase', 'lemma4', 'sondow', 'euclid', 'verify'"
)
USAGE_ERRORS = {
    "": "the following arguments are required: command",
    "bogus": f"argument command: invalid choice: 'bogus' (choose from {COMMANDS})",
    "euler": "the following arguments are required: --N",
    "euler --N x": "argument --N: invalid int value: 'x'",
    "staircase --mode nope": (
        "argument --mode: invalid choice: 'nope' "
        "(choose from 'factorial-squared', 'power-2piN')"
    ),
    "euler --N 5 --format xml": (
        "argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'table')"
    ),
    "verify --suite nope": (
        "argument --suite: invalid choice: 'nope' "
        "(choose from 'arith', 'primes', 'euler', 'approx', 'staircase', 'all')"
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_recorded_hash(capsys, command):
    assert run_cli(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_matches_recorded_hash(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(command.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == HELP[command]


@pytest.mark.parametrize("command", sorted(USAGE_ERRORS))
def test_usage_error_line(capsys, command):
    assert run_cli(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = {"error": "usage", "reason": USAGE_ERRORS[command]}
    assert captured.err == json.dumps(expected, sort_keys=True) + "\n"


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

#: Left out of the oracle check: its output is correct, but the oracle's
#: verify check compares typed JSON values with CSV strings, a fault of the
#: oracle.  Its records are those of the pinned JSON `verify --suite all`.
ORACLE_EXCLUDED = {"verify --suite all --format csv"}


@pytest.fixture(scope="module")
def oracle():
    pytest.importorskip("sympy")
    pytest.importorskip("mpmath")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import oracle as module
    return module, module.Oracle()


@pytest.mark.parametrize("command", sorted(set(GOLDEN) - ORACLE_EXCLUDED))
def test_oracle_accepts_pinned_output(capsys, oracle, command):
    module, o = oracle
    argv = tuple(command.split())
    rc = run_cli(list(argv))
    captured = capsys.readouterr()
    module.check_cli(o, ("cli",) + argv, (rc, captured.out, captured.err))
