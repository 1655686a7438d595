import json
import random
import sys
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from pistair import LogTower, decimal_str, to_record
from pistair.records import decimal_field, rational_str


def reference(n: int) -> str:
    # Decimal converts ints without Python's int->str digit limit
    return str(Decimal(n))


class TestDecimalStr:
    @pytest.mark.parametrize("n", [0, 1, 9, 10, -1, -10, 12345678901234567890])
    def test_small(self, n):
        assert decimal_str(n) == reference(n) == str(n)

    @pytest.mark.parametrize(
        "k", [1, 599, 600, 601, 639, 640, 641, 1199, 1200, 1201, 4299, 4300, 4301, 9000]
    )
    def test_powers_of_ten_around_leaf_and_limit_edges(self, k):
        for n in (10**k - 1, 10**k, 10**k + 1):
            assert decimal_str(n) == reference(n)
            assert decimal_str(-n) == reference(-n)

    @pytest.mark.parametrize("digits", [700, 4301, 25_000, 100_000])
    def test_random_sizes(self, digits):
        rng = random.Random(digits)
        n = rng.randrange(10 ** (digits - 1), 10**digits)
        s = decimal_str(n)
        assert len(s) == digits
        assert s == reference(n)

    def test_interior_zero_runs_keep_their_width(self):
        n = 7 * 10**3000 + 5 * 10**1000 + 3
        assert decimal_str(n) == reference(n)

    def test_every_digit_count_boundary(self):
        # decimal_str never tests for a vanished high part: its width exceeds
        # the digit count by at most one, so every split keeps >= 300 digits
        # on top.  Pinned at each edge 10^k from below the leaf size to 6000
        # digits, at 2^j for every third j (0.9 digits a step, so every digit
        # count to 6000 is met), and at random ints up to 40000 bits.
        cases = []
        for k in range(590, 6001):
            cases += [(10**k - 1, "9" * k), (10**k, "1" + "0" * k), (10**k + 1, f"1{'0' * (k - 1)}1")]
        power = Decimal(2)
        with localcontext() as ctx:
            ctx.prec = 7000  # 2^j stays exact: it has at most 6021 digits
            for j in range(1, 20_000, 3):
                cases += [(2**j - 1, str(power - 1)), (2**j, str(power))]
                power *= 8
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            rng = random.Random(40_000)
            for n in (rng.getrandbits(rng.randrange(1, 40_000)) for _ in range(200)):
                cases.append((n, str(n)))
            for n, expected in cases:
                assert decimal_str(n) == expected, n.bit_length()
        finally:
            sys.set_int_max_str_digits(old)

    def test_at_the_lowest_settable_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert decimal_str(10**5000 - 1) == "9" * 5000
        finally:
            sys.set_int_max_str_digits(old)


@dataclass(frozen=True)
class _Inner:
    level: int
    mantissa: float


@dataclass(frozen=True)
class _Sample:
    count: int
    big: int = decimal_field()
    maybe: int | None = decimal_field()
    endpoint: "int | LogTower" = decimal_field()
    ratio: Fraction = Fraction(0)
    flag: bool = False
    note: str | None = None
    inner: _Inner | None = None
    items: list = field(default_factory=list)


class TestToRecord:
    def test_field_kinds(self):
        rec = to_record(
            _Sample(
                count=10**30,
                big=10**5000,
                maybe=None,
                endpoint=LogTower(2, 1.5),
                ratio=Fraction(-3, 10**4400),
                flag=True,
                note="x",
                inner=_Inner(1, 2.0),
                items=[_Inner(0, 0.5)],
            )
        )
        assert rec == {
            "count": 10**30,
            "big": "1" + "0" * 5000,
            "maybe": None,
            "endpoint": {"level": 2, "mantissa": 1.5},
            "ratio": "-3/1" + "0" * 4400,
            "flag": True,
            "note": "x",
            "inner": {"level": 1, "mantissa": 2.0},
            "items": [{"level": 0, "mantissa": 0.5}],
        }
        assert json.loads(json.dumps(rec)) == rec

    def test_int_endpoint_is_a_decimal_string(self):
        rec = to_record(_Sample(count=1, big=2, maybe=3, endpoint=40961))
        assert (rec["big"], rec["maybe"], rec["endpoint"]) == ("2", "3", "40961")
        assert rec["count"] == 1

    def test_unknown_value_type_is_refused(self):
        with pytest.raises(TypeError):
            to_record(_Sample(count=1, big=2, maybe=3, endpoint=4, items=[{1, 2}]))

    def test_rational_str(self):
        assert rational_str(Fraction(3)) == "3/1"
        assert rational_str(Fraction(-1, 10**5000)) == "-1/1" + "0" * 5000
