"""The record format: how result dataclasses become JSON-ready dicts.

`to_record` walks a dataclass's fields.  ``bool``, ``float``, ``None`` and
``str`` values pass through; an ``int`` stays a number unless its field is
a `decimal_field`, in which case it becomes a decimal string; a
``Fraction`` becomes ``"numerator/denominator"``; nested dataclasses and
lists recurse.  Decimal strings come from `decimal_str`, which works at
any size, whatever ``sys.get_int_max_str_digits()`` says.
"""

from __future__ import annotations

from dataclasses import field, fields, is_dataclass
from fractions import Fraction

#: largest leaf of the decimal conversion, in digits; Python refuses to set
#: its int->str limit below 640, so str() of a leaf always succeeds
_LEAF_DIGITS = 600


def decimal_str(n: int) -> str:
    """Base-10 string of n, equal to str(n) but without its digit limit.

    Splits n by divmod with a power of ten into a high and a low half,
    recursively, and converts leaves of at most 600 digits with str();
    low halves are zero-padded to their width.
    """
    if n < 0:
        return "-" + decimal_str(-n)
    # 0.30103 > log10(2), so n < 2^bits <= 10^width
    width = n.bit_length() * 30103 // 100000 + 1
    if width <= _LEAF_DIGITS:
        return str(n)
    powers: dict[int, int] = {}

    def digits(n: int, width: int, pad: bool) -> str:
        # n < 10^width; exactly width digits when pad, else no leading zeros
        # and hi > 0: width exceeds n's digit count by at most one (below 2^10^8)
        if width <= _LEAF_DIGITS:
            s = str(n)
            return s.zfill(width) if pad else s
        k = width // 2
        if k not in powers:
            powers[k] = 10**k
        hi, lo = divmod(n, powers[k])
        return digits(hi, width - k, pad) + digits(lo, k, True)

    return digits(n, width, False)


def rational_str(q: Fraction) -> str:
    """Serialize a rational as 'numerator/denominator' in base 10."""
    return f"{decimal_str(q.numerator)}/{decimal_str(q.denominator)}"


def decimal_field():
    """A dataclass field whose ints serialize as decimal strings."""
    return field(metadata={"decimal": True})


def to_record(obj) -> dict:
    """JSON-ready dict of a dataclass instance, field by field."""
    return {
        f.name: _value(getattr(obj, f.name), f.metadata.get("decimal", False))
        for f in fields(obj)
    }


def _value(v, decimal: bool):
    if v is None or isinstance(v, (bool, float, str)):
        return v
    if isinstance(v, int):
        return decimal_str(v) if decimal else v
    if isinstance(v, Fraction):
        return rational_str(v)
    if is_dataclass(v):
        return to_record(v)
    if isinstance(v, list):
        return [_value(x, decimal) for x in v]
    raise TypeError(f"no record form for {type(v).__name__}")
