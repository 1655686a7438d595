"""The library's argument refusals and degenerate returns, one case each.

Every refusal is a PistairError subclass, never a builtin exception type.
Each case names a fragment of the message of the one line that refuses it.
"""

import re
from fractions import Fraction

import pytest

from pistair import (
    DomainError,
    LcmLogReport,
    RangeError,
    RealEnclosure,
    as_rational,
    continued_fraction,
    convergents,
    euler_product,
    lcm_to,
    log_lcm_table,
    log_lcm_to,
    max_power_at_most,
    nth_prime,
    power_tower,
    qn_bound_report,
    sieve,
    sondow_inequality_check,
    staircase_certify,
    theorem1_first_passing,
    theorem2_sequence,
    theorem3_sequence,
    tower_normalize,
)
from pistair.verify import exp_taylor_enclosure, run_suite

T = sieve(100)
ONE_TWO = RealEnclosure(Fraction(1), Fraction(2))

#: case -> (call, outcome): the exception, with a fragment of its message,
#: that the call must raise, or else the value it must return
CASES = {
    "as_rational": (lambda: as_rational(None), DomainError("cannot interpret None")),
    "continued_fraction": (lambda: continued_fraction(ONE_TWO, 0), DomainError("max_terms")),
    "convergents": (lambda: convergents([-1]), DomainError("leading quotient")),
    "sondow": (lambda: sondow_inequality_check(T, 0, 5), RangeError("n must be >= 1")),
    "euler_product": (lambda: euler_product(T, 0), RangeError("N must be >= 1")),
    "qn_bound_low": (lambda: qn_bound_report(T, 0), RangeError("N must be >= 1")),
    "qn_bound_high": (lambda: qn_bound_report(T, 101), RangeError("beyond 100")),
    "nth_prime": (lambda: nth_prime(T, 0), RangeError("prime index")),
    "max_power": (lambda: max_power_at_most(1, 10), RangeError("need 2 <= p <= n")),
    "lcm_to": (lambda: lcm_to(T, 0), RangeError("n must be >= 1")),
    "log_lcm_to": (lambda: log_lcm_to(T, 0), RangeError("n must be >= 1")),
    "log_lcm_to_one": (lambda: log_lcm_to(T, 1), LcmLogReport(1, 0.0, 0.0, 0.0)),
    "log_lcm_table_low": (lambda: log_lcm_table(T, -1), RangeError("n_max must be >= 0")),
    "log_lcm_table_high": (lambda: log_lcm_table(T, 101), RangeError("below n_max 101")),
    "tower_level": (lambda: tower_normalize(-1, 1.0), DomainError("tower level")),
    "tower_height": (lambda: power_tower(2.0, 0), DomainError("tower height")),
    "tower_base": (lambda: power_tower(1.0, 3), DomainError("growing towers")),
    # the factorial gate fails at N = 1, so nothing passes up to 1
    "theorem1_first_passing": (lambda: theorem1_first_passing(T, 1), None),
    "theorem2": (lambda: theorem2_sequence(-1), RangeError("n_max must be >= 0")),
    "theorem3_checkpoint": (
        lambda: theorem3_sequence(10, {11: 31}),
        RangeError("checkpoints must lie"),
    ),
    "staircase_start": (
        lambda: staircase_certify(T, 5.45, 6, "factorial-squared", 101, 1),
        RangeError("exceeds the sieve limit"),
    ),
    "staircase_steps": (
        lambda: staircase_certify(T, 5.45, 6, "factorial-squared", 2, 0),
        RangeError("steps must be >= 1"),
    ),
    "exp_taylor": (lambda: exp_taylor_enclosure(2), DomainError("0 <= x <= 1")),
    "run_suite": (lambda: run_suite("nope"), DomainError("unknown suite 'nope'")),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_refusal_or_return(case):
    call, outcome = CASES[case]
    if isinstance(outcome, Exception):
        with pytest.raises(type(outcome), match=re.escape(str(outcome))):
            call()
    else:
        assert call() == outcome
