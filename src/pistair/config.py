"""Resource caps, overridable through environment variables.

Caps are read at call time so a long-running process (or a test) can
adjust them by setting the variable before the next operation.  Every cap
is one DEFAULTS entry; a routine reads it with cap() or refuses work past
it with refuse_above(), before the work starts.
"""

import os

from .errors import DomainError, ResourceLimitError

SIEVE_LIMIT = "PISTAIR_SIEVE_LIMIT"
DIGIT_CAP = "PISTAIR_DIGIT_CAP"
FACTORIAL_CAP = "PISTAIR_FACTORIAL_CAP"
BIGINT_DIGITS = "PISTAIR_BIGINT_DIGITS"

#: variable -> default: the largest sieve limit, enclosure digits, N for
#: (N!)-sized integers, and the staircase and near-tie Sondow digit budget
DEFAULTS = {
    SIEVE_LIMIT: 200_000_000,
    DIGIT_CAP: 10_000,
    FACTORIAL_CAP: 2_000,
    BIGINT_DIGITS: 200_000,
}


def cap(variable: str) -> int:
    """The cap named by variable: its environment value, else its default."""
    raw = os.environ.get(variable, DEFAULTS[variable])
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{variable} must be an integer, got {raw!r}") from None


def refuse_above(variable: str, value: float, what: str) -> None:
    """Refuse a value past the cap, before any work: a ResourceLimitError
    whose message names it as what + value."""
    limit = cap(variable)
    if value > limit:
        raise ResourceLimitError(
            f"{what}{value} exceeds the configured cap {limit} (raise {variable} to override)"
        )
