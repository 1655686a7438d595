"""Resource caps, overridable through environment variables.

Caps are read at call time so a long-running process (or a test) can
adjust them by setting the variable before the next operation.
"""

import os

from .errors import DomainError

ENV_SIEVE_LIMIT = "PISTAIR_SIEVE_LIMIT"
ENV_DIGIT_CAP = "PISTAIR_DIGIT_CAP"
ENV_FACTORIAL_CAP = "PISTAIR_FACTORIAL_CAP"
ENV_BIGINT_DIGITS = "PISTAIR_BIGINT_DIGITS"

DEFAULT_SIEVE_LIMIT = 200_000_000
DEFAULT_DIGIT_CAP = 10_000
DEFAULT_FACTORIAL_CAP = 2_000
DEFAULT_BIGINT_DIGITS = 200_000


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{name} must be an integer, got {raw!r}") from None


def sieve_limit_cap() -> int:
    """Largest sieve limit accepted by pistair.primes.sieve."""
    return _env_int(ENV_SIEVE_LIMIT, DEFAULT_SIEVE_LIMIT)


def digit_cap() -> int:
    """Largest decimal-digit request accepted by enclosure routines."""
    return _env_int(ENV_DIGIT_CAP, DEFAULT_DIGIT_CAP)


def factorial_cap() -> int:
    """Largest N for which (N!)-sized exact integers are materialized."""
    return _env_int(ENV_FACTORIAL_CAP, DEFAULT_FACTORIAL_CAP)


def bigint_digit_budget() -> int:
    """Decimal-digit budget above which staircase witnesses go logarithmic
    and near-tie Sondow checks are refused."""
    return _env_int(ENV_BIGINT_DIGITS, DEFAULT_BIGINT_DIGITS)
