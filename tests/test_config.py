"""The resource caps: one table, one reader, one refusal before any work."""

import pathlib
import re

import pytest

from pistair import (
    ResourceLimitError,
    arith,
    config,
    euler,
    nth_primes,
    primes,
    qn_bound_report,
    sieve,
    theorem1_gate,
    zeta2_enclosure,
)

T = sieve(100)

#: case -> (variable, cap, call at cap + 1, what precedes the value, module, expensive callee)
CAPPED = {
    "zeta2_enclosure": ("PISTAIR_DIGIT_CAP", 40, lambda: zeta2_enclosure(41), "digits=",
                        arith, "_pi_scaled"),
    "sieve": ("PISTAIR_SIEVE_LIMIT", 1000, lambda: sieve(1001), "sieve limit ", primes, "_segments"),
    "nth_primes": ("PISTAIR_SIEVE_LIMIT", 1000, lambda: nth_primes(1001, [1]), "sieve limit ",
                   primes, "_segments"),
    "theorem1_gate": ("PISTAIR_FACTORIAL_CAP", 50, lambda: theorem1_gate(T, 51), "N=",
                      euler, "_product"),
    "qn_bound_report": ("PISTAIR_FACTORIAL_CAP", 50, lambda: qn_bound_report(T, 51), "N=",
                        euler, "_product"),
}


def _no_work(*args):
    raise AssertionError("the work started before the cap refused it")


@pytest.mark.parametrize("case", sorted(CAPPED))
def test_refused_above_the_cap_before_any_work(case, monkeypatch):
    variable, limit, call, what, module, callee = CAPPED[case]
    monkeypatch.setenv(variable, str(limit))
    monkeypatch.setattr(module, callee, _no_work)
    message = (f"{what}{limit + 1} exceeds the configured cap {limit} "
               f"(raise {variable} to override)")
    with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}$"):
        call()


def test_readme_table_lists_every_cap():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Resource caps", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(PISTAIR_\w+)` \| (\d+) \|", section, re.M)
    assert {variable: int(default) for variable, default in rows} == config.DEFAULTS
    assert len(rows) == len(config.DEFAULTS)
