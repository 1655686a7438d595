#!/usr/bin/env python3
"""Truncated Euler products p_N/q_N for zeta(2) and how fast they close in.

The product over primes p <= N of (1 - p^-2)^-1 is an exact rational
that climbs toward pi^2/6 from below.  The interesting quantity is the
exponent -log|gap|/log(q_N): rational approximations with exponent above
2 are "too good" for a number of bounded irrationality measure, and that
tension is what later forces primes into explicit intervals.
"""

from pistair import (
    approximation_gap,
    euler_product,
    qn_bound_report,
    sieve,
    tail_product_upper,
)

t = sieve(100_000)

print("=" * 72)
print("  Exact truncated Euler products")
print("=" * 72)
print(f"\n{'N':>6} {'p_N/q_N':>24} {'value':>12} {'gap':>12} {'exponent':>9}")
for N in (2, 3, 5, 10, 30, 100, 1000):
    approx = euler_product(t, N)
    report = approximation_gap(t, N, 30)
    frac = f"{approx.value.numerator}/{approx.value.denominator}"
    if len(frac) > 24:
        frac = f"[{len(str(approx.value.denominator))}-digit denominator]"
    exponent = f"{report.exponent:.4f}" if report.exponent is not None else "-"
    print(
        f"{N:>6} {frac:>24} {float(approx.value):>12.8f} "
        f"{float(report.gap.midpoint):>12.3e} {exponent:>9}"
    )

print("\nDenominator bounds (all exact integer comparisons):")
print(f"{'N':>4} {'q_N':>12} {'prod(p^2-1)':>14} {'N^(2 pi(N))':>14} {'(N!)^2':>14}")
for N in (2, 5, 10, 20):
    rep = qn_bound_report(t, N)
    print(
        f"{N:>4} {rep.q:>12} {rep.prod_p2_minus_1:>14} "
        f"{rep.n_pow_2pi:>14} {rep.factorial_sq:>14}"
    )
    assert rep.chain_ok and rep.factorial_ok and rep.q_divides_prod

print("\nTail bound when (N, f] holds no prime: coarse 10/f vs the exp chain.")
print(f"{'f':>8} {'10/f':>12} {'returned bound':>16}")
for f in (10, 100, 1000, 10**6):
    bound = tail_product_upper(f)
    print(f"{f:>8} {10 / f:>12.6f} {float(bound):>16.8f}")

print("\nConcrete prime-free interval (23, 28]: the bound must cover the gap.")
gap = approximation_gap(t, 23, 30)
bound = tail_product_upper(28)
print(f"  true gap at N=23: {float(gap.gap.midpoint):.6e}")
print(f"  certified bound:  {float(bound):.6e}  -- covers: {gap.gap.hi <= bound}")
