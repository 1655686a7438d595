#!/usr/bin/env python3
"""Prime-gap staircases and the tower arithmetic that carries them.

Once a rational approximation to pi^2/6 would become "too good" without a
prime in (N, f(N)], a prime is certified there; chaining the intervals
gives explicit pi(x) lower bounds.  The interval tops grow as iterated
exponentials, so endpoints live in a level/mantissa tower representation
after the first step or two.
"""

from pistair import (
    euclid_baseline,
    power_tower,
    prime_count,
    sieve,
    staircase_certify,
    theorem1_first_passing,
    theorem1_gate,
    theorem2_sequence,
    theorem3_sequence,
)

t = sieve(1_400_000)  # enough for p_100000 = 1299709

print("=" * 72)
print("  The factorial gate: 10 q_N^6 < (N!)^14")
print("=" * 72)
print(f"\nfirst N where the gate holds: {theorem1_first_passing(t)}")
print(f"{'N':>4} {'holds':>6} {'slack (log10)':>14}")
for N in (1, 2, 5, 20, 100):
    gate = theorem1_gate(t, N)
    print(f"{N:>4} {str(gate.holds):>6} {gate.slack_log10:>14.1f}")

print("\n" + "=" * 72)
print("  Double-exponential ladder x_(n+1) = exp((log x_n)^e)")
print("=" * 72)
print(f"\n{'n':>3} {'log log x_n':>14} {'closed form e^n':>16} {'tower':>24}")
for entry in theorem2_sequence(8):
    tower = entry.tower
    print(
        f"{entry.n:>3} {entry.loglog:>14.4f} {entry.loglog_closed:>16.4f}"
        f" {f'(level {tower.level}, {tower.mantissa:.4f})':>24}"
    )

print("\n" + "=" * 72)
print("  The a_(n+1) = a_n + log a_n recursion tracks the n-th prime")
print("=" * 72)
report = theorem3_sequence(10**6, t)
print(f"\nsandwich n log n - n < a_n <= 2 n log n held at every step: {report.sandwich_ok}")
print(f"{'n':>8} {'a_n':>14} {'p_n':>10} {'rel diff':>10}")
for c in report.checkpoints:
    print(f"{c.n:>8} {c.a_n:>14.1f} {c.p_n:>10} {c.rel_diff:>10.2%}")
print("(run with a 1.6e7 sieve to see the 0.044% agreement at n = 10^6)")

print("\n" + "=" * 72)
print("  Staircase certificates")
print("=" * 72)
cert = staircase_certify(t, b=5.45, m=6, q_mode="factorial-squared", N_start=2, steps=4)
print(f"\nhypothesis: measure bound {cert.measure_bound}, exponent {cert.exponent},")
print(f"q-bound mode {cert.q_mode}, start {cert.start} (pi = {cert.pi_at_start})")
for step in cert.steps:
    start = step.start if isinstance(step.start, int) else (
        f"tower(level {step.start.level}, {step.start.mantissa:.4f})"
    )
    if isinstance(step.end, int):
        end = str(step.end) if step.end < 10**18 else f"~10^{len(str(step.end)) - 1}"
    else:
        end = f"tower(level {step.end.level}, {step.end.mantissa:.4f})"
    extra = ""
    if step.sieve_confirmed:
        extra = f"  [prime {step.prime_witness} confirmed in range]"
    elif step.witness_ok:
        extra = "  [exact witness re-verified]"
    print(f"  step {step.index}: {start} -> {end}  ({step.witness_mode}){extra}")
print("implied lower bounds:")
for at, k in cert.lower_bounds():
    where = str(at) if isinstance(at, int) else f"tower(level {at.level}, {at.mantissa:.4f})"
    print(f"  pi(x) >= {k} once x >= {where}")

print("\n" + "=" * 72)
print("  The doubling-count baseline pi(x) >= k for x >= 2^(2^k)")
print("=" * 72)
print(f"\n{'x':>10} {'k from 2^(2^k)':>15} {'pi(x) actual':>13}")
for x in (4, 16, 256, 65536):
    k = euclid_baseline(x)
    print(f"{x:>10} {k:>15} {prime_count(t, x):>13}")
# tower bases are a parameter: both N_0 and 14*N_0 variants can be formed
t_plain = power_tower(5, 3)
t_scaled = power_tower(14 * 5, 3)
print(f"\npower_tower(5, 3)  -> level {t_plain.level}, mantissa {t_plain.mantissa:.6f}")
print(f"power_tower(70, 3) -> level {t_scaled.level}, mantissa {t_scaled.mantissa:.6f}")
print(f"doubling counts: {euclid_baseline(t_plain)} and {euclid_baseline(t_scaled)}")
deep = power_tower(70, 8)
print(f"power_tower(70, 8) -> level {deep.level} (its doubling count overflows floats)")
