#!/usr/bin/env python3
"""Rigorous two-sided enclosures of zeta(2) = pi^2/6.

The enclosure endpoints are exact rationals produced from the Chudnovsky
series for 1/pi, summed exactly and rounded once each way, so containment
claims are proofs.  An independent partial-sum sandwich
    S_N + 1/(N+1) < zeta(2) < S_N + 1/N
cross-checks them here.
"""

from fractions import Fraction

from pistair import rational_str, to_record, zeta2_enclosure

print("=" * 72)
print("  Enclosing zeta(2) with exact rational endpoints")
print("=" * 72)

for digits in (1, 5, 15, 30):
    enc = zeta2_enclosure(digits)
    print(f"\ndigits={digits:>2}: width = {float(enc.width):.3e}")
    print(f"  lo = {float(enc.lo):.18f}")
    print(f"  hi = {float(enc.hi):.18f}")

print("\nSerialized form of the 5-digit enclosure:")
enc5 = zeta2_enclosure(5)
print(f"  {to_record(enc5)}")

print("\nIndependent check: the partial-sum sandwich at N = 1000.")
s1000 = sum(Fraction(1, n * n) for n in range(1, 1001))
lo_bound = s1000 + Fraction(1, 1001)
hi_bound = s1000 + Fraction(1, 1000)
enc30 = zeta2_enclosure(30)
print(f"  S_1000 + 1/1001 = {float(lo_bound):.15f}  (must sit below the enclosure)")
print(f"  S_1000 + 1/1000 = {float(hi_bound):.15f}  (must sit above it)")
for side, bound in (("lower", lo_bound), ("upper", hi_bound)):
    placement = "below" if bound < enc30.lo else "above" if bound > enc30.hi else "overlapping"
    print(f"  placement of the {side} sandwich bound: {placement}")
assert lo_bound < enc30.lo and enc30.hi < hi_bound
print("  enclosure lies strictly inside the sandwich window: consistent.")

print("\nNesting under refinement: each request contains the finer one.")
outer = zeta2_enclosure(10)
inner = zeta2_enclosure(20)
assert outer.contains_enclosure(inner)
print(f"  width(10 digits) = {rational_str(outer.width)[:40]}...")
print(f"  width(20 digits) = {float(inner.width):.3e}  -- nested: True")
