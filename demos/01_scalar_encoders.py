#!/usr/bin/env python3
"""Tour of the scalar encoders: bounded window, cyclic wrap, delta, unbounded.

Run it and read the bit patterns; the whole point of these codes is that you
can see similarity as shared one-bits.
"""

from sdrkit import (
    CyclicEncoder,
    DeltaEncoder,
    ScalarEncoder,
    UnboundedScalarEncoder,
    overlap,
    to_dense_string,
)


def show(label, sdr):
    print(f"{label:>12}  {to_dense_string(sdr)}")


print("=== bounded scalar: a sliding window of w one-bits ===")
temps = ScalarEncoder(min_value=0, max_value=45, n=60, w=12)
print(f"range [0, 45] over n={temps.n} bits, w={temps.w}, "
      f"resolution {temps.resolution:.3f}")
for t in (0, 10, 11, 12, 30, 45, 60):
    show(f"{t} C", temps.encode(t))
print("note: 60 C clamps to the maximum representation, same as 45 C")
print(f"overlap(10, 11) = {overlap(temps.encode(10), temps.encode(11))}")
print(f"overlap(10, 30) = {overlap(temps.encode(10), temps.encode(30))}")

print()
print("=== cyclic: day-of-week must wrap ===")
days = ["Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"]
dow = CyclicEncoder(period=7, n=21, w=6)
for i, name in enumerate(days):
    show(name, dow.encode(i))
sat, sun, mon = dow.encode(6), dow.encode(0), dow.encode(1)
print(f"Saturday-Sunday overlap: {overlap(sat, sun)} (wraps around the end)")
print(f"Sunday-Monday overlap:   {overlap(sun, mon)}")

print()
print("=== delta: encode the change, not the level ===")
rates = DeltaEncoder(min_value=-5, max_value=5, n=40, w=8)
for v in (100, 102, 104, 104, 90):
    show(f"v={v}", rates.encode(v))
print("rows 2 and 3 match (same +2 step); row 4 is the zero-change code")

print()
print("=== unbounded: hashed buckets, no min/max needed ===")
load = UnboundedScalarEncoder(resolution=1.0, n=400, w=21, seed=7)
a, b, far = load.encode(1000), load.encode(1002), load.encode(-1e9)
print(f"n={load.n}, w={load.w}; values may be anything:")
print(f"overlap(1000, 1002)  = {overlap(a, b)} (shares {load.w - 2} buckets)")
print(f"overlap(1000, -1e9)  = {overlap(a, far)} (chance level)")
print(f"one-bits at 1000: {a.active_count} (hash collisions may cost a bit)")
