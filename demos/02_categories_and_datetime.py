#!/usr/bin/env python3
"""Discrete categories get disjoint blocks; calendar structure gets cycles.

The interesting contrast: categorical features should share *nothing*, while
time features should overlap smoothly with their neighbors, including across
the week boundary.
"""

import datetime as dt

from sdrkit import CategoryEncoder, DatetimeEncoder, overlap, to_dense_string

print("=== unrelated categories: one dedicated block each ===")
pos = CategoryEncoder(["noun", "verb", "adjective"], w=8)
for label in pos.categories:
    print(f"{label:>10}  {to_dense_string(pos.encode(label))}")
print(f"overlap(noun, verb) = {overlap(pos.encode('noun'), pos.encode('verb'))}")

print()
print("=== unknown labels: fail loudly, or opt into a catch-all block ===")
try:
    pos.encode("adverb")
except Exception as exc:
    print(f"strict policy raised: {exc}")
lenient = CategoryEncoder(["noun", "verb"], w=8, unknown_policy="catch_all")
print(f"catch-all block: {to_dense_string(lenient.encode('adverb'))}")

print()
print("=== datetime: weekend block + cyclic day-of-week ===")
enc = DatetimeEncoder(weekend={"w": 10}, day_of_week={"n": 21, "w": 6})
print(f"total bits: {enc.n} (weekend 20 + day-of-week 21)")
week = [dt.datetime(2023, 1, d, 19, 30) for d in range(2, 9)]  # Mon..Sun
for t in week:
    print(f"{t:%a %H:%M}  {to_dense_string(enc.encode(t))}")

sat = enc.encode(dt.datetime(2023, 1, 7, 19, 30))
sun = enc.encode(dt.datetime(2023, 1, 8, 19, 30))
wed = enc.encode(dt.datetime(2023, 1, 4, 19, 30))
print(f"Sat vs Sun evening overlap: {overlap(sat, sun)} "
      "(weekend block + adjacent days)")
print(f"Sat vs Wed evening overlap: {overlap(sat, wed)}")

print()
print("=== the same instant always encodes identically ===")
t = dt.datetime(2024, 2, 29, 23, 59, 59)
assert enc.encode(t) == enc.encode(t)
print(f"{t.isoformat()} -> stable, leap day included")
