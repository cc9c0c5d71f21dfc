#!/usr/bin/env python3
"""Positions on an unbounded grid, hashed into a fixed number of bits.

Shows the fixed-neighborhood encoder, the top-w subsample with its stable
per-cell order keys, the speed-adaptive radius, and the GPS adapter.
"""

from sdrkit import (
    GeospatialEncoder,
    coordinate_hash,
    gps_to_grid,
    neighborhood,
    overlap,
)

print("=== every cell hashes to a bit index and an order key, on demand ===")
for cell in [(5, 10), (6, 10), (-3, 7)]:
    bit, key = coordinate_hash(cell, seed=0, n=100)
    print(f"cell {cell!r:>10}: bit {bit:>3}, order key {key / 2**64:.6f}")

print()
print("=== fixed variant: all 25 cells of a radius-2 neighborhood ===")
enc = GeospatialEncoder(n=1000, radius=2, seed=0)
here = enc.encode((5, 10))
step = enc.encode((6, 10))
far = enc.encode((500, 500))
print(f"cells around (5,10): {neighborhood((5, 10), 2)[:5]} ... (25 total)")
print(f"one-bits here: {here.active_count} of {enc.w} "
      "(rarely fewer, from hash collisions)")
print(f"overlap after a 1-cell move:   {overlap(here, step)} (20/25 cells shared)")
print(f"overlap with a far position:   {overlap(here, far)}")

print()
print("=== top-w subsample: 15 highest-order-key cells of the 25 ===")
topw = GeospatialEncoder(n=1000, radius=2, variant="topw", w=15, seed=0,
                         radius_min=2, radius_max=6, speed_scale=0.1)
here = topw.encode((5, 10))
moved = topw.encode((7, 10))
print(f"one-bits here: {here.active_count} of {topw.w}")
print(f"overlap with the encoding 2 cells away: {overlap(here, moved)} of 15"
      " (order keys are fixed per cell, so selections agree where they overlap)")

print()
print("=== speed grows the radius, so 'near' scales with velocity ===")
for speed in (0, 10, 20, 40, 100):
    print(f"speed {speed:>4}: radius {topw.radius_from_speed(speed)}")
slow = topw.encode(((0, 0), 0))
fast = topw.encode(((0, -4), 20))     # 4 cells away but moving fast
crawl = topw.encode(((0, -4), 0))      # same move while slow
print(f"4-cell move at speed 20: overlap {overlap(slow, fast)} (still related)")
print(f"4-cell move at speed  0: overlap {overlap(slow, crawl)}")

print()
print("=== GPS to grid cells (spherical mercator, 3.048 m cells) ===")
sf = gps_to_grid(37.7749, -122.4194, 3.048)
sf_next_door = gps_to_grid(37.77492, -122.41939, 3.048)
sydney = gps_to_grid(-33.8688, 151.2093, 3.048)
print(f"San Francisco -> {sf}")
print(f"2 meters away  -> {sf_next_door}")
print(f"Sydney         -> {sydney}")
geo = GeospatialEncoder(n=2048, radius=2, seed=0)
print(f"SF vs next door overlap: {overlap(geo.encode(sf), geo.encode(sf_next_door))}")
print(f"SF vs Sydney overlap:    {overlap(geo.encode(sf), geo.encode(sydney))}")
