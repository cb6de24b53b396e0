"""Summed-area tables and the two coordinate-set strategies.

Run with:  python3 demos/integral_images.py

Shows how rectangle sums cost four lookups once the prefix table is
built, then walks the geometry of the sliding and regional strategies
that decide which rectangle each lattice position pools over.
"""

import numpy as np

from msar import CoordinateSetSpec, build_sat, coordinate_set, rect_sum, region_avg_pool

print("== rectangle sums from a prefix table ==")
x = np.arange(24, dtype=np.float64).reshape(1, 4, 6)
print("map (1 channel, 4x6):")
print(x[0])
sat = build_sat(x)
total = rect_sum(sat, 0, 1, 2, 2, 4)
print(f"sum of rows 1..2, cols 2..4 via four lookups: {total}")
print(f"same region summed naively:                   {x[0, 1:3, 2:5].sum()}")

print()
print("== sliding strategy: one clipped square window per position ==")
spec = CoordinateSetSpec("sliding", 2, 32, 32)
print(f"32x32 lattice at scale K=2: window half-width floor(sqrt(32*32)/2) = {spec.radius}")
for (w, h) in [(0, 0), (16, 16), (31, 31)]:
    (h1, h2, w1, w2), count = coordinate_set(spec, w, h)
    print(f"  window at ({w:2d},{h:2d}): rows {h1:2d}..{h2:2d}, cols {w1:2d}..{w2:2d}, {count} positions")
print("corner windows are smaller because they are clipped at the border")

print()
print("== regional strategy: a KxK partition shared by each cell ==")
spec = CoordinateSetSpec("regional", 2, 8, 8)
cells = set()
for h in range(8):
    for w in range(8):
        cells.add(coordinate_set(spec, w, h)[0])
print(f"8x8 lattice at K=2 has {len(cells)} distinct cells:")
for rect in sorted(cells):
    print(f"  rows {rect[0]}..{rect[1]}, cols {rect[2]}..{rect[3]}")

print()
print("== pooled vectors ==")
x = np.zeros((1, 8, 8))
x[0, :4, :4] = 1.0     # light up the top-left quadrant
pooled = region_avg_pool(x, spec)
print("quadrant means of a map that is 1 in the top-left quadrant and 0 elsewhere:")
print(pooled.ravel())
print("regional pooling yields K*K vectors; sliding would yield one per position")
