"""Reference counts of free simply connected polyhexes, computed naively.

This module is an independent check on the package's enumeration engine
and deliberately shares no code with it.  It works in cube coordinates
(x + y + z = 0) and grows FREE shapes (distinct up to translation,
rotation and reflection) level by level: every shape of size n + 1 is a
shape of size n plus one neighbouring cell, and each is stored once, as
its canonical form.  Shapes enclosing holes stay in the levels, so no
shape is lost for lack of a hole-free parent; a bounding-box flood fill
picks out the hole-free ones to count.  The convex benzenoids, those
of convexity deficit 0, are also built directly from their bounds, with
no growth, and kept once each the same way.

Run as a script to print the counts table:

    python tests/oracle_polyhex.py 8
"""

from __future__ import annotations

import sys
from itertools import permutations

# the six cube-coordinate unit steps of the hexagonal tiling
STEPS = (
    (1, -1, 0),
    (1, 0, -1),
    (0, 1, -1),
    (-1, 1, 0),
    (-1, 0, 1),
    (0, -1, 1),
)

# the 12 lattice symmetries fixing a cell: permute the cube coordinates,
# then keep or negate all three
SYMMETRIES = [(p, s) for p in permutations(range(3)) for s in (1, -1)]


def _canonical(cells):
    """The least sorted translate, moved to start at the origin, over the
    shape's 12 images."""
    forms = []
    for (i, j, k), s in SYMMETRIES:
        image = sorted((s * c[i], s * c[j], s * c[k]) for c in cells)
        x0, y0, z0 = image[0]
        forms.append(tuple((x - x0, y - y0, z - z0) for x, y, z in image))
    return min(forms)


def _has_hole(shape):
    """Flood the complement of the bounding box; uncovered cells are holes."""
    xs = [c[0] for c in shape]
    zs = [c[2] for c in shape]
    x_lo, x_hi = min(xs) - 1, max(xs) + 1
    z_lo, z_hi = min(zs) - 1, max(zs) + 1

    def inside(x, z):
        return x_lo <= x <= x_hi and z_lo <= z <= z_hi

    occupied = {(x, z) for x, _, z in shape}
    total_free = (x_hi - x_lo + 1) * (z_hi - z_lo + 1) - len(occupied)
    seen = {(x_lo, z_lo)}
    stack = [(x_lo, z_lo)]
    while stack:
        x, z = stack.pop()
        for dx, _, dz in STEPS:
            nxt = (x + dx, z + dz)
            if inside(*nxt) and nxt not in occupied and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) != total_free


def _grow(level):
    """Canonical forms of every shape one cell larger than a shape of level."""
    grown = set()
    for shape in level:
        around = {(x + dx, y + dy, z + dz) for x, y, z in shape for dx, dy, dz in STEPS}
        for cell in around.difference(shape):
            grown.add(_canonical(shape + (cell,)))
    return grown


def free_simply_connected_counts(n_max):
    """free benzenoid count per h, h = 1..n_max."""
    level = {((0, 0, 0),)}
    counts = [1]
    for _ in range(2, n_max + 1):
        level = _grow(level)
        counts.append(sum(not _has_hole(shape) for shape in level))
    return counts


def convex_shapes(n_max):
    """The convex benzenoids of h = 1..n_max hexagons by construction, as
    {h: canonical forms}: the cells (q, r) with 0 <= q <= a, 0 <= r <= b
    and c <= q + r <= d, cut out by three pairs of parallel lattice lines.

    Cell (q, r) is (q, -q - r, r) in cube coordinates.  Bounds that no
    cell meets give the shape of tighter ones again, and a convex shape
    spans at least one more cell than each of its widths a, b and d - c.
    """
    shapes = {h: set() for h in range(1, n_max + 1)}
    for a in range(n_max):
        for b in range(n_max):
            for c in range(a + b + 1):
                for d in range(c, min(c + n_max, a + b + 1)):
                    cells = [
                        (q, -q - r, r)
                        for q in range(a + 1)
                        for r in range(max(0, c - q), min(b, d - q) + 1)
                    ]
                    if 0 < len(cells) <= n_max:
                        shapes[len(cells)].add(_canonical(cells))
    return shapes


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    for h, c in enumerate(free_simply_connected_counts(n), start=1):
        print(h, c)
