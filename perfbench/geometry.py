"""Boundary-edges-code geometry written apart from bechex.

The benchmark checks the program against these functions, so none of
them imports bechex.  Each one follows the definition directly rather
than the program's algorithm:

* a code is a string of digits; benzene is ``"6"``;
* the walk of a code starts at (0, 0) heading in direction 0 and, for
  each symbol s, steps s edges, turning left after each of the first
  s - 1 steps and right after the last one;
* the convexity deficit is the least k >= 0 such that every cyclic
  window of k + 1 symbols has average at least 2;
* the canonical form is the greatest word over all rotations of the
  code and of its reversal.

Vertices are integer coefficient pairs (x, y) in the basis u = (1, 0),
v = (1/2, sqrt(3)/2) of the triangular lattice.  Hexagons are addressed
by axial pairs (q, r); cell (q, r) has its centre at q*(2, -1) + r*(1, 1),
and its corners are the centre plus each unit step.
"""

from __future__ import annotations

from fractions import Fraction

#: Unit steps of the triangular lattice, counter-clockwise.
STEPS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))

#: Axial offsets of the six neighbours of a hexagon.
NEIGHBOURS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def walk(code: str) -> list[tuple[int, int]] | None:
    """Vertices visited by the walk of ``code``, start vertex repeated at
    the end; None when the walk does not return to its start heading in
    its start direction."""
    x = y = heading = 0
    vertices = [(0, 0)]
    for ch in code:
        s = int(ch)
        for step in range(s):
            dx, dy = STEPS[heading % 6]
            x, y = x + dx, y + dy
            vertices.append((x, y))
            heading += 1 if step < s - 1 else -1
    if (x, y) != (0, 0) or heading != 6:
        return None
    return vertices


def revisits_vertex(code: str) -> bool:
    """True when the closed walk of ``code`` passes a vertex twice."""
    vertices = walk(code)
    if vertices is None:
        raise ValueError(f"walk of {code} does not close")
    inner = vertices[:-1]
    return len(set(inner)) != len(inner)


def shoelace_hexagons(code: str) -> Fraction:
    """Area enclosed by the walk of ``code``, in hexagons.

    Twice the area of a unit triangle is 1 in lattice coefficients and a
    hexagon is six triangles, so the shoelace sum is divided by 6.
    """
    if code == "6":
        return Fraction(1)
    vertices = walk(code)
    if vertices is None:
        raise ValueError(f"walk of {code} does not close")
    twice = sum(
        x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])
    )
    return Fraction(abs(twice), 6)


def winding(code: str) -> int:
    return sum(map(int, code)) - 2 * len(code)


def deficit(code: str) -> int | None:
    """Least k with every cyclic (k+1)-window averaging at least 2, by
    scanning every window of every width from 1 up.  A window of width w
    averages at least 2 exactly when its sum is at least 2w.  None when
    no width qualifies."""
    if code == "6":
        return 0
    syms = [int(ch) for ch in code]
    n = len(syms)
    prefix = [0]
    for s in syms + syms:
        prefix.append(prefix[-1] + s)
    for width in range(1, n + 1):
        if all(prefix[i + width] - prefix[i] >= 2 * width for i in range(n)):
            return width - 1
    return None


def canonical(code: str) -> str:
    """Greatest rotation of the code or of its reversal."""
    words = (code, code[::-1])
    return max(w[i:] + w[:i] for w in words for i in range(len(code)))


def condensation(code: str) -> str:
    """Condensation class of a benzenoid from its code alone.

    A benzenoid with h hexagons and perimeter p has (4h + 2 - p) / 2
    internal vertices, so it is catacondensed exactly when p = 4h + 2.
    A catacondensed benzenoid's inner dual is a tree whose leaves are the
    hexagons with five boundary edges in a row, one symbol 5 each, so it
    is branched exactly when the code has more than two 5s.
    """
    if code == "6":
        return "catacondensed-unbranched"
    h = shoelace_hexagons(code)
    if sum(map(int, code)) != 4 * h + 2:
        return "pericondensed"
    return "catacondensed-branched" if code.count("5") > 2 else "catacondensed-unbranched"


def _centre(cell: tuple[int, int]) -> tuple[int, int]:
    q, r = cell
    return (2 * q + r, -q + r)


def boundary_code(cells) -> str | None:
    """Code of a connected cell set read off its boundary, or None when
    the set has a hole (its boundary edges form more than one cycle).

    Every edge of a hexagon, taken counter-clockwise, is a boundary edge
    when the hexagon across it is absent; following the boundary edges
    end to start gives the outer cycle, and a symbol is the number of
    edges from one right turn to the next.
    """
    cells = set(cells)
    if len(cells) == 1:
        return "6"
    centres = {_centre(c) for c in cells}
    out_edge = {}
    for cx, cy in centres:
        for k in range(6):
            (ax, ay), (bx, by) = STEPS[k], STEPS[(k + 1) % 6]
            if (cx + ax + bx, cy + ay + by) in centres:
                continue
            out_edge[(cx + ax, cy + ay)] = ((cx + bx, cy + by), (k + 2) % 6)
    start = min(out_edge)
    directions = []
    vertex = start
    while True:
        vertex, direction = out_edge[vertex]
        directions.append(direction)
        if vertex == start:
            break
    if len(directions) != len(out_edge):
        return None
    n = len(directions)
    right = [(directions[(i + 1) % n] - directions[i]) % 6 == 5 for i in range(n)]
    first = right.index(True)
    symbols = []
    run = 0
    for i in range(first + 1, first + 1 + n):
        run += 1
        if right[i % n]:
            symbols.append(run)
            run = 0
    return "".join(map(str, symbols))
