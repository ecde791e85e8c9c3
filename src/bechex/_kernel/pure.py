"""Pure-Python kernel backend.

Thin adapters over the reference implementations in bechex.codes and
bechex.lattice, working on byte-packed cell keys.  Used when the compiled
extension is unavailable or BECHEX_PURE is set; semantics match
bechex._kernel._fast exactly, only speed differs.  ``grow`` keeps only
hole-free children, by the one-arc rule, so no separate hole filter runs,
and keeps each of them only from its canonical parent.  Its checks come
in _fast.c's order, so both backends refuse the same keys.
"""

from __future__ import annotations

from .. import lattice
from ..codes import Code, canonical, convexity_deficit
from ..errors import NotClosed, ResourceLimit, SelfIntersecting
from .common import MAX_CELLS, MAX_GRID, check_edges, check_key, pack_cells, unpack_cells

__all__ = ["BACKEND", "code_deficit", "code_key", "fold", "grow", "survey", "trace_code"]

BACKEND = "python"


#: (dq, dr, bit) of the six neighbours, bit k of a ring mask for neighbour k.
_NEIGHBOURS = tuple((dq, dr, 1 << k) for k, (dq, dr) in enumerate(lattice.NEIGHBOR_OFFSETS))
#: Whether the occupied neighbours in a ring mask form one arc of 1 to 5
#: cells, so exactly one of them is followed counter-clockwise by a free
#: one: the cell can join or leave a benzenoid and keep it one.
_ONE_ARC = tuple(bin(m & ~(m >> 1 | m << 5) & 63).count("1") == 1 for m in range(64))
#: The neighbour offsets a ring mask marks occupied.
_OCCUPIED = tuple(tuple((dq, dr) for dq, dr, bit in _NEIGHBOURS if m & bit) for m in range(64))


def _ring(q: int, r: int, occupied) -> int:
    ring = 0
    for dq, dr, bit in _NEIGHBOURS:
        if (q + dq, r + dr) in occupied:
            ring |= bit
    return ring


def grow(parents) -> list:
    """Canonical keys of the hole-free one-cell extensions of hole-free
    shapes whose canonical parent is one of the shapes, each key once.

    A free neighbour c joins a parent P when its occupied neighbours form
    one arc.  The child K = P + c is kept when P is K's canonical parent
    (see _canonical_child), so no two parents share a child and repeats
    are dropped among one parent's children only.
    """
    out = []
    for key in parents:
        check_key(key)
        cells = unpack_cells(key)
        occupied = set(cells)
        rings = {cell: _ring(*cell, occupied) for cell in occupied}
        tried = set()
        kept = set()
        for q, r in cells:
            for dq, dr, _ in _NEIGHBOURS:
                cell = (q + dq, r + dr)
                if cell in rings or cell in tried:
                    continue
                tried.add(cell)
                ring = _ring(*cell, rings)
                if _ONE_ARC[ring]:
                    child = _canonical_child(cells + (cell,), rings, ring)
                    if child is not None and child not in kept:
                        kept.add(child)
                        out.append(child)
    return out


def _canonical_child(cells, parent_rings: dict, ring: int) -> bytes | None:
    """The key of cells when the parent, cells but the last one c (whose
    occupied neighbours are ring), is their canonical parent; else None.

    T is the set of removable cells of the least rank, (degree, sum of
    the occupied neighbours' degrees).  The parent is canonical when c is
    in T and some symmetry reaching the canonical form maps c onto the
    greatest (q, r) of T's image.
    """
    c = cells[-1]
    rings = dict(parent_rings)
    for k, (dq, dr, bit) in enumerate(_NEIGHBOURS):
        if ring & bit:
            rings[c[0] + dq, c[1] + dr] |= 1 << (k + 3) % 6
    rings[c] = ring
    degree = {cell: mask.bit_count() for cell, mask in rings.items()}

    def rank(cell, mask):
        q, r = cell
        return degree[cell], sum(degree[q + dq, r + dr] for dq, dr in _OCCUPIED[mask])

    least = rank(c, ring)
    top = [c]
    for cell, mask in rings.items():
        if _ONE_ARC[mask] and degree[cell] <= least[0] and cell != c:
            cell_rank = rank(cell, mask)
            if cell_rank < least:
                return None
            if cell_rank == least:
                top.append(cell)
    form, reaching = lattice._least_form(cells)
    key = pack_cells(form)  # refuses a form past the key's bytes, kept or not
    images = enumerate(lattice._symmetric_images(top))  # each lists T's image, c first
    if any(pts[0] == max(pts) for t, pts in images if t in reaching):
        return key
    return None


def trace_code(key: bytes) -> str:
    """Canonical boundary code of a connected hole-free packed shape."""
    check_key(key)
    return str(lattice._boundary_code(unpack_cells(key)))


def _symbols(code: str) -> tuple[int, ...] | None:
    """Symbols of a non-empty ASCII word over 1..5, else None."""
    if not isinstance(code, str):
        raise TypeError(f"a code must be str, not {type(code).__name__}")
    if not code or code.strip("12345"):
        return None
    symbols = tuple(map(int, code))
    check_edges(sum(symbols))
    return symbols


def code_deficit(code: str) -> int:
    """Convexity deficit of a digit string; -1 when undefined."""
    if code == "6":
        return 0
    symbols = _symbols(code)
    if symbols is None:
        raise ValueError(f"bad symbol in code: {code!r}")
    deficit = convexity_deficit(Code(symbols))
    return -1 if deficit is None else deficit


def fold(keys) -> tuple[list, bytes]:
    """(codes, deficits) of the keys: trace_code of each key, then
    code_deficit of its code, a key at a time; the deficits as bytes."""
    codes, deficits = [], bytearray()
    for code in map(trace_code, keys):
        codes.append(code)
        deficits.append(code_deficit(code))
    return codes, bytes(deficits)


def code_key(code: str) -> bytes | None:
    """Canonical key of the shape a code bounds; None when the string is
    not a benzenoid boundary code."""
    if code == "6":
        return pack_cells(((0, 0),))
    symbols = _symbols(code)
    if symbols is None:
        return None
    try:
        cells = lattice._fill(Code(symbols))
    except (NotClosed, SelfIntersecting):
        return None
    # _fast.c's checks and words: the grid first, as it sizes the C flood fill.
    qs, rs = [q for q, _ in cells], [r for _, r in cells]
    width, height = max(qs) - min(qs) + 3, max(rs) - min(rs) + 3
    if width * height > MAX_GRID:
        raise ResourceLimit(
            f"the shape of {code!r} needs a grid of {width} x {height} slots, above the limit of {MAX_GRID}"
        )
    if len(cells) > MAX_CELLS:
        raise ResourceLimit(f"the shape of {code!r} has more than {MAX_CELLS} cells")
    return pack_cells(lattice.canonical_cells(cells))


def survey(code: str) -> tuple[int, str, int]:
    """(deficit, canonical, hexagons) of a digit string, read off its walk:
    code_deficit, the greatest word over its rotations and reversal, and
    the hexagons the walk encloses; 0 when it does not close with winding
    6, -1 when it revisits a vertex."""
    deficit = code_deficit(code)
    if code == "6":
        return 0, "6", 1
    word = Code(tuple(map(int, code)))
    canon = str(canonical(word))
    try:
        boundary = lattice.walk(word)
    except NotClosed:
        return deficit, canon, 0
    if not boundary.simple:
        return deficit, canon, -1
    # In lattice coefficients the shoelace sum is twice the area in unit
    # rhombi, so 6 for each hexagon of three.
    points = boundary.vertices
    area = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(points, points[1:]))
    return deficit, canon, area // 6
