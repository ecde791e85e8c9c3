"""Byte-packed cell keys and the size limits shared by both kernel backends.

A key is the normalised, sorted cell list written as one (q, r) byte pair
per cell.  Normalised coordinates of any shape small enough to enumerate
fit comfortably in a byte.

Both backends refuse input above the limits below with ResourceLimit;
the compiled one reads them from here when it is imported.
"""

from __future__ import annotations

from itertools import chain

from ..errors import ResourceLimit

#: Cells in a key.
MAX_CELLS = 250
#: Slots of a key's occupancy grid, (max q + 3) * (max r + 3): its
#: bounding box from (0, 0) plus a one-cell margin.
MAX_GRID = 68 * 68
#: Boundary edges of a code, the sum of its symbols.
MAX_PERIMETER = 1024


def check_key(key: bytes) -> None:
    """Raise ValueError for a malformed key, ResourceLimit for one above
    the limits."""
    if not key or len(key) % 2:
        raise ValueError("malformed cell key")
    if len(key) // 2 > MAX_CELLS:
        raise ResourceLimit(f"a key of {len(key) // 2} cells exceeds the limit of {MAX_CELLS}")
    width, height = max(key[0::2]) + 3, max(key[1::2]) + 3
    if width * height > MAX_GRID:
        raise ResourceLimit(
            f"a key's grid of {width} x {height} slots exceeds the limit of {MAX_GRID}"
        )


def check_edges(edges: int) -> None:
    """Raise ResourceLimit for a code of more than MAX_PERIMETER edges."""
    if edges > MAX_PERIMETER:
        raise ResourceLimit(f"a code of {edges} edges exceeds the limit of {MAX_PERIMETER}")


def pack_cells(cells) -> bytes:
    """Normalise, sort and pack cells into a key."""
    cells = tuple(cells)
    min_q = min(q for q, _ in cells)
    min_r = min(r for _, r in cells)
    pairs = sorted((q - min_q, r - min_r) for q, r in cells)
    if pairs[-1][0] > 255 or max(r for _, r in pairs) > 255:
        raise ValueError("cell coordinates exceed the packed-key range")
    return bytes(chain.from_iterable(pairs))


def unpack_cells(key: bytes) -> tuple[tuple[int, int], ...]:
    return tuple((key[i], key[i + 1]) for i in range(0, len(key), 2))
