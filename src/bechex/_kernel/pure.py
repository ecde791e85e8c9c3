"""Pure-Python kernel backend.

Thin adapters over the reference implementations in bechex.codes and
bechex.lattice, working on byte-packed cell keys.  Used when the compiled
extension is unavailable or BECHEX_PURE is set; semantics match
bechex._kernel._fast exactly, only speed differs.
"""

from __future__ import annotations

from .. import lattice
from ..codes import Code, convexity_deficit, parse_code
from ..errors import InvalidSymbols, NotClosed, SelfIntersecting
from .common import check_edges, check_key, pack_cells, unpack_cells

BACKEND = "python"


def canonical_key(key: bytes) -> bytes:
    check_key(key)
    return pack_cells(lattice.canonical_cells(unpack_cells(key)))


def grow(parents) -> set:
    """Canonical keys of every one-cell extension of the given shapes."""
    out = set()
    for key in parents:
        check_key(key)
        cells = unpack_cells(key)
        cell_set = set(cells)
        tried = set()
        for q, r in cells:
            for dq, dr in lattice.NEIGHBOR_OFFSETS:
                nb = (q + dq, r + dr)
                if nb in cell_set or nb in tried:
                    continue
                tried.add(nb)
                out.add(pack_cells(lattice.canonical_cells(cells + (nb,))))
    return out


def simply_connected(key: bytes) -> bool:
    check_key(key)
    return lattice.is_simply_connected(unpack_cells(key))


def trace_code(key: bytes) -> str:
    """Canonical boundary code of a connected hole-free packed shape."""
    check_key(key)
    return str(lattice._boundary_code(unpack_cells(key)))


def code_deficit(code: str) -> int:
    """Convexity deficit of a digit string; -1 when undefined."""
    parsed = Code(tuple(int(ch) for ch in code))
    if not parsed.is_benzene:
        check_edges(sum(parsed.symbols))
    deficit = convexity_deficit(parsed)
    return -1 if deficit is None else deficit


def code_key(code: str) -> bytes | None:
    """Canonical key of the shape a code bounds; None when the string is
    not a benzenoid boundary code."""
    if code == "6":
        return pack_cells(((0, 0),))
    if code != code.strip():  # parse_code would forgive the whitespace
        return None
    try:
        parsed = parse_code(code)
        check_edges(sum(parsed.symbols))
        cells = lattice._fill(parsed)
    except (InvalidSymbols, NotClosed, SelfIntersecting):
        return None
    return canonical_key(pack_cells(cells))
