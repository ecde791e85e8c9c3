"""Pure-Python kernel backend.

Thin adapters over the reference implementations in bechex.codes and
bechex.lattice, working on byte-packed cell keys.  Used when the compiled
extension is unavailable or BECHEX_PURE is set; semantics match
bechex._kernel._fast exactly, only speed differs.  ``grow`` keeps only
hole-free children, by the one-arc rule, so no separate hole filter runs.
"""

from __future__ import annotations

from .. import lattice
from ..codes import Code, convexity_deficit
from ..errors import NotClosed, SelfIntersecting
from .common import check_edges, check_key, pack_cells, unpack_cells

__all__ = ["BACKEND", "code_deficit", "code_key", "grow", "trace_code"]

BACKEND = "python"


def grow(parents) -> set:
    """Canonical keys of the hole-free one-cell extensions of hole-free
    shapes: a free neighbour joins when its occupied neighbours form one
    arc, so exactly one of them is followed counter-clockwise by a free one."""
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
                ring = [(nb[0] + a, nb[1] + b) in cell_set for a, b in lattice.NEIGHBOR_OFFSETS]
                if sum(ring[j - 1] and not ring[j] for j in range(6)) == 1:
                    out.add(pack_cells(lattice.canonical_cells(cells + (nb,))))
    return out


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
    check_key(pack_cells(cells))
    return pack_cells(lattice.canonical_cells(cells))
