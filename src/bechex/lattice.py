"""Hexagonal-lattice geometry: walking, embedding and tracing boundaries.

Perimeter vertices live in the triangular lattice spanned by u = (1, 0)
and v = (1/2, sqrt(3)/2); a vertex is stored as its integer coefficient
pair (x, y).  Hexagon cells are addressed by axial coordinates (q, r);
two cells are adjacent exactly when their difference is one of the six
unit offsets.

The traversal convention is fixed throughout: boundaries are walked
counter-clockwise with the interior on the left, turning left by 60
degrees at perimeter vertices of degree 2 and right at vertices of
degree 3, so a closed simple boundary makes +6 net left turns.  Embedding
fills it from the hexagon left of each edge, never entering one on the right.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .codes import Code, Condensation, _code_condensation, canonical
from .errors import Disconnected, Holed, InvalidSymbols, NotClosed, ParamOutOfRange, SelfIntersecting

__all__ = [
    "Benzenoid",
    "BoundaryWalk",
    "Cell",
    "Condensation",
    "DIRECTIONS",
    "EDGE_NEIGHBOR_OFFSETS",
    "NEIGHBOR_OFFSETS",
    "Vertex",
    "canonical_cells",
    "condensation_class",
    "embed",
    "inner_dual",
    "is_simply_connected",
    "mirror_cells",
    "normalize_cells",
    "trace",
    "walk",
]

Vertex = tuple[int, int]
Cell = tuple[int, int]

#: Unit steps of the triangular vertex lattice, 60 degrees apart, CCW.
DIRECTIONS: tuple[Vertex, ...] = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))

#: Axial offsets of the six neighbours of a cell.  The same six pairs as
#: DIRECTIONS: the offset of the hexagon faced when a boundary edge walked
#: in direction k ends also works out to NEIGHBOR_OFFSETS[k].
NEIGHBOR_OFFSETS: tuple[Cell, ...] = DIRECTIONS

#: Axial offset of the cell across edge j, where edge j of a cell is the
#: one walked in direction j while the cell lies on the left.
EDGE_NEIGHBOR_OFFSETS: tuple[Cell, ...] = (
    (1, -1),
    (1, 0),
    (0, 1),
    (-1, 1),
    (-1, 0),
    (0, -1),
)


@dataclass(frozen=True, slots=True)
class BoundaryWalk:
    """Closed boundary walk: edge start vertices plus edge directions.

    ``vertices`` holds one entry per edge plus the repeated start vertex.
    """

    vertices: tuple[Vertex, ...]
    directions: tuple[int, ...]

    @property
    def simple(self) -> bool:
        """True when no lattice vertex is visited twice (start excepted)."""
        interior = self.vertices[:-1]
        return len(set(interior)) == len(interior)


@dataclass(frozen=True, slots=True)
class Benzenoid:
    """A validated benzenoid: normalised cells plus derived identity data."""

    cells: tuple[Cell, ...]
    code: Code
    hexagons: int
    condensation: Condensation


def _center_cell(center: Vertex) -> Cell:
    # Hexagon centres sit on the triangular sublattice (x - y) % 3 == 2;
    # cell (q, r) is centred at (2q + r + 1, r - q - 1).
    x, y = center
    q = (x - y - 2) // 3
    return (q, x - 1 - 2 * q)


def walk(code: Code) -> BoundaryWalk:
    """Walk a code from (0, 0) in direction 0: each symbol s advances one
    edge then turns left, s - 1 times, then advances one edge and turns
    right.  Raises NotClosed unless the walk returns to the start vertex
    with exactly +6 net left turns (equivalently, winding 6)."""
    if code.is_benzene:
        raise InvalidSymbols("the benzene code has no degree-3 vertices to walk")
    x = y = 0
    turn = 0  # net left turns, not reduced mod 6
    vertices = [(0, 0)]
    directions = []
    for s in code.symbols:
        for step in range(s):
            d = turn % 6
            dx, dy = DIRECTIONS[d]
            directions.append(d)
            x += dx
            y += dy
            vertices.append((x, y))
            turn += 1 if step < s - 1 else -1
    if (x, y) != (0, 0) or turn != 6:
        raise NotClosed(
            f"walk of {code} ends at {(x, y)} with {turn} net left turns"
        )
    return BoundaryWalk(tuple(vertices), tuple(directions))


def embed(code: Code) -> Benzenoid:
    """Realise a code as a benzenoid cell set: walk it, then fill it.

    Accepts either traversal orientation; a reversed code yields the
    mirror-image cell set.  Raises NotClosed when the walk fails to close
    and SelfIntersecting when it revisits a vertex (helicene-like codes).
    """
    if code.is_benzene:
        return Benzenoid(((0, 0),), code, 1, Condensation.CATACONDENSED_UNBRANCHED)
    cells = _fill(code)
    canon = canonical(code)
    return Benzenoid(cells, canon, len(cells), _code_condensation(str(canon), len(cells)))


def _fill(code: Code) -> tuple[Cell, ...]:
    """Normalised cells enclosed by the boundary walk of a non-benzene code.

    A hexagon is the integer (x + span) * base + y + span of its centre
    (x, y).  No centre has |x| or |y| above span, so no two ids clash.
    """
    w = walk(code)
    if not w.simple:
        raise SelfIntersecting(f"boundary of {code} revisits a lattice vertex")
    span = len(w.directions) + 1
    base = 2 * span + 1
    shift = span * base + span
    # Walking from vertex a in direction d, the centre a + DIRECTIONS[d + 1]
    # lies on the left and a + DIRECTIONS[d - 1] on the right.
    left = [dx * base + dy + shift for dx, dy in DIRECTIONS[1:] + DIRECTIONS[:1]]
    right = [dx * base + dy + shift for dx, dy in DIRECTIONS[5:] + DIRECTIONS[:5]]
    inside, outside = set(), set()
    for (x, y), d in zip(w.vertices, w.directions):
        vertex = x * base + y
        inside.add(vertex + left[d])
        outside.add(vertex + right[d])
    steps = [(2 * dq + dr) * base + dr - dq for dq, dr in NEIGHBOR_OFFSETS]  # neighbour centres
    seen = inside | outside
    frontier = inside
    while frontier:  # each round adds the unseen neighbours of the last
        frontier = {i + step for i in frontier for step in steps} - seen
        seen |= frontier
    # divmod gives (x + span, y + span): each cell moves by span in r alone.
    return normalize_cells([_center_cell(divmod(i, base)) for i in seen - outside])


def normalize_cells(cells) -> tuple[Cell, ...]:
    """Translate so the least q and least r are 0; return sorted cells."""
    cells = tuple(cells)
    if not cells:
        raise ParamOutOfRange("empty cell set")
    min_q = min(q for q, _ in cells)
    min_r = min(r for _, r in cells)
    return tuple(sorted((q - min_q, r - min_r) for q, r in cells))


def _is_connected(cells: set[Cell]) -> bool:
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        q, r = stack.pop()
        for dq, dr in NEIGHBOR_OFFSETS:
            nb = (q + dq, r + dr)
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cells)


def is_simply_connected(cells) -> bool:
    """True when the complement has a single (unbounded) component.

    Flood-fills the complement inside a one-cell margin around the
    bounding box; any complement cell left unreached sits in a hole.
    """
    cell_set = set(cells)
    if not cell_set:
        raise ParamOutOfRange("empty cell set")
    min_q = min(q for q, _ in cell_set) - 1
    max_q = max(q for q, _ in cell_set) + 1
    min_r = min(r for _, r in cell_set) - 1
    max_r = max(r for _, r in cell_set) + 1
    seen = {(min_q, min_r)}
    stack = [(min_q, min_r)]
    while stack:
        q, r = stack.pop()
        for dq, dr in NEIGHBOR_OFFSETS:
            nb = (q + dq, r + dr)
            if (
                min_q <= nb[0] <= max_q
                and min_r <= nb[1] <= max_r
                and nb not in cell_set
                and nb not in seen
            ):
                seen.add(nb)
                stack.append(nb)
    total = (max_q - min_q + 1) * (max_r - min_r + 1)
    return len(seen) == total - len(cell_set)


def trace(cells) -> Code:
    """Boundary-edges code of a cell set, in canonical form.

    Raises Disconnected or Holed when the set is not a benzenoid.
    """
    norm = normalize_cells(cells)
    if not _is_connected(set(norm)):
        raise Disconnected("cells do not form an edge-connected set")
    if not is_simply_connected(norm):
        raise Holed("cell set surrounds at least one hole")
    return _boundary_code(norm)


def _boundary_code(norm: tuple[Cell, ...]) -> Code:
    """Trace the perimeter of a connected hole-free normalised cell set."""
    if len(norm) == 1:
        return Code((6,))
    cell_set = set(norm)
    start_cell = norm[0]  # least cell is always on the boundary
    sides = [j for j, (dq, dr) in enumerate(EDGE_NEIGHBOR_OFFSETS)
             if (start_cell[0] + dq, start_cell[1] + dr) not in cell_set]
    if not sides:  # the first cell of an unsorted key may be enclosed
        raise ValueError("start cell has no boundary edge")
    j0 = sides[0]
    # State (cell, k): the boundary edge walked in direction k with `cell`
    # interior on the left.  At the edge's far vertex the hexagon straight
    # ahead decides the turn: present = right turn (degree-3 vertex, the
    # symbol boundary), absent = left turn.
    cell, k = start_cell, j0
    turns: list[bool] = []
    limit = 6 * len(norm) + 6
    while True:
        dq, dr = NEIGHBOR_OFFSETS[k]
        ahead = (cell[0] + dq, cell[1] + dr)
        if ahead in cell_set:
            turns.append(True)
            cell, k = ahead, (k - 1) % 6
        else:
            turns.append(False)
            k = (k + 1) % 6
        if (cell, k) == (start_cell, j0):
            break
        if len(turns) > limit:
            raise RuntimeError("perimeter walk failed to terminate")
    m = len(turns)
    if True not in turns:  # six left turns: the start cell is alone, the cells not connected
        raise ValueError("start cell touches no other cell")
    first = turns.index(True)
    symbols = []
    run = 0
    for i in range(first + 1, first + 1 + m):
        run += 1
        if turns[i % m]:
            symbols.append(run)
            run = 0
    return canonical(Code(tuple(symbols)))


def inner_dual(cells) -> dict[Cell, tuple[Cell, ...]]:
    """Adjacency map of cells sharing an edge (the hexagon-fusion graph)."""
    cell_set = set(cells)
    dual = {}
    for q, r in sorted(cell_set):
        dual[(q, r)] = tuple(
            sorted(
                (q + dq, r + dr)
                for dq, dr in NEIGHBOR_OFFSETS
                if (q + dq, r + dr) in cell_set
            )
        )
    return dual


def condensation_class(cells) -> Condensation:
    """Classify by the inner dual: cyclic = pericondensed, otherwise a
    tree; a tree with a degree-3 node is branched, else unbranched."""
    norm = normalize_cells(set(cells))
    if not _is_connected(set(norm)):
        raise Disconnected("cells do not form an edge-connected set")
    degrees = [len(neighbours) for neighbours in inner_dual(norm).values()]
    if sum(degrees) // 2 > len(norm) - 1:
        return Condensation.PERICONDENSED
    if max(degrees) > 2:
        return Condensation.CATACONDENSED_BRANCHED
    return Condensation.CATACONDENSED_UNBRANCHED


def mirror_cells(cells) -> tuple[Cell, ...]:
    """The reflected cell set, normalised."""
    return normalize_cells((q, -q - r) for q, r in cells)


def _symmetric_images(cells):
    """Yield the cells under each of the 12 point symmetries of the
    lattice (6 rotations, each optionally mirrored), as lists in the
    order given."""
    for pts in (list(cells), [(q, -q - r) for q, r in cells]):
        for _ in range(6):
            pts = [(-r, q + r) for q, r in pts]
            yield pts


def canonical_cells(cells) -> tuple[Cell, ...]:
    """Least normalised form over the 12 point symmetries of the lattice;
    the key for isomorph tests."""
    return _least_form(cells)[0]


def _least_form(cells) -> tuple[tuple[Cell, ...], list[int]]:
    """The least normalised sorted form of cells over the 12 point
    symmetries, and the positions, in _symmetric_images order, of the
    symmetries that reach it.

    A sorted form starts with its least cell, so only the images whose
    least cell, once normalised, ties the least of all are sorted.
    """
    cells = tuple(cells)
    if not cells:
        raise ParamOutOfRange("empty cell set")
    images = []
    for pts in _symmetric_images(cells):
        (min_q, r), min_r = min(pts), min(pts, key=itemgetter(1))[1]
        images.append((r - min_r, min_q, min_r, pts))
    least = min(lead for lead, *_ in images)
    forms = {t: tuple(sorted((q - min_q, r - min_r) for q, r in pts))
             for t, (lead, min_q, min_r, pts) in enumerate(images) if lead == least}
    best = min(forms.values())
    return best, [t for t, form in forms.items() if form == best]
