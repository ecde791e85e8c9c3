"""Lattice walks, embeddings, tracing and cell-set symmetry."""

import cmath
import random

import pytest

from bechex import _kernel as kernel
from bechex.codes import BENZENE, Code, canonical, is_k_convex, parse_code, reverse
from bechex.enumeration import _levels, check_unimodal, enumerate_unbranched_fusenes
from bechex.errors import (
    Disconnected,
    Holed,
    InvalidSymbols,
    NotClosed,
    ParamOutOfRange,
    SelfIntersecting,
)
from bechex.families import helicene
from bechex.lattice import (
    DIRECTIONS,
    EDGE_NEIGHBOR_OFFSETS,
    NEIGHBOR_OFFSETS,
    Condensation,
    canonical_cells,
    condensation_class,
    embed,
    inner_dual,
    is_simply_connected,
    mirror_cells,
    normalize_cells,
    trace,
    _symmetric_images,
    walk,
)

RING = tuple((1 + dq, 1 + dr) for dq, dr in NEIGHBOR_OFFSETS)  # hole at (1, 1)

#: Every shape through this size is embedded from its code in the
#: differential tests below.
DIFF_DEPTH = 8


def _reference_cells(code):
    """Cells of a simple closed walk by the earlier fill: from the cell on
    the left of each boundary edge, flood across every cell edge that is
    not a boundary edge, the cell's corners found from its centre."""
    w = walk(code)
    boundary = set()
    cells = set()
    for (x, y), d in zip(w.vertices, w.directions):
        boundary.add(frozenset(((x, y), (x + DIRECTIONS[d][0], y + DIRECTIONS[d][1]))))
        cx, cy = x + DIRECTIONS[(d + 1) % 6][0], y + DIRECTIONS[(d + 1) % 6][1]
        q = (cx - cy - 2) // 3
        cells.add((q, cx - 1 - 2 * q))
    stack = list(cells)
    while stack:
        q, r = stack.pop()
        cx, cy = 2 * q + r + 1, r - q - 1
        corners = [
            (cx + DIRECTIONS[(4 + j) % 6][0], cy + DIRECTIONS[(4 + j) % 6][1]) for j in range(6)
        ]
        for j, (dq, dr) in enumerate(EDGE_NEIGHBOR_OFFSETS):
            if frozenset((corners[j], corners[(j + 1) % 6])) in boundary:
                continue
            if (q + dq, r + dr) not in cells:
                cells.add((q + dq, r + dr))
                stack.append((q + dq, r + dr))
    return normalize_cells(cells)


def _dual_class(cells):
    """Condensation class from inner-dual degrees counted pair by pair."""
    cells = list(cells)
    degree = {cell: 0 for cell in cells}
    edges = 0
    for i, (q1, r1) in enumerate(cells):
        for q2, r2 in cells[i + 1 :]:
            if (q2 - q1, r2 - r1) in NEIGHBOR_OFFSETS:
                edges += 1
                degree[(q1, r1)] += 1
                degree[(q2, r2)] += 1
    if edges > len(cells) - 1:
        return Condensation.PERICONDENSED
    if max(degree.values()) > 2:
        return Condensation.CATACONDENSED_BRANCHED
    return Condensation.CATACONDENSED_UNBRANCHED


def _closes(symbols) -> bool:
    """Whether a word's edges, as unit vectors in the complex plane, sum
    to zero with six net left turns."""
    turn, end = 0, 0j
    for s in symbols:
        for step in range(s):
            end += cmath.exp(1j * cmath.pi * turn / 3)
            turn += 1 if step < s - 1 else -1
    return turn == 6 and abs(end) < 1e-9


@pytest.fixture(scope="module")
def shapes():
    """(h, canonical key, canonical code) of every shape through DIFF_DEPTH."""
    return [
        (h, key, parse_code(kernel.trace_code(key)))
        for h, keys, _ in _levels(DIFF_DEPTH)
        for key in keys
    ]


class TestWalk:
    def test_naphthalene_walk_closes(self):
        w = walk(parse_code("55"))
        assert w.vertices[0] == w.vertices[-1] == (0, 0)
        assert len(w.directions) == 10  # one step per boundary edge
        assert w.simple

    def test_rejects_benzene_and_single_symbols(self):
        with pytest.raises(InvalidSymbols):
            walk(BENZENE)
        with pytest.raises(NotClosed):  # a single 1..5 symbol can never close
            walk(parse_code("5"))

    @pytest.mark.parametrize("raw", ["535151", "444444", "111111", "22222222"])
    def test_not_closed(self, raw):
        with pytest.raises(NotClosed):
            walk(parse_code(raw))

    def test_walk_length_is_sum_of_symbols(self):
        c = parse_code("53335111")
        assert len(walk(c).directions) == sum(c.symbols)


class TestEmbed:
    def test_benzene(self):
        b = embed(BENZENE)
        assert b.cells == ((0, 0),)
        assert b.hexagons == 1

    @pytest.mark.parametrize(
        "raw,h,cells",
        [
            ("55", 2, ((0, 0), (0, 1))),
            ("444", 3, ((0, 1), (1, 0), (1, 1))),
            ("5252", 3, ((0, 0), (0, 1), (0, 2))),
            ("4343", 4, ((0, 0), (0, 1), (1, 0), (1, 1))),
        ],
    )
    def test_known_cell_sets(self, raw, h, cells):
        b = embed(parse_code(raw))
        assert b.hexagons == h
        assert b.cells == cells

    def test_code_field_is_canonical(self):
        b = embed(parse_code("1535"))
        assert str(b.code) == "5351"

    def test_reversed_code_gives_mirror_image(self):
        a = embed(parse_code("5351")).cells
        b = embed(parse_code("1535")).cells  # the same word read backwards
        assert mirror_cells(a) == b

    def test_self_intersecting(self):
        with pytest.raises(SelfIntersecting):
            embed(helicene(6))

    def test_pericondensed_fill(self):
        # coronene: boundary 333333 encloses a seventh, interior hexagon
        b = embed(parse_code("333333"))
        assert b.hexagons == 7
        assert b.condensation is Condensation.PERICONDENSED


class TestFillDifferential:
    def test_every_shape_comes_back_from_its_code(self, shapes):
        assert len(shapes) == 1 + 1 + 3 + 7 + 22 + 81 + 331 + 1435
        for h, key, code in shapes:
            for word in (code, reverse(code)):
                b = embed(word)
                assert b.hexagons == h
                assert kernel.pack_cells(canonical_cells(b.cells)) == key
                if h > 1:
                    assert b.cells == _reference_cells(word)

    def test_condensation_matches_inner_dual_count(self, shapes):
        for _, key, code in shapes:
            cells = kernel.unpack_cells(key)
            expected = _dual_class(cells)
            assert embed(code).condensation is expected
            assert condensation_class(cells) is expected

    def test_fusenes_self_intersect_exactly_when_the_walk_does(self):
        for h in range(2, 12):
            for code in enumerate_unbranched_fusenes(h):
                if walk(code).simple:
                    b = embed(code)
                    assert b.hexagons == h
                    assert b.cells == _reference_cells(code)
                    assert b.condensation is Condensation.CATACONDENSED_UNBRANCHED
                else:
                    with pytest.raises(SelfIntersecting):
                        embed(code)

    def test_random_words_that_do_not_close(self):
        rng = random.Random(20260)
        open_words = 0
        for _ in range(3000):
            n = rng.randint(2, 14)
            symbols = [rng.randint(1, 5) for _ in range(n - 1)]
            last = 2 * n + 6 - sum(symbols)  # winding 6 whenever 1 <= last <= 5
            symbols.append(last if 1 <= last <= 5 else rng.randint(1, 5))
            code = Code(tuple(symbols))
            if _closes(symbols):
                try:
                    embed(code)
                except SelfIntersecting:
                    pass
            else:
                open_words += 1
                with pytest.raises(NotClosed):
                    embed(code)
        assert open_words > 1000


class TestCellPredicates:
    def test_simply_connected(self):
        assert is_simply_connected(((0, 0), (0, 1)))
        assert not is_simply_connected(RING)

    def test_condensation_classes(self):
        assert condensation_class(((0, 0),)) is Condensation.CATACONDENSED_UNBRANCHED
        chain = embed(parse_code("5252")).cells
        assert condensation_class(chain) is Condensation.CATACONDENSED_UNBRANCHED
        assert condensation_class(embed(parse_code("444")).cells) is (
            Condensation.PERICONDENSED
        )
        # one hexagon with three non-adjacent neighbours: branched, no triangle
        star = ((1, 1), (1, 0), (0, 2), (2, 1))
        assert condensation_class(star) is Condensation.CATACONDENSED_BRANCHED

    def test_inner_dual_of_chain_is_a_path(self):
        cells = embed(parse_code("5252")).cells
        dual = inner_dual(cells)
        degrees = sorted(len(v) for v in dual.values())
        assert degrees == [1, 1, 2]


class TestTrace:
    def test_single_cell(self):
        assert trace(((5, -3),)) == BENZENE

    def test_known_codes(self):
        assert str(trace(((0, 0), (0, 1)))) == "55"
        assert str(trace(embed(parse_code("444")).cells)) == "444"

    def test_translation_invariant(self):
        cells = embed(parse_code("4343")).cells
        shifted = tuple((q - 7, r + 11) for q, r in cells)
        assert trace(shifted) == trace(cells)

    def test_mirror_has_same_code(self):
        cells = embed(parse_code("53335111")).cells
        assert trace(mirror_cells(cells)) == trace(cells)

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            trace(((0, 0), (5, 5)))

    def test_holed(self):
        with pytest.raises(Holed):
            trace(RING)

    @pytest.mark.parametrize(
        "raw", ["55", "444", "5351", "4343", "513513", "53335111", "333333"]
    )
    def test_roundtrip_embed_then_trace(self, raw):
        code = parse_code(raw)
        assert trace(embed(code).cells) == canonical(code)


class TestCellSymmetry:
    def test_normalize_translates_to_origin(self):
        assert normalize_cells(((3, 4), (4, 3))) == ((0, 1), (1, 0))

    def test_canonical_cells_invariant_under_mirror(self):
        cells = embed(parse_code("53335111")).cells
        assert canonical_cells(mirror_cells(cells)) == canonical_cells(cells)

    def test_canonical_cells_invariant_under_rotation(self):
        cells = embed(parse_code("5351")).cells
        rotated = tuple((-r, q + r) for q, r in cells)
        assert canonical_cells(rotated) == canonical_cells(cells)

    def test_canonical_cells_is_the_least_of_every_image_sorted(self):
        # sorting only the images whose least cell ties must give the same form,
        # on benzenoids and on arbitrary cell sets, apart or holed, moved anywhere
        rng = random.Random(15)
        sets = [kernel.unpack_cells(key) for h, keys, _ in _levels(6) for key in keys]
        sets += [
            {(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 14))}
            for _ in range(500)
        ]
        for cells in sets:
            dq, dr = rng.randint(-9, 9), rng.randint(-9, 9)
            cells = [(q + dq, r + dr) for q, r in cells]
            rng.shuffle(cells)
            assert canonical_cells(cells) == min(map(normalize_cells, _symmetric_images(cells)))


#: Calls that get an empty cell set or sequence, or a negative k.
BAD_INPUT = [
    (condensation_class, ([],)),
    (is_simply_connected, ([],)),
    (normalize_cells, ([],)),
    (mirror_cells, ([],)),
    (trace, ([],)),
    (canonical_cells, ([],)),
    (is_k_convex, (BENZENE, -1)),
    (check_unimodal, ([],)),
]


@pytest.mark.parametrize("call, args", BAD_INPUT, ids=[call.__name__ for call, _ in BAD_INPUT])
def test_empty_or_negative_input_raises_param_out_of_range(call, args):
    # a ValueError too, so callers that catch ValueError still do
    with pytest.raises(ParamOutOfRange):
        call(*args)
