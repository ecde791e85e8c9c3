"""Lattice walks, embeddings, tracing and cell-set symmetry."""

import pytest

from bechex.codes import BENZENE, canonical, parse_code
from bechex.errors import (
    Disconnected,
    Holed,
    InvalidSymbols,
    NotClosed,
    SelfIntersecting,
)
from bechex.families import helicene
from bechex.lattice import (
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
    walk,
)

RING = tuple((1 + dq, 1 + dr) for dq, dr in NEIGHBOR_OFFSETS)  # hole at (1, 1)


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
