"""SVG and TikZ rendering: geometry, styling, byte determinism."""

import math
import re

import pytest

from bechex.codes import parse_code
from bechex.errors import ParamOutOfRange
from bechex.lattice import embed
from bechex.render import RenderOptions, to_svg, to_tikz

GOLDEN_BENZENE_SVG = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="111.962" height="120.000" viewBox="0 0 111.962 120.000">\n'
    '<path d="M 55.981 30.000 L 30.000 45.000 L 30.000 75.000 L 55.981 90.000 '
    'L 81.962 75.000 L 81.962 45.000 Z" fill="none" stroke="black" '
    'stroke-width="1.500" stroke-linejoin="round"/>\n'
    "</svg>\n"
)

NUMBER = re.compile(r"-?\d+\.\d+")


class TestSvg:
    def test_single_hexagon_golden(self):
        assert to_svg(((0, 0),)) == GOLDEN_BENZENE_SVG

    def test_one_path_per_cell(self):
        cells = embed(parse_code("333333")).cells
        svg = to_svg(cells)
        assert svg.count("<path ") == 7
        assert svg.startswith('<?xml version="1.0"')
        assert svg.rstrip().endswith("</svg>")

    def test_translation_invariant(self):
        cells = embed(parse_code("4343")).cells
        shifted = tuple((q + 9, r - 4) for q, r in cells)
        assert to_svg(cells) == to_svg(shifted)

    def test_deterministic_under_cell_order(self):
        cells = embed(parse_code("53335111")).cells
        assert to_svg(cells) == to_svg(tuple(reversed(cells)))

    def test_three_decimal_numbers_only(self):
        svg = to_svg(embed(parse_code("5351")).cells)
        for token in NUMBER.findall(svg):
            if token in ("1.0", "1.1"):  # XML and SVG version attributes
                continue
            assert len(token.split(".")[1]) == 3
        assert "-0.000" not in svg

    def test_no_negative_coordinates_in_viewport(self):
        svg = to_svg(embed(parse_code("53335111")).cells)
        body = svg.split(">", 2)[2]
        assert not any(float(t) < 0 for t in NUMBER.findall(body))

    def test_edge_length_scales_canvas(self):
        small = to_svg(((0, 0),), RenderOptions(edge_length=10))
        assert 'width="37.321"' in small and 'height="40.000"' in small

    def test_styling_options(self):
        svg = to_svg(((0, 0),), RenderOptions(stroke="gray", fill="yellow"))
        assert 'stroke="gray"' in svg and 'fill="yellow"' in svg

    def test_labels(self):
        svg = to_svg(((0, 0), (0, 1)), RenderOptions(label_cells=True))
        assert svg.count("<text ") == 2
        assert ">0,1</text>" in svg

    def test_bad_edge_length(self):
        with pytest.raises(ValueError):
            RenderOptions(edge_length=0)

    @pytest.mark.parametrize("field", ["stroke", "fill"])
    @pytest.mark.parametrize(
        "color",
        [
            'black"/><script>alert(1)</script><path d="',
            "red] (0,0) -- (9,9); \\draw[",
            "#000",
            "light gray",
            "",
            "gr\u00e4y",
        ],
    )
    def test_a_color_that_is_not_a_name_is_refused(self, field, color):
        with pytest.raises(ParamOutOfRange, match="not a color name"):
            RenderOptions(**{field: color})


class TestTikz:
    def test_draw_command_per_cell(self):
        cells = embed(parse_code("444")).cells
        tikz = to_tikz(cells)
        assert tikz.count("\\draw[") == 3
        assert tikz.count("-- cycle;") == 3

    def test_coordinates_are_in_edge_units(self):
        # unit-length hexagon corners: |x| <= a few cells, never hundreds
        tikz = to_tikz(((0, 0),))
        values = [abs(float(t)) for t in NUMBER.findall(tikz)]
        assert max(values) == 1.0
        assert math.isclose(min(v for v in values if v), 0.5)

    def test_edge_length_does_not_change_tikz(self):
        cells = ((0, 0), (1, 0))
        assert to_tikz(cells) == to_tikz(cells, RenderOptions(edge_length=99))

    def test_fill_style(self):
        assert ", fill=blue]" in to_tikz(((0, 0),), RenderOptions(fill="blue"))
        assert "fill" not in to_tikz(((0, 0),))

    def test_labels(self):
        tikz = to_tikz(((0, 0), (1, 1)), RenderOptions(label_cells=True))
        assert tikz.count("\\node") == 2
        assert "{1,1}" in tikz

    def test_deterministic(self):
        cells = embed(parse_code("513513")).cells
        assert to_tikz(cells) == to_tikz(tuple(reversed(cells)))
