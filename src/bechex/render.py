"""Deterministic SVG and TikZ pictures of benzenoid cell sets.

Hexagons are drawn pointy-top; the axial cell (q, r) is centred at
(sqrt(3) * (q + r/2), 3/2 * r) in units of the edge length.  Output is
byte-stable: fixed three-decimal coordinates, cells in sorted order, a
canvas tightly bounding the drawing plus a one-edge margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParamOutOfRange

__all__ = ["RenderOptions", "to_svg", "to_tikz"]

_SQRT3 = math.sqrt(3.0)

# pointy-top corner directions, CCW from the top corner
_CORNERS = [
    (math.cos(math.radians(90 + 60 * i)), math.sin(math.radians(90 + 60 * i)))
    for i in range(6)
]


@dataclass(frozen=True, slots=True)
class RenderOptions:
    """Styling knobs shared by both output formats.

    Colors are named, made of ASCII letters only, so they stay valid in
    SVG and TikZ alike and cannot escape an attribute or an option list.
    """

    edge_length: float = 30.0
    label_cells: bool = False
    stroke: str = "black"
    fill: str = "none"

    def __post_init__(self) -> None:
        if not 0 < self.edge_length < math.inf:
            raise ParamOutOfRange("edge_length must be positive and finite")
        for color in (self.stroke, self.fill):
            if not (color.isascii() and color.isalpha()):
                raise ParamOutOfRange(f"color {color!r} is not a color name")


def _fmt(value: float) -> str:
    # normalise -0.000 so output stays byte-stable across platforms
    text = f"{value:.3f}"
    return "0.000" if text == "-0.000" else text


def _geometry(cells, edge: float):
    """Sorted cells with centre and corner coordinates, y axis up."""
    shapes = []
    for q, r in sorted(cells):
        cx = edge * _SQRT3 * (q + r / 2.0)
        cy = edge * 1.5 * r
        corners = [(cx + edge * dx, cy + edge * dy) for dx, dy in _CORNERS]
        shapes.append(((q, r), (cx, cy), corners))
    xs = [x for _, _, cs in shapes for x, _ in cs]
    ys = [y for _, _, cs in shapes for _, y in cs]
    return shapes, (min(xs), min(ys), max(xs), max(ys))


def to_svg(cells, options: RenderOptions = RenderOptions()) -> str:
    """An SVG 1.1 document with one closed hexagon path per cell."""
    edge = options.edge_length
    shapes, (min_x, min_y, max_x, max_y) = _geometry(cells, edge)
    margin = edge
    width = max_x - min_x + 2 * margin
    height = max_y - min_y + 2 * margin

    def to_screen(x: float, y: float) -> tuple[float, float]:
        return (x - min_x + margin, max_y - y + margin)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    for (q, r), (cx, cy), corners in shapes:
        points = [to_screen(x, y) for x, y in corners]
        path = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in points) + " Z"
        lines.append(
            f'<path d="{path}" fill="{options.fill}" stroke="{options.stroke}" '
            f'stroke-width="{_fmt(edge * 0.05)}" stroke-linejoin="round"/>'
        )
    if options.label_cells:
        for (q, r), (cx, cy), _ in shapes:
            sx, sy = to_screen(cx, cy)
            lines.append(
                f'<text x="{_fmt(sx)}" y="{_fmt(sy)}" font-size="{_fmt(edge * 0.3)}" '
                f'text-anchor="middle" dominant-baseline="middle">{q},{r}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def to_tikz(cells, options: RenderOptions = RenderOptions()) -> str:
    """TikZ draw commands for inclusion inside a tikzpicture environment.

    Coordinates are in units of one hexagon edge, so the picture scales
    with the surrounding TikZ setup rather than with ``edge_length``.
    """
    shapes, _ = _geometry(cells, 1.0)
    style = f"draw={options.stroke}, line join=round"
    if options.fill != "none":
        style += f", fill={options.fill}"
    lines = [f"% {len(shapes)} hexagon(s), coordinates in edge lengths"]
    for (q, r), (cx, cy), corners in shapes:
        coords = " -- ".join(f"({_fmt(x)},{_fmt(y)})" for x, y in corners)
        lines.append(f"\\draw[{style}] {coords} -- cycle;")
    if options.label_cells:
        for (q, r), (cx, cy), _ in shapes:
            lines.append(f"\\node[font=\\tiny] at ({_fmt(cx)},{_fmt(cy)}) {{{q},{r}}};")
    return "\n".join(lines) + "\n"
