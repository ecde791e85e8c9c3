"""Randomized algebraic invariants of codes, windows and embeddings."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bechex.cli import main
from bechex.codes import (
    Code,
    ConvexityKind,
    canonical,
    classify,
    concat,
    convexity_deficit,
    equivalent,
    min_window_average,
    one_contact_attach,
    parse_code,
    reverse,
    rotate,
    winding,
)
from bechex.errors import NotClosed, SelfIntersecting
from bechex.lattice import NEIGHBOR_OFFSETS, canonical_cells, embed, mirror_cells, trace

words = st.lists(st.integers(1, 5), min_size=1, max_size=24).map(tuple)
codes = words.map(Code)
shifts = st.integers(-50, 50)

COMMON = settings(max_examples=300, deadline=None)


@COMMON
@given(codes)
def test_reverse_is_involutive(c):
    assert reverse(reverse(c)) == c


@COMMON
@given(codes, shifts)
def test_rotation_inverts(c, k):
    assert rotate(rotate(c, k), -k) == c
    assert rotate(c, k) == rotate(c, k % len(c))


@COMMON
@given(codes, shifts)
def test_canonical_collapses_the_symmetry_class(c, k):
    canon = canonical(c)
    assert canonical(rotate(c, k)) == canon
    assert canonical(reverse(c)) == canon
    assert canonical(canon) == canon
    assert equivalent(c, rotate(reverse(c), k))


@COMMON
@given(codes, codes)
def test_winding_is_additive_under_concat(a, b):
    assert winding(concat(a, b)) == winding(a) + winding(b)


@COMMON
@given(codes, st.data())
def test_one_contact_attach_preserves_winding(c, data):
    splittable = [i for i, s in enumerate(c.symbols) if s >= 3]
    if not splittable:
        return
    pos = data.draw(st.sampled_from(splittable))
    s1 = data.draw(st.integers(1, c.symbols[pos] - 2))
    grown = one_contact_attach(c, pos, s1)
    assert winding(grown) == winding(c)
    assert len(grown) == len(c) + 2


@COMMON
@given(codes)
def test_deficit_bounds(c):
    cd = convexity_deficit(c)
    if winding(c) > 0:
        assert cd is not None
        assert 0 <= cd <= len(c) - 1
    if cd is None:
        assert winding(c) <= 0


@COMMON
@given(codes)
def test_deficit_matches_window_averages(c):
    cd = convexity_deficit(c)
    if cd is None:
        assert all(
            min_window_average(c, k) < 2 for k in range(1, len(c) + 1)
        )
    else:
        assert min_window_average(c, cd + 1) >= Fraction(2)
        if cd >= 1:
            assert min_window_average(c, cd) < 2


@COMMON
@given(codes)
def test_deficit_zero_iff_no_ones(c):
    assert (convexity_deficit(c) == 0) == (1 not in c.symbols)


@COMMON
@given(codes)
def test_deficit_one_iff_middle_classes(c):
    kind = classify(c).kind
    assert (convexity_deficit(c) == 1) == (
        kind in (ConvexityKind.PSEUDO_CONVEX, ConvexityKind.QUASI_CONVEX)
    )


@COMMON
@given(codes, shifts)
def test_classification_is_cyclic(c, k):
    assert classify(rotate(c, k)) == classify(c)
    assert classify(reverse(c)) == classify(c)


@COMMON
@given(codes)
def test_embeddings_roundtrip_or_fail_cleanly(c):
    try:
        shape = embed(c)
    except NotClosed:
        assert winding(c) != 6 or not walkable(c)
        return
    except SelfIntersecting:
        assert winding(c) == 6
        return
    assert trace(shape.cells) == canonical(c)
    assert canonical_cells(mirror_cells(shape.cells)) == canonical_cells(shape.cells)


def walkable(c):
    # closure needs position (0,0) again; winding 6 alone is not enough
    from bechex.lattice import walk

    try:
        walk(c)
    except NotClosed:
        return False
    return True


def _grown(steps) -> Code:
    """The code of a shape grown from one cell: each step adds the free
    neighbour in a direction of a chosen cell when its occupied neighbours
    form one arc, so the shape stays free of holes."""
    cells = [(0, 0)]
    for pick, direction in steps:
        q, r = cells[pick % len(cells)]
        dq, dr = NEIGHBOR_OFFSETS[direction]
        q, r = q + dq, r + dr
        ring = [(q + a, r + b) in cells for a, b in NEIGHBOR_OFFSETS]
        if (q, r) not in cells and sum(ring[i] and not ring[i - 1] for i in range(6)) == 1:
            cells.append((q, r))
    return trace(cells)


#: Words on 1..5 of up to 40 symbols, most of which bound no benzenoid,
#: and the codes of benzenoids of up to 13 cells read from any start in
#: either direction.
analyze_inputs = st.one_of(
    st.lists(st.integers(1, 5), min_size=1, max_size=40).map(lambda w: Code(tuple(w))),
    st.builds(
        lambda code, k, flip: rotate(reverse(code) if flip else code, k),
        st.lists(st.tuples(st.integers(0, 99), st.integers(0, 5)), max_size=12).map(_grown),
        shifts,
        st.booleans(),
    ),
)


@COMMON
@given(analyze_inputs)
def test_analyze_agrees_with_the_reference(c):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["analyze", str(c), "--json"]) == 0
    (result,) = json.loads(out.getvalue())["results"]
    assert result["deficit"] == convexity_deficit(c)
    assert result["class"] == classify(c).kind.value
    assert result["canonical"] == str(canonical(c))
    try:
        shape = embed(c)
    except (NotClosed, SelfIntersecting) as exc:
        assert (result["embeddable"], result["reason"]) == (False, type(exc).__name__)
    else:
        assert result["embeddable"] is True
        assert result["hexagons"] == shape.hexagons
        assert result["condensation"] == shape.condensation.value
