"""Parametric benzenoid families and the named-compound dataset.

Each family maps integer parameters to a boundary-edges code together
with closed forms for the hexagon count and the convexity deficit.  The
dataset of small named benzenoids ships with the package as a TSV file
and is indexed by name and by code equivalence class.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Callable

from ._kernel.common import MAX_CELLS, check_edges
from .codes import Code, ConvexityKind, canonical, parse_code
from .errors import InvalidSymbols, NotFound, ParamOutOfRange

__all__ = [
    "FAMILY_IDS",
    "NamedCompound",
    "compounds",
    "expected_cd",
    "expected_h",
    "find_by_code",
    "generate",
    "helicene",
    "lookup",
    "spiral",
]


def _rep(symbol: int, count: int) -> tuple[int, ...]:
    return (symbol,) * count


def _alt(first: int, second: int, pairs: int) -> tuple[int, ...]:
    return (first, second) * pairs


def _chain(side: tuple[int, ...]) -> tuple[int, ...]:
    """The code of an unbranched chain: it walks out along one side of its
    hexagons, turning ``side``, and back along the other, so its code is
    5 s_1..s_{h-2} 5 followed by the complements 4 - s_i of the side
    symbols in reverse order.  All such codes close with winding 6;
    helicene-like chains overlap when embedded but still count as fusenes.
    """
    return (5,) + side + (5,) + tuple(4 - s for s in reversed(side))


def _linear(n: int) -> tuple[int, ...]:
    return _chain(_rep(2, n - 2))


def _m2(m: int, n: int) -> tuple[int, ...]:
    return _chain(_rep(2, m - 2) + (1,) + _rep(2, n - 2))


def _m3(m: int, n: int, k: int) -> tuple[int, ...]:
    return _chain(_rep(2, k - 2) + (1,) + _rep(2, m - 2) + (1,) + _rep(2, n - 2))


def _z3(m: int, n: int, k: int) -> tuple[int, ...]:
    return _chain(_rep(2, n - 2) + (1,) + _rep(2, k - 2) + (3,) + _rep(2, m - 2))


def _chevron(n: int, m: int, k: int) -> tuple[int, ...]:
    return (
        (4,) + _rep(2, n - 2) + (3,) + _rep(2, k - 2) + (3,) + _rep(2, m - 2)
        + (3,) + _rep(2, n - 2) + (4,) + _rep(2, m - 2) + (1,) + _rep(2, k - 2)
    )


def _p3(m: int) -> tuple[int, ...]:
    return (5, 1) + _alt(3, 1, m - 2) + (5,) + _rep(2, m - 2) + (3,) + _rep(2, m - 2)


def _p5(m: int, n: int) -> tuple[int, ...]:
    return (
        (3,) + _rep(2, n - 2) + (4, 1) + _alt(3, 1, m - 2) + (4,) + _rep(2, n - 2)
        + (3,) + _rep(2, m - 2) + (3,) + _rep(2, m - 2)
    )


def _o3(m: int) -> tuple[int, ...]:
    return (4, 3) + _alt(1, 3, m - 2) + (4,) + _rep(2, m - 2) + (3,) + _rep(2, m - 2)


def _b3(m: int) -> tuple[int, ...]:
    return (4,) + _alt(3, 1, m - 1) + (5,) + _rep(2, m - 1) + (3,) + _rep(2, m - 2)


def _p4(m: int, n: int) -> tuple[int, ...]:
    half = (4,) + _rep(2, n - 2) + (4,) + _alt(1, 3, m - 2) + (1,)
    return half + half


def _dihedral_s(m: int) -> tuple[int, ...]:
    half = (5, 1, 2, 1, 5) + _alt(1, 3, m - 1) + (1,)
    return half + half


def _t(m: int) -> tuple[int, ...]:
    if m == 2:
        return (5, 1, 4, 1, 5, 1, 4, 1)
    half = (4, 1, 4, 1, 4) + _alt(1, 3, m - 3) + (1,)
    return half + half


def _spiral_arm(length: int) -> tuple[int, ...]:
    # prefix of the infinite word (3)(3)(3) (23)(23)(23) (223)(223)(223) ...
    out: list[int] = []
    k = 0
    while len(out) < length:
        out.extend(([2] * k + [3]) * 3)
        k += 1
    return tuple(out[:length])


def _spiral(h: int) -> tuple[int, ...]:
    return _chain(_spiral_arm(h - 2))


def _helicene(h: int) -> tuple[int, ...]:
    return _chain(_rep(1, h - 2))


@dataclass(frozen=True, slots=True)
class _Family:
    id: str
    param_names: tuple[str, ...]
    minima: tuple[int, ...]
    code_fn: Callable[..., tuple[int, ...]]
    h_fn: Callable[..., int]
    cd_fn: Callable[..., int]
    description: str


_FAMILIES: dict[str, _Family] = {
    f.id.lower(): f
    for f in (
        _Family(
            "L", ("n",), (2,), _linear,
            lambda n: n, lambda n: 0,
            "linear chain of n hexagons",
        ),
        _Family(
            "M2", ("m", "n"), (2, 2), _m2,
            lambda m, n: m + n - 1, lambda m, n: m + n - 3,
            "two linear segments fused at one bend",
        ),
        _Family(
            "M3", ("m", "n", "k"), (2, 2, 2), _m3,
            lambda m, n, k: m + n + k - 2, lambda m, n, k: m + n + k - 4,
            "three linear segments, both bends turning the same way",
        ),
        _Family(
            "Z3", ("m", "n", "k"), (2, 2, 2), _z3,
            lambda m, n, k: m + n + k - 2, lambda m, n, k: max(m, n) + k - 3,
            "three linear segments, bends turning opposite ways",
        ),
        _Family(
            "Ch", ("n", "m", "k"), (2, 2, 2), _chevron,
            lambda n, m, k: n * (m + k - 1), lambda n, m, k: m + k - 3,
            "chevron: n rows bent between arms of m and k columns",
        ),
        _Family(
            "P3", ("m",), (2,), _p3,
            lambda m: m * (m + 1) // 2, lambda m: 1,
            "prolate triangle of side m",
        ),
        _Family(
            "P5", ("m", "n"), (2, 2), _p5,
            lambda m, n: m * (m + 1) // 2 + (n - 1) * (2 * m - 1), lambda m, n: 1,
            "prolate pentagon: triangle of side m on a rectangle of height n",
        ),
        _Family(
            "O3", ("m",), (2,), _o3,
            lambda m: m * (m + 1) // 2 + m - 1, lambda m: 0 if m == 2 else 1,
            "oblate triangle of side m",
        ),
        _Family(
            "B3", ("m",), (2,), _b3,
            lambda m: m * (m + 3) // 2, lambda m: 1,
            "truncated prolate triangle of side m",
        ),
        _Family(
            "P4", ("m", "n"), (2, 2), _p4,
            lambda m, n: n * m + (n - 1) * (m - 1), lambda m, n: 1,
            "prolate rectangle of m columns and n rows",
        ),
        _Family(
            "DihedralS", ("m",), (1,), _dihedral_s,
            lambda m: 7 * m, lambda m: 3,
            "dihedral all-benzenoid series of 7m hexagons",
        ),
        _Family(
            "T", ("m",), (2,), _t,
            lambda m: 6 if m == 2 else 7 * m - 8, lambda m: 1,
            "triangular all-benzenoid series",
        ),
        _Family(
            "Spiral", ("h",), (2,), _spiral,
            lambda h: h, lambda h: max(h - 2, 2 * h - 8),
            "unbranched spiral attaining the largest deficit per hexagon count",
        ),
        _Family(
            "Helicene", ("h",), (2,), _helicene,
            lambda h: h, lambda h: max(2 * h - 7, h - 2),
            "helicene chain; embeds in the lattice only for h <= 5",
        ),
    )
}

#: Family identifiers accepted by generate/expected_h/expected_cd.
FAMILY_IDS: tuple[str, ...] = tuple(f.id for f in _FAMILIES.values())


def _family(family: str, params: tuple[int, ...]) -> _Family:
    fam = _FAMILIES.get(family.lower())
    if fam is None:
        raise NotFound(f"unknown family {family!r}; known: {', '.join(FAMILY_IDS)}")
    if len(params) != len(fam.param_names):
        raise ParamOutOfRange(
            f"{fam.id} takes {len(fam.param_names)} parameter(s) "
            f"({', '.join(fam.param_names)}), got {len(params)}"
        )
    for name, value, minimum in zip(fam.param_names, params, fam.minima):
        if value < minimum:
            raise ParamOutOfRange(f"{fam.id}: {name} must be >= {minimum}, got {value}")
    return fam


def generate(family: str, *params: int) -> Code:
    """The boundary-edges code of a family member (not canonicalised):
    the family id followed by its parameters, ``generate("M2", 2, 3)``.
    Members of more than MAX_CELLS hexagons are refused."""
    fam = _family(family, params)
    h = fam.h_fn(*params)
    if h > MAX_CELLS:
        raise ParamOutOfRange(f"{fam.id}: {h} hexagons exceed the limit of {MAX_CELLS}")
    return Code(fam.code_fn(*params))


def expected_h(family: str, *params: int) -> int:
    """Closed-form hexagon count of a family member."""
    return _family(family, params).h_fn(*params)


def expected_cd(family: str, *params: int) -> int:
    """Closed-form convexity deficit of a family member."""
    return _family(family, params).cd_fn(*params)


def family_description(family: str) -> str:
    fam = _FAMILIES.get(family.lower())
    if fam is None:
        raise NotFound(f"unknown family {family!r}; known: {', '.join(FAMILY_IDS)}")
    return fam.description


def spiral(h: int) -> Code:
    """The spiral benzenoid with h hexagons; deficit max{h-2, 2h-8}."""
    return generate("Spiral", h)


def helicene(h: int) -> Code:
    """The helicene chain with h hexagons; a benzenoid only for h <= 5."""
    return generate("Helicene", h)


_KIND_BY_TAG = {
    "convex": ConvexityKind.CONVEX,
    "pseudo-convex": ConvexityKind.PSEUDO_CONVEX,
    "quasi-convex": ConvexityKind.QUASI_CONVEX,
    "": ConvexityKind.GENERAL,
}


@dataclass(frozen=True, slots=True)
class NamedCompound:
    """One row of the named-benzenoid dataset."""

    names: tuple[str, ...]
    bec: str
    hexagons: int
    kind: ConvexityKind
    deficit: int
    formula: str
    cas: str

    @property
    def name(self) -> str:
        return self.names[0]


def _load_dataset() -> tuple[NamedCompound, ...]:
    text = (
        resources.files("bechex").joinpath("data/small_benzenoids.tsv").read_text("utf-8")
    )
    records = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) == 6:
            fields.append("")  # CAS number is optional
        name, bec, h, tag, deficit, formula, cas = fields
        records.append(
            NamedCompound(
                names=tuple(name.split("/")),
                bec=bec,
                hexagons=int(h),
                kind=_KIND_BY_TAG[tag],
                deficit=int(deficit),
                formula=formula,
                cas=cas,
            )
        )
    return tuple(records)


_DATASET = _load_dataset()
_BY_NAME = {
    name.casefold(): record for record in _DATASET for name in record.names
}
_BY_CODE = {
    str(canonical(parse_code(record.bec))): record for record in _DATASET
}


def compounds() -> tuple[NamedCompound, ...]:
    """Every record of the named-benzenoid dataset."""
    return _DATASET


def find_by_code(code: Code) -> NamedCompound | None:
    """The dataset record equivalent to ``code``, when one exists; a code
    of more than MAX_PERIMETER edges raises ResourceLimit."""
    check_edges(sum(code.symbols))
    return _BY_CODE.get(str(canonical(code)))


def lookup(key: str) -> NamedCompound:
    """Find a record by compound name (case-insensitive) or by any code
    equivalent to its boundary-edges code."""
    record = _BY_NAME.get(key.strip().casefold())
    if record is None:
        try:
            record = find_by_code(parse_code(key))
        except InvalidSymbols:
            pass
    if record is None:
        raise NotFound(f"no named benzenoid matches {key!r}")
    return record
