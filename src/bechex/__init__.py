"""Boundary edge codes for benzenoids.

A benzenoid's boundary, walked counterclockwise, visits each boundary
vertex with 1 to 5 incident boundary edges ahead of it; recording those
counts gives a cyclic word over {1..5} that determines the molecule up
to rotation, reflection and translation.  This package provides the
code algebra, the hexagonal lattice embedding, convexity analysis,
parametric families, named small compounds, exhaustive enumeration and
SVG/TikZ rendering.

``import bechex`` imports no submodule: each public name imports the
module that defines it on first use (PEP 562).
"""

from importlib import import_module

__version__ = "1.0.0"

#: The public names, by the submodule that defines them.
_PUBLIC = {
    "_kernel": ("BACKEND",),
    "codes": (
        "BENZENE",
        "Code",
        "Condensation",
        "ConvexityClass",
        "ConvexityKind",
        "canonical",
        "classify",
        "concat",
        "convexity_deficit",
        "equivalent",
        "is_k_convex",
        "min_window_average",
        "one_contact_attach",
        "parse_code",
        "reverse",
        "rotate",
        "winding",
    ),
    "enumeration": (
        "EnumerationReport",
        "check_unimodal",
        "count_benzenoids",
        "enumerate_benzenoids",
        "enumerate_unbranched_fusenes",
        "max_cd_unbranched_benzenoids",
        "report",
        "run_search",
    ),
    "errors": (
        "BechexError",
        "BenzeneNotComposable",
        "Disconnected",
        "Holed",
        "InvalidSymbols",
        "NotClosed",
        "NotFound",
        "ParamOutOfRange",
        "ResourceLimit",
        "ResumeError",
        "SelfIntersecting",
        "SplitOutOfRange",
        "WindowEmpty",
        "WindowTooLong",
    ),
    "families": (
        "FAMILY_IDS",
        "NamedCompound",
        "compounds",
        "expected_cd",
        "expected_h",
        "family_description",
        "find_by_code",
        "generate",
        "helicene",
        "lookup",
        "spiral",
    ),
    "lattice": (
        "Benzenoid",
        "BoundaryWalk",
        "canonical_cells",
        "condensation_class",
        "embed",
        "inner_dual",
        "is_simply_connected",
        "mirror_cells",
        "normalize_cells",
        "trace",
        "walk",
    ),
    "render": ("RenderOptions", "to_svg", "to_tikz"),
}

_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
