"""Algebra and convexity metrics on boundary-edges codes.

A boundary-edges code records, while walking the perimeter of a polyhex,
the number of boundary edges between consecutive vertices of degree 3.
Here codes are treated purely combinatorially: any cyclic word over
{1..5} is admitted (plus the one-symbol code 6 for benzene, the only
benzenoid without degree-3 vertices), whether or not a polyhex with that
boundary exists.  All arithmetic is exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    BenzeneNotComposable,
    InvalidSymbols,
    ParamOutOfRange,
    SplitOutOfRange,
    WindowEmpty,
    WindowTooLong,
)

if TYPE_CHECKING:
    from fractions import Fraction

#: Version of the JSON that the commands and the enumeration reports write.
SCHEMA_VERSION = 1

__all__ = [
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
]

BENZENE_SYMBOL = 6


@dataclass(frozen=True, slots=True)
class Code:
    """An immutable cyclic word over {1..5}, or the benzene code (6,).

    Every operation returns a new code; two codes describing the same
    boundary differ only by rotation and reversal (see ``equivalent``).
    """

    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise InvalidSymbols("a code must contain at least one symbol")
        if self.symbols == (BENZENE_SYMBOL,):
            return
        for s in self.symbols:
            if not 1 <= s <= 5:
                raise _bad_symbol(s)

    @property
    def is_benzene(self) -> bool:
        return self.symbols == (BENZENE_SYMBOL,)

    def __str__(self) -> str:
        return "".join(map(str, self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)


def _bad_symbol(s: int) -> InvalidSymbols:
    return InvalidSymbols(f"symbol {s!r} not in 1..5 (6 stands alone as the benzene code)")


#: The code of benzene, the single hexagon.
BENZENE = Code((BENZENE_SYMBOL,))


def parse_code(text: str) -> Code:
    """Parse ASCII digits (surrounding whitespace ignored) into a code."""
    return Code(tuple(map(int, _code_digits(text))))


def _code_digits(text: str) -> str:
    """The stripped text, once it is the digits of a code; otherwise
    raise the InvalidSymbols that parse_code raises."""
    stripped = text.strip()
    # The characters outside 1..5, in order, found before any tuple is
    # built; a non-ASCII character becomes "?".
    others = stripped.encode("ascii", "replace").translate(None, b"12345")
    if not stripped or others and not others.isdigit():
        raise InvalidSymbols(f"not a digit string: {text!r}")
    if others and stripped != "6":
        raise _bad_symbol(int(others[:1]))
    return stripped


def concat(first: Code, second: Code) -> Code:
    """Concatenation of two codes; undefined for the benzene code."""
    if first.is_benzene or second.is_benzene:
        raise BenzeneNotComposable("the benzene code cannot be concatenated")
    return Code(first.symbols + second.symbols)


def rotate(code: Code, shift: int) -> Code:
    """Right circular shift by ``shift`` places (negative shifts go left)."""
    n = len(code.symbols)
    k = shift % n
    if k == 0:
        return code
    return Code(code.symbols[-k:] + code.symbols[:-k])


def reverse(code: Code) -> Code:
    """The code read in the opposite traversal direction."""
    return Code(code.symbols[::-1])


def canonical(code: Code) -> Code:
    """Lexicographically greatest word over all rotations of the code and
    of its reversal; the unique representative of the equivalence class."""
    syms = code.symbols
    rev = syms[::-1]
    n = len(syms)
    best = syms
    for word in (syms, rev):
        for i in range(n):
            cand = word[i:] + word[:i]
            if cand > best:
                best = cand
    return Code(best)


def equivalent(first: Code, second: Code) -> bool:
    """True when the codes describe the same boundary (rotation/reversal)."""
    return canonical(first).symbols == canonical(second).symbols


def winding(code: Code) -> int:
    """sum(code) - 2*len(code): net left turns of the walked boundary.

    Every benzenoid with at least two hexagons has winding 6.
    """
    return sum(code.symbols) - 2 * len(code.symbols)


def _min_window_sum(syms: tuple[int, ...], width: int) -> int:
    """Least sum over the cyclic windows of ``width`` consecutive symbols."""
    n = len(syms)
    doubled = syms + syms
    acc = sum(doubled[:width])
    best = acc
    for i in range(1, n):
        acc += doubled[i + width - 1] - doubled[i - 1]
        if acc < best:
            best = acc
    return best


def min_window_average(code: Code, k: int) -> Fraction:
    """Least average over all cyclic windows of exactly k symbols (exact)."""
    from fractions import Fraction
    if k < 1:
        raise WindowEmpty(f"window length {k} is below 1")
    n = len(code.symbols)
    if k > n:
        raise WindowTooLong(f"window length {k} exceeds code length {n}")
    return Fraction(_min_window_sum(code.symbols, k), k)


def convexity_deficit(code: Code) -> int | None:
    """Smallest k >= 0 such that every cyclic window of k+1 symbols has
    average at least 2.

    Returns None when no window length up to len(code) reaches average 2;
    that can happen only when the winding is <= 0, so never for a benzenoid
    boundary.  Benzene has deficit 0 by convention.  Internally the test
    avg >= 2 is the integer comparison window-sum >= 2*window-length, so the
    result is exact.
    """
    if code.is_benzene:
        return 0
    syms = code.symbols
    for width in range(1, len(syms) + 1):
        if _min_window_sum(syms, width) >= 2 * width:
            return width - 1
    return None


def is_k_convex(code: Code, k: int) -> bool:
    """True when the deficit is defined and at most k."""
    if k < 0:
        raise ParamOutOfRange("k must be >= 0")
    deficit = convexity_deficit(code)
    return deficit is not None and deficit <= k


class ConvexityKind(enum.Enum):
    CONVEX = "convex"
    PSEUDO_CONVEX = "pseudo-convex"
    QUASI_CONVEX = "quasi-convex"
    GENERAL = "general"


@dataclass(frozen=True, slots=True)
class ConvexityClass:
    """Classification tag plus the convexity deficit (None when undefined)."""

    kind: ConvexityKind
    deficit: int | None


def classify(code: Code) -> ConvexityClass:
    """Bucket a code by the local shape of its boundary.

    Convex: no symbol 1.  Quasi-convex: a 1 occurs but never next to a 1
    or a 2 (cyclically).  Pseudo-convex: quasi-convex with no symbol 2 at
    all.  Everything else is general.  The buckets match the deficit
    exactly: convex <=> deficit 0, pseudo-/quasi-convex <=> deficit 1.
    """
    return ConvexityClass(_convexity_kind(str(code)), convexity_deficit(code))


def _convexity_kind(code: str) -> ConvexityKind:
    """The bucket ``classify`` gives the code with this text."""
    if "1" not in code:
        return ConvexityKind.CONVEX
    cyclic = code + code[0]  # every pair of neighbours, the last and first too
    if "11" in cyclic or "12" in cyclic or "21" in cyclic:
        return ConvexityKind.GENERAL
    if "2" in code:
        return ConvexityKind.QUASI_CONVEX
    return ConvexityKind.PSEUDO_CONVEX


class Condensation(enum.Enum):
    """Fusion pattern of a benzenoid (shape of its inner dual)."""

    CATACONDENSED_UNBRANCHED = "catacondensed-unbranched"
    CATACONDENSED_BRANCHED = "catacondensed-branched"
    PERICONDENSED = "pericondensed"


def _code_condensation(code: str, h: int) -> Condensation:
    """Class of the benzenoid of h hexagons that a canonical code bounds.

    Its perimeter, the sum p of the code's symbols, is 4h + 2 less twice
    its internal vertices, so it is catacondensed exactly when p = 4h + 2
    (Gutman & Cyvin, Introduction to the Theory of Benzenoid Hydrocarbons,
    1989).  Then each 5 is the free side of a leaf of the inner-dual tree,
    and a tree of degrees at most 3 has two leaves more than branch nodes.
    Benzene, "6" with h = 1, falls out unbranched: p = 6 and no 5.
    """
    if sum(code.encode()) - 48 * len(code) < 4 * h + 2:  # p: an ASCII digit is 48 + its value
        return Condensation.PERICONDENSED
    if code.count("5") > 2:
        return Condensation.CATACONDENSED_BRANCHED
    return Condensation.CATACONDENSED_UNBRANCHED


def one_contact_attach(code: Code, position: int, s1: int) -> Code:
    """Replace the symbol s at ``position`` by s1, 5, s2 with s1 + s2 = s - 1.

    This is the code of the polyhex grown by glueing one hexagon onto the
    boundary edge run counted by s (a one-contact addition); it preserves
    the winding.  Requires s >= 3 and 1 <= s1 <= s - 2.
    """
    if code.is_benzene:
        raise BenzeneNotComposable("grow benzene by writing the code 55 directly")
    syms = code.symbols
    n = len(syms)
    if not -n <= position < n:
        raise IndexError(f"position {position} out of range for length {n}")
    idx = position % n
    s = syms[idx]
    if s < 3:
        raise SplitOutOfRange(f"symbol {s} at position {position} cannot be split")
    s2 = s - 1 - s1
    if s1 < 1 or s2 < 1:
        raise SplitOutOfRange(f"split {s1}+{s2} invalid for symbol {s}")
    return Code(syms[:idx] + (s1, 5, s2) + syms[idx + 1 :])
