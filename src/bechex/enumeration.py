"""Isomorph-free enumeration of benzenoids and extremal-deficit reports.

Benzenoids are generated level by level by canonical augmentation: every
shape with h hexagons is obtained by attaching one free neighbour cell to
its canonical parent with h - 1, and to no other shape of that level
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
The kernel's grow adds a cell only when its occupied neighbours form one
arc, which is exactly when a hole-free shape stays hole-free, so no
separate hole filter runs, and it keeps a child only from its canonical
parent, so a level is its parents' children concatenated in grow order,
with no set or sort to deduplicate it.  Two shapes count as the same
benzenoid exactly when they agree up to rotation, reflection and
translation; a shape is stored as its canonical cell key.  Each output
file is written beside its target and moved into place, a level's code
file last.  The hot loops run in bechex._kernel.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import _kernel as kernel
from .codes import Code, canonical, convexity_deficit
from .errors import (
    BechexError, NotClosed, ParamOutOfRange, ResourceLimit, ResumeError, SelfIntersecting
)
from .lattice import condensation_class, embed

__all__ = [
    "DEFAULT_MAX_H",
    "EnumerationReport",
    "check_unimodal",
    "count_benzenoids",
    "enumerate_benzenoids",
    "enumerate_unbranched_fusenes",
    "max_cd_unbranched_benzenoids",
    "report",
    "run_search",
]

#: Levels above this size are refused; a plain desk machine handles
#: h = 12 in minutes, every extra level costs roughly a factor of five.
DEFAULT_MAX_H = 14

SCHEMA_VERSION = 1

_PARALLEL_THRESHOLD = 2048


@dataclass(frozen=True, slots=True)
class EnumerationReport:
    """Distribution of the convexity deficit over one level.

    ``distribution`` maps each occurring deficit to its count; ``mcd`` is
    the largest deficit, ``ex`` the number of benzenoids attaining it and
    ``extremal_codes`` their canonical codes.  ``extremal_breakdown``
    counts the extremal benzenoids per condensation class.
    """

    h: int
    count: int
    distribution: dict[int, int]
    mcd: int
    ex: int
    extremal_codes: tuple[str, ...]
    extremal_breakdown: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "h": self.h,
            "count": self.count,
            "distribution": {str(k): v for k, v in self.distribution.items()},
            "mcd": self.mcd,
            "ex": self.ex,
            "extremal_codes": list(self.extremal_codes),
            "extremal_breakdown": dict(self.extremal_breakdown),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _grow_chunk(chunk: list[bytes]) -> list[bytes]:
    return kernel.grow(chunk)


def _grow(parents: list[bytes], workers: int) -> list[bytes]:
    """Canonical keys of the hole-free children of one level, in grow order.

    Each child comes from its one canonical parent, so the worker parts
    are disjoint; their concatenation holds the same keys whatever the
    worker count, in an order that depends on it.
    """
    if workers > 1 and len(parents) >= _PARALLEL_THRESHOLD:
        import multiprocessing

        chunks = [parents[i::workers] for i in range(workers)]
        with multiprocessing.Pool(workers) as pool:
            return list(itertools.chain.from_iterable(pool.map(_grow_chunk, chunks)))
    return kernel.grow(parents)


def _level_path(out_dir: Path, h: int) -> Path:
    return out_dir / f"benzenoids_h{h}.txt"


def _load_level(out_dir: Path, h: int) -> tuple[list[bytes], list[str]]:
    """Canonical keys of a stored level and their codes, in file order.

    Raises ResumeError unless the file holds exactly what a finished run
    writes: strictly increasing canonical codes of h-hexagon shapes, as
    many as its report counts (level 1 is the single line 6).
    """
    path = _level_path(out_dir, h)
    try:
        lines = path.read_text("ascii").splitlines()
    except (OSError, ValueError) as exc:
        raise ResumeError(f"cannot resume: cannot read level file {path}: {exc}") from None
    if h == 1:
        if lines != ["6"]:
            raise ResumeError(f"cannot resume: level file {path} is not the single line 6")
        return [kernel.pack_cells(((0, 0),))], lines
    report_path = out_dir / f"report_h{h}.json"
    try:
        count = json.loads(report_path.read_text("ascii"))["count"]
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise ResumeError(f"cannot resume: cannot read a count from {report_path}: {exc!r}") from None
    if len(lines) != count:
        raise ResumeError(
            f"cannot resume: level file {path} has {len(lines)} lines, its report counts {count}"
        )
    keys = []
    previous = ""
    for number, line in enumerate(lines, 1):
        try:
            key = kernel.code_key(line)
        except BechexError as exc:
            raise ResumeError(f"cannot resume: line {number} of {path}: {exc}") from None
        if key is None or line <= previous or len(key) != 2 * h or kernel.trace_code(key) != line:
            raise ResumeError(
                f"cannot resume: line {number} of {path}, {line!r}, is not the next "
                f"canonical code of a {h}-hexagon shape"
            )
        previous = line
        keys.append(key)
    return keys, lines


def _levels(
    h_max: int,
    workers: int = 1,
    out_dir: Path | None = None,
    resume: bool = False,
):
    """Yield (h, canonical keys, codes) for every level from 1 to h_max.

    Every enumeration runs through this loop.  It refuses h_max above
    DEFAULT_MAX_H and more workers than CPU cores before any level is built.
    A grown level has its keys in grow order and codes None.  With
    ``resume``, the levels stored in ``out_dir`` are read back and only the
    levels above them are grown; a stored level comes with its checked
    codes, each beside its key, in code order.
    """
    if h_max < 1:
        raise ParamOutOfRange("h must be >= 1")
    if h_max > DEFAULT_MAX_H:
        raise ResourceLimit(f"enumeration to h={h_max} exceeds the cap of {DEFAULT_MAX_H}")
    if workers < 1:
        raise ParamOutOfRange("workers must be >= 1")
    cores = os.cpu_count() or 1
    if workers > cores:
        raise ResourceLimit(f"{workers} workers exceed the {cores} CPU cores of this machine")
    stored = 0
    if resume and out_dir is not None:
        stored = next((h for h in range(h_max, 0, -1) if _level_path(out_dir, h).is_file()), 0)
    keys: list[bytes] = []
    for h in range(1, h_max + 1):
        codes = None
        if h <= stored:
            keys, codes = _load_level(out_dir, h)
        elif h == 1:
            keys = [kernel.pack_cells(((0, 0),))]
        else:
            keys = _grow(keys, workers)
        yield h, keys, codes


def _last_level(h: int) -> list[bytes]:
    for _, keys, _ in _levels(h):
        pass
    return keys


def enumerate_benzenoids(h: int):
    """Yield every benzenoid with h hexagons exactly once, as its
    canonical normalised cell tuple, in sorted order."""
    for key in sorted(_last_level(h)):
        yield kernel.unpack_cells(key)


def count_benzenoids(h: int) -> int:
    return len(_last_level(h))


def _write(path: Path, chunks) -> None:
    """Write the text chunks beside ``path``, then move them into place."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="ascii") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _level_report(
    h: int, keys: list[bytes], out_dir: Path | None = None, codes: list[str] | None = None
) -> EnumerationReport:
    """Fold the deficits of level h into a report.

    ``codes`` holds the code of each key when it is known already;
    without it every shape is traced.  With ``out_dir``, also write, from
    h = 2 on, the level's report and extremal codes and then, sorting
    ``codes`` in place, its code file.
    """
    if codes is None:
        codes = [kernel.trace_code(key) for key in keys]
    # One byte per shape: a deficit is below the code's length, 4h + 2 at most.
    deficits = bytes(map(kernel.code_deficit, codes))
    distribution = Counter(deficits)
    best = max(distribution)
    extremal = [(code, key) for code, key, d in zip(codes, keys, deficits) if d == best]
    breakdown = Counter(condensation_class(kernel.unpack_cells(key)).value for _, key in extremal)
    rep = EnumerationReport(
        h=h,
        count=len(codes),
        distribution=dict(sorted(distribution.items())),
        mcd=best,
        ex=distribution[best],
        extremal_codes=tuple(sorted(code for code, _ in extremal)),
        extremal_breakdown=dict(sorted(breakdown.items())),
    )
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        if h >= 2:
            _write(out_dir / f"report_h{h}.json", [rep.to_json()])
            _write(out_dir / f"extremal_h{h}.txt", (code + "\n" for code in rep.extremal_codes))
        codes.sort()
        _write(_level_path(out_dir, h), (code + "\n" for code in codes))
    return rep


def report(h: int) -> EnumerationReport:
    """Enumerate level h and fold code and deficit over every benzenoid."""
    if h < 2:
        raise ParamOutOfRange("reports are defined for h >= 2")
    return _level_report(h, _last_level(h))


def run_search(
    h_max: int,
    *,
    workers: int = 1,
    out_dir: Path | str | None = None,
    resume: bool = False,
) -> list[EnumerationReport]:
    """Run the enumeration up to ``h_max``, optionally persisting each
    level, its report and its extremal codes to ``out_dir``.

    Written files are sorted and the whole output is byte-deterministic:
    it depends only on h, never on the worker count.  A level's code file
    is written last, so it marks a finished level.  With ``resume``,
    levels present as files are reloaded instead of recomputed, so the
    returned reports always cover every level from 2 to ``h_max``.
    """
    out_dir = Path(out_dir) if out_dir is not None else None
    levels = _levels(h_max, workers, out_dir=out_dir, resume=resume)
    reports = [_level_report(h, keys, out_dir, codes) for h, keys, codes in levels]
    return reports[1:]  # level 1, benzene alone, has no report


def enumerate_unbranched_fusenes(h: int) -> list[Code]:
    """Boundary codes of the unbranched catacondensed fusenes with h
    hexagons, one canonical representative per class, sorted.

    An unbranched fusene walks out along one side of its hexagon chain
    and back along the other, so its code is 5 s_1..s_{h-2} 5 followed by
    the complements 4 - s_i of the side symbols in reverse order.  All
    such codes close with winding 6; helicene-like members overlap when
    embedded but still count as fusenes.
    """
    if h < 2:
        raise ParamOutOfRange("unbranched fusenes need h >= 2")
    if h > DEFAULT_MAX_H:
        raise ResourceLimit(
            f"unbranched fusenes to h={h} exceed the cap of {DEFAULT_MAX_H}: "
            f"there are 3^{h - 2} chains to build"
        )
    seen = set()
    for side in itertools.product((1, 2, 3), repeat=h - 2):
        back = tuple(4 - s for s in reversed(side))
        seen.add(canonical(Code((5,) + side + (5,) + back)).symbols)
    return [Code(symbols) for symbols in sorted(seen)]


def max_cd_unbranched_benzenoids(h: int) -> tuple[int, tuple[Code, ...]]:
    """Largest convexity deficit over the unbranched benzenoids with h
    hexagons (fusenes that embed), plus every code attaining it."""
    best = -1
    witnesses: list[Code] = []
    for code in enumerate_unbranched_fusenes(h):
        try:
            embed(code)
        except (NotClosed, SelfIntersecting):
            continue
        deficit = convexity_deficit(code)
        assert deficit is not None
        if deficit > best:
            best = deficit
            witnesses = [code]
        elif deficit == best:
            witnesses.append(code)
    return best, tuple(witnesses)


def check_unimodal(values) -> bool:
    """True when the sequence rises (weakly) then falls (weakly)."""
    values = list(values)
    if not values:
        raise ValueError("empty sequence")
    i = 0
    while i + 1 < len(values) and values[i] <= values[i + 1]:
        i += 1
    while i + 1 < len(values) and values[i] >= values[i + 1]:
        i += 1
    return i == len(values) - 1
