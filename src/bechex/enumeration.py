"""Isomorph-free enumeration of benzenoids and extremal-deficit reports.

Each benzenoid with h hexagons is grown, by one free neighbour cell, from
exactly one shape with h - 1, its canonical parent (McKay, J. Algorithms
26, 1998); the kernel's grow adds a cell only where its occupied
neighbours form one arc, so shapes stay hole-free and no filter, set or
sort deduplicates a level.  run_search builds the levels up to _ROOT_H
breadth-first, then grows, traces and folds the subtrees below it
depth-first, _CHUNK parents a kernel call, in slices over one pool when
there are more workers; it holds a level whole only to write its file.
Shapes equal up to rotation, reflection and translation share one cell
key.  Files are written beside their targets, then moved, code files last.
A resume grows every level too, and checks each stored one against it.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from . import _kernel as kernel
from .codes import Code, _code_condensation, canonical
from .errors import ParamOutOfRange, ResourceLimit, ResumeError

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

#: Root level of the subtrees run_search walks: its 331 shapes, dealt into
#: 8 slices a worker, keep the workers evenly busy and are few to hold.
_ROOT_H = 7

#: Parents grown in one kernel call below the root level: enough to spread
#: the cost of a call, few enough that the walk holds little at once.
_CHUNK = 1024


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


def _level_path(out_dir: Path, h: int) -> Path:
    return out_dir / f"benzenoids_h{h}.txt"


def _check_level(out_dir: Path, h: int, codes: list[str]) -> None:
    """Raise ResumeError unless the stored level h is what the run made:
    ``codes``, sorted, one a line, as many as its report counts (level 1
    has no report).  The file is read a line at a time, never held whole."""
    path = _level_path(out_dir, h)
    lines, wrong = 0, None
    try:
        with path.open(encoding="ascii", newline="\n") as fh:
            for lines, line in enumerate(fh, 1):
                if wrong is None and lines <= len(codes) and line != codes[lines - 1] + "\n":
                    wrong = lines, line.rstrip("\n")
    except (OSError, ValueError) as exc:
        raise ResumeError(f"cannot resume: cannot read level file {path}: {exc}") from None
    report_path = out_dir / f"report_h{h}.json"
    try:
        count = json.loads(report_path.read_text("ascii"))["count"] if h >= 2 else 1
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise ResumeError(f"cannot resume: cannot read a count from {report_path}: {exc!r}") from None
    if lines != count:
        raise ResumeError(f"cannot resume: level file {path} has {lines} lines, its report counts {count}")
    if wrong is not None:
        raise ResumeError(
            f"cannot resume: line {wrong[0]} of {path}, {wrong[1]!r}, is not the next "
            f"canonical code of a {h}-hexagon shape"
        )
    if lines != len(codes):
        raise ResumeError(f"cannot resume: level file {path} has {lines} lines, the run makes {len(codes)}")


def _levels(h_max: int):
    """Yield (h, canonical keys) for levels 1 to h_max once it is within its cap."""
    if h_max < 1:
        raise ParamOutOfRange("h must be >= 1")
    if h_max > DEFAULT_MAX_H:
        raise ResourceLimit(f"enumeration to h={h_max} exceeds the cap of {DEFAULT_MAX_H}")
    keys = [kernel.pack_cells(((0, 0),))]
    for h in range(1, h_max + 1):
        if h > 1:
            keys = kernel.grow(keys)
        yield h, keys


def _last_level(h: int) -> list[bytes]:
    for _, keys in _levels(h):
        pass
    return keys


def enumerate_benzenoids(h: int):
    """Yield every benzenoid with h hexagons exactly once, as its
    canonical normalised cell tuple, in sorted order."""
    yield from map(kernel.unpack_cells, sorted(_last_level(h)))


def count_benzenoids(h: int) -> int:
    return len(_last_level(h))


def _write(path: Path, chunks) -> None:
    """Write the text chunks beside ``path``, then move them into place."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="ascii") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _fold(keys: list[bytes]):
    """Fold some shapes of one level: (deficit Counter, (deficit, code) at
    its maximum, codes)."""
    codes = list(map(kernel.trace_code, keys))
    # One byte per shape: a deficit is below the code's length, 4h + 2 at most.
    deficits = bytes(map(kernel.code_deficit, codes))
    best = max(deficits, default=None)
    extremal = [(d, code) for code, d in zip(codes, deficits) if d == best]
    return Counter(deficits), extremal, codes


def _add(total, fold) -> None:
    """Add a fold of some shapes of one level into the level's running total,
    (deficit Counter, extremal list, code list or None to keep no codes)."""
    distribution, extremal, codes = total
    distribution.update(fold[0])
    best = max(distribution, default=None)
    extremal[:] = [e for e in extremal + fold[1] if e[0] == best]
    if codes is not None:
        codes.extend(fold[2])


def _descend(parents: list[bytes], totals: list) -> list:
    """Add the folds of the levels below ``parents`` into ``totals``, nearest
    first; growing _CHUNK parents at a time, the walk holds no level whole."""
    for i in range(0, len(parents), _CHUNK):
        keys = kernel.grow(parents[i:i + _CHUNK])
        _add(totals[0], _fold(keys))
        if len(totals) > 1:
            _descend(keys, totals[1:])
    return totals


def _level_report(h: int, distribution, extremal, codes, out_dir=None, stored=0) -> EnumerationReport:
    """Report the fold of all of level h; with ``out_dir``, sort ``codes``,
    check them against the stored level when h <= ``stored``, then write
    from h = 2 its report and extremal codes, and last its code file
    unless that was checked."""
    best = max(distribution)
    breakdown = Counter(_code_condensation(code, h).value for _, code in extremal)
    rep = EnumerationReport(
        h=h,
        count=sum(distribution.values()),
        distribution=dict(sorted(distribution.items())),
        mcd=best,
        ex=distribution[best],
        extremal_codes=tuple(sorted(code for _, code in extremal)),
        extremal_breakdown=dict(sorted(breakdown.items())),
    )
    if out_dir is not None:
        codes.sort()
        if h <= stored:
            _check_level(out_dir, h, codes)
        out_dir.mkdir(parents=True, exist_ok=True)
        if h >= 2:
            _write(out_dir / f"report_h{h}.json", [rep.to_json()])
            _write(out_dir / f"extremal_h{h}.txt", (code + "\n" for code in rep.extremal_codes))
        if h > stored:  # a checked level file already holds these bytes
            _write(_level_path(out_dir, h), (code + "\n" for code in codes))
    return rep


def report(h: int) -> EnumerationReport:
    """Enumerate level h and fold code and deficit over every benzenoid."""
    if h < 2:
        raise ParamOutOfRange("reports are defined for h >= 2")
    return run_search(h)[-1]


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
    which needs ``out_dir``, every level is still grown, and each level
    up to the top stored one is checked against its files before any file
    of it is written: a level file that is missing, unreadable or not what
    the run made raises ResumeError.  The returned reports always cover
    every level from 2 to ``h_max``.
    """
    if workers < 1:
        raise ParamOutOfRange("workers must be >= 1")
    cores = os.cpu_count() or 1
    if workers > cores:
        raise ResourceLimit(f"{workers} workers exceed the {cores} CPU cores of this machine")
    if resume and out_dir is None:
        raise ParamOutOfRange("resume needs out_dir, the directory of --out")
    out_dir = Path(out_dir) if out_dir is not None else None
    keep = out_dir is not None
    # The scan for stored levels stops at the cap; _levels refuses a higher h_max.
    top = min(h_max, DEFAULT_MAX_H) if resume else 0
    stored = next((h for h in range(top, 0, -1) if _level_path(out_dir, h).is_file()), 0)
    root_h = min(h_max, _ROOT_H)
    reports = []
    for h, roots in _levels(h_max):
        reports.append(_level_report(h, *_fold(roots), out_dir, stored))
        if h == root_h:
            break
    totals = [(Counter(), [], [] if keep else None) for _ in range(root_h, h_max)]
    if totals and workers == 1:
        _descend(roots, totals)
    elif totals:  # each slice walks from empty totals of its own; they are added in as they come
        import multiprocessing
        descend = partial(_descend, totals=[(Counter(), [], [] if keep else None) for _ in totals])
        slices = [roots[i::8 * workers] for i in range(8 * workers)]
        with multiprocessing.Pool(workers) as pool:
            for folds in pool.imap_unordered(descend, slices):
                for total, fold in zip(totals, folds):
                    _add(total, fold)
    reports += [_level_report(h, *total, out_dir, stored) for h, total in enumerate(totals, root_h + 1)]
    return reports[1:]  # level 1, benzene alone, has no report


def enumerate_unbranched_fusenes(h: int) -> list[Code]:
    """Boundary codes of the unbranched catacondensed fusenes with h
    hexagons, one canonical representative per class, sorted; each is the
    chain code of families._chain for one side of h - 2 turns.

    The sides s, s reversed, 4 - s and 4 - s reversed give one chain read
    from another end or the other way round, so only the least is built.
    """
    from .families import _chain
    if h < 2:
        raise ParamOutOfRange("unbranched fusenes need h >= 2")
    if h > DEFAULT_MAX_H:
        raise ResourceLimit(
            f"unbranched fusenes to h={h} exceed the cap of {DEFAULT_MAX_H}: "
            f"there are 3^{h - 2} chains to build"
        )
    classes = set()
    for side in itertools.product((1, 2, 3), repeat=h - 2):
        other = tuple(4 - s for s in side)
        if side <= min(side[::-1], other, other[::-1]):
            classes.add(canonical(Code(_chain(side))).symbols)
    return [Code(symbols) for symbols in sorted(classes)]


def max_cd_unbranched_benzenoids(h: int) -> tuple[int, tuple[Code, ...]]:
    """Largest convexity deficit over the unbranched benzenoids with h
    hexagons (fusenes that embed), plus every code attaining it."""
    found = [
        (kernel.code_deficit(str(code)), code)
        for code in enumerate_unbranched_fusenes(h)
        if kernel.code_key(str(code)) is not None
    ]
    best = max(deficit for deficit, _ in found)
    return best, tuple(code for deficit, code in found if deficit == best)


def check_unimodal(values) -> bool:
    """True when the sequence rises (weakly) then falls (weakly)."""
    values = list(values)
    if not values:
        raise ParamOutOfRange("empty sequence")
    steps = [b - a for a, b in zip(values, values[1:])]
    return all(step <= 0 for step in itertools.dropwhile(lambda step: step >= 0, steps))
