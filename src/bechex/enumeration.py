"""Isomorph-free enumeration of benzenoids and extremal-deficit reports.

Each benzenoid with h hexagons is grown, by one free neighbour cell,
from exactly one shape with h - 1, its canonical parent (McKay,
J. Algorithms 26, 1998); the kernel's grow adds a cell only where its
occupied neighbours form one arc, so shapes stay hole-free and no
filter, set or sort deduplicates a level.  Every entry point takes its
levels from one walk of that tree from benzene, depth-first, _CHUNK
parents a kernel call, so a level is held whole only where
enumerate_benzenoids sorts it.  run_search deals the subtrees from
_ROOT_H out in slices to its workers, the main thread and a thread for
each further worker, which fold into one set of level totals under one
lock and run in parallel as the compiled kernel releases the GIL inside
grow and fold (with BECHEX_PURE they run one at a time).  Shapes equal
up to rotation, reflection and translation share one cell key.  With
out_dir, a level's one buffer of codes spills, sorted, into a run of
_RUN codes in a scratch file, and with more than one worker each slice
ends by spilling what the buffers hold; each level file is the merge of
its runs.  Files are written beside their targets, then moved, code
files last.  A resume grows every level too, and checks each stored one
against it: its line count before the walk, its lines after.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import json
import os
import shutil
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import _kernel as kernel
from .codes import SCHEMA_VERSION, Code, _code_condensation, canonical
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

#: Levels above this size are refused; the compiled kernel runs h = 12 in
#: about 3 s on a desk machine, every extra level costs roughly a factor of five.
DEFAULT_MAX_H = 14

#: Root level of the subtrees the workers walk: its 331 shapes, dealt
#: into 8 slices a worker, keep the workers evenly busy and are few to
#: hold.
_ROOT_H = 7

#: Parents grown in one kernel call: enough to spread the cost of a call,
#: few enough that the walk holds little at once.
_CHUNK = 1024

#: Codes of a level a run collects, whichever thread folds them, before
#: it sorts them into a run: at h = 14 three levels fill theirs, about
#: 27 MB each, so --out stays near 100 MB; a one-worker run to h = 11
#: writes no run.
_RUN = 1 << 18

#: Runs one merge opens at most, well under common open-file limits
#: (1,024 is usual); an h = 14 run with many workers can spill more.
_MERGE = 256


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


def _check_level(out_dir: Path, h: int, made=None, size: int = 0) -> None:
    """Raise ResumeError unless the stored level h reads whole, one line for
    each shape its report counts (level 1 has no report), and, given
    ``made``, is what the run made: the ``size`` lines ``made`` yields.
    Both are read a line at a time, never held whole."""
    path = _level_path(out_dir, h)
    lines, wrong, mine = 0, None, iter(made or ())
    try:
        with path.open(encoding="ascii", newline="\n") as fh:
            for lines, line in enumerate(fh, 1):
                if wrong is None and line != next(mine, line):
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
    if made is not None and lines != size:
        raise ResumeError(f"cannot resume: level file {path} has {lines} lines, the run makes {size}")


def _benzene(h_max: int) -> list[bytes]:
    """The root of every walk, benzene's key alone, once h_max is within its cap."""
    if h_max < 1:
        raise ParamOutOfRange("h must be >= 1")
    if h_max > DEFAULT_MAX_H:
        raise ResourceLimit(f"enumeration to h={h_max} exceeds the cap of {DEFAULT_MAX_H}")
    return [kernel.pack_cells(((0, 0),))]


def _walk(parents: list[bytes], depth: int):
    """Yield (0, parents), then (d, keys) for each chunk of the shapes d
    levels below them, up to ``depth``: depth-first, growing _CHUNK parents
    a kernel call, so the walk holds no level whole."""
    yield 0, parents
    if depth:
        for i in range(0, len(parents), _CHUNK):
            for d, keys in _walk(kernel.grow(parents[i:i + _CHUNK]), depth - 1):
                yield d + 1, keys


def enumerate_benzenoids(h: int):
    """Every benzenoid with h hexagons exactly once, as its canonical
    normalised cell tuple, in sorted order; only level h is held."""
    keys = [key for d, chunk in _walk(_benzene(h), h - 1) if d == h - 1 for key in chunk]
    return map(kernel.unpack_cells, sorted(keys))


def count_benzenoids(h: int) -> int:
    return sum(len(keys) for d, keys in _walk(_benzene(h), h - 1) if d == h - 1)


def _write(path: Path, chunks) -> None:
    """Write the text chunks beside ``path``, then move them into place."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="ascii") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _fold(keys: list[bytes]):
    """Fold some shapes of one level: (deficit Counter, (deficit, code) at
    its maximum, codes)."""
    # One byte per shape: a deficit is below the code's length, 4h + 2 at most.
    codes, deficits = kernel.fold(keys)
    best = max(deficits, default=None)
    extremal = [(d, code) for code, d in zip(codes, deficits) if d == best]
    return Counter(deficits), extremal, codes


def _lines(codes: list[str], runs):
    """Yield the lines of ``codes``, sorted in place, merged with those of
    ``runs``, each (file, offset, lines) of sorted lines.  Codes are
    distinct, and "\n" sorts below every digit, so lines merge in code order.
    No merge opens more than _MERGE runs: past that, the first _MERGE are
    merged into one more run beside them, until few enough are left."""
    codes.sort()
    runs = list(runs)
    while len(runs) > _MERGE:
        first, runs = runs[:_MERGE], runs[_MERGE:]
        folder = os.path.dirname(first[0][0])
        with tempfile.NamedTemporaryFile("w", encoding="ascii", dir=folder, delete=False) as fh:
            fh.writelines(_lines([], first))
        runs.append((fh.name, 0, sum(lines for _, _, lines in first)))
    with contextlib.ExitStack() as stack:
        parts = [(code + "\n" for code in codes)]
        for path, offset, lines in runs:
            fh = stack.enter_context(open(path, encoding="ascii", newline="\n"))
            fh.seek(offset)
            parts.append(itertools.islice(fh, lines))
        yield from heapq.merge(*parts)


def _spill(totals, runs_dir: Path) -> None:
    """Sort the code buffers of ``totals`` into one new file in ``runs_dir``,
    a run for each level, and empty them: few files, as each costs a create."""
    runs_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile("w", encoding="ascii", dir=runs_dir, delete=False) as fh:
        for _, _, codes, runs in totals:
            if codes:
                runs.append((fh.name, fh.tell(), len(codes)))
                codes.sort()
                for i in range(0, len(codes), 4096):  # a write of many lines holds the GIL less
                    fh.write("\n".join(codes[i:i + 4096]) + "\n")
                codes.clear()


def _add(total, fold, runs_dir: Path | None = None) -> None:
    """Add a fold of some shapes of one level into the level's running total,
    (deficit Counter, extremal list, code buffer or None to keep no codes,
    runs); a buffer of _RUN codes or more spills to ``runs_dir``."""
    distribution, extremal, codes, runs = total
    distribution.update(fold[0])
    best = max(distribution, default=None)
    extremal[:] = [e for e in extremal + fold[1] if e[0] == best]
    if codes is not None:
        codes += fold[2]
        if len(codes) >= _RUN:
            _spill([total], runs_dir)


def _descend(
    parents: list[bytes], totals: list, runs_dir: Path | None = None,
    lock=contextlib.nullcontext(), spill: bool = False,
) -> list:
    """Add the fold of ``parents`` into totals[0], and of the shapes d levels
    below them into totals[d], each under ``lock``; with ``spill``, end by
    spilling every code the totals hold."""
    for d, keys in _walk(parents, len(totals) - 1):
        fold = _fold(keys)  # the kernel call, outside the lock
        with lock:
            _add(totals[d], fold, runs_dir)
    if spill:
        with lock:
            _spill(totals, runs_dir)
    return totals


def _level_report(h: int, distribution, extremal, codes, runs, out_dir=None, stored=0) -> EnumerationReport:
    """Report the fold of all of level h; with ``out_dir``, merge ``codes``
    and ``runs`` into its lines, check them against the stored level when
    h <= ``stored``, then write from h = 2 its report and extremal codes,
    and last its code file unless that was checked."""
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
        if h <= stored:
            _check_level(out_dir, h, _lines(codes, runs), rep.count)
        out_dir.mkdir(parents=True, exist_ok=True)
        if h >= 2:
            _write(out_dir / f"report_h{h}.json", [rep.to_json()])
            _write(out_dir / f"extremal_h{h}.txt", (code + "\n" for code in rep.extremal_codes))
        if h > stored:  # a checked level file already holds these bytes
            _write(_level_path(out_dir, h), _lines(codes, runs))
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

    Written files are sorted and the whole output is byte-deterministic: it
    depends only on h, never on the worker count.  The main thread and
    ``workers`` - 1 more threads walk the slices of roots and fold each
    level into its one total under one lock; the first slice to raise, or an
    interrupt, cancels those not started, and the error is raised once the
    running ones end.  Each level file is the merge of the sorted runs that
    its buffer spills to ``out_dir/.runs`` at _RUN codes and, with more than
    one worker, at the end of each slice; that directory goes when the run
    ends, and a stale one before it starts.  A level's code file is written
    last, so it marks a finished level.  With ``resume``, which needs
    ``out_dir``, every level is still grown, and each level up to the top
    stored one is checked against its files: its line count against its
    report before the walk, its lines before any file of it is written.  A
    level file that is missing, unreadable, miscounted or not what the run
    made raises ResumeError.  The returned reports always cover every level
    from 2 to ``h_max``.
    """
    if workers < 1:
        raise ParamOutOfRange("workers must be >= 1")
    cores = os.cpu_count() or 1
    if workers > cores:
        raise ResourceLimit(f"{workers} workers exceed the {cores} CPU cores of this machine")
    if resume and out_dir is None:
        raise ParamOutOfRange("resume needs out_dir, the directory of --out")
    benzene = _benzene(h_max)
    out_dir = Path(out_dir) if out_dir is not None else None
    keep = out_dir is not None
    runs_dir = out_dir / ".runs" if keep else None
    stored = next((h for h in range(h_max if resume else 0, 0, -1) if _level_path(out_dir, h).is_file()), 0)
    for h in range(1, stored + 1):  # a miscounted level is refused before the walk
        _check_level(out_dir, h)
    totals = [(Counter(), [], [] if keep else None, []) for _ in range(h_max)]
    if keep and runs_dir.exists():  # a killed run left it
        shutil.rmtree(runs_dir)
    try:
        root, roots = min(h_max, _ROOT_H) - 1, []  # the levels above the roots are folded here
        for d, keys in _walk(benzene, root):
            if d < root:
                _add(totals[d], _fold(keys), runs_dir)
            else:
                roots += keys
        slices = iter([roots[i::8 * workers] for i in range(8 * workers)])
        lock, stop = threading.Lock(), []  # the one lock of the totals; the error that stops the rest

        def work():  # take slices, each once, until none is left or one has raised
            for part in slices:
                if stop:
                    return
                try:
                    _descend(part, totals[root:], runs_dir, lock, keep and workers > 1)
                except BaseException as error:  # whatever it is, the main thread raises it
                    stop.append(error)

        threads = [threading.Thread(target=work) for _ in range(workers - 1)]
        for thread in threads:
            thread.start()
        try:
            work()  # the main thread is a worker too
            for thread in threads:
                thread.join()
        finally:  # on an interrupt too: no slice starts, and no thread outlives .runs
            stop.append(None)
            for thread in threads:
                thread.join()
        if stop[0] is not None:
            raise stop[0]
        reports = [_level_report(h, *total, out_dir, stored) for h, total in enumerate(totals, 1)]
    finally:
        if keep and runs_dir.exists():
            shutil.rmtree(runs_dir)
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
    surveys = ((kernel.survey(str(code)), code) for code in enumerate_unbranched_fusenes(h))
    found = [(deficit, code) for (deficit, _, hexagons), code in surveys if hexagons > 0]
    best = max(deficit for deficit, _ in found)
    return best, tuple(code for deficit, code in found if deficit == best)


def check_unimodal(values) -> bool:
    """True when the sequence rises (weakly) then falls (weakly)."""
    values = list(values)
    if not values:
        raise ParamOutOfRange("empty sequence")
    steps = [b - a for a, b in zip(values, values[1:])]
    return all(step <= 0 for step in itertools.dropwhile(lambda step: step >= 0, steps))
