"""Checks of the program's outputs against results computed apart from it.

Nothing here imports bechex: level files, reports and ``analyze``
results are checked against the published tables and against
``geometry``, which works from the definitions.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

import geometry

#: Free simply connected polyhexes with h hexagons, h = 1..12 (OEIS A018190).
A018190 = (1, 1, 3, 7, 22, 81, 331, 1435, 6505, 30086, 141229, 669584)

#: The paper's tables for h = 2..12: largest convexity deficit (mcd) and
#: the number of benzenoids attaining it (ex).
PAPER_MCD = (0, 1, 2, 3, 4, 6, 8, 10, 12, 14, 16)
PAPER_EX = (1, 1, 2, 6, 16, 3, 2, 3, 6, 16, 37)


class CheckFailed(Exception):
    """An output of the program differs from the independent result."""


def count(h: int) -> int:
    return A018190[h - 1]


def codes_through(h_max: int) -> int:
    """Codes written by an enumeration through h_max, one per benzenoid."""
    return sum(A018190[:h_max])


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _json(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckFailed(f"{what} is not JSON: {exc}") from None


def snapshot(out_dir: Path) -> dict[str, bytes]:
    """Every file of an output directory, by name."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def same_files(got: dict[str, bytes], want: dict[str, bytes], what: str) -> None:
    """Byte-for-byte equality of two output directories."""
    _require(
        sorted(got) == sorted(want),
        f"{what}: files {sorted(set(got) ^ set(want))} differ between the two runs",
    )
    for name in sorted(want):
        _require(got[name] == want[name], f"{what}: {name} differs byte for byte")


def check_level(h: int, text: str) -> list[str]:
    """Check one level file and return its codes.

    The file must hold A018190(h) lines, strictly increasing (so sorted
    and distinct), each a canonical code whose walk closes without
    revisiting a vertex around exactly h hexagons, with winding 6.
    """
    _require(text.endswith("\n"), f"h={h}: level file does not end in a newline")
    codes = text[:-1].split("\n")
    _require(
        len(codes) == count(h),
        f"h={h}: {len(codes)} codes, A018190 has {count(h)}",
    )
    for prev, code in zip(codes, codes[1:]):
        _require(prev < code, f"h={h}: {prev!r} then {code!r} is not sorted and distinct")
    if h == 1:
        _require(codes == ["6"], f"h=1: expected the benzene code, got {codes}")
        return codes
    for code in codes:
        _require(re.fullmatch(r"[1-5]+", code) is not None, f"h={h}: bad code {code!r}")
        _require(geometry.winding(code) == 6, f"h={h}: {code} has winding {geometry.winding(code)}")
        _require(geometry.canonical(code) == code, f"h={h}: {code} is not canonical")
        _require(geometry.walk(code) is not None, f"h={h}: walk of {code} does not close")
        _require(not geometry.revisits_vertex(code), f"h={h}: walk of {code} revisits a vertex")
        area = geometry.shoelace_hexagons(code)
        _require(area == h, f"h={h}: {code} encloses {area} hexagons")
    return codes


def check_report(h: int, codes: list[str], report_text: str, extremal_text: str) -> None:
    """Check a level's report and extremal file against a recount of its
    level file with the harness's own deficit, and against the paper."""
    report = _json(report_text, f"report_h{h}.json")
    deficits = {code: geometry.deficit(code) for code in codes}
    distribution = Counter(deficits.values())
    mcd = max(distribution)
    extremal = sorted(code for code, d in deficits.items() if d == mcd)
    breakdown = Counter(geometry.condensation(code) for code in extremal)
    _require(report.get("h") == h, f"report_h{h}: h is {report.get('h')}")
    _require(report.get("count") == len(codes), f"report_h{h}: count {report.get('count')} != {len(codes)}")
    got = {int(k): v for k, v in report.get("distribution", {}).items()}
    _require(got == dict(distribution), f"report_h{h}: distribution {got} != recount {dict(distribution)}")
    _require(report.get("mcd") == mcd, f"report_h{h}: mcd {report.get('mcd')} != recount {mcd}")
    _require(report.get("ex") == len(extremal), f"report_h{h}: ex {report.get('ex')} != recount {len(extremal)}")
    _require(report.get("extremal_codes") == extremal, f"report_h{h}: extremal codes differ from the recount")
    _require(
        report.get("extremal_breakdown") == dict(breakdown),
        f"report_h{h}: breakdown {report.get('extremal_breakdown')} != {dict(breakdown)}",
    )
    _require(
        (mcd, len(extremal)) == (PAPER_MCD[h - 2], PAPER_EX[h - 2]),
        f"h={h}: mcd/ex {mcd}/{len(extremal)}, the paper has {PAPER_MCD[h - 2]}/{PAPER_EX[h - 2]}",
    )
    _require(
        extremal_text == "".join(code + "\n" for code in extremal),
        f"extremal_h{h}.txt differs from the recount",
    )


def check_enumeration(files: dict[str, bytes], h_max: int) -> None:
    """Check every file an ``enumerate --out`` run through h_max writes."""
    want = {f"benzenoids_h{h}.txt" for h in range(1, h_max + 1)}
    for h in range(2, h_max + 1):
        want |= {f"report_h{h}.json", f"extremal_h{h}.txt"}
    _require(set(files) == want, f"output files differ: {sorted(set(files) ^ want)}")
    for h in range(1, h_max + 1):
        codes = check_level(h, files[f"benzenoids_h{h}.txt"].decode("ascii"))
        if h >= 2:
            check_report(
                h,
                codes,
                files[f"report_h{h}.json"].decode("ascii"),
                files[f"extremal_h{h}.txt"].decode("ascii"),
            )


def check_table(stdout: str, h_max: int) -> None:
    """Check the table ``enumerate`` prints: h, count, mcd, ex per level."""
    rows = [
        tuple(int(x) for x in line.split())
        for line in stdout.splitlines()
        if re.fullmatch(r"\s*\d+\s+\d+\s+\d+\s+\d+\s*", line)
    ]
    want = [
        (h, count(h), PAPER_MCD[h - 2], PAPER_EX[h - 2]) for h in range(2, h_max + 1)
    ]
    _require(rows == want, f"printed table {rows} != {want}")


def expected_analysis(code: str) -> dict:
    """The fields of one ``analyze --json`` result that the benchmark
    recomputes: canonical form and deficit from their definitions,
    embeddability from whether the walk revisits a vertex, and the
    hexagon count from the shoelace area of the walk."""
    out = {
        "code": code,
        "canonical": geometry.canonical(code),
        "length": len(code),
        "winding": geometry.winding(code),
        "deficit": geometry.deficit(code),
        "embeddable": code == "6" or not geometry.revisits_vertex(code),
    }
    if out["embeddable"]:
        area = geometry.shoelace_hexagons(code)
        if area.denominator != 1:
            raise ValueError(f"walk of {code} encloses {area} hexagons")
        out["hexagons"] = int(area)
    return out


def check_analysis(stdout: str, expected: list[dict]) -> None:
    """Check ``analyze --stdin --json`` output, result by result, in order."""
    results = _json(stdout, "analyze output").get("results", [])
    _require(len(results) == len(expected), f"{len(results)} results for {len(expected)} codes")
    for i, (got, want) in enumerate(zip(results, expected)):
        picked = {k: got.get(k) for k in want}
        _require(picked == want, f"result {i}: {picked} != {want}")
        if not want["embeddable"]:
            _require("hexagons" not in got, f"result {i}: non-embeddable {want['code']} has hexagons")
