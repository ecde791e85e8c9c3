"""Command line interface.

Exit codes: 0 success, 1 malformed code string, 2 code that cannot be
embedded as a benzenoid, 3 usage errors (bad arguments, unknown names,
out-of-range options, codes of more than MAX_PERIMETER edges, files that
cannot be read or written), 130 (128 + SIGINT) when interrupted, 141
(128 + SIGPIPE) when the reader of standard output closed it early.
``main`` alone turns an exception into an exit code.  A command imports
the lattice, the families, the renderer or the enumeration engine only
when it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from dataclasses import asdict

from . import _kernel as kernel
from ._kernel.common import MAX_PERIMETER, check_edges
from .codes import SCHEMA_VERSION, Code, _code_condensation, _code_digits, _convexity_kind, canonical
from .errors import (
    BechexError,
    Disconnected,
    Holed,
    InvalidSymbols,
    NotClosed,
    ParamOutOfRange,
    ResourceLimit,
    SelfIntersecting,
)

_EXIT_OK = 0
_EXIT_BAD_CODE = 1
_EXIT_NOT_EMBEDDABLE = 2
_EXIT_USAGE = 3

#: Exit code of each exception a command may raise, first match wins.
_EXIT_CODES = (
    (InvalidSymbols, _EXIT_BAD_CODE),
    ((NotClosed, SelfIntersecting, Disconnected, Holed), _EXIT_NOT_EMBEDDABLE),
    ((BechexError, OSError), _EXIT_USAGE),
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we reserve 2 for geometry.
    An argument no parser takes is refused by the one it was given to, so
    the usage shown is the command's, not the root parser's."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_EXIT_USAGE)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _path(text: str) -> str:
    """A file or directory argument; an empty one names none, a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


def _code_text(text: str) -> tuple[str, int]:
    """The digits and edge count of a code given to a command, refused as
    parse_code refuses it; one of more than MAX_PERIMETER edges raises
    ResourceLimit before any work on it."""
    digits = _code_digits(text)
    edges = sum(digits.encode()) - 48 * len(digits)  # an ASCII digit is 48 + its value
    check_edges(edges)
    return digits, edges


def _parse(text: str) -> Code:
    """Parse a code given to a command, refused as _code_text refuses it."""
    return Code(tuple(map(int, _code_text(text)[0])))


def _emit(payload: dict, as_json: bool, lines) -> None:
    """Print ``payload`` as JSON or else ``lines``; every command but analyze writes so."""
    if as_json:
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


#: One flat result dict as its lines in _emit's output, less the braces;
#: with no indent, json encodes it in C.
_RESULT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def _emit_results(results: list) -> None:
    """Write the bytes of _emit({"results": results}, True, []), where each
    result is a flat dict, one result at a time."""
    write = sys.stdout.write
    write('{\n  "results": [')
    for i, payload in enumerate(results):
        write(("," if i else "") + "\n    {\n      " + _RESULT_ENCODER.encode(payload)[1:-1] + "\n    }")
    write(("\n  " if results else "") + f'],\n  "schema_version": {SCHEMA_VERSION}\n}}\n')


def _analyze_one(text: str) -> dict:
    """The analysis of one code given as text, off one kernel survey of its walk."""
    text, edges = _code_text(text)
    deficit, canon, hexagons = kernel.survey(text)
    payload = {
        "code": text,
        "canonical": canon,
        "length": len(text),
        "winding": edges - 2 * len(text),
        "deficit": None if deficit < 0 else deficit,
        "class": _convexity_kind(text).value,
        "embeddable": hexagons > 0,
    }
    if hexagons > 0:
        payload.update(hexagons=hexagons, condensation=_code_condensation(canon, hexagons).value)
    else:
        payload["reason"] = (SelfIntersecting if hexagons else NotClosed).__name__
    return payload


def _analyze_lines(payload: dict):
    yield f"code:         {payload['code']}"
    yield f"canonical:    {payload['canonical']}"
    yield f"length:       {payload['length']}"
    yield f"winding:      {payload['winding']}"
    deficit = payload["deficit"]
    yield f"deficit:      {'undefined' if deficit is None else deficit}"
    yield f"class:        {payload['class']}"
    if payload["embeddable"]:
        yield f"hexagons:     {payload['hexagons']}"
        yield f"condensation: {payload['condensation']}"
    else:
        yield f"embeddable:   no ({payload['reason']})"


def _cmd_analyze(args) -> int:
    if args.stdin:
        texts = [text for text in map(str.strip, sys.stdin) if text]
    else:
        texts = [args.code]
    results = []
    for text in texts:
        try:
            results.append(_analyze_one(text))
        except InvalidSymbols as exc:
            results.append({"code": text, "error": type(exc).__name__, "message": str(exc)})
    if args.json:
        _emit_results(results)
    else:
        shown = 0
        for payload in results:
            if "error" in payload:
                print(f"error: {payload['message']}", file=sys.stderr)
                continue
            if shown:
                print()
            shown += 1
            for line in _analyze_lines(payload):
                print(line)
    bad = any("error" in payload for payload in results)
    return _EXIT_BAD_CODE if bad else _EXIT_OK


def _cmd_canonical(args) -> int:
    code = _parse(args.code)
    canon = canonical(code)
    _emit({"code": str(code), "canonical": str(canon)}, args.json, [str(canon)])
    return _EXIT_OK


def _cmd_validate(args) -> int:
    from .lattice import embed
    code = _parse(args.code)
    try:
        shape = embed(code)
    except BechexError as exc:
        payload = {"code": str(code), "valid": False, "reason": type(exc).__name__}
        _emit(payload, args.json, [f"invalid: {type(exc).__name__}: {exc}"])
        return _EXIT_NOT_EMBEDDABLE
    payload = {
        "code": str(code),
        "valid": True,
        "hexagons": shape.hexagons,
        "condensation": shape.condensation.value,
    }
    _emit(payload, args.json, [f"valid: {shape.hexagons} hexagon(s), {shape.condensation.value}"])
    return _EXIT_OK


def _cmd_embed(args) -> int:
    from .lattice import embed
    code = _parse(args.code)
    shape = embed(code)
    lines = [f"{q} {r}" for q, r in shape.cells]
    if args.cells_out:
        with open(args.cells_out, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
    payload = {
        "code": str(code),
        "canonical": str(shape.code),
        "hexagons": shape.hexagons,
        "condensation": shape.condensation.value,
        "cells": [list(c) for c in shape.cells],
    }
    _emit(payload, args.json, lines)
    return _EXIT_OK


#: Cells of a cell file at most.  n cells have at least 2 ceil(sqrt(12n - 3))
#: boundary edges (Harary & Harborth, J. Combin. Inform. System Sci. 1,
#: 1976), so more than this many, 21,845, have more than MAX_PERIMETER.
_MAX_FILE_CELLS = ((MAX_PERIMETER // 2) ** 2 + 3) // 12


def _read_cells(path: str):
    """The cells of a cell file, in file order; a cell set that is not a
    benzenoid raises Disconnected or Holed, one of more than
    MAX_PERIMETER boundary edges ResourceLimit; reading stops at the first
    cell more than such edges can hold."""
    from .lattice import NEIGHBOR_OFFSETS, trace
    cells = {}
    # An undecodable byte becomes U+FFFD and so makes its line a bad cell line.
    with open(path, encoding="utf-8", errors="replace") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                q, r = map(int, line.split())
            except ValueError:
                raise ParamOutOfRange(f"bad cell line {raw!r}") from None
            if (q, r) in cells:
                raise ParamOutOfRange(f"cell line {raw!r} repeats a cell")
            cells[q, r] = None
            if len(cells) > _MAX_FILE_CELLS:
                raise ResourceLimit(
                    f"a cell file of more than {_MAX_FILE_CELLS} cells exceeds the limit of "
                    f"{MAX_PERIMETER} boundary edges"
                )
    if not cells:
        raise ParamOutOfRange("empty cell file")
    # The cell sides that face no cell: 6n less two per adjacent pair.
    edges = sum((q + dq, r + dr) not in cells for q, r in cells for dq, dr in NEIGHBOR_OFFSETS)
    if edges > MAX_PERIMETER:
        raise ResourceLimit(
            f"a cell file of {edges} boundary edges exceeds the limit of {MAX_PERIMETER}"
        )
    cells = tuple(cells)
    trace(cells)
    return cells


def _cmd_render(args) -> int:
    from .lattice import embed
    from .render import RenderOptions, to_svg, to_tikz
    if args.cells:
        cells = _read_cells(args.cells)
    else:
        cells = embed(_parse(args.code)).cells
    options = RenderOptions(
        edge_length=args.edge_length,
        label_cells=args.labels,
        stroke=args.stroke,
        fill=args.fill,
    )
    text = to_svg(cells, options) if args.format == "svg" else to_tikz(cells, options)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _EXIT_OK


def _cmd_family(args) -> int:
    from . import families
    if args.list:
        described = [(fid, families.family_description(fid)) for fid in families.FAMILY_IDS]
        payload = {"families": [{"id": fid, "description": text} for fid, text in described]}
        _emit(payload, args.json, [f"{fid:10s} {text}" for fid, text in described])
        return _EXIT_OK
    code = families.generate(args.family, *args.params)
    h = families.expected_h(args.family, *args.params)
    cd = families.expected_cd(args.family, *args.params)
    payload = {
        "family": args.family.lower(),
        "params": list(args.params),
        "code": str(code),
        "canonical": str(canonical(code)),
        "hexagons": h,
        "deficit": cd,
    }
    _emit(payload, args.json, [f"code:     {code}", f"hexagons: {h}", f"deficit:  {cd}"])
    return _EXIT_OK


def _compound_payload(item) -> dict:
    """The --json record of a families.NamedCompound."""
    data = asdict(item)
    data["names"] = list(item.names)
    data["kind"] = item.kind.value
    return data


def _cmd_lookup(args) -> int:
    from . import families
    if args.all:
        items = families.compounds()
        lines = [f"{item.bec:24s} h={item.hexagons:<3d} {item.name}" for item in items]
        _emit({"compounds": [_compound_payload(i) for i in items]}, args.json, lines)
        return _EXIT_OK
    item = families.lookup(args.query)
    payload = _compound_payload(item)
    lines = [
        f"name:     {item.name}",
        f"code:     {item.bec}",
        f"hexagons: {item.hexagons}",
        f"class:    {item.kind.value}",
        f"deficit:  {item.deficit}",
        f"formula:  {item.formula}",
    ]
    if item.cas:
        lines.append(f"cas:      {item.cas}")
    if len(item.names) > 1:
        lines.append("aka:      " + "; ".join(item.names[1:]))
    _emit(payload, args.json, lines)
    return _EXIT_OK


def _cmd_enumerate(args) -> int:
    from . import enumeration
    reports = enumeration.run_search(
        args.hexagons, workers=args.threads, out_dir=args.out, resume=args.resume
    )
    lines = [f"{'h':>3s} {'count':>10s} {'max_cd':>6s} {'extremal':>9s}"]
    lines += [f"{r.h:3d} {r.count:10d} {r.mcd:6d} {r.ex:9d}" for r in reports]
    if args.out:
        lines.append(f"per-level files written to {args.out}")
    _emit({"levels": [r.to_dict() for r in reports]}, args.json, lines)
    return _EXIT_OK


def _cmd_unbranched_max(args) -> int:
    from . import enumeration
    value, witnesses = enumeration.max_cd_unbranched_benzenoids(args.hexagons)
    payload = {
        "hexagons": args.hexagons,
        "max_deficit": value,
        "witnesses": [str(w) for w in witnesses],
    }
    lines = [f"max deficit over unbranched benzenoids with h={args.hexagons}: {value}"]
    lines += [f"  {w}" for w in witnesses]
    _emit(payload, args.json, lines)
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bechex", description="Boundary edge code toolkit for benzenoids.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, has_json=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if has_json:
            p.add_argument("--json", action="store_true", help="machine readable output")
        return p

    p = add("analyze", _cmd_analyze, "winding, deficit and convexity class of a code")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("code", nargs="?", help="boundary edge code, e.g. 5351")
    g.add_argument("--stdin", action="store_true", help="read one code per line from stdin")

    p = add("canonical", _cmd_canonical, "canonical rotation/reflection form of a code")
    p.add_argument("code")

    p = add("validate", _cmd_validate, "check that a code closes up into a benzenoid")
    p.add_argument("code")

    p = add("embed", _cmd_embed, "axial cells of the benzenoid described by a code")
    p.add_argument("code")
    p.add_argument("--cells-out", type=_path, metavar="FILE", help="write one 'q r' pair per line")

    p = add("render", _cmd_render, "draw a code or a cell file as SVG or TikZ", has_json=False)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("code", nargs="?")
    g.add_argument("--cells", type=_path, metavar="FILE", help="read 'q r' lines instead of embedding a code")
    p.add_argument("--format", choices=("svg", "tikz"), default="svg")
    p.add_argument("-o", "--output", type=_path, metavar="FILE")
    p.add_argument("--edge-length", type=float, default=30.0)
    p.add_argument("--labels", action="store_true", help="label each cell with its coordinates")
    p.add_argument("--stroke", default="black")
    p.add_argument("--fill", default="none")

    p = add("family", _cmd_family, "generate a parametric benzenoid family member")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("family", nargs="?", help="family id, see --list")
    p.add_argument("params", nargs="*", type=int)
    g.add_argument("--list", action="store_true", help="list known families")

    p = add("lookup", _cmd_lookup, "look up a named small benzenoid")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("query", nargs="?", help="compound name or boundary edge code")
    g.add_argument("--all", action="store_true", help="print the whole dataset")

    p = add("enumerate", _cmd_enumerate, "enumerate all benzenoids up to a hexagon count")
    p.add_argument("--hexagons", type=int, required=True, metavar="H")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", type=_path, metavar="DIR", help="write per-level code/report files")
    p.add_argument(
        "--resume", action="store_true", help="finish a run in --out, checking each stored level file"
    )

    p = add("unbranched-max", _cmd_unbranched_max, "largest deficit over unbranched benzenoids")
    p.add_argument("--hexagons", type=int, required=True, metavar="H")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # run() exits 141
    except (BechexError, OSError) as exc:
        status = next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
        kind = f"{type(exc).__name__}: " if status == _EXIT_NOT_EMBEDDABLE else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return status
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 128 + signal.SIGINT


def run() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone, as in `bechex ... | head`.  Point stdout at
        # /dev/null so the flush at exit cannot fail again, and exit as a
        # process killed by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 128 + signal.SIGPIPE
    sys.exit(status)


if __name__ == "__main__":
    run()
