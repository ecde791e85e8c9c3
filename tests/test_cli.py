"""Command line behaviour: output shapes, files and exit codes."""

import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

import bechex._kernel as kernel
from bechex.cli import main
from bechex.codes import parse_code
from bechex.enumeration import enumerate_unbranched_fusenes, run_search
from bechex.errors import ResourceLimit
from bechex.families import FAMILY_IDS, family_description
from bechex.lattice import embed, trace


def run_cli(*argv, stdin: str = ""):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


#: The 271-cell hexagonal block of side 10, above the kernel's MAX_CELLS.
HEXAGONAL_BLOCK = tuple(
    (q, r) for q in range(-9, 10) for r in range(-9, 10) if abs(q + r) <= 9
)
#: Two 67-cell arms meeting at a corner: 133 cells and 534 edges, whose
#: code walks a grid of 69 x 135 slots, above the kernel's MAX_GRID.
TWO_ARMS = tuple((i, 0) for i in range(67)) + tuple((66, j) for j in range(1, 67))


class TestAnalyze:
    def test_human_output(self):
        code, out, _ = run_cli("analyze", "5351")
        assert code == 0
        assert "winding:      6" in out
        assert "class:        pseudo-convex" in out
        assert "condensation: catacondensed-unbranched" in out

    def test_json_output(self):
        code, out, _ = run_cli("analyze", "5351", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["schema_version"] == 1
        (result,) = data["results"]
        assert result["canonical"] == "5351"
        assert result["deficit"] == 1
        assert result["embeddable"] is True
        assert result["hexagons"] == 3

    def test_not_embeddable_is_still_analyzable(self):
        code, out, _ = run_cli("analyze", "535151", "--json")
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["embeddable"] is False
        assert result["reason"] == "NotClosed"

    def test_stdin_batch(self):
        code, out, _ = run_cli("analyze", "--stdin", "--json", stdin="55\n444\n")
        assert code == 0
        results = json.loads(out)["results"]
        assert [r["code"] for r in results] == ["55", "444"]

    def test_stdin_reports_bad_lines_and_keeps_good_ones(self):
        code, out, _ = run_cli("analyze", "--stdin", "--json", stdin="55\n5x1\n4343\n")
        assert code == 1
        results = json.loads(out)["results"]
        assert [r["code"] for r in results] == ["55", "5x1", "4343"]
        assert [r.get("error") for r in results] == [None, "InvalidSymbols", None]
        assert "5x1" in results[1]["message"]
        assert [r["hexagons"] for r in (results[0], results[2])] == [2, 4]

    def test_stdin_bad_line_in_text_mode(self):
        code, out, err = run_cli("analyze", "--stdin", stdin="55\n5x1\n4343\n")
        assert code == 1
        assert out.count("canonical:") == 2
        assert err.count("error:") == 1 and "5x1" in err

    def test_missing_argument(self):
        code, _, err = run_cli("analyze")
        assert code == 3
        assert "error" in err

    def test_bad_code_exits_1(self):
        code, _, err = run_cli("analyze", "90210")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("command", ["analyze", "canonical", "validate", "embed"])
    def test_non_ascii_digits_exit_1(self, command):
        for text in ("\u00b23", "\u0663\u0663"):  # superscript two, Arabic-Indic threes
            code, out, err = run_cli(command, text)
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and "Traceback" not in err

    def test_stdin_non_ascii_digit_line_is_an_error_entry(self):
        code, out, _ = run_cli("analyze", "--stdin", "--json", stdin="55\n\u00b23\n4343\n")
        assert code == 1
        results = json.loads(out)["results"]
        assert [r.get("error") for r in results] == [None, "InvalidSymbols", None]
        assert [r["hexagons"] for r in (results[0], results[2])] == [2, 4]

    @pytest.mark.parametrize("cells", [HEXAGONAL_BLOCK, TWO_ARMS], ids=["block", "arms"])
    def test_a_shape_above_the_kernel_limits_is_embedded(self, cells):
        text = str(trace(cells))
        with pytest.raises(ResourceLimit):
            kernel.code_key(text)
        code, out, _ = run_cli("analyze", text, "--json")
        assert code == 0
        (result,) = json.loads(out)["results"]
        shape = embed(parse_code(text))
        assert result["embeddable"] is True
        assert result["hexagons"] == shape.hexagons == len(cells)
        assert result["condensation"] == shape.condensation.value
        assert result["canonical"] == str(shape.code) == text


#: Lines whose parse fails, with messages that hold ', ", \ and non-ASCII characters.
AWKWARD_LINES = ["5'1", '5"1', "5\\1", "5\u00e91", "\u00b23", "55 \u2603"]


def _indented(out: str) -> str:
    """The bytes json.dumps(..., sort_keys=True, indent=2) gives the payload of out."""
    return json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class TestAnalyzeJsonBytes:
    """analyze --json writes each result through the C encoder, in the bytes
    of the indented encoder."""

    def test_a_mixed_batch(self, breadth_first):
        enumerated = [kernel.trace_code(key) for h, keys in breadth_first(5) for key in keys]
        fusenes = [str(c) for c in enumerate_unbranched_fusenes(7) if kernel.code_key(str(c)) is None]
        large = str(trace(HEXAGONAL_BLOCK))
        lines = enumerated + fusenes + [large, "535151", "  444  "]
        code, out, _ = run_cli("analyze", "--stdin", "--json", stdin="\n".join(lines) + "\n")
        assert code == 0 and fusenes
        results = json.loads(out)["results"]
        assert len(results) == len(lines)
        assert {r["embeddable"] for r in results} == {True, False}
        assert out == _indented(out)

    def test_error_lines(self):
        stdin = "\n".join(["55"] + AWKWARD_LINES) + "\n"
        code, out, _ = run_cli("analyze", "--stdin", "--json", stdin=stdin)
        assert code == 1
        results = json.loads(out)["results"]
        assert [r["code"] for r in results[1:]] == [line.strip() for line in AWKWARD_LINES]
        assert all(r["error"] == "InvalidSymbols" for r in results[1:])
        assert out == _indented(out)
        assert "\\u00e9" in out and "\\\"" in out and "\\\\" in out

    @pytest.mark.parametrize("stdin", ["", "\n  \n"], ids=["empty", "blank"])
    def test_no_results(self, stdin):
        code, out, _ = run_cli("analyze", "--stdin", "--json", stdin=stdin)
        assert code == 0
        assert out == _indented(out) == '{\n  "results": [],\n  "schema_version": 1\n}\n'

    def test_one_code(self):
        code, out, _ = run_cli("analyze", " 5351 ", "--json")
        assert code == 0
        assert json.loads(out)["results"][0]["code"] == "5351"
        assert out == _indented(out)


#: A code of 16,010 edges, far above the limit of 1,024; at that length
#: canonical form and deficit used to take most of a minute.
LONG_CODE = "5" + "1" * 16005


class TestCodeLength:
    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["analyze", LONG_CODE], ""),
            (["analyze", "--stdin", "--json"], "55\n" + LONG_CODE + "\n"),
            (["canonical", LONG_CODE], ""),
            (["validate", LONG_CODE], ""),
            (["embed", LONG_CODE], ""),
            (["render", LONG_CODE], ""),
            (["lookup", LONG_CODE], ""),
        ],
        ids=["analyze", "analyze-stdin", "canonical", "validate", "embed", "render", "lookup"],
    )
    def test_a_code_above_the_perimeter_limit_exits_3_at_once(self, argv, stdin):
        start = time.perf_counter()
        code, out, err = run_cli(*argv, stdin=stdin)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "16010 edges exceeds the limit of 1024" in err

    def test_a_stdin_line_of_twenty_million_symbols_exits_3_at_once(self):
        start = time.perf_counter()
        code, out, err = run_cli("analyze", "--stdin", "--json", stdin="5" * 20_000_000 + "\n")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "100000000 edges exceeds the limit of 1024" in err

    def test_a_stdin_line_of_twenty_million_symbols_and_a_bad_one_exits_1_at_once(self):
        start = time.perf_counter()
        code, out, _ = run_cli("analyze", "--stdin", "--json", stdin="5" * 20_000_000 + "0\n")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        (result,) = json.loads(out)["results"]
        assert result["error"] == "InvalidSymbols"
        assert result["message"].startswith("symbol 0 not in 1..5 ")

    def test_a_long_line_with_other_characters_is_still_malformed(self):
        code, out, _ = run_cli("analyze", "--stdin", "--json", stdin="5" * 2000 + "x\n")
        assert code == 1
        assert [r["error"] for r in json.loads(out)["results"]] == ["InvalidSymbols"]

    def test_a_code_at_the_limit_is_analyzed(self):
        code, out, _ = run_cli("analyze", "5" + "1" * 1019, "--json")
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["length"] == 1020
        assert result["embeddable"] is False


class TestSimpleCommands:
    def test_canonical(self):
        assert run_cli("canonical", "1535")[:2] == (0, "5351\n")

    def test_validate_ok(self):
        code, out, _ = run_cli("validate", "444")
        assert code == 0
        assert "valid: 3 hexagon" in out

    def test_validate_rejects_open_walk(self):
        code, _, _ = run_cli("validate", "535151")
        assert code == 2

    def test_validate_json(self):
        code, out, _ = run_cli("validate", "5111153333", "--json")
        assert code == 2
        data = json.loads(out)
        assert data["valid"] is False
        assert data["reason"] == "SelfIntersecting"

    def test_embed_writes_cells(self, tmp_path):
        target = tmp_path / "cells.txt"
        code, out, _ = run_cli("embed", "55", "--cells-out", str(target))
        assert code == 0
        assert target.read_text() == "0 0\n0 1\n"
        assert out == "0 0\n0 1\n"

    def test_embed_json(self):
        code, out, _ = run_cli("embed", "444", "--json")
        data = json.loads(out)
        assert data["cells"] == [[0, 1], [1, 0], [1, 1]]
        assert data["condensation"] == "pericondensed"

    def test_embed_not_closed_exits_2(self):
        assert run_cli("embed", "22222222")[0] == 2


class TestRender:
    def test_svg_to_file(self, tmp_path):
        target = tmp_path / "out.svg"
        code, _, _ = run_cli("render", "4343", "-o", str(target))
        assert code == 0
        text = target.read_text()
        assert text.count("<path ") == 4

    def test_tikz_to_stdout(self):
        code, out, _ = run_cli("render", "55", "--format", "tikz")
        assert code == 0
        assert out.count("\\draw[") == 2

    def test_from_cell_file(self, tmp_path):
        cells = tmp_path / "cells.txt"
        cells.write_text("0 0\n0 1\n# comment\n\n1 1\n")
        code, out, _ = run_cli("render", "--cells", str(cells))
        assert code == 0
        assert out.count("<path ") == 3

    def test_render_unembeddable_exits_2(self):
        assert run_cli("render", "535151")[0] == 2

    def test_bad_cell_file(self, tmp_path):
        cells = tmp_path / "cells.txt"
        cells.write_text("0 0 7\n")
        assert run_cli("render", "--cells", str(cells))[0] == 3

    def test_a_cell_file_of_too_many_edges_exits_3_at_once(self, tmp_path):
        cells = tmp_path / "cells.txt"
        # 21,845 cells, the most that 1,024 edges can hold, are read in full
        cells.write_text("".join(f"{q} 0\n" for q in range(21_845)))
        start = time.perf_counter()
        code, out, err = run_cli("render", "--cells", str(cells))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "87382 boundary edges exceeds the limit of 1024" in err

    @pytest.mark.parametrize("lines", [21_846, 1_000_000])
    def test_a_cell_file_of_more_cells_than_the_edges_hold_exits_3_at_once(self, tmp_path, lines):
        # 21,846 cells have at least 1,026 boundary edges: reading stops there
        cells = tmp_path / "cells.txt"
        cells.write_text("".join(f"{q} 0\n" for q in range(lines)))
        start = time.perf_counter()
        code, out, err = run_cli("render", "--cells", str(cells))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == "error: a cell file of more than 21845 cells exceeds the limit of 1024 boundary edges\n"

    def test_a_cell_file_at_the_edge_limit_renders(self, tmp_path):
        # a line of 255 cells (1,022 edges) and one cell over its first pair: 1,024 edges
        line = [(q, 0) for q in range(255)] + [(0, 1)]
        cells = tmp_path / "cells.txt"
        cells.write_text("".join(f"{q} {r}\n" for q, r in line))
        code, out, _ = run_cli("render", "--cells", str(cells))
        assert code == 0 and out.count("<path ") == 256
        with cells.open("a") as fh:
            fh.write("255 0\n")  # 1,028 edges
        assert run_cli("render", "--cells", str(cells))[0] == 3
        embedded = tmp_path / "embedded.txt"
        assert run_cli("embed", str(trace(line)), "--cells-out", str(embedded))[0] == 0
        assert run_cli("render", "--cells", str(embedded))[0] == 0

    @pytest.mark.parametrize(
        "text,status,error",
        [
            ("0 0\n0 0\n", 3, "error: cell line '0 0\\n' repeats a cell"),
            ("0 0\n5 5\n", 2, "error: Disconnected: "),
            ("1 0\n0 1\n-1 1\n-1 0\n0 -1\n1 -1\n", 2, "error: Holed: "),
        ],
        ids=["repeated", "apart", "ring"],
    )
    def test_a_cell_file_that_is_no_benzenoid_is_refused(self, tmp_path, text, status, error):
        cells = tmp_path / "cells.txt"
        cells.write_text(text)
        code, out, err = run_cli("render", "--cells", str(cells))
        assert (code, out) == (status, "")
        assert err.startswith(error)


class TestFamilyAndLookup:
    def test_family_generation(self):
        code, out, _ = run_cli("family", "L", "4")
        assert code == 0
        assert "code:     522522" in out
        assert "hexagons: 4" in out

    def test_family_json(self):
        code, out, _ = run_cli("family", "Spiral", "6", "--json")
        data = json.loads(out)
        assert data["code"] == "5333252111"
        assert data["deficit"] == 4

    def test_family_list(self):
        code, out, _ = run_cli("family", "--list")
        assert code == 0
        assert "Spiral" in out and "DihedralS" in out

    def test_family_errors(self):
        assert run_cli("family", "Nope", "2")[0] == 3
        assert run_cli("family", "L", "1")[0] == 3
        assert run_cli("family", "L")[0] == 3

    def test_family_member_above_the_cell_limit_exits_3_at_once(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bechex.cli", "family", "L", "1000000"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "exceed the limit of 250" in proc.stderr

    def test_lookup_by_name(self):
        code, out, _ = run_cli("lookup", "coronene")
        assert code == 0
        assert "code:     333333" in out

    def test_lookup_by_code_and_synonyms(self):
        code, out, _ = run_cli("lookup", "3434", "--json")
        data = json.loads(out)
        assert data["names"] == ["pyrene"]
        assert data["kind"] == "convex"

    def test_lookup_all(self):
        code, out, _ = run_cli("lookup", "--all")
        assert code == 0
        assert len(out.splitlines()) == 38

    def test_lookup_unknown(self):
        assert run_cli("lookup", "adamantane")[0] == 3

    @pytest.mark.parametrize("query", ["7", "\u0663\u0663"])
    def test_lookup_of_a_malformed_code_is_not_found(self, query):
        code, _, err = run_cli("lookup", query)
        assert code == 3
        assert err.startswith("error: no named benzenoid")


class TestEnumerate:
    def test_json_report(self):
        code, out, _ = run_cli("enumerate", "--hexagons", "4", "--json")
        assert code == 0
        levels = json.loads(out)["levels"]
        assert [lv["count"] for lv in levels] == [1, 3, 7]

    def test_table_and_files(self, tmp_path):
        code, out, _ = run_cli("enumerate", "--hexagons", "3", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "benzenoids_h3.txt").read_text() == "444\n5252\n5351\n"
        assert (tmp_path / "report_h3.json").exists()
        assert (tmp_path / "extremal_h3.txt").read_text() == "5351\n"

    def test_bad_hexagons(self):
        assert run_cli("enumerate", "--hexagons", "0")[0] == 3

    def test_an_empty_out_writes_nothing(self, no_growth, tmp_path, monkeypatch):
        """An empty --out is refused, not taken as the working directory."""
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli("enumerate", "--hexagons", "3", "--out", "")
        assert (code, out) == (3, "")
        assert "empty path" in err
        assert list(tmp_path.iterdir()) == []

    def test_cap_refuses_before_growing(self, no_growth, tmp_path):
        code, out, err = run_cli("enumerate", "--hexagons", "15", "--out", str(tmp_path / "o"))
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "cap of 14" in err
        assert not (tmp_path / "o").exists()

    def test_cap_refuses_at_once_with_resume(self, no_growth, tmp_path):
        args = ("enumerate", "--hexagons", "1000000000", "--out", str(tmp_path), "--resume")
        code, out, err = run_cli(*args)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "cap of 14" in err

    @pytest.mark.parametrize("threads", ["0", "-4", str((os.cpu_count() or 1) + 1)])
    def test_bad_threads(self, no_growth, threads):
        code, out, err = run_cli("enumerate", "--hexagons", "4", "--threads", threads)
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("threads", ["0", str((os.cpu_count() or 1) + 1)])
    def test_bad_threads_with_resume(self, no_growth, tmp_path, threads):
        args = ("--threads", threads, "--out", str(tmp_path), "--resume")
        code, out, err = run_cli("enumerate", "--hexagons", "4", *args)
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    def test_resume_needs_out(self, no_growth):
        code, out, err = run_cli("enumerate", "--hexagons", "4", "--resume")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "--out" in err

    def test_resume_with_missing_level_file_exits_3(self, tmp_path):
        assert run_cli("enumerate", "--hexagons", "4", "--out", str(tmp_path))[0] == 0
        (tmp_path / "benzenoids_h3.txt").unlink()
        code, out, err = run_cli(
            "enumerate", "--hexagons", "6", "--out", str(tmp_path), "--resume"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "benzenoids_h3.txt" in err
        assert "Traceback" not in err

    def test_resume_over_a_truncated_level_exits_3(self, tmp_path):
        assert run_cli("enumerate", "--hexagons", "7", "--out", str(tmp_path))[0] == 0
        level = tmp_path / "benzenoids_h7.txt"
        level.write_text("".join(level.read_text().splitlines(keepends=True)[:100]))
        report = (tmp_path / "report_h7.json").read_bytes()
        code, out, err = run_cli(
            "enumerate", "--hexagons", "7", "--out", str(tmp_path), "--resume"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        assert "benzenoids_h7.txt has 100 lines, its report counts 331" in err
        assert (tmp_path / "report_h7.json").read_bytes() == report


class TestUnbranchedMax:
    def test_json(self):
        code, out, _ = run_cli("unbranched-max", "--hexagons", "5", "--json")
        data = json.loads(out)
        assert data["max_deficit"] == 3
        assert "52325212" in data["witnesses"]

    def test_bad_hexagons(self):
        assert run_cli("unbranched-max", "--hexagons", "1")[0] == 3

    def test_cap(self):
        code, out, err = run_cli("unbranched-max", "--hexagons", "15")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "cap of 14" in err


def _json_bytes(payload: dict) -> str:
    """The --json output of a command whose payload is ``payload``."""
    return json.dumps({**payload, "schema_version": 1}, sort_keys=True, indent=2) + "\n"


class TestOutputBytes:
    """The exact output, as text and as --json, of the listings and of
    embed, each made from one list of lines and one payload."""

    TABLE = (
        "  h      count max_cd  extremal\n"
        "  2          1      0         1\n"
        "  3          3      1         1\n"
        "  4          7      2         2\n"
        "  5         22      3         6\n"
        "  6         81      4        16\n"
    )
    FAMILIES = (
        "L          linear chain of n hexagons\n"
        "M2         two linear segments fused at one bend\n"
        "M3         three linear segments, both bends turning the same way\n"
        "Z3         three linear segments, bends turning opposite ways\n"
        "Ch         chevron: n rows bent between arms of m and k columns\n"
        "P3         prolate triangle of side m\n"
        "P5         prolate pentagon: triangle of side m on a rectangle of height n\n"
        "O3         oblate triangle of side m\n"
        "B3         truncated prolate triangle of side m\n"
        "P4         prolate rectangle of m columns and n rows\n"
        "DihedralS  dihedral all-benzenoid series of 7m hexagons\n"
        "T          triangular all-benzenoid series\n"
        "Spiral     unbranched spiral attaining the largest deficit per hexagon count\n"
        "Helicene   helicene chain; embeds in the lattice only for h <= 5\n"
    )
    CELLS = "0 0\n0 1\n1 0\n1 1\n"

    def test_enumerate(self, tmp_path):
        assert run_cli("enumerate", "--hexagons", "6") == (0, self.TABLE, "")
        out = self.TABLE + f"per-level files written to {tmp_path}\n"
        assert run_cli("enumerate", "--hexagons", "6", "--out", str(tmp_path)) == (0, out, "")

    @pytest.mark.parametrize("out_dir", [False, True], ids=["stdout", "out"])
    def test_enumerate_json(self, tmp_path, out_dir):
        extra = ("--out", str(tmp_path)) if out_dir else ()
        out = _json_bytes({"levels": [r.to_dict() for r in run_search(6)]})
        assert run_cli("enumerate", "--hexagons", "6", *extra, "--json") == (0, out, "")

    def test_family_list(self):
        assert run_cli("family", "--list") == (0, self.FAMILIES, "")
        described = [{"id": fid, "description": family_description(fid)} for fid in FAMILY_IDS]
        assert run_cli("family", "--list", "--json") == (0, _json_bytes({"families": described}), "")

    def test_embed(self, tmp_path):
        target = tmp_path / "cells.txt"
        assert run_cli("embed", "4343", "--cells-out", str(target)) == (0, self.CELLS, "")
        assert target.read_text() == self.CELLS
        target.unlink()
        payload = {
            "code": "4343",
            "canonical": "4343",
            "hexagons": 4,
            "condensation": "pericondensed",
            "cells": [[0, 0], [0, 1], [1, 0], [1, 1]],
        }
        out = _json_bytes(payload)
        assert run_cli("embed", "4343", "--cells-out", str(target), "--json") == (0, out, "")
        assert target.read_text() == self.CELLS


EXIT_CODES = [
    (["render"], 3),
    (["render", "55", "--json"], 3),
    (["render", "--cells", "{tmp}/ab.txt"], 3),
    (["render", "--cells", "{tmp}/missing.txt"], 3),
    (["render", "--cells", "{tmp}/binary.txt"], 3),
    (["embed", "55", "--cells-out", "{tmp}/missing/x"], 3),
    (["embed", "55", "--cells-out", ""], 3),
    (["render", "--cells", ""], 3),
    (["render", "55", "-o", ""], 3),
    (["enumerate", "--hexagons", "3", "--out", ""], 3),
    (["render", "55", "--edge-length", "-5"], 3),
    (["render", "55", "--edge-length", "nan"], 3),
    (["render", "55", "--edge-length", "inf"], 3),
    (["analyze", "55", "--stdin"], 3),
    (["render", "55", "--stroke", 'black"/><script>alert(1)</script><path d="'], 3),
    (["render", "55", "--format", "tikz", "--fill", "red] (0,0) -- (9,9); \\draw["], 3),
]


@pytest.mark.parametrize(
    "argv,status", EXIT_CODES, ids=[" ".join(arg or "''" for arg in a) for a, _ in EXIT_CODES]
)
def test_exit_codes(tmp_path, argv, status):
    (tmp_path / "ab.txt").write_text("a b\n")
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe0 0\n")
    code, out, err = run_cli(*(arg.format(tmp=tmp_path) for arg in argv), stdin="55\n")
    assert code == status
    assert out == ""
    assert "error: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, command",
    [(["render", "55", "--json"], "render"), (["enumerate", "--hexagons", "3", "--bogus"], "enumerate")],
)
def test_an_unknown_flag_after_a_command_shows_the_command_usage(argv, command):
    code, out, err = run_cli(*argv)
    lines = err.splitlines()
    assert (code, out) == (3, "")
    assert lines[0].startswith(f"usage: bechex {command} [-h] "), lines[0]
    assert lines[-1] == f"bechex {command}: error: unrecognized arguments: {argv[-1]}"


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bechex.cli", "canonical", "1535"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "5351\n"

    def test_reader_closing_early_exits_141(self):
        # About 450 KB of --json output, far beyond a 64 KB pipe buffer.
        batch = "5351\n" * 2000
        proc = subprocess.Popen(
            [sys.executable, "-m", "bechex.cli", "analyze", "--stdin", "--json"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdin.write(batch.encode())
        proc.stdin.close()
        assert proc.stdout.read(100).startswith(b"{")
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert "Traceback" not in stderr

    def test_an_interrupt_exits_130(self, tmp_path):
        """SIGINT, sent once the run has written a scratch run: an error
        line and exit 130, no traceback, and no .runs left."""
        out = tmp_path / "out"
        argv = [sys.executable, "-m", "bechex.cli", "enumerate", "--hexagons", "12", "--out", str(out)]
        argv += ["--threads", str(min(2, os.cpu_count() or 1))]
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        deadline = time.monotonic() + 300
        while not (out / ".runs").is_dir() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        stderr = proc.communicate(timeout=60)[1].decode()
        assert proc.returncode == 130, stderr
        assert stderr.endswith("error: interrupted\n") and "Traceback" not in stderr
        assert not (out / ".runs").exists()

    def test_unknown_subcommand_exits_3(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bechex.cli", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
