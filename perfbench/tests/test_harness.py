"""The harness's own checks: right answers on hand cases, and a failure on
every kind of broken output."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import geometry
import inputs
import run
from conftest import ENUMERATED_H

HELICENE_6 = "5111153333"


@pytest.mark.parametrize(
    "code, canonical, deficit, hexagons, condensation",
    [
        ("55", "55", 0, 2, "catacondensed-unbranched"),
        ("4343", "4343", 0, 4, "pericondensed"),
        ("3434", "4343", 0, 4, "pericondensed"),
        ("333333", "333333", 0, 7, "pericondensed"),
        ("5351", "5351", 1, 3, "catacondensed-unbranched"),
        ("1535", "5351", 1, 3, "catacondensed-unbranched"),
        ("515151", "515151", 1, 4, "catacondensed-branched"),
        ("512523", "532521", 2, 4, "catacondensed-unbranched"),
        ("533244111", "533244111", 4, 6, "pericondensed"),
        ("6", "6", 0, 1, "catacondensed-unbranched"),
    ],
)
def test_hand_cases(code, canonical, deficit, hexagons, condensation):
    assert geometry.canonical(code) == canonical
    assert geometry.deficit(code) == deficit
    assert geometry.shoelace_hexagons(code) == hexagons
    assert geometry.condensation(code) == condensation
    want = checks.expected_analysis(code)
    assert want["embeddable"] and want["hexagons"] == hexagons
    assert want["winding"] == (4 if code == "6" else 6)


def test_helicene_is_not_embeddable():
    assert geometry.walk(HELICENE_6) is not None
    assert geometry.revisits_vertex(HELICENE_6)
    want = checks.expected_analysis(HELICENE_6)
    assert want["embeddable"] is False and "hexagons" not in want
    assert want["deficit"] == 5


def test_open_walk_is_refused():
    assert geometry.walk("5555") is None
    with pytest.raises(ValueError):
        geometry.shoelace_hexagons("5555")


def test_boundary_code_of_cell_sets():
    assert geometry.boundary_code([(0, 0)]) == "6"
    assert geometry.canonical(geometry.boundary_code([(0, 0), (1, 0)])) == "55"
    pyrene = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert geometry.canonical(geometry.boundary_code(pyrene)) == "4343"
    ring = list(geometry.NEIGHBOURS)
    assert geometry.boundary_code(ring) is None
    assert geometry.boundary_code(ring + [(0, 0)]) == "333333"


def test_deficit_undefined_below_winding():
    assert geometry.deficit("1111") is None


def test_batches_depend_on_the_seed_only():
    first = inputs.analyze_batch(7, 200)
    assert first == inputs.analyze_batch(7, 200)
    assert first != inputs.analyze_batch(8, 200)
    expected = [checks.expected_analysis(code) for code in first]
    assert any(not e["embeddable"] for e in expected)
    assert any(e["embeddable"] and e["hexagons"] >= 12 for e in expected)
    for e in expected:
        if e["embeddable"]:
            assert e["winding"] == 6 or e["code"] == "6"


def test_enumeration_output_passes(enumerated):
    out, table = enumerated
    checks.check_enumeration(checks.snapshot(out), ENUMERATED_H)
    checks.check_table(table, ENUMERATED_H)


def _broken(enumerated, name, edit):
    files = checks.snapshot(enumerated[0])
    files[name] = edit(files[name])
    return files


def _fails(files):
    with pytest.raises(checks.CheckFailed):
        checks.check_enumeration(files, ENUMERATED_H)


def test_truncated_level_file_fails(enumerated):
    _fails(_broken(enumerated, "benzenoids_h6.txt", lambda b: b"".join(b.splitlines(True)[:50])))


def test_half_written_line_fails(enumerated):
    _fails(_broken(enumerated, "benzenoids_h5.txt", lambda b: b[:-3]))


def test_duplicate_code_fails(enumerated):
    def duplicate(b):
        lines = b.splitlines(True)
        return b"".join(lines[:1] + lines[:-1])

    _fails(_broken(enumerated, "benzenoids_h4.txt", duplicate))


def test_level_file_hand_cases():
    assert checks.check_level(3, "444\n5252\n5351\n") == ["444", "5252", "5351"]
    for text in (
        "3515\n444\n5252\n",  # sorted and distinct, but 3515 is not canonical
        "444\n5252\n5352\n",  # winding 7
        "444\n5252\n",  # one benzenoid short
        "444\n5252\n5351",  # last line cut
    ):
        with pytest.raises(checks.CheckFailed):
            checks.check_level(3, text)


def test_wrong_area_fails():
    # 5252 closes around 3 hexagons, so it cannot stand in the level of 2.
    with pytest.raises(checks.CheckFailed):
        checks.check_level(2, "5252\n")


def test_missing_file_fails(enumerated):
    files = checks.snapshot(enumerated[0])
    del files["extremal_h4.txt"]
    _fails(files)


def _edit_report(field, value):
    def edit(b):
        report = json.loads(b)
        report[field] = value
        return json.dumps(report).encode()

    return edit


@pytest.mark.parametrize(
    "field, value",
    [
        ("distribution", {"0": 1, "1": 2, "2": 4, "3": 15, "4": 59}),
        ("mcd", 3),
        ("ex", 17),
        ("count", 80),
        ("extremal_codes", []),
        ("extremal_breakdown", {"pericondensed": 16}),
    ],
)
def test_edited_report_fails(enumerated, field, value):
    _fails(_broken(enumerated, "report_h6.json", _edit_report(field, value)))


def test_edited_extremal_file_fails(enumerated):
    _fails(_broken(enumerated, "extremal_h5.txt", lambda b: b"".join(b.splitlines(True)[1:])))


def test_paper_table_is_enforced(enumerated, monkeypatch):
    monkeypatch.setattr(checks, "PAPER_EX", (1, 1, 2, 6, 17) + checks.PAPER_EX[5:])
    _fails(checks.snapshot(enumerated[0]))


def test_edited_table_fails(enumerated):
    table = enumerated[1].replace("81", "80")
    with pytest.raises(checks.CheckFailed):
        checks.check_table(table, ENUMERATED_H)


def test_files_must_match_byte_for_byte(enumerated):
    files = checks.snapshot(enumerated[0])
    checks.same_files(dict(files), files, "same")
    changed = dict(files, **{"report_h3.json": files["report_h3.json"] + b" "})
    with pytest.raises(checks.CheckFailed):
        checks.same_files(changed, files, "changed")
    with pytest.raises(checks.CheckFailed):
        checks.same_files({k: v for k, v in files.items() if k != "report_h3.json"}, files, "fewer")


def _analysis(codes):
    return [checks.expected_analysis(code) for code in codes]


HAND = ["55", "4343", "333333", "5351", HELICENE_6]


def _program_analysis(codes) -> str:
    done = subprocess.run(
        [sys.executable, "-m", "bechex.cli", "analyze", "--stdin", "--json"],
        input="".join(c + "\n" for c in codes),
        cwd=run.ROOT,
        env=run.program_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_program_analysis_passes():
    checks.check_analysis(_program_analysis(HAND), _analysis(HAND))


@pytest.mark.parametrize(
    "index, field, value",
    [
        (0, "deficit", 1),
        (1, "canonical", "3434"),
        (2, "hexagons", 6),
        (3, "length", 5),
        (4, "embeddable", True),
    ],
)
def test_edited_analysis_fails(index, field, value):
    payload = json.loads(_program_analysis(HAND))
    payload["results"][index][field] = value
    with pytest.raises(checks.CheckFailed):
        checks.check_analysis(json.dumps(payload), _analysis(HAND))


def test_output_that_is_not_json_fails(enumerated):
    _fails(_broken(enumerated, "report_h4.json", lambda b: b[: len(b) // 2]))
    with pytest.raises(checks.CheckFailed):
        checks.check_analysis(_program_analysis(HAND)[:-10], _analysis(HAND))


def test_missing_analysis_result_fails():
    payload = json.loads(_program_analysis(HAND))
    payload["results"].pop()
    with pytest.raises(checks.CheckFailed):
        checks.check_analysis(json.dumps(payload), _analysis(HAND))


def test_shoelace_is_exact():
    assert isinstance(geometry.shoelace_hexagons("55"), Fraction)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_traced_cli_records_spans(tmp_path):
    subprocess.run(
        [sys.executable, str(run.HERE / "traced_cli.py"), "analyze", "--stdin", "--json"],
        input="55\n4343\n",
        cwd=run.ROOT,
        env=dict(run.program_env(), PERFBENCH_TRACE_DIR=str(tmp_path)),
        capture_output=True,
        text=True,
        check=True,
    )
    root = json.loads((tmp_path / "root.json").read_text())
    assert root["missing"] == []
    totals = root["totals"]
    assert totals["codes.parse_code"][0] == 2
    assert totals["lattice.embed"][0] == 2
    assert totals["cli.main"][0] == 1
    # self time excludes the wrapped calls made inside cli.main
    assert totals["cli.main"][2] < totals["cli.main"][1]
    assert os.listdir(tmp_path) == ["root.json"]
