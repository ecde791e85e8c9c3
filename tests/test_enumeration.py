"""Exhaustive enumeration engine: counts, reports, persistence, fusenes.

Expected shape counts for h <= 10 were recomputed independently with
tests/oracle_polyhex.py (naive level-by-level growth of free shapes in
cube coordinates, each kept once as its least image under the 12
lattice symmetries, holed shapes included, then a hole test); h = 11
and 12 were confirmed by running the compiled kernel and the
pure-Python kernel against each other.
"""

import heapq
import json
import os
import sys
import tempfile
import threading
from collections import Counter
from itertools import count, product
from types import SimpleNamespace

import pytest

from bechex import _kernel, enumeration
from bechex.codes import Code, canonical, convexity_deficit, parse_code
from bechex.enumeration import (
    _add,
    _descend,
    _fold,
    _level_report,
    _walk,
    check_unimodal,
    count_benzenoids,
    enumerate_benzenoids,
    enumerate_unbranched_fusenes,
    max_cd_unbranched_benzenoids,
    report,
    run_search,
)
from bechex.errors import NotClosed, ParamOutOfRange, ResourceLimit, ResumeError, SelfIntersecting
from bechex.families import _chain
from bechex.lattice import (
    Condensation,
    condensation_class,
    embed,
    is_simply_connected,
    trace,
)

from oracle_polyhex import convex_shapes

EXPECTED_COUNTS = {
    1: 1,
    2: 1,
    3: 3,
    4: 7,
    5: 22,
    6: 81,
    7: 331,
    8: 1435,
    9: 6505,
    10: 30086,
    11: 141229,
    12: 669584,
}

#: The canonical codes of level 4, in the order a run writes them.
LEVEL_4 = ["4343", "515151", "522522", "52441", "531531", "532521", "533511"]

EXPECTED_MCD = {2: 0, 3: 1, 4: 2, 5: 3, 6: 4, 7: 6, 8: 8, 9: 10, 10: 12, 11: 14, 12: 16}
EXPECTED_EX = {2: 1, 3: 1, 4: 2, 5: 6, 6: 16, 7: 3, 8: 2, 9: 3, 10: 6, 11: 16, 12: 37}

# chains of h hexagons = ternary kink strings of length h-2 up to
# reversal and mirroring; Burnside over that four-element group
def _free_chain_count(h: int) -> int:
    n = h - 2
    return (3**n + 3 ** ((n + 1) // 2) + 3 ** (n // 2) + 1) // 4


class TestCounts:
    def test_session_counts(self, enumeration_session):
        assert enumeration_session.counts == EXPECTED_COUNTS

    def test_count_benzenoids_small(self):
        assert count_benzenoids(1) == 1
        assert count_benzenoids(5) == 22

    def test_enumerate_yields_valid_cell_sets(self):
        shapes = list(enumerate_benzenoids(5))
        assert len(shapes) == 22
        for cells in shapes:
            assert len(cells) == 5
            assert is_simply_connected(cells)
        # distinct shapes have distinct codes
        codes = {str(trace(cells)) for cells in shapes}
        assert len(codes) == 22

    def test_enumerate_yields_sorted_shapes(self):
        shapes = list(enumerate_benzenoids(6))
        assert len(shapes) == 81
        assert all(a < b for a, b in zip(shapes, shapes[1:]))

    def test_resource_limit(self, no_growth, tmp_path):
        with pytest.raises(ResourceLimit):
            count_benzenoids(15)
        with pytest.raises(ResourceLimit, match="cap of 14"):
            run_search(15, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("h, error", [(0, ParamOutOfRange), (15, ResourceLimit)])
    def test_enumerate_refuses_a_bad_h_when_called(self, no_growth, h, error):
        with pytest.raises(error):
            enumerate_benzenoids(h)

    def test_refusals_with_resume_come_at_once(self, no_growth, tmp_path, monkeypatch):
        looked = []
        level_path = enumeration._level_path
        monkeypatch.setattr(
            enumeration, "_level_path", lambda out, h: looked.append(h) or level_path(out, h)
        )
        with pytest.raises(ResourceLimit, match="cap of 14"):
            run_search(10**9, out_dir=tmp_path, resume=True)
        assert len(looked) <= enumeration.DEFAULT_MAX_H
        looked.clear()
        with pytest.raises(ResourceLimit, match="CPU cores"):
            run_search(4, workers=(os.cpu_count() or 1) + 1, out_dir=tmp_path, resume=True)
        with pytest.raises(ValueError):
            run_search(4, workers=0, out_dir=tmp_path, resume=True)
        assert looked == []

    def test_resume_needs_an_output_directory(self, no_growth):
        with pytest.raises(ParamOutOfRange, match="--out"):
            run_search(4, resume=True)

    def test_worker_count_is_bounded(self, no_growth):
        too_many = (os.cpu_count() or 1) + 1
        with pytest.raises(ResourceLimit, match="CPU cores"):
            run_search(3, workers=too_many)
        with pytest.raises(ValueError):
            run_search(3, workers=0)


@pytest.mark.parametrize("h", range(2, 9))
def test_entry_points_agree(h, breadth_first):
    """report, count_benzenoids and enumerate_benzenoids take level h from
    the one walk; they must agree with a fold of the level grown whole."""
    rep = report(h)
    assert count_benzenoids(h) == len(list(enumerate_benzenoids(h))) == rep.count
    assert rep.to_dict() == _level_report(h, *_fold(dict(breadth_first(h))[h]), []).to_dict()


class TestReports:
    def test_invariants(self, enumeration_session):
        for h, rep in enumeration_session.reports.items():
            assert rep.count == EXPECTED_COUNTS[h]
            assert sum(rep.distribution.values()) == rep.count
            assert rep.distribution[rep.mcd] == rep.ex
            assert max(rep.distribution) == rep.mcd
            assert len(rep.extremal_codes) == rep.ex
            assert list(rep.extremal_codes) == sorted(rep.extremal_codes)
            assert sum(rep.extremal_breakdown.values()) == rep.ex

    def test_extremal_tables(self, enumeration_session):
        got_mcd = {h: r.mcd for h, r in enumeration_session.reports.items()}
        got_ex = {h: r.ex for h, r in enumeration_session.reports.items()}
        assert got_mcd == EXPECTED_MCD
        assert got_ex == EXPECTED_EX

    def test_convex_benzenoids_built_from_their_bounds_fill_deficit_0(self, enumeration_session):
        """The convex benzenoids are those of deficit 0 (Cruz, Gutman & Rada,
        2012); the oracle builds them from their bounds, with no growth."""
        reports = enumeration_session.reports
        shapes = convex_shapes(max(reports))
        assert {h: rep.distribution[0] for h, rep in reports.items()} == {h: len(shapes[h]) for h in reports}

    def test_extremal_codes_check_out(self, enumeration_session):
        rep = enumeration_session.reports[7]
        for raw in rep.extremal_codes:
            code = parse_code(raw)
            assert convexity_deficit(code) == rep.mcd
            assert embed(code).hexagons == 7

    def test_report_single_level(self):
        rep = report(4)
        assert (rep.count, rep.mcd, rep.ex) == (7, 2, 2)
        assert rep.extremal_codes == ("532521", "533511")

    def test_to_json_is_stable(self):
        rep = report(3)
        data = json.loads(rep.to_json())
        assert data["schema_version"] == 1
        assert data["count"] == 3
        assert rep.to_json() == report(3).to_json()


def _same_files(a, b):
    names = sorted(path.name for path in a.iterdir())
    assert sorted(path.name for path in b.iterdir()) == names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.fixture
def two_cores(monkeypatch):
    """Let run_search start two workers on a one-core machine too; two
    threads run there, only more slowly."""
    cores = os.cpu_count() or 1
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: max(2, cores))


class TestGrowth:
    # h = 9 is above the root level, so the worker threads run the subtrees.
    def test_worker_count_does_not_change_results(self, monkeypatch, tmp_path):
        """Two threads, and more threads than cores switching often: no
        slice is lost or taken twice.  With out_dir, 7 parents a chunk and
        a run every 3 codes, five threads spill the level buffers they share
        all the time, and no code may be lost or written twice: h = 10, as
        with no lock around the totals the files of h = 9 differed in only
        about one run in ten."""
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 5)
        one = run_search(9, workers=1)
        stored = [r.to_dict() for r in run_search(10, workers=1, out_dir=tmp_path / "one")]
        expected, interval = [r.to_dict() for r in one], sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (2, 5):
                assert [r.to_dict() for r in run_search(9, workers=workers)] == expected, workers
            monkeypatch.setattr(enumeration, "_CHUNK", 7)
            monkeypatch.setattr(enumeration, "_RUN", 3)
            five = run_search(10, workers=5, out_dir=tmp_path / "five")
        finally:
            sys.setswitchinterval(interval)
        assert [r.to_dict() for r in five] == stored
        _same_files(tmp_path / "one", tmp_path / "five")
        assert [r.count for r in one] == [EXPECTED_COUNTS[h] for h in range(2, 10)]

    def test_two_workers_write_the_same_files(self, tmp_path, two_cores):
        one = run_search(9, workers=1, out_dir=tmp_path / "one")
        two = run_search(9, workers=2, out_dir=tmp_path / "two")
        assert [r.to_dict() for r in one] == [r.to_dict() for r in two]
        _same_files(tmp_path / "one", tmp_path / "two")
        assert len((tmp_path / "two" / "benzenoids_h9.txt").read_text().split()) == EXPECTED_COUNTS[9]

    def test_every_parent_extends(self, enumeration_session):
        assert _kernel.grow(enumeration_session.keys[3]) == enumeration_session.keys[4]

    def test_the_walk_yields_each_level_in_its_breadth_first_order(self, monkeypatch, breadth_first):
        monkeypatch.setattr(enumeration, "_CHUNK", 7)
        levels = {h: [] for h in range(1, 10)}
        for d, keys in _walk(enumeration._benzene(9), 8):
            levels[d + 1] += keys
        assert levels == dict(breadth_first(9))

    def test_no_grow_call_takes_more_than_a_chunk(self, monkeypatch, two_cores):
        """Every entry point grows at most _CHUNK parents a kernel call; a
        worker thread raises the AssertionError back to the test."""
        sizes = []
        grow = enumeration.kernel.grow

        def recording_grow(parents):
            assert len(parents) <= enumeration._CHUNK, len(parents)
            sizes.append(len(parents))
            return grow(parents)

        monkeypatch.setattr(enumeration.kernel, "grow", recording_grow)
        assert count_benzenoids(10) == len(list(enumerate_benzenoids(10))) == EXPECTED_COUNTS[10]
        for workers in (1, 2):
            assert run_search(10, workers=workers)[-1].count == EXPECTED_COUNTS[10]
        # Level 8's 1435 shapes are grown in two calls, the first a whole chunk.
        assert enumeration._CHUNK in sizes

    # 16 slices are what two workers get; a chunk of 7 parents puts many
    # chunk ends inside each level.
    @pytest.mark.parametrize("slices, chunk", [(1, 1024), (16, 1024), (16, 7)])
    def test_root_folds_add_up_to_each_whole_level(self, monkeypatch, breadth_first, slices, chunk):
        monkeypatch.setattr(enumeration, "_CHUNK", chunk)
        levels = dict(breadth_first(10))
        roots = levels[enumeration._ROOT_H]
        assert len(roots) == EXPECTED_COUNTS[7]
        totals = [(Counter(), [], [], []) for _ in range(4)]
        for i in range(slices):
            part = _descend(roots[i::slices], [(Counter(), [], [], []) for _ in range(4)])
            for total, fold in zip(totals, part):
                _add(total, fold)
        for h, (distribution, extremal, codes, runs) in zip(range(7, 11), totals):
            whole = _fold(levels[h])
            assert distribution == whole[0], h
            assert sorted(extremal) == sorted(whole[1]) and len(extremal) == EXPECTED_EX[h]
            assert sorted(codes) == sorted(whole[2]) and runs == [], h


@pytest.fixture(scope="module")
def fresh_h9(tmp_path_factory):
    """The files and reports of a fresh one-worker run to h = 9."""
    out = tmp_path_factory.mktemp("fresh_h9")
    return out, [r.to_dict() for r in run_search(9, out_dir=out)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("stored", [4, 8])
def test_a_resume_across_the_root_level_matches_a_fresh_run(
    tmp_path, fresh_h9, stored, workers, two_cores
):
    fresh, reports = fresh_h9
    run_search(stored, out_dir=tmp_path)
    resumed = run_search(9, workers=workers, out_dir=tmp_path, resume=True)
    assert [r.to_dict() for r in resumed] == reports
    _same_files(fresh, tmp_path)


#: The two benzenoids of largest deficit with 14 hexagons; their deficit,
#: 21, breaks the mcd = 2h - 8 that holds for 6 <= h <= 13.
H14_EXTREMAL = ("53332322215133511122212111", "53332323115133511131212111")


@pytest.mark.slow
@pytest.mark.skipif(_kernel.BACKEND == "python", reason="the pure kernel is about 60 times slower")
def test_h14_exhaustive():
    """Opt in with ``-m slow``: about a minute on two cores, compiled."""
    rep = run_search(14, workers=min(2, os.cpu_count() or 1))[-1]
    assert (rep.h, rep.count, rep.mcd, rep.ex) == (14, 15_367_577, 21, 2)
    assert rep.extremal_codes == H14_EXTREMAL
    assert rep.distribution[0] == len(convex_shapes(14)[14]) == 5


@pytest.mark.slow
@pytest.mark.skipif(_kernel.BACKEND == "python", reason="the pure kernel is about 60 times slower")
@pytest.mark.parametrize("threads", [1, 2])
def test_h13_out_stays_small(tmp_path, threads):
    """Opt in with ``-m slow``: ``enumerate --hexagons 13 --out`` with one
    or two workers peaks under 100 MB, read from the child's own wait4;
    holding every level's codes, it took about 400 MB."""
    argv = [sys.executable, "-m", "bechex.cli", "enumerate", "--hexagons", "13", "--out", str(tmp_path)]
    argv += ["--threads", str(min(threads, os.cpu_count() or 1))]
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    _, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet), 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert usage.ru_maxrss < 100 * 1024, f"{usage.ru_maxrss / 1024:.0f} MB"
    # Counted a line at a time: a spawned child's peak RSS starts from its
    # parent's, so the codes of one case, held here, would count in the next.
    with (tmp_path / "benzenoids_h13.txt").open() as fh:
        assert sum(len(line.split()) for line in fh) == 3_198_256


@pytest.fixture
def small_runs(monkeypatch):
    """A run for every chunk of 7 parents' children, so that every level
    from 3 up spills runs, in the main thread and in each worker thread."""
    monkeypatch.setattr(enumeration, "_CHUNK", 7)
    monkeypatch.setattr(enumeration, "_RUN", 3)


def _refusal(monkeypatch, h, out_dir, workers=1):
    """The ResumeError message of a resume to h over ``out_dir``, which
    must be the same with small runs; a refusal changes no stored byte,
    so both resumes read the same files.  No .runs is left."""
    messages = []
    for size in (enumeration._RUN, 3):
        with monkeypatch.context() as patch, pytest.raises(ResumeError) as refused:
            patch.setattr(enumeration, "_RUN", size)
            run_search(h, workers=workers, out_dir=out_dir, resume=True)
        messages.append(str(refused.value))
        assert not (out_dir / ".runs").exists()
    assert messages[0] == messages[1]
    return messages[0]


class TestRuns:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_small_runs_write_the_same_files(
        self, tmp_path, fresh_h9, small_runs, monkeypatch, workers, two_cores
    ):
        fresh, reports = fresh_h9
        spill = enumeration._spill
        spillers = Counter()

        def record(totals, runs_dir):
            spillers[threading.get_ident()] += 1
            spill(totals, runs_dir)

        monkeypatch.setattr(enumeration, "_spill", record)
        out = tmp_path / "out"
        assert [r.to_dict() for r in run_search(9, workers=workers, out_dir=out)] == reports
        _same_files(fresh, out)
        assert spillers.pop(threading.get_ident()) >= 4  # levels 3 to 6 at least
        assert bool(spillers) == (workers > 1) and all(n >= 10 for n in spillers.values())

    def test_a_slice_of_a_two_worker_run_ends_with_its_codes_in_runs(self, tmp_path, breadth_first):
        """With more than one worker, run_search has each slice end by
        spilling: then no buffer from the root level on holds a code, and
        the runs give every code of the slice."""
        roots = dict(breadth_first(7))[7][::5]
        lock = threading.Lock()
        totals = _descend(roots, [(Counter(), [], [], []) for _ in range(3)], tmp_path, lock, spill=True)
        whole = _descend(roots, [(Counter(), [], [], []) for _ in range(3)])
        for (_, _, codes, runs), (_, _, every, _) in zip(totals, whole):
            assert codes == [] and len(runs) == 1
            assert list(enumeration._lines([], runs)) == [code + "\n" for code in sorted(every)]
        assert len({runs[0][0] for _, _, _, runs in totals}) == 1  # one file for the slice

    def test_a_levels_one_buffer_spills_at_a_run_whichever_thread_fills_it(self, tmp_path, monkeypatch):
        """The threads of a run add into one buffer a level, which spills
        once it holds _RUN codes, whichever threads added them."""
        monkeypatch.setattr(enumeration, "_RUN", 4)
        total = (Counter(), [], [], [])
        folds = [
            (Counter({1: 2}), [(1, "5351"), (1, "4343")], ["5351", "4343"]),
            (Counter({2: 2}), [(2, "532521"), (2, "533511")], ["532521", "533511"]),
        ]
        for fold, runs in zip(folds, (0, 1)):
            thread = threading.Thread(target=_add, args=(total, fold, tmp_path))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert len(total[3]) == runs and len(total[2]) == 2 - 2 * runs, runs
        assert list(enumeration._lines([], total[3])) == ["4343\n", "532521\n", "533511\n", "5351\n"]

    def test_no_thread_adds_to_a_level_while_it_spills(
        self, tmp_path, fresh_h9, small_runs, monkeypatch, two_cores
    ):
        """The first spill of a level-9 buffer waits, after its sort and
        before its clear(), until another thread adds codes to that level,
        or for a second.  Under the totals' lock no thread can, so the wait
        runs out and the files are right.  Without the lock one does, every
        time, and its codes are lost or written twice."""
        spill, add, make = enumeration._spill, enumeration._add, tempfile.NamedTemporaryFile
        held, entered, added = {}, threading.Event(), threading.Event()  # held: the spill that waits

        def noted_spill(totals, runs_dir):
            (_, _, codes, _), *others = totals  # one level: a spill from _add
            if not held and not others and _kernel.survey(codes[0])[2] == 9:
                held.update(thread=threading.get_ident(), total=totals[0], waiting=False)
            spill(totals, runs_dir)

        def run_file(*args, **kwargs):
            """The run file of the held spill waits at its first write, which comes after the sort."""
            fh = make(*args, **kwargs)
            if held.get("thread") == threading.get_ident() and "write" not in held:
                held["write"] = fh.write

                def first_write_waits(text):
                    fh.write, held["waiting"] = held["write"], True
                    if entered.wait(timeout=1):  # another thread is in _add: let it finish
                        added.wait(timeout=60)
                    held["waiting"] = False
                    return fh.write(text)

                fh.write = first_write_waits
            return fh

        def noted_add(total, fold, runs_dir=None):
            other = held.get("waiting") and total is held["total"] and fold[2]  # the held thread waits
            if other:
                entered.set()
            add(total, fold, runs_dir)
            if other:
                added.set()

        monkeypatch.setattr(enumeration, "_spill", noted_spill)
        monkeypatch.setattr(enumeration, "_add", noted_add)
        monkeypatch.setattr(enumeration, "tempfile", SimpleNamespace(NamedTemporaryFile=run_file))
        out = tmp_path / "out"
        reports = run_search(9, workers=2, out_dir=out)
        assert "write" in held
        assert [r.to_dict() for r in reports] == fresh_h9[1]
        _same_files(fresh_h9[0], out)
        assert not entered.is_set(), "a thread added to a level while it was spilled"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_merge_opens_no_more_than_its_bound_of_runs(
        self, tmp_path, fresh_h9, small_runs, monkeypatch, workers, two_cores
    ):
        """With a run every 3 codes, level 9 spills over 200 runs; merged
        at most 5 at a time, they give the same files."""
        merge, widest = heapq.merge, []

        def bounded(*parts):  # the codes in memory, then one part for each run
            widest.append(len(parts) - 1)
            return merge(*parts)

        monkeypatch.setattr(enumeration, "_MERGE", 5)
        monkeypatch.setattr(enumeration, "heapq", SimpleNamespace(merge=bounded))
        out = tmp_path / "out"
        assert [r.to_dict() for r in run_search(9, workers=workers, out_dir=out)] == fresh_h9[1]
        _same_files(fresh_h9[0], out)
        assert max(widest) == 5 and widest.count(5) > 40

    def test_a_run_below_a_buffer_writes_no_run(self, tmp_path, monkeypatch):
        def refuse(totals, runs_dir):
            raise AssertionError("a run file was written")

        monkeypatch.setattr(enumeration, "_spill", refuse)
        run_search(8, out_dir=tmp_path)
        assert not (tmp_path / ".runs").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_runs_are_left(self, tmp_path, fresh_h9, small_runs, monkeypatch, workers, two_cores):
        out = tmp_path / "out"
        run_search(8, workers=workers, out_dir=out)
        assert not (out / ".runs").exists()
        stale = out / ".runs" / "tmpkilled"  # a run a killed run left
        stale.parent.mkdir()
        stale.write_text("4343\n")
        grow, deal = enumeration.kernel.grow, enumeration._descend
        grown, slices = Counter(), []  # grow calls by thread; grow calls by slice

        def after_the_stale_run(parents):
            assert not stale.exists()
            grown[threading.get_ident()] += 1
            return grow(parents)

        def counted(*task):
            before = grown[threading.get_ident()]
            folds = deal(*task)
            slices.append(grown[threading.get_ident()] - before)
            return folds

        monkeypatch.setattr(enumeration.kernel, "grow", after_the_stale_run)
        monkeypatch.setattr(enumeration, "_descend", counted)
        run_search(9, workers=workers, out_dir=out, resume=True)
        assert not stale.parent.exists()
        _same_files(fresh_h9[0], out)
        assert len(slices) == 8 * workers
        # With workers, the cut comes inside a slice; the slices not started are cancelled.
        main, calls, after = threading.get_ident(), count(1), []
        threads = threading.active_count()

        def cut(parents):
            if after:
                after.append(parents)
            elif (workers == 1 or threading.get_ident() != main) and next(calls) == 12:
                after.append(parents)
                raise RuntimeError(f"cut, runs written: {(tmp_path / 'cut' / '.runs').is_dir()}")
            return grow(parents)

        monkeypatch.setattr(enumeration.kernel, "grow", cut)
        with pytest.raises(RuntimeError, match="cut, runs written: True"):
            run_search(9, workers=workers, out_dir=tmp_path / "cut")
        assert not (tmp_path / "cut" / ".runs").exists()
        assert threading.active_count() == threads  # no thread is left to write into .runs
        if workers > 1:  # the running slices end, and none starts after the raise
            assert len(after) - 1 < workers * max(slices)

    def test_an_interrupt_in_the_main_thread_reaches_the_caller(
        self, tmp_path, small_runs, monkeypatch, two_cores
    ):
        """The main thread walks slices beside the worker threads; a
        KeyboardInterrupt in its grow stops the run as any error does, and
        leaves no thread and no .runs."""
        grow, main, calls = enumeration.kernel.grow, threading.get_ident(), count(1)
        threads = threading.active_count()

        def interrupted(parents):
            # The walk down to the roots takes 20 grow calls of 7 parents.
            if threading.get_ident() == main and next(calls) == 30:
                raise KeyboardInterrupt(f"runs written: {(tmp_path / '.runs').is_dir()}")
            return grow(parents)

        monkeypatch.setattr(enumeration.kernel, "grow", interrupted)
        with pytest.raises(KeyboardInterrupt, match="runs written: True"):
            run_search(9, workers=2, out_dir=tmp_path)
        assert not (tmp_path / ".runs").exists()
        assert threading.active_count() == threads


class TestPersistence:
    def test_run_search_writes_levels(self, tmp_path):
        reports = run_search(4, out_dir=tmp_path)
        assert [r.h for r in reports] == [2, 3, 4]
        codes = (tmp_path / "benzenoids_h4.txt").read_text().split()
        assert len(codes) == 7
        assert codes == sorted(codes)
        data = json.loads((tmp_path / "report_h4.json").read_text())
        assert data["count"] == 7 and data["mcd"] == 2
        extremal = (tmp_path / "extremal_h4.txt").read_text().split()
        assert extremal == ["532521", "533511"]

    def test_resume_reuses_level_files(self, tmp_path):
        run_search(4, out_dir=tmp_path)
        (tmp_path / "benzenoids_h4.txt").unlink()
        reports = run_search(5, out_dir=tmp_path, resume=True)
        assert reports[-1].count == 22
        assert (tmp_path / "benzenoids_h5.txt").exists()

    def test_fresh_run_matches_resumed_run(self, tmp_path):
        a = run_search(5, out_dir=tmp_path / "a")
        run_search(3, out_dir=tmp_path / "b")
        b = run_search(5, out_dir=tmp_path / "b", resume=True)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    @pytest.mark.parametrize("stored", [3, 5])
    def test_a_resume_writes_only_the_level_files_it_lacks(self, tmp_path, monkeypatch, stored):
        run_search(5, out_dir=tmp_path / "fresh")
        run_search(stored, out_dir=tmp_path / "run")
        written = []
        write = enumeration._write

        def record(path, chunks):
            written.append(path.name)
            write(path, chunks)

        monkeypatch.setattr(enumeration, "_write", record)
        run_search(5, out_dir=tmp_path / "run", resume=True)
        levels = [name for name in written if name.startswith("benzenoids_")]
        assert levels == [f"benzenoids_h{h}.txt" for h in range(stored + 1, 6)]
        # Every report and extremal file is written again.
        assert len(written) - len(levels) == 2 * 4
        _same_files(tmp_path / "fresh", tmp_path / "run")

    def test_a_run_cut_before_its_last_level_file_resumes(self, tmp_path, monkeypatch):
        fresh = tmp_path / "fresh"
        run_search(5, out_dir=fresh)
        cut = tmp_path / "cut"
        replace = os.replace

        def fail_at_level_5(src, dst):
            if os.path.basename(dst) == "benzenoids_h5.txt":
                raise OSError("cut")
            replace(src, dst)

        monkeypatch.setattr(enumeration.os, "replace", fail_at_level_5)
        with pytest.raises(OSError, match="cut"):
            run_search(5, out_dir=cut)
        monkeypatch.undo()
        assert (cut / "report_h5.json").exists() and (cut / "extremal_h5.txt").exists()
        assert not (cut / "benzenoids_h5.txt").exists()
        run_search(5, out_dir=cut, resume=True)
        names = sorted(path.name for path in fresh.iterdir())
        assert sorted(path.name for path in cut.iterdir()) == names
        for name in names:
            assert (cut / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_resume_with_missing_lower_level_names_the_file(self, tmp_path):
        run_search(4, out_dir=tmp_path)
        (tmp_path / "benzenoids_h2.txt").unlink()
        with pytest.raises(ResumeError, match="benzenoids_h2.txt"):
            run_search(5, out_dir=tmp_path, resume=True)

    # A count given is written into report_h4.json too: a level short of
    # a shape, with a report that agrees, is still not the level.
    @pytest.mark.parametrize(
        "lines, count",
        [
            (LEVEL_4[:5], None),
            (["3434"] + LEVEL_4[1:], None),
            ([LEVEL_4[0], LEVEL_4[2], LEVEL_4[1]] + LEVEL_4[3:], None),
            (["444"] + LEVEL_4[1:], None),
            (["4342"] + LEVEL_4[1:], None),
            (["5x1"] + LEVEL_4[1:], None),
            (LEVEL_4[:3] + LEVEL_4[4:], 6),
            (LEVEL_4[:6], 6),
        ],
        ids=[
            "truncated",
            "not-canonical",
            "out-of-order",
            "wrong-size",
            "not-closed",
            "not-a-code",
            "one-gone-count-edited",
            "last-gone-count-edited",
        ],
    )
    def test_resume_refuses_a_damaged_level(self, tmp_path, monkeypatch, lines, count):
        run_search(4, out_dir=tmp_path)
        level = tmp_path / "benzenoids_h4.txt"
        assert level.read_text().split() == LEVEL_4
        level.write_text("".join(line + "\n" for line in lines))
        if count is not None:
            report_path = tmp_path / "report_h4.json"
            report_path.write_text(json.dumps({**json.loads(report_path.read_text()), "count": count}))
        assert "benzenoids_h4.txt" in _refusal(monkeypatch, 5, tmp_path)
        assert not (tmp_path / "benzenoids_h5.txt").exists()

    def test_resume_refuses_a_miscounted_level_before_the_walk(self, tmp_path, monkeypatch, request):
        run_search(4, out_dir=tmp_path)
        level = tmp_path / "benzenoids_h3.txt"
        level.write_text(level.read_text().splitlines(keepends=True)[0])
        request.getfixturevalue("no_growth")
        assert "benzenoids_h3.txt has 1 lines, its report counts 3" in _refusal(monkeypatch, 5, tmp_path)

    # Level 8 is above the root level, so its check comes after the walk.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_refuses_a_damaged_level_above_the_root(self, tmp_path, monkeypatch, workers, two_cores):
        run_search(8, out_dir=tmp_path)
        level = tmp_path / "benzenoids_h8.txt"
        lines = level.read_text().splitlines()
        lines[700] = lines[701]
        level.write_text("".join(line + "\n" for line in lines))
        assert "benzenoids_h8.txt" in _refusal(monkeypatch, 9, tmp_path, workers)
        assert not (tmp_path / "benzenoids_h9.txt").exists()

    @pytest.mark.parametrize(
        "name, text",
        [
            ("report_h3.json", None),
            ("report_h3.json", "{"),
            ("report_h3.json", "[]"),
            ("benzenoids_h1.txt", "55\n"),
        ],
    )
    def test_resume_refuses_a_missing_report_or_a_wrong_level_1(self, tmp_path, monkeypatch, name, text):
        run_search(4, out_dir=tmp_path)
        if text is None:
            (tmp_path / name).unlink()
        else:
            (tmp_path / name).write_text(text)
        assert name in _refusal(monkeypatch, 4, tmp_path)


class TestUnbranchedFusenes:
    def test_counts_match_burnside(self):
        for h in range(2, 9):
            assert len(enumerate_unbranched_fusenes(h)) == _free_chain_count(h)

    def test_one_side_of_four_gives_every_class(self):
        for h in range(2, 10):
            every = {canonical(Code(_chain(side))) for side in product((1, 2, 3), repeat=h - 2)}
            assert enumerate_unbranched_fusenes(h) == sorted(every, key=lambda c: c.symbols), h

    def test_codes_are_canonical_and_distinct(self):
        codes = enumerate_unbranched_fusenes(6)
        assert len({str(c) for c in codes}) == len(codes)
        for c in codes:
            assert str(canonical(c)) == str(c)

    def test_embeddable_subset_matches_growth_enumeration(self, enumeration_session):
        # chains that embed are exactly the unbranched benzenoids
        for h in (5, 6, 7):
            embeddable = 0
            for code in enumerate_unbranched_fusenes(h):
                try:
                    shape = embed(code)
                except (NotClosed, SelfIntersecting):
                    continue
                assert shape.condensation is Condensation.CATACONDENSED_UNBRANCHED
                embeddable += 1
            from bechex._kernel import unpack_cells

            grown = sum(
                1
                for key in enumeration_session.keys[h]
                if condensation_class(unpack_cells(key))
                is Condensation.CATACONDENSED_UNBRANCHED
            )
            assert embeddable == grown

    def test_cap(self):
        # refused before any of the 3^13 chains is built
        with pytest.raises(ResourceLimit, match="cap of 14") as info:
            enumerate_unbranched_fusenes(15)
        assert "max_h" not in str(info.value)
        with pytest.raises(ResourceLimit):
            max_cd_unbranched_benzenoids(15)

    def test_first_self_touching_chain_is_the_six_coil(self):
        # all chains embed through h = 5; at h = 6 exactly one fails
        for h in (2, 3, 4, 5):
            for code in enumerate_unbranched_fusenes(h):
                embed(code)
        failures = []
        for code in enumerate_unbranched_fusenes(6):
            try:
                embed(code)
            except SelfIntersecting:
                failures.append(str(code))
        assert failures == ["5333351111"]  # the six-hexagon helicene coil


class TestUnbranchedMax:
    def test_small_values(self):
        assert max_cd_unbranched_benzenoids(2)[0] == 0
        assert max_cd_unbranched_benzenoids(5)[0] == 3
        assert max_cd_unbranched_benzenoids(6)[0] == 4

    @pytest.mark.parametrize("h", range(2, 11))
    def test_agrees_with_the_reference_embedding(self, h):
        found = []
        for code in enumerate_unbranched_fusenes(h):
            try:
                embed(code)
            except (NotClosed, SelfIntersecting):
                continue
            found.append((convexity_deficit(code), str(code)))
        best = max(deficit for deficit, _ in found)
        value, witnesses = max_cd_unbranched_benzenoids(h)
        assert (value, [str(w) for w in witnesses]) == (best, [c for d, c in found if d == best])

    def test_witnesses_are_unbranched_extremal(self):
        value, witnesses = max_cd_unbranched_benzenoids(6)
        assert witnesses
        for code in witnesses:
            assert convexity_deficit(code) == value
            assert embed(code).condensation is Condensation.CATACONDENSED_UNBRANCHED


class TestUnimodal:
    def test_examples(self):
        assert check_unimodal([1, 2, 3, 2, 1])
        assert check_unimodal([5])
        assert check_unimodal([1, 1, 2, 2])
        assert not check_unimodal([1, 2, 1, 2])
        with pytest.raises(ValueError):
            check_unimodal([])

    def test_deficit_distributions_are_unimodal(self, enumeration_session):
        for h in range(2, 12):
            rep = enumeration_session.reports[h]
            values = [rep.distribution.get(k, 0) for k in range(rep.mcd + 1)]
            assert check_unimodal(values), (h, values)
