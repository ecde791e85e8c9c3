"""Kernel backends: backend choice, parity, code filling and size limits.

The compiled and pure-Python backends must agree exactly on every kernel
entry point, and both refuse input above the limits in common.py.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import subprocess
import sys
import sysconfig
import threading
from collections import Counter
from functools import cache
from importlib.util import module_from_spec, spec_from_file_location
from itertools import chain, groupby
from pathlib import Path

import pytest

import bechex._kernel as kernel
from bechex._kernel import pack_cells, pure, unpack_cells
from bechex._kernel.common import MAX_CELLS, MAX_GRID, MAX_PERIMETER
from bechex.codes import ConvexityKind, canonical, classify, convexity_deficit, parse_code
from bechex.enumeration import enumerate_unbranched_fusenes
from bechex.errors import NotClosed, ResourceLimit
from bechex.families import _chain, _p4, spiral
from bechex.lattice import (
    DIRECTIONS,
    NEIGHBOR_OFFSETS,
    Condensation,
    _code_condensation,
    canonical_cells,
    condensation_class,
    embed,
    is_simply_connected,
    trace,
    walk,
)

from oracle_polyhex import convex_shapes
from test_cli import HEXAGONAL_BLOCK, TWO_ARMS

PARITY_DEPTH = 8

_BLOCK_FAST = """
import importlib.abc, sys

class _NoFast(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "bechex._kernel._fast":
            raise ImportError("blocked for the test")

sys.meta_path.insert(0, _NoFast())
"""


#: Loads the compiled kernel from a given file instead of src/.
_LOAD_FAST = """
import importlib.abc, importlib.util, sys

class _Fast(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "bechex._kernel._fast":
            return importlib.util.spec_from_file_location(name, {path!r})

sys.meta_path.insert(0, _Fast())
"""


def _env(pure: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BECHEX_PURE"}
    if pure:
        env["BECHEX_PURE"] = "1"
    return env


def _backend_in_fresh_process(prelude: str = "", *, pure: bool = False):
    code = prelude + "import bechex._kernel as k; print(k.BACKEND, k.BACKEND_REASON, sep='|')"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=_env(pure)
    )
    backend, reason = out.stdout.strip().split("|")
    return backend, reason, out.stderr


#: One line of each kind: benzene, a convex, a quasi-convex and a general
#: code, a walk that does not close, a self-intersecting fusene, a
#: malformed line, and two shapes above the kernel's limits.
ANALYZE_BATCH = ["6", "444", "52441", "533511", "535151", "5111153333", "5x1"] + [
    str(trace(cells)) for cells in (HEXAGONAL_BLOCK, TWO_ARMS)
]


def _analyze_in_fresh_process(prelude: str = "", *, pure: bool = False):
    """The backend name, then the exit status and standard output of
    ``analyze --stdin --json`` on ANALYZE_BATCH."""
    code = prelude + (
        "import sys, bechex._kernel as k; print(k.BACKEND, file=sys.stderr); "
        "from bechex.cli import run; run()"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, "analyze", "--stdin", "--json"],
        input="\n".join(ANALYZE_BATCH).encode() + b"\n",
        capture_output=True,
        env=_env(pure),
    )
    return out.stderr.decode().strip(), out.returncode, out.stdout


class TestBackendChoice:
    def test_reason_matches_backend(self):
        if kernel.BACKEND == "python":
            assert kernel.BACKEND_REASON.startswith(("fallback: ", "BECHEX_PURE"))
        else:
            assert kernel.BACKEND_REASON == "compiled"

    def test_bechex_pure_forces_pure_backend(self):
        backend, reason, stderr = _backend_in_fresh_process(pure=True)
        assert (backend, reason) == ("python", "BECHEX_PURE")
        assert stderr == ""

    def test_fallback_warns_once_and_says_why(self):
        backend, reason, stderr = _backend_in_fresh_process(_BLOCK_FAST)
        assert backend == "python"
        assert reason == "fallback: blocked for the test"
        assert stderr.count("compiled kernel unavailable") == 1
        assert "blocked for the test" in stderr

    def test_analyze_gives_the_same_bytes_on_both_backends(self, fast):
        compiled = _analyze_in_fresh_process(_LOAD_FAST.format(path=fast.__file__))
        python = _analyze_in_fresh_process(pure=True)
        assert (compiled[0], python[0]) == ("c", "python")
        assert compiled[1] == 1  # the malformed line
        assert compiled[1:] == python[1:]


ROOT = Path(__file__).resolve().parents[1]


def _c_compiler() -> list[str]:
    """The command of the C compiler setup.py uses; skips without one."""
    compiler = os.environ.get("CC") or sysconfig.get_config_var("CC") or ""
    if not compiler.split() or shutil.which(compiler.split()[0]) is None:
        pytest.skip(f"no C compiler ({compiler!r}); nothing to compare")
    return compiler.split()


@pytest.fixture(scope="session")
def fast(tmp_path_factory):
    """The compiled kernel built from the working tree's _fast.c, by
    setup.py with its own flags, CFLAGS and -Werror, into a temporary
    directory: not whichever build sits in src/.  Skips only without a C
    compiler."""
    _c_compiler()
    out = tmp_path_factory.mktemp("fast")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out), "--build-temp", str(out / "temp")],
        cwd=ROOT,
        env={**os.environ, "CFLAGS": f"{os.environ.get('CFLAGS', '')} -Werror"},
        capture_output=True,
        text=True,
    )
    built = list(out.glob("bechex/_kernel/_fast*"))
    assert build.returncode == 0 and built, build.stdout + build.stderr
    spec = spec_from_file_location("bechex._kernel._fast", built[0])
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hole_free_children(level):
    """Every one-cell extension of the shapes, canonicalised and kept when
    it has no hole: the children of a level, found without grow."""
    children = set()
    for key in level:
        cells = unpack_cells(key)
        free = {(q + dq, r + dr) for q, r in cells for dq, dr in NEIGHBOR_OFFSETS} - set(cells)
        children.update(canonical_cells(cells + (cell,)) for cell in free)
    return {pack_cells(child) for child in children if is_simply_connected(child)}


def _is_benzenoid(cells: set) -> bool:
    start = next(iter(cells))
    seen, stack = {start}, [start]
    while stack:
        q, r = stack.pop()
        for dq, dr in NEIGHBOR_OFFSETS:
            if (q + dq, r + dr) in cells and (q + dq, r + dr) not in seen:
                seen.add((q + dq, r + dr))
                stack.append((q + dq, r + dr))
    return len(seen) == len(cells) and is_simply_connected(cells)


@cache
def _canonical_children(key):
    """Sorted keys of the hole-free children of one shape whose canonical
    parent it is, found without grow and without the one-arc lemma.

    A cell of a child K is removable when K without it is connected and
    hole-free.  The canonical parent is K, in its canonical form, minus
    the greatest (q, r) among the removable cells of least (degree, sum
    of the occupied neighbours' degrees).
    """
    cells = unpack_cells(key)
    parent = canonical_cells(cells)
    free = {(q + dq, r + dr) for q, r in cells for dq, dr in NEIGHBOR_OFFSETS} - set(cells)
    children = set()
    for cell in free:
        if not is_simply_connected(cells + (cell,)):
            continue
        child = canonical_cells(cells + (cell,))
        occupied = set(child)
        degree = {
            (q, r): sum((q + dq, r + dr) in occupied for dq, dr in NEIGHBOR_OFFSETS) for q, r in child
        }
        ranks = sorted(
            (degree[q, r], sum(degree.get((q + dq, r + dr), 0) for dq, dr in NEIGHBOR_OFFSETS), (q, r))
            for q, r in child
        )
        # removability is costly to decide here, so only the least ranks are tried
        for rank, group in groupby(ranks, key=lambda entry: entry[:2]):
            removable = [x for *_, x in group if _is_benzenoid(occupied - {x})]
            if removable:
                break
        if canonical_cells(tuple(occupied - {max(removable)})) == parent:
            children.add(pack_cells(child))
    return sorted(children)


FOLD_DEPTH = 10
#: Levels whose codes survey reads from every rotation, both ways.
SURVEY_ROTATED_DEPTH = {"c": 10, "python": 8}


class TestBackendParity:
    """Both backends on every canonical shape through h = 8, and the batch
    entries against the one-key ones, alone and from two threads at once."""

    def test_every_entry_point_agrees(self, fast):
        level = [pack_cells(((0, 0),))]
        for h in range(1, PARITY_DEPTH + 1):
            codes = [pure.trace_code(key) for key in level]
            assert [fast.trace_code(key) for key in level] == codes, f"trace_code at h={h}"
            assert [fast.code_deficit(c) for c in codes] == [pure.code_deficit(c) for c in codes]
            assert [fast.code_key(c) for c in codes] == [pure.code_key(c) for c in codes] == level
            grown = fast.grow(level)
            assert sorted(grown) == sorted(pure.grow(level)), f"grow from h={h}"
            assert len(set(grown)) == len(grown), f"a repeated child from h={h}"
            assert set(grown) == _hole_free_children(level), f"grow from h={h}"
            level = sorted(grown)

    def test_survey_reads_every_level_file_code_from_every_start(self, backend, level_lines):
        """Each code through CODE_KEY_DEPTH, read from each rotation and both
        ways, gives its deficit, its trace_code and its key's cell count;
        the pure backend reads the deepest levels only as written."""
        for h, lines in level_lines.items():
            for key, code in lines:
                readings = [code]
                if h <= SURVEY_ROTATED_DEPTH[backend.BACKEND]:
                    readings = [word[i:] + word[:i] for word in (code, code[::-1]) for i in range(len(word))]
                expected = (backend.code_deficit(code), code, len(key) // 2)
                assert [backend.survey(word) for word in readings] == [expected] * len(readings), code

    def test_survey_gives_minus_1_for_the_crossing_fusenes(self, backend):
        crossing = [str(c) for h in range(2, FUSENE_DEPTH + 1) for c in enumerate_unbranched_fusenes(h)
                    if backend.code_key(str(c)) is None]
        assert len(crossing) > 100
        assert [backend.survey(code) for code in crossing] == [
            (backend.code_deficit(code), str(canonical(parse_code(code))), -1) for code in crossing
        ]

    def test_survey_gives_0_for_walks_that_do_not_close_anticlockwise(self, backend):
        words = _open_words() + _closed_words_of_another_winding()
        assert [backend.survey(word) for word in words] == [
            (backend.code_deficit(word), str(canonical(parse_code(word))), 0) for word in words
        ]

    def test_fold_is_trace_code_then_code_deficit(self, backend, breadth_first):
        for h, keys in breadth_first(FOLD_DEPTH):
            codes = list(map(backend.trace_code, keys))
            assert backend.fold(keys) == (codes, bytes(map(backend.code_deficit, codes))), h
        assert backend.fold([]) == ([], b"")

    def test_two_threads_get_the_one_thread_results(self, fast, breadth_first):
        """Two threads call the compiled grow and fold at once, each on all
        the chunks of levels 7 and 8, one from each end."""
        levels = dict(breadth_first(8))
        chunks = [levels[h][i:i + 97] for h in (7, 8) for i in range(0, len(levels[h]), 97)]
        alone = [(fast.grow(chunk), fast.fold(chunk)) for chunk in chunks]
        start, results = threading.Barrier(2), {}

        def run(order):
            start.wait()
            results[order] = [(fast.grow(chunks[i]), fast.fold(chunks[i])) for i in order]

        orders = [tuple(range(len(chunks))), tuple(reversed(range(len(chunks))))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(order,)) for order in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for order in orders:
            assert results[order] == [alone[i] for i in order]


SANITIZE = "-fsanitize=address,undefined -fno-sanitize-recover=undefined"


@pytest.mark.slow
def test_parity_and_limits_hold_under_the_sanitizers(tmp_path):
    """Opt in with ``-m slow``.  A child pytest runs TestBackendParity and
    TestLimits with SANITIZE in CFLAGS, so that its fast fixture builds
    _fast.c with AddressSanitizer and UndefinedBehaviorSanitizer into a
    temporary directory, and with their runtimes preloaded into Python.
    Any memory error or undefined behaviour on their inputs stops it."""
    compiler = _c_compiler()
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    linked = subprocess.run(
        [*compiler, *SANITIZE.split(), str(probe), "-o", str(tmp_path / "probe")],
        capture_output=True,
        text=True,
    )
    runtimes = [
        subprocess.run([*compiler, f"-print-file-name={name}"], capture_output=True, text=True).stdout.strip()
        for name in ("libasan.so", "libubsan.so")
    ]
    if linked.returncode != 0 or not all(map(os.path.isabs, runtimes)):
        pytest.skip(f"{' '.join(compiler)} cannot link a sanitizer: {linked.stderr.strip() or runtimes}")
    env = {
        **os.environ,
        "CFLAGS": f"{os.environ.get('CFLAGS', '')} {SANITIZE}",
        "LD_PRELOAD": " ".join(runtimes),
        "ASAN_OPTIONS": "detect_leaks=0",
    }
    # -s: a sanitizer ends the child at once, so its report must not wait
    # in pytest's capture of the test's output.
    child = ["-q", "-s", "-p", "no:cacheprovider", "--basetemp", str(tmp_path / "child")]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *child, "-k", "TestBackendParity or TestLimits", __file__],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr[-4000:] + run.stdout[-4000:]


PARTITION_DEPTH = 9


def test_each_child_comes_from_one_parent(backend, breadth_first):
    """Growing each parent of a level on its own gives every shape of the
    next level exactly once: the lists of distinct parents are disjoint."""
    levels = {h: keys for h, keys in breadth_first(PARTITION_DEPTH)}
    for h in range(1, PARTITION_DEPTH):
        children = [child for parent in levels[h] for child in backend.grow([parent])]
        assert len(set(children)) == len(children), f"a child grown twice from h={h}"
        assert children == levels[h + 1], f"grow from h={h}"


class TestContract:
    """Both backends expose the same six entries and the backend name."""

    ENTRIES = ["BACKEND", "code_deficit", "code_key", "fold", "grow", "survey", "trace_code"]

    def test_backends_expose_the_same_entries(self, fast):
        assert sorted(pure.__all__) == self.ENTRIES
        assert sorted(name for name in dir(fast) if not name.startswith("_")) == self.ENTRIES

    def test_kernel_reexports_the_entries(self):
        extra = ["BACKEND_REASON", "pack_cells", "unpack_cells"]
        assert sorted(kernel.__all__) == sorted(self.ENTRIES + extra)
        assert all(hasattr(kernel, name) for name in kernel.__all__)


CODE_KEY_DEPTH = 10
REVERSED_DEPTH = 8
FUSENE_DEPTH = 11


@pytest.fixture(scope="module", params=["python", "c"])
def backend(request):
    """Each kernel backend in turn; the compiled one as the fast fixture
    builds it."""
    if request.param == "python":
        return pure
    return request.getfixturevalue("fast")


@pytest.fixture(scope="module")
def level_lines(breadth_first):
    """(key, code) of every shape through CODE_KEY_DEPTH: the lines of the
    level files and the keys they stand for."""
    return {
        h: [(key, kernel.trace_code(key)) for key in keys]
        for h, keys in breadth_first(CODE_KEY_DEPTH)
    }


def test_the_class_read_off_the_code_is_that_of_the_inner_dual(backend, level_lines):
    """Every benzenoid through CODE_KEY_DEPTH, benzene included: the class
    from the canonical code's perimeter and 5s is the inner dual's."""
    for h, lines in level_lines.items():
        for key, _ in lines:
            found = _code_condensation(backend.trace_code(key), len(key) // 2)
            assert found is condensation_class(unpack_cells(key)), key


@cache
def _open_words() -> tuple[str, ...]:
    """2,000 seeded words over 1..5 whose walks do not come back to their start."""
    rng = random.Random(6)
    words = []
    while len(words) < 2000:
        word = "".join(rng.choice("12345") for _ in range(rng.randint(1, 60)))
        try:
            walk(parse_code(word))
        except NotClosed:
            words.append(word)
    return tuple(words)


@cache
def _closed_words_of_another_winding() -> tuple[str, ...]:
    """150 seeded words whose walks come back to their start with a winding
    other than 6, more than 20 of them simple boundaries walked clockwise,
    with the inside on the right."""
    rng = random.Random(6)
    words, clockwise = [], 0
    while len(words) < 150:
        word = "".join(rng.choice("1123") for _ in range(rng.randint(6, 30)))
        x = y = turn = 0
        vertices = []
        for s in map(int, word):
            for step in range(s):
                vertices.append((x, y))
                dx, dy = DIRECTIONS[turn % 6]
                x, y, turn = x + dx, y + dy, turn + (1 if step < s - 1 else -1)
        if (x, y) == (0, 0) and turn != 6:
            words.append(word)
            clockwise += turn == -6 and len(set(vertices)) == len(vertices)
    assert clockwise > 20
    return tuple(words)


class TestCodeKey:
    """code_key against the enumerated keys, on both backends."""

    def test_every_level_file_line_gives_its_key(self, backend, level_lines):
        for h, lines in level_lines.items():
            assert [backend.code_key(code) for _, code in lines] == [key for key, _ in lines], h

    def test_a_reversed_code_gives_the_same_key(self, backend, level_lines):
        for h in range(2, REVERSED_DEPTH + 1):
            for key, code in level_lines[h]:
                assert backend.code_key(code[::-1]) == key, code

    def test_self_intersecting_fusenes_give_none(self, backend):
        crossing = [
            str(code)
            for h in range(2, FUSENE_DEPTH + 1)
            for code in enumerate_unbranched_fusenes(h)
            if not walk(code).simple
        ]
        assert len(crossing) > 100
        assert [code for code in crossing if backend.code_key(code) is not None] == []

    def test_words_that_do_not_close_give_none(self, backend):
        assert [word for word in _open_words() if backend.code_key(word) is not None] == []

    def test_walks_that_close_clockwise_or_crossed_give_none(self, backend):
        words = _closed_words_of_another_winding()
        assert [word for word in words if backend.code_key(word) is not None] == []

    @pytest.mark.parametrize("text", ["5x1", "²3", "", "٣٣", " 55", "55\n", "66", "0", "565"])
    def test_strings_that_are_not_codes_give_none(self, backend, text):
        assert backend.code_key(text) is None

    def test_benzene(self, backend):
        assert backend.code_key("6") == pack_cells(((0, 0),))


@pytest.mark.parametrize("text", ["٣٣", "", "66", "0", "5x1", "²3", " 55"])
def test_code_deficit_refuses_strings_that_are_not_codes(backend, text):
    with pytest.raises(ValueError):
        backend.code_deficit(text)


@pytest.mark.parametrize("text", ["٣٣", "", "66", "0", "5x1", "²3", " 55", "6 "])
def test_survey_refuses_what_code_deficit_refuses(backend, text):
    with pytest.raises(ValueError, match=f"^bad symbol in code: {re.escape(repr(text))}$"):
        backend.survey(text)
    assert _outcome(backend.survey, text) == _outcome(backend.code_deficit, text)


@pytest.mark.parametrize(
    "key",
    [bytes([0, 0, 2, 2]), bytes([0, 0, 0, 0]), bytes.fromhex("010300000400")],
    ids=["apart", "repeated", "unsorted"],
)
def test_a_key_whose_first_cell_touches_no_other_is_refused(backend, key):
    # the walk around the first cell turns left six times and never right
    with pytest.raises(ValueError, match="^start cell touches no other cell$"):
        backend.trace_code(key)


#: Cell (1, 1), then its six neighbours: the first cell has no free side.
ENCLOSED_FIRST_CELL = bytes.fromhex("0101020101020002000101000200")
#: Cells whose first free side faces a hole: the walk goes round the hole
#: clockwise and reads 111111, a code whose deficit is undefined (-1).
HOLE_FIRST = bytes.fromhex("0002010202010002000102010200010002000201")


def test_a_key_whose_first_cell_has_no_free_side_is_refused(backend):
    with pytest.raises(ValueError, match="^start cell has no boundary edge$"):
        backend.trace_code(ENCLOSED_FIRST_CELL)


CONVEX_DEPTH = 12


def test_convex_shapes_built_from_their_bounds_have_deficit_0(backend):
    for h, shapes in convex_shapes(CONVEX_DEPTH).items():
        for shape in shapes:
            code = backend.trace_code(pack_cells((x, z) for x, _, z in shape))
            assert "1" not in code and classify(parse_code(code)).kind is ConvexityKind.CONVEX, code
            assert backend.code_deficit(code) == 0, code


#: The two extremal benzenoids of h = 14 (tests/test_enumeration.py
#: finds them by exhaustive search when run with ``-m slow``).
H14_EXTREMAL = ["53332322215133511122212111", "53332323115133511131212111"]


@pytest.mark.parametrize("text", H14_EXTREMAL)
def test_the_h14_extremal_shapes_have_deficit_21(backend, text):
    code = parse_code(text)
    shape = embed(code)
    assert (shape.hexagons, shape.condensation) == (14, Condensation.CATACONDENSED_BRANCHED)
    assert convexity_deficit(code) == backend.code_deficit(text) == 21
    # the spiral, extremal through h = 13, stays at 2h - 8
    assert convexity_deficit(spiral(14)) == backend.code_deficit(str(spiral(14))) == 20


@pytest.mark.parametrize("entry", ["code_deficit", "code_key", "survey"])
@pytest.mark.parametrize("value", [55, None, b"55"], ids=["int", "None", "bytes"])
def test_a_code_that_is_not_a_str_is_a_type_error(backend, entry, value):
    with pytest.raises(TypeError, match=f"a code must be str, not {type(value).__name__}$"):
        getattr(backend, entry)(value)


def _outcome(entry, arg):
    """What a kernel entry gives for arg: its result, or the type and
    message of what it raises."""
    try:
        return entry(arg)
    except Exception as exc:
        return type(exc), str(exc)


def _random_benzenoid(rng: random.Random, n: int) -> tuple:
    """n cells grown from one, each new cell a free neighbour whose occupied
    neighbours form one arc, so the shape stays free of holes."""
    cells = [(0, 0)]
    occupied = set(cells)
    while len(cells) < n:
        q, r = rng.choice(cells)
        dq, dr = rng.choice(NEIGHBOR_OFFSETS)
        q, r = q + dq, r + dr
        ring = [(q + a, r + b) in occupied for a, b in NEIGHBOR_OFFSETS]
        if (q, r) in occupied or sum(ring[i] and not ring[i - 1] for i in range(6)) != 1:
            continue
        cells.append((q, r))
        occupied.add((q, r))
    return tuple(cells)


def _l_shape(arm: int) -> tuple:
    """Two straight arms of `arm` cells from a corner cell: (arm + 3) ** 2 grid slots."""
    return ((0, 0),) + tuple((i, 0) for i in range(1, arm + 1)) + tuple((0, i) for i in range(1, arm + 1))


class TestLimits:
    """One set of size limits, MAX_CELLS, MAX_GRID and MAX_PERIMETER in
    common.py, on large seeded random input."""

    def test_large_random_benzenoids_agree(self, fast):
        rng = random.Random(250)
        for n in [MAX_CELLS, MAX_CELLS] + [rng.randint(100, MAX_CELLS) for _ in range(10)]:
            cells = _random_benzenoid(rng, n)
            assert is_simply_connected(cells)
            key = pack_cells(cells)
            canon = pack_cells(canonical_cells(cells))
            code = pure.trace_code(key)
            assert fast.trace_code(key) == code == str(trace(cells))
            assert fast.code_deficit(code) == pure.code_deficit(code)
            assert fast.code_key(code) == pure.code_key(code) == canon
            assert fast.code_key(code[::-1]) == canon
            assert fast.survey(code[::-1]) == pure.survey(code) == (pure.code_deficit(code), code, n)

    def test_a_grown_shape_at_the_cell_limit_agrees(self, fast):
        key = pack_cells(_random_benzenoid(random.Random(1), MAX_CELLS))
        assert sorted(fast.grow([key])) == sorted(pure.grow([key]))

    def test_random_keys_agree(self, fast):
        """Seeded keys and codes, most of them outside the contract, through
        all four entries: both backends give the same result, or raise the
        same exception type with the same message."""
        rng = random.Random(68)
        keys = [bytes(rng.randrange(41) for _ in range(2 * rng.randint(1, MAX_CELLS))) for _ in range(3)]
        keys += [bytes([118, 5, 0, 1, 255, 6]), ENCLOSED_FIRST_CELL]
        for _ in range(2000):
            q_span, r_span = rng.choice((3, 6, 40, 200, 256)), rng.choice((3, 6, 40, 200, 256))
            cells = [(rng.randrange(q_span), rng.randrange(r_span)) for _ in range(rng.randint(1, 10))]
            if rng.random() < 0.25:  # a far cell; a small r keeps the grid within its limit
                cells.append((rng.choice((0, 255)), rng.randrange(min(r_span, 6))))
            if rng.random() < 0.5:
                cells.sort()
            keys.append(bytes(chain.from_iterable(cells)))
        codes = [
            "".join(rng.choice("12345" if rng.random() < 0.8 else "0123456x") for _ in range(rng.randint(1, 40)))
            for _ in range(500)
        ]
        for key in keys:
            assert _outcome(fast.grow, [key]) == _outcome(pure.grow, [key]), key.hex()
            code = _outcome(fast.trace_code, key)
            assert code == _outcome(pure.trace_code, key), key.hex()
            if isinstance(code, str):
                codes.append(code)
        for code in codes:
            assert _outcome(fast.code_key, code) == _outcome(pure.code_key, code), code
            assert _outcome(fast.code_deficit, code) == _outcome(pure.code_deficit, code), code
            assert _outcome(fast.survey, code) == _outcome(pure.survey, code), code

    def test_random_digit_strings_survey_alike_up_to_the_edge_limit_and_over(self, fast):
        """Seeded strings of 1 to MAX_PERIMETER + 1 edges, some with a bad
        symbol: the same result, or the same exception and message."""
        rng = random.Random(1024)
        outcomes = Counter()
        sizes = [MAX_PERIMETER, MAX_PERIMETER + 1] * 3 + [rng.randint(1, MAX_PERIMETER + 1) for _ in range(300)]
        for edges in sizes:
            symbols = []
            while sum(symbols) < edges:
                symbols.append(min(rng.choice((1, 2, 2, 3, 3, 4, 5)), edges - sum(symbols)))
            text = "".join(map(str, symbols))
            if rng.random() < 0.1:
                at = rng.randrange(len(text))
                text = text[:at] + rng.choice("06x ") + text[at + 1:]
            outcome = _outcome(fast.survey, text)
            assert outcome == _outcome(pure.survey, text), text
            outcomes[outcome[0] if isinstance(outcome[0], type) else "result"] += 1
        assert outcomes.keys() == {"result", ValueError, ResourceLimit}

    @pytest.mark.parametrize("entry", ["grow", "fold"])
    def test_the_first_bad_key_of_a_list_raises_as_it_does_alone(self, backend, entry, breadth_first):
        """A list whose k-th key is the first bad one raises what a call on
        that key alone raises: the same type and message."""
        call = getattr(backend, entry)
        good = dict(breadth_first(5))[5]
        bad = [
            b"", b"\0", "0000", 55, pack_cells(_random_benzenoid(random.Random(251), MAX_CELLS + 1)),
            pack_cells(_l_shape(int(MAX_GRID**0.5) - 2)), bytes([118, 5, 0, 1, 255, 6]),
            ENCLOSED_FIRST_CELL, bytes([0, 0, 2, 2]), HOLE_FIRST,
        ]
        refused = 0
        for key in bad:
            alone = _outcome(call, [key])
            if not (isinstance(alone, tuple) and isinstance(alone[0], type)):
                continue
            refused += 1
            for k in (0, 1, len(good)):
                for after in ([], [b"\0"], [55]):
                    assert _outcome(call, good[:k] + [key] + good[k:] + after) == alone, (key, k)
        assert refused == {"grow": 7, "fold": 10}[entry]

    def test_keys_above_the_limits_raise(self, backend):
        rng = random.Random(251)
        too_many = pack_cells(_random_benzenoid(rng, MAX_CELLS + 1))
        arm = int(MAX_GRID**0.5) - 3
        assert (arm + 3) ** 2 == MAX_GRID
        at_limit = _l_shape(arm)
        key = pack_cells(at_limit)
        assert backend.trace_code(key) == str(trace(at_limit))
        assert sorted(backend.grow([key])) == _canonical_children(key)
        too_wide = pack_cells(_l_shape(arm + 1))
        for key in (too_many, too_wide):
            with pytest.raises(ResourceLimit):
                backend.trace_code(key)
            with pytest.raises(ResourceLimit):
                backend.grow([key])

    def test_codes_above_the_limits_raise(self, backend):
        # A straight chain of n cells has 4n + 2 edges.
        chain = "5" + "2" * 254 + "5" + "2" * 254
        assert sum(map(int, chain)) == MAX_PERIMETER + 2
        for code in (chain, "1" * (MAX_PERIMETER + 1)):
            for entry in (backend.code_key, backend.code_deficit, backend.survey):
                with pytest.raises(ResourceLimit):
                    entry(code)
        assert backend.code_key("1" * MAX_PERIMETER) is None
        at_limit = "5" + "2" * 252 + "5" + "2" * 252
        assert backend.code_deficit(at_limit) == 0
        assert backend.survey(at_limit) == (0, at_limit, 254)
        too_many = _random_benzenoid(random.Random(9), MAX_CELLS + 1)
        too_wide = _l_shape(int(MAX_GRID**0.5) - 2)
        for shape in (too_many, too_wide):
            with pytest.raises(ResourceLimit):
                backend.code_key(str(trace(shape)))
            # survey fills no grid, so only the edge limit holds it
            assert backend.survey(str(trace(shape)))[1:] == (str(trace(shape)), len(shape))

    @pytest.mark.parametrize("code", [
        "".join(map(str, _p4(16, 16))), str(trace(HEXAGONAL_BLOCK)), str(trace(TWO_ARMS)),
    ], ids=["parallelogram", "block", "arms"])
    def test_survey_counts_the_hexagons_of_shapes_above_code_keys_limits(self, backend, code):
        """256 and 271 cells, and a grid of 69 x 135 slots: embed's count."""
        with pytest.raises(ResourceLimit):
            backend.code_key(code)
        shape = embed(parse_code(code))
        assert backend.survey(code) == (convexity_deficit(parse_code(code)), str(shape.code), shape.hexagons)

    def test_codes_above_the_limits_raise_the_same_message(self, fast):
        """Above a limit, both backends name the same limit in the same words,
        the grid checked before the cells."""
        codes = [str(trace(HEXAGONAL_BLOCK)), str(trace(TWO_ARMS))]  # 271 cells; a 69 x 135 grid
        codes += ["".join(map(str, _p4(12, 12))), "".join(map(str, _chain((1, 3) * 99)))]  # 265; 102 x 103
        for code in codes:
            outcome = _outcome(fast.code_key, code)
            assert outcome[0] is ResourceLimit, outcome
            assert outcome == _outcome(pure.code_key, code)
