"""Kernel backends: the shipped C source, backend choice, and parity.

``_fast.c`` is generated from ``_fast.pyx`` by Cython but is also a build
input in its own right (setup.py compiles it when Cython is missing), so
it must not drift from the .pyx it claims to come from.  The compiled and
pure-Python backends must agree exactly on every kernel entry point.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import bechex._kernel as kernel
from bechex._kernel import pack_cells, pure, unpack_cells

KERNEL_DIR = Path(kernel.__file__).resolve().parent
PARITY_DEPTH = 8

_BLOCK_START = re.compile(r'^\s*/\* "bechex/_kernel/_fast\.pyx":(\d+)$')
_MARKER = "# <<<<<<<<<<<<<<"


def _marked_lines(c_text: str):
    """Yield (pyx line number, marked source line) for every source
    comment block Cython wrote into the C file."""
    lines = c_text.splitlines()
    for i, line in enumerate(lines):
        match = _BLOCK_START.match(line)
        if not match:
            continue
        for body in lines[i + 1 :]:
            if body.strip() == "*/":
                raise AssertionError(f"C line {i + 1}: block without a marked line")
            if body.endswith(_MARKER):
                yield int(match.group(1)), body[len(" * ") : -len(_MARKER)]
                break


class TestShippedSource:
    def test_c_source_matches_pyx(self):
        pyx = (KERNEL_DIR / "_fast.pyx").read_text("utf-8").splitlines()
        marked = list(_marked_lines((KERNEL_DIR / "_fast.c").read_text("utf-8")))
        assert len(marked) > 200
        drift = [
            (n, text.rstrip(), pyx[n - 1].rstrip() if n <= len(pyx) else None)
            for n, text in marked
            if n > len(pyx) or text.rstrip() != pyx[n - 1].rstrip()
        ]
        assert drift == [], f"_fast.c is out of date with _fast.pyx: {drift[:5]}"


_BLOCK_FAST = """
import importlib.abc, sys

class _NoFast(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "bechex._kernel._fast":
            raise ImportError("blocked for the test")

sys.meta_path.insert(0, _NoFast())
"""


def _backend_in_fresh_process(prelude: str = "", *, pure: bool = False):
    env = {k: v for k, v in os.environ.items() if k != "BECHEX_PURE"}
    if pure:
        env["BECHEX_PURE"] = "1"
    code = prelude + "import bechex._kernel as k; print(k.BACKEND, k.BACKEND_REASON, sep='|')"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    backend, reason = out.stdout.strip().split("|")
    return backend, reason, out.stderr


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


def _rotate(cells):
    """The shape turned by 60 degrees about the origin (axial coordinates)."""
    return tuple((-r, q + r) for q, r in cells)


def _reflect(cells):
    return tuple((r, q) for q, r in cells)


@pytest.fixture(scope="module")
def fast():
    try:
        return import_module("bechex._kernel._fast")
    except ImportError as exc:
        pytest.skip(f"compiled kernel not built ({exc}); nothing to compare")


class TestBackendParity:
    """Both backends on every canonical shape through h = 8."""

    def test_every_entry_point_agrees(self, fast):
        level = [pack_cells(((0, 0),))]
        for h in range(1, PARITY_DEPTH + 1):
            codes = [pure.trace_code(key) for key in level]
            assert [fast.trace_code(key) for key in level] == codes, f"trace_code at h={h}"
            assert [fast.code_deficit(c) for c in codes] == [pure.code_deficit(c) for c in codes]
            for key in level:
                cells = unpack_cells(key)
                for moved in (_rotate(cells), _reflect(cells), _rotate(_rotate(_reflect(cells)))):
                    moved_key = pack_cells(moved)
                    assert fast.canonical_key(moved_key) == key
                    assert pure.canonical_key(moved_key) == key
            raw = pure.grow(level)
            assert fast.grow(level) == raw, f"grow from h={h}"
            raw = sorted(raw)
            simple = [pure.simply_connected(key) for key in raw]
            assert [fast.simply_connected(key) for key in raw] == simple
            if h + 1 >= 6:
                assert not all(simple), "holed children appear from h = 6"
            level = [key for key, ok in zip(raw, simple) if ok]
