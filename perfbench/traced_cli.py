"""Run the bechex command line with a span around each layer's public names.

    PERFBENCH_TRACE_DIR=DIR PYTHONPATH=src python3 perfbench/traced_cli.py ARGS...

takes the same ARGS as ``python3 -m bechex.cli``.  Before the command
runs, every name in TARGETS is replaced, in every ``bechex`` module that
imported it, by a wrapper that records its calls, its inclusive seconds,
its self seconds (inclusive minus the wrapped calls made inside it) and,
for some names, a count taken from the arguments or the result.  The
totals go to DIR/root.json when the command ends.

Worker processes forked by ``multiprocessing`` inherit the wrappers.  A
fork hook clears their totals, and each worker writes its own to
DIR/worker-<pid>.json whenever its outermost span ends, since pool
workers are terminated rather than let exit.  Workers started with the
``spawn`` method would import bechex afresh and go untraced.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.pool
import os
import pathlib
import sys
import time


def _length(args, result):
    return len(result)


def _truth(args, result):
    return int(bool(result))


def _written(args, result):
    return len(args[1])


#: (span name, module or class, attribute, count taken from a call)
TARGETS = (
    ("cli.main", "bechex.cli", "main", None),
    ("enumeration.run_search", "bechex.enumeration", "run_search", None),
    ("enumeration.load_level", "bechex.enumeration", "_load_level", None),
    ("enumeration.write_text", pathlib.Path, "write_text", _written),
    ("enumeration.read_text", pathlib.Path, "read_text", _length),
    ("enumeration.pool_map", multiprocessing.pool.Pool, "map", None),
    ("kernel.grow", "bechex._kernel", "grow", _length),
    ("kernel.simply_connected", "bechex._kernel", "simply_connected", _truth),
    ("kernel.trace_code", "bechex._kernel", "trace_code", None),
    ("kernel.code_deficit", "bechex._kernel", "code_deficit", None),
    ("kernel.canonical_key", "bechex._kernel", "canonical_key", None),
    ("lattice.embed", "bechex.lattice", "embed", None),
    ("lattice.condensation_class", "bechex.lattice", "condensation_class", None),
    ("lattice.canonical_cells", "bechex.lattice", "canonical_cells", None),
    ("codes.parse_code", "bechex.codes", "parse_code", None),
    ("codes.classify", "bechex.codes", "classify", None),
    ("codes.canonical", "bechex.codes", "canonical", None),
)


class Tracer:
    def __init__(self, out_dir: pathlib.Path):
        self.out_dir = out_dir
        self.worker = False
        self.missing: list[str] = []
        self._clear()
        os.register_at_fork(after_in_child=self._forked)

    def _clear(self) -> None:
        # name -> [calls, inclusive seconds, self seconds, count]
        self.totals: dict[str, list] = {}
        # seconds spent in wrapped callees, one entry per open span
        self.stack: list[float] = []

    def _forked(self) -> None:
        self._clear()
        self.worker = True

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - inner
            if count is not None:
                record[3] += count(args, result)
            if self.worker and not stack:
                self.write(f"worker-{os.getpid()}.json")
            return result

        return traced

    def install(self) -> None:
        for name, owner, attr, count in TARGETS:
            if isinstance(owner, str):
                original = getattr(importlib.import_module(owner), attr, None)
            else:
                original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, count)
            if not isinstance(owner, str):
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if module_name != "bechex" and not module_name.startswith("bechex."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def write(self, file_name: str, **extra) -> None:
        payload = {"totals": self.totals, "missing": self.missing, **extra}
        tmp = self.out_dir / f".{file_name}.tmp"
        tmp.write_bytes(json.dumps(payload).encode())
        os.replace(tmp, self.out_dir / file_name)


def main() -> int:
    out_dir = pathlib.Path(os.environ["PERFBENCH_TRACE_DIR"])
    t0 = time.perf_counter()
    import bechex.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer(out_dir)
    tracer.install()
    try:
        return bechex.cli.main(sys.argv[1:])
    except SystemExit as exc:
        return exc.code
    finally:
        tracer.write("root.json", import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
