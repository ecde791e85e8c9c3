"""Benchmark of the bechex command line: enumerate, resume, workers, analyze.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Run from anywhere; the harness finds the repository from its own path,
builds the program there with ``setup.py build_ext --inplace`` as part
of every set-up, and runs ``python3 -m bechex.cli`` from ``src/`` as a
user would.  One workload is timed for ``--seconds`` seconds in whole rounds,
one program run per round, and every round's output is checked against
results computed without bechex (see checks.py).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the same rounds are followed
by one round under traced_cli.py, and the metrics are the per-layer ones
from that round.  Progress and the kernel backend go to standard error;
the full record of a run goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: Levels of the enumeration workloads.  h = 8 takes about 1 s with the
#: pure-Python kernel, so a run's median covers ten rounds or so.  h = 10
#: is the first level whose parents (6505 shapes at h = 9) reach the
#: program's threshold for a worker pool, so ``enumerate-2w`` needs it to
#: reach the pool at all.
ENUMERATE_H = 8
PARALLEL_H = 10
RESUME_H = 8

#: Codes per ``analyze --stdin`` request, about 1.5 s of work.
ANALYZE_BATCH = 4000

#: Set-up (build, then the workload's directories and inputs) is
#: repeated this many times per run and its median reported.
SETUP_REPEATS = 5

#: Rounds per run at least, however long a round takes.  A round of
#: ``enumerate-2w`` takes about 15 s, so one round would leave its
#: median at the mercy of one slow stretch of a shared machine.
MIN_ROUNDS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "codes_per_s": "codes/s",
}

#: Per-layer metric -> (span name from traced_cli.py, field).  The
#: fields are calls, s (inclusive seconds), self_s and n (the span's
#: count: raw keys for grow, kept shapes for simply_connected, bytes for
#: write_text and read_text).
SPAN_METRICS = {
    "kernel.grow.s": ("kernel.grow", "s"),
    "kernel.grow.calls": ("kernel.grow", "calls"),
    "kernel.grow.raw": ("kernel.grow", "n"),
    "kernel.simply_connected.s": ("kernel.simply_connected", "s"),
    "kernel.simply_connected.calls": ("kernel.simply_connected", "calls"),
    "kernel.trace_code.s": ("kernel.trace_code", "s"),
    "kernel.trace_code.calls": ("kernel.trace_code", "calls"),
    "kernel.code_deficit.s": ("kernel.code_deficit", "s"),
    "kernel.code_deficit.calls": ("kernel.code_deficit", "calls"),
    "kernel.canonical_key.s": ("kernel.canonical_key", "s"),
    "kernel.canonical_key.calls": ("kernel.canonical_key", "calls"),
    "lattice.canonical_cells.s": ("lattice.canonical_cells", "s"),
    "lattice.canonical_cells.calls": ("lattice.canonical_cells", "calls"),
    "lattice.embed.s": ("lattice.embed", "s"),
    "lattice.embed.calls": ("lattice.embed", "calls"),
    "lattice.condensation_class.s": ("lattice.condensation_class", "s"),
    "lattice.condensation_class.calls": ("lattice.condensation_class", "calls"),
    "codes.parse_code.s": ("codes.parse_code", "s"),
    "codes.parse_code.calls": ("codes.parse_code", "calls"),
    "codes.classify.s": ("codes.classify", "s"),
    "codes.canonical.s": ("codes.canonical", "s"),
    "codes.canonical.calls": ("codes.canonical", "calls"),
    "enumeration.persist.write_s": ("enumeration.write_text", "s"),
    "enumeration.persist.read_s": ("enumeration.load_level", "s"),
    "enumeration.pool.map_s": ("enumeration.pool_map", "s"),
    "enumeration.self.s": ("enumeration.run_search", "self_s"),
    "cli.self.s": ("cli.main", "self_s"),
}

PER_LAYER = {
    **{name: ("count" if field in ("calls", "n") else "s") for name, (_, field) in SPAN_METRICS.items()},
    "kernel.hole.kept_per_raw": "ratio",
    "enumeration.persist.bytes": "bytes",
    "process.import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Unusable(Exception):
    """The checkout cannot be benchmarked: no source or a failed build."""


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The small process that starts and times every program run, so
    that a run's peak RSS is not the harness's own (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise Unusable("the launcher process stopped")
        return json.loads(answer)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()


def run_program(
    launcher: Launcher, args: list[str], work: Path, *, stdin: Path | None = None, trace_dir: Path | None = None
) -> tuple[Round, str]:
    """One run of the program, timed from outside, and its standard output.

    CPU time and peak RSS come from wait4, so they cover the program and
    every worker process it started and reaped.
    """
    env = program_env()
    if trace_dir is None:
        argv = [sys.executable, "-m", "bechex.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), *args]
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    answer = launcher.run({
        "argv": argv, "env": env, "cwd": str(ROOT),
        "stdin": str(stdin or os.devnull), "stdout": str(out_path), "stderr": str(err_path),
    })
    if answer["returncode"] != 0:
        log(f"bechex {' '.join(args)} exited {answer['returncode']}: {err_path.read_text()[-2000:]}")
    done = Round(
        wall_s=answer["wall_s"],
        cpu_s=answer["cpu_s"],
        peak_rss_mb=answer["maxrss_kb"] / 1024,
        returncode=answer["returncode"],
    )
    return done, out_path.read_text()


_PROBE = """
import json, os
import bechex._kernel as kernel
if os.environ.get("BECHEX_PURE"):
    reason, detail = "BECHEX_PURE", "BECHEX_PURE is set"
elif kernel.BACKEND != "python":
    reason, detail = "compiled", ""
else:
    try:
        import bechex._kernel._fast
        reason, detail = "fallback", "compiled module imports but was not chosen"
    except ImportError as exc:
        reason, detail = "fallback", str(exc)
print(json.dumps({"backend": kernel.BACKEND, "reason": reason, "detail": detail}))
"""


def probe_backend() -> dict:
    """The kernel backend a fresh program process gets, and why."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=program_env(), cwd=ROOT,
        capture_output=True, text=True, check=False,
    )
    if out.returncode != 0:
        raise Unusable(f"bechex does not import: {out.stderr[-2000:]}")
    return json.loads(out.stdout)


def build() -> None:
    """Build the program in place, as a user installing it would; a
    compiled kernel, when setup.py makes one, lands in src/.  setup.py
    decides what is out of date, so a build with nothing to do is quick."""
    with open(STATE / "build.log", "wb") as logfile:
        rc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=ROOT, stdout=logfile, stderr=subprocess.STDOUT, check=False,
        ).returncode
    if rc != 0:
        raise Unusable(f"setup.py build_ext failed ({rc}); see {STATE / 'build.log'}")


class Workload:
    """One workload: set-up, the program arguments of a round, and the
    checks of a round's output."""

    codes_per_round: int
    stdin: Path | None = None

    def __init__(self, launcher: Launcher, work: Path, seed: int):
        self.launcher = launcher
        self.work = work
        self.seed = seed

    def run(self, args: list[str], trace_dir: Path | None = None) -> tuple[Round, str]:
        return run_program(self.launcher, args, self.work, stdin=self.stdin, trace_dir=trace_dir)

    def setup(self) -> None:
        raise NotImplementedError

    def prepared(self) -> None:
        """Untimed work after the last set-up, such as expected results."""

    def args(self) -> list[str]:
        raise NotImplementedError

    def before_round(self) -> None:
        """Untimed preparation of the next round."""

    def check(self, stdout: str) -> None:
        raise NotImplementedError


class Enumerate(Workload):
    """A fresh ``enumerate --out`` through h with a number of workers.

    The first round's files are checked independently, unless a
    one-worker reference run is asked for (``enumerate-2w``): then that
    run is checked and every round must match it byte for byte.
    """

    def __init__(self, launcher: Launcher, work: Path, seed: int, h: int, workers: int):
        super().__init__(launcher, work, seed)
        self.h = h
        self.workers = workers
        self.out = work / "out"
        self.codes_per_round = checks.codes_through(h)
        self.reference: dict[str, bytes] | None = None

    def setup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def args(self) -> list[str]:
        args = ["enumerate", "--hexagons", str(self.h), "--out", str(self.out)]
        return args + (["--threads", str(self.workers)] if self.workers > 1 else [])

    def before_round(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def prepared(self) -> None:
        if self.workers > 1:
            self.reference = self.reference_run()

    def check(self, stdout: str) -> None:
        checks.check_table(stdout, self.h)
        files = checks.snapshot(self.out)
        if self.reference is None:
            checks.check_enumeration(files, self.h)
            self.reference = files
        checks.same_files(files, self.reference, f"{self.workers}-worker enumerate")

    def reference_run(self) -> dict[str, bytes]:
        """Files of a one-worker run through h, checked independently.

        The checked files are kept under .perfbench/reference/, keyed by a
        hash of src/, so later runs of the same code skip the one-worker
        run (about 20 s at h = 10 with the pure-Python kernel).
        """
        digest = hashlib.sha256()
        for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
        ref = STATE / "reference" / f"{digest.hexdigest()[:16]}-h{self.h}"
        stamp = ref.with_suffix(".checked")
        if not stamp.is_file():
            shutil.rmtree(ref, ignore_errors=True)
            done, _ = self.run(["enumerate", "--hexagons", str(self.h), "--out", str(ref)])
            if done.returncode != 0:
                raise checks.CheckFailed("the one-worker reference run failed")
            checks.check_enumeration(checks.snapshot(ref), self.h)
            stamp.write_text("")
        return checks.snapshot(ref)


class Resume(Workload):
    """``enumerate --resume`` over a finished run through h: every level
    is read back from its file, re-traced, re-reported and rewritten.

    Set-up runs the fresh enumeration that writes those files; its
    output is checked independently, and every resume must leave the
    files byte for byte as they were.
    """

    def __init__(self, launcher: Launcher, work: Path, seed: int, h: int):
        super().__init__(launcher, work, seed)
        self.h = h
        self.out = work / "out"
        self.codes_per_round = checks.codes_through(h)

    def setup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        done, _ = self.run(["enumerate", "--hexagons", str(self.h), "--out", str(self.out)])
        if done.returncode != 0:
            raise Unusable("the enumeration that resume reads from failed")

    def args(self) -> list[str]:
        return ["enumerate", "--hexagons", str(self.h), "--out", str(self.out), "--resume"]

    def prepared(self) -> None:
        self.reference = checks.snapshot(self.out)
        checks.check_enumeration(self.reference, self.h)

    def check(self, stdout: str) -> None:
        checks.check_table(stdout, self.h)
        checks.same_files(checks.snapshot(self.out), self.reference, "resume")


class Analyze(Workload):
    """A seeded batch piped to ``analyze --stdin --json`` by one client,
    one request at a time (a closed loop)."""

    codes_per_round = ANALYZE_BATCH

    def setup(self) -> None:
        self.batch = inputs.analyze_batch(self.seed, ANALYZE_BATCH)
        self.stdin = self.work / "batch.txt"
        self.stdin.write_text("".join(code + "\n" for code in self.batch))

    def prepared(self) -> None:
        self.expected = [checks.expected_analysis(code) for code in self.batch]

    def args(self) -> list[str]:
        return ["analyze", "--stdin", "--json"]

    def check(self, stdout: str) -> None:
        checks.check_analysis(stdout, self.expected)


WORKLOADS = {
    "enumerate": lambda *common: Enumerate(*common, ENUMERATE_H, 1),
    "enumerate-2w": lambda *common: Enumerate(*common, PARALLEL_H, 2),
    "resume": lambda *common: Resume(*common, RESUME_H),
    "analyze": Analyze,
}


def play(workload: Workload, done: Round, stdout: str, failures: list[str]) -> None:
    """Check one round; a program that exits non-zero is a failure."""
    if done.returncode != 0:
        failures.append(f"exit {done.returncode}")
        return
    workload.check(stdout)


def trace_metrics(trace_dir: Path, traced: Round, untraced_wall: float) -> dict[str, float]:
    merged: dict[str, list] = {}
    import_s = 0.0
    for path in sorted(trace_dir.glob("*.json")):
        payload = json.loads(path.read_text())
        import_s += payload.get("import_s", 0.0)
        for name, record in payload["totals"].items():
            total = merged.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(record):
                total[i] += value
    fields = {"calls": 0, "s": 1, "self_s": 2, "n": 3}

    def get(span: str, field: str) -> float:
        return merged.get(span, [0, 0.0, 0.0, 0])[fields[field]]

    metrics = {name: get(span, field) for name, (span, field) in SPAN_METRICS.items()}
    hole_calls = get("kernel.simply_connected", "calls")
    metrics["kernel.hole.kept_per_raw"] = get("kernel.simply_connected", "n") / hole_calls if hole_calls else 0.0
    metrics["enumeration.persist.bytes"] = get("enumeration.write_text", "n") + get("enumeration.read_text", "n")
    metrics["process.import_s"] = import_s
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced_wall
    return metrics


def measure(launcher: Launcher, name: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    workload = WORKLOADS[name](launcher, work, seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        build()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    backend = probe_backend()
    workload.prepared()
    log(f"backend: {backend['backend']} ({backend['reason']}: {backend['detail']})")

    rounds: list[Round] = []
    failures: list[str] = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        workload.before_round()
        done, stdout = workload.run(workload.args())
        rounds.append(done)
        play(workload, done, stdout, failures)
        log(f"round {len(rounds)}: {done.wall_s:.3f} s wall, {done.cpu_s:.3f} s cpu, {done.peak_rss_mb:.1f} MB")

    ok = [r for r in rounds if r.returncode == 0]
    wall = statistics.median(r.wall_s for r in ok) if ok else float("nan")
    record = {
        "workload": name,
        "seed": seed,
        "backend": backend,
        "setup_s": setup_times,
        "rounds": [
            {"wall_s": r.wall_s, "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb, "returncode": r.returncode}
            for r in rounds
        ],
        "failures": failures,
        "attempted": len(rounds) * workload.codes_per_round,
        "failed": (len(rounds) - len(ok)) * workload.codes_per_round,
    }
    if not ok:
        record["metrics"] = {}
    elif not trace:
        record["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "cpu_s": statistics.median(r.cpu_s for r in ok),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in ok),
            "codes_per_s": workload.codes_per_round / wall,
        }
    else:
        trace_dir = work / "trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
        workload.before_round()
        traced, stdout = workload.run(workload.args(), trace_dir=trace_dir)
        record["attempted"] += workload.codes_per_round
        if traced.returncode != 0:
            record["failed"] += workload.codes_per_round
        play(workload, traced, stdout, failures)
        record["metrics"] = trace_metrics(trace_dir, traced, wall)
        record["trace_missing"] = json.loads((trace_dir / "root.json").read_text())["missing"]
        shutil.copytree(trace_dir, STATE / "traces" / f"{name}-seed{seed}-{os.getpid()}", dirs_exist_ok=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bechex" / "cli.py").is_file() or not (ROOT / "setup.py").is_file():
        log(f"error: no bechex source under {ROOT}; run from a checkout of the repository")
        return 2
    launcher = Launcher()
    work = STATE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = measure(launcher, args.workload, args.seed, args.seconds, bool(args.trace), work)
        correct = True
    except Unusable as exc:
        log(f"error: {exc}")
        return 2
    except checks.CheckFailed as exc:
        log(f"CHECK FAILED: {exc}")
        record = {"workload": args.workload, "seed": args.seed, "check_failed": str(exc), "metrics": {}}
        correct = False
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=2)
    )
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": record["metrics"][name], "unit": unit}
        for name, unit in units.items()
        if name in record["metrics"]
    }
    print(json.dumps({
        "correct": correct,
        "attempted": max(record.get("attempted", 1), 1),
        "failed": record.get("failed", 0),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
