import subprocess
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HARNESS))

import run  # noqa: E402

ENUMERATED_H = 6


@pytest.fixture(scope="session")
def enumerated(tmp_path_factory):
    """Files and printed table of ``bechex enumerate --hexagons 6 --out DIR``."""
    out = tmp_path_factory.mktemp("enumerate") / "out"
    done = subprocess.run(
        [sys.executable, "-m", "bechex.cli", "enumerate", "--hexagons", str(ENUMERATED_H), "--out", str(out)],
        cwd=run.ROOT,
        env=run.program_env(),
        check=True,
        capture_output=True,
        text=True,
    )
    return out, done.stdout
