"""The package surface: each public name loads its module on first use,
and a command imports only the modules it runs."""

import json
import subprocess
import sys
from importlib import import_module

import pytest

import bechex
from bechex import _kernel
from bechex.lattice import trace

from test_cli import HEXAGONAL_BLOCK


#: Prints the loaded bechex modules and whether fractions is loaded.
_REPORT = """
import json, sys
bechex = sorted(name for name in sys.modules if name.split(".")[0] == "bechex")
print(json.dumps({"modules": bechex, "fractions": "fractions" in sys.modules}))
"""


def _loaded_after(code: str) -> dict:
    """What _REPORT prints after ``code`` runs in a fresh interpreter with
    this one's environment."""
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import bechex") == {"modules": ["bechex"], "fractions": False}


def test_enumerate_loads_only_the_modules_it_runs():
    loaded = _loaded_after("import bechex.cli\nbechex.cli.main(['enumerate', '--hexagons', '3'])")
    # The pure kernel grows through the lattice's least form.
    kernel = ["_kernel._fast"] if _kernel.BACKEND == "c" else ["_kernel.pure", "lattice"]
    expected = ["cli", "codes", "enumeration", "errors", "_kernel", "_kernel.common", *kernel]
    modules = ["bechex", *(f"bechex.{name}" for name in expected)]
    assert loaded == {"modules": sorted(modules), "fractions": False}


def test_analyze_loads_only_the_modules_it_runs():
    loaded = _loaded_after("import bechex.cli\nbechex.cli.main(['analyze', '5351'])")
    kernel = ["_kernel._fast"] if _kernel.BACKEND == "c" else ["_kernel.pure", "lattice"]
    expected = ["cli", "codes", "errors", "_kernel", "_kernel.common", *kernel]
    modules = ["bechex", *(f"bechex.{name}" for name in expected)]
    assert loaded == {"modules": sorted(modules), "fractions": False}


def test_analyze_stdin_never_loads_the_lattice():
    """Not for a walk that does not close or that crosses itself, nor for a
    shape above code_key's limits: each code is read off its walk alone."""
    stdin = "\n".join(["5351", "535151", "5111153333", "5x1", str(trace(HEXAGONAL_BLOCK))])
    code = f"import io, sys, bechex.cli\nsys.stdin = io.StringIO({stdin!r})\n"
    loaded = _loaded_after(code + "bechex.cli.main(['analyze', '--stdin', '--json'])")
    kernel = ["_kernel._fast"] if _kernel.BACKEND == "c" else ["_kernel.pure", "lattice"]
    expected = ["cli", "codes", "errors", "_kernel", "_kernel.common", *kernel]
    modules = ["bechex", *(f"bechex.{name}" for name in expected)]
    assert loaded == {"modules": sorted(modules), "fractions": False}


def test_every_public_name_is_its_modules_object():
    for name in bechex.__all__:
        if name == "__version__":
            continue
        module = import_module(f"bechex.{bechex._MODULE_OF[name]}")
        assert getattr(bechex, name) is getattr(module, name), name
    assert set(bechex.__all__) <= set(dir(bechex))
    assert bechex.BACKEND == _kernel.BACKEND


def test_star_import_binds_every_name():
    namespace = {}
    exec("from bechex import *", namespace)
    assert set(bechex.__all__) <= set(namespace)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        bechex.nope
    assert not hasattr(bechex, "nope")
