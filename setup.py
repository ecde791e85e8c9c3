"""Build the compiled kernel, bechex._kernel._fast.

With Cython installed, _fast.pyx is cythonized.  Without it, the shipped
C source _fast.c is compiled, so a C compiler alone gives the compiled
kernel.  That extension is optional: where it cannot be built, bechex
installs anyway and falls back to the pure-Python kernel at import.
"""

import os

from setuptools import Extension, setup

KERNEL = "src/bechex/_kernel/_fast"

try:
    from Cython.Build import cythonize
except ImportError:
    extensions = []
    if os.path.isfile(f"{KERNEL}.c"):
        extensions.append(
            Extension(
                "bechex._kernel._fast",
                [f"{KERNEL}.c"],
                extra_compile_args=["-O3"],
                optional=True,
            )
        )
else:
    extensions = cythonize(
        [
            Extension(
                "bechex._kernel._fast",
                [f"{KERNEL}.pyx"],
                extra_compile_args=["-O3"],
            )
        ],
        language_level=3,
    )

setup(ext_modules=extensions)
