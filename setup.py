"""Build the compiled kernel, bechex._kernel._fast, from its C source.

The extension is optional: where it cannot be built, bechex installs
anyway and falls back to the pure-Python kernel at import.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "bechex._kernel._fast",
            ["src/bechex/_kernel/_fast.c"],
            extra_compile_args=["-O3", "-Wall", "-Wextra"],
            optional=True,
        )
    ]
)
