"""Hot kernels for the enumeration engine and ``bechex analyze``.

Six entries make the kernel contract: ``grow``, ``fold``,
``trace_code``, ``code_deficit``, ``code_key`` and ``survey``.  ``grow(parents)``
returns a list of the canonical keys of the hole-free one-cell
extensions of hole-free shapes whose canonical parent is among
``parents``, each once: a free neighbour joins when its occupied
neighbours form one arc, and the child is kept only from its canonical
parent, so the lists of distinct parents are disjoint and, over one
whole level, make exactly the next.  The parents must be canonical keys
of benzenoids, as ``grow`` and ``code_key`` return them; for any other
key the list means nothing, but both backends give the same one or raise
the same error.  ``fold(keys)`` returns ``(codes, deficits)``: the list
of ``trace_code`` of each key and the bytes of ``code_deficit`` of each
code.  Given a list whose k-th key is the first bad one, ``grow`` and
``fold`` raise what a one-key call on that key raises.  ``survey(code)``
returns ``(deficit, canonical, hexagons)`` off the code's walk alone,
with no cell grid: ``code_deficit``, the canonical word, and the area
the walk encloses in hexagons, or 0 when it does not close with winding
6 and -1 when it revisits a vertex.  It refuses what ``code_deficit``
refuses, and has no cell or grid limit.  The compiled
backend (bechex._kernel._fast, built from the hand-written _fast.c) is
used when importable; it releases the GIL inside ``grow`` and ``fold``,
so threads calling them run in parallel.  Otherwise the pure-Python
backend takes over with identical semantics, and its threads run one at
a time.  Set BECHEX_PURE=1 to force the pure backend.
BACKEND names the backend in use and BACKEND_REASON says why it was
chosen: "compiled", "BECHEX_PURE", or "fallback: <import error>".  A
fallback is logged once as a warning on the "bechex" logger.
"""

from __future__ import annotations

import os
from importlib import import_module

if os.environ.get("BECHEX_PURE"):
    from . import pure as _impl

    BACKEND_REASON = "BECHEX_PURE"
else:
    try:
        _impl = import_module("._fast", __name__)
    except ImportError as exc:
        import logging

        from . import pure as _impl

        BACKEND_REASON = f"fallback: {exc}"
        logging.getLogger("bechex").warning(
            "compiled kernel unavailable (%s); using the pure-Python kernel, "
            "which is about 60x slower. Build it with "
            "'python setup.py build_ext --inplace'.",
            exc,
        )
    else:
        BACKEND_REASON = "compiled"

from .common import pack_cells, unpack_cells

BACKEND = _impl.BACKEND
code_key = _impl.code_key
grow = _impl.grow
fold = _impl.fold
trace_code = _impl.trace_code
code_deficit = _impl.code_deficit
survey = _impl.survey

__all__ = [
    "BACKEND",
    "BACKEND_REASON",
    "code_key",
    "code_deficit",
    "fold",
    "grow",
    "pack_cells",
    "survey",
    "trace_code",
    "unpack_cells",
]
