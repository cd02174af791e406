"""CEXT001 — the native-library loading contract.

Compiled kernels are trusted only because :mod:`repro.backend.cext` builds
them from the shipped source with pinned flags and self-tests them bit for
bit against NumPy before any caller sees them. A shared library loaded
anywhere else skips all three, so this checker flags every ``ctypes``
library load outside ``repro/backend/cext.py``: ``ctypes.CDLL``/``PyDLL``,
``ctypes.cdll``/``pydll.LoadLibrary`` and
``numpy.ctypeslib.load_library``, under any import alias.
"""
from __future__ import annotations

import ast
from typing import List

from ..astutil import dotted_name, qualified_call_name
from ..registry import Finding, checker
from ..source import SourceFile

__all__ = ["check_cext001"]

#: Fully qualified calls that load a shared library.
LIBRARY_LOADS = {
    "ctypes.CDLL",
    "ctypes.PyDLL",
    "ctypes.cdll.LoadLibrary",
    "ctypes.pydll.LoadLibrary",
    "numpy.ctypeslib.load_library",
}

#: The one module allowed to load one (trailing path parts).
LOADER = ("backend", "cext.py")


@checker("CEXT001", pragma="cext-ok", severity="error", scope="file")
def check_cext001(src: SourceFile) -> List[Finding]:
    """Shared-library loads outside repro/backend/cext.py."""
    if src.parts[-2:] == LOADER:
        return []
    out: List[Finding] = []
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        qual = qualified_call_name(node.func, src.aliases)
        if qual not in LIBRARY_LOADS:
            continue
        out.append(Finding(
            rule="CEXT001", path=src.rel, line=node.lineno,
            col=node.col_offset, severity="error",
            message=(f"shared-library load '{dotted_name(node.func) or qual}()' "
                     "outside repro/backend/cext.py — compiled kernels are "
                     "built, flag-pinned and self-tested there; add a kernel "
                     "to cext.c instead, or justify with '# cext-ok: <reason>'"),
            snippet=src.snippet(node.lineno)))
    return out
