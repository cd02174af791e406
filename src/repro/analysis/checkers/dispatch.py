"""XP001 — the backend-dispatch contract (PR 3).

The host/device seam: code that has been handed an execution backend (an
``xp`` array namespace or a :class:`~repro.backend.NumpyBackend`) must do
its array math *through* it. A module-level ``np.`` call inside such a
function silently pins the operation to host NumPy — correct on the numpy
backend, a device-residency break (implicit transfer or outright
``TypeError``) on a device backend, which is exactly the regression class
the conformance matrix only catches a PR later.

Flagged: ``np.<fn>(...)`` / ``numpy.<fn>(...)`` calls inside any function
with a parameter named ``xp`` or ``backend``. Not flagged: attribute
*references* (``dtype=np.float64`` — dtypes are namespace-neutral), the
introspection allowlist below, and ``np.random.*`` (DET001's
jurisdiction). Host-side work that is genuinely meant to stay on the host
carries ``# xp-ok: <reason>``.
"""
from __future__ import annotations

import ast
from typing import List

from ..astutil import dotted_name, function_defs, param_names, qualified_call_name
from ..registry import Finding, checker
from ..source import SourceFile

__all__ = ["check_xp001"]

#: Parameter names that put a function under the dispatch contract.
DISPATCH_PARAMS = {"xp", "backend"}

#: ``np.<attr>`` call families that are namespace-neutral introspection or
#: configuration, never array math on potentially-device data.
ALLOWED_NP_ATTRS = {
    "dtype", "finfo", "iinfo", "result_type", "promote_types", "can_cast",
    "errstate", "seterr", "geterr", "isscalar", "ndim", "shape",
    "broadcast_shapes", "get_printoptions", "set_printoptions", "testing",
}


@checker("XP001", pragma="xp-ok", severity="error", scope="file")
def check_xp001(src: SourceFile) -> List[Finding]:
    """Module-level NumPy calls inside xp/backend-parameterised functions."""
    out: List[Finding] = []
    seen = set()
    for func, _cls in function_defs(src.tree):
        if not DISPATCH_PARAMS & set(param_names(func)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            qual = qualified_call_name(node.func, src.aliases)
            if qual is None or not qual.startswith("numpy."):
                continue
            attr_path = qual[len("numpy."):]
            family = attr_path.split(".")[0]
            if family in ALLOWED_NP_ATTRS or family == "random":
                continue
            key = (node.lineno, node.col_offset)
            if key in seen:
                continue
            seen.add(key)
            shown = dotted_name(node.func) or qual
            out.append(Finding(
                rule="XP001", path=src.rel, line=node.lineno,
                col=node.col_offset, severity="error",
                message=(f"module-level NumPy call '{shown}()' inside the "
                         f"xp/backend-parameterised function "
                         f"'{func.name}' — dispatch through the backend "
                         "namespace (xp.*/backend kernel) so device "
                         "backends stay resident, or justify host-side "
                         "work with '# xp-ok: <reason>'"),
                snippet=src.snippet(node.lineno)))
    return out
