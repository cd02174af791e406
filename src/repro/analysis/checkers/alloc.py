"""ALLOC001 — the zero-alloc hot-loop contract (PR 2).

The update inner loop is memory-bound: per-batch allocation of staging
arrays was the 7× regression PR 2 removed, and the per-run
:class:`~repro.core.updates.UpdateWorkspace` exists precisely so the loop
never allocates in steady state. This pass flags array-allocating calls
(``zeros``, ``empty``, ``unique``, ``concatenate``, ``.copy()``, …) inside
``for``/``while`` bodies of the scoped hot-loop code:

* the whole of ``core/updates.py`` and ``core/fused.py``;
* engine run paths — functions named ``run`` (the iteration driver) /
  ``run_iteration`` / ``run_iteration_host`` / ``_worker_main`` — in any
  hot-path directory.

Per-iteration functions (:data:`PER_ITERATION_FUNCS`) are additionally
scanned over their *whole* body, loop or not: the engine calls them every
iteration, so a function-top allocation there is a steady-state allocation
even though no loop syntax surrounds it. (This is the extension that would
have caught ``iteration_draws`` allocating its ``(8, total_terms)``
selection block afresh each iteration — fixed in PR 8 by hoisting the
buffer into the plan cache.)
The chunk loop ``step_units`` and every engine's per-iteration ``step``
are among them.

Deliberate in-loop allocation (a grow-on-demand path, a once-per-run
setup loop) is annotated ``# alloc-ok: <reason>``. Severity is
``warning``: an allocation is a perf smell, not a correctness bug, but CI
runs ``--strict`` so it gates all the same.
"""
from __future__ import annotations

import ast
from typing import List

from ..astutil import dotted_name, loop_bodies
from ..registry import Finding, checker
from ..source import SourceFile

__all__ = ["check_alloc001"]

#: Call names that allocate a fresh array wherever they appear. Matched as
#: the final attribute (``xp.zeros``, ``be.empty``, ``arr.copy``) or a bare
#: name (``from numpy import zeros``). ``reshape``/``asarray`` are excluded
#: — usually views/no-ops — so the rule stays low-noise; fancy-index copies
#: are likewise syntactically indistinguishable from scalar indexing and
#: are left to review.
ALLOC_CALLS = {
    "zeros", "ones", "empty", "full",
    "zeros_like", "ones_like", "empty_like", "full_like",
    "unique", "concatenate", "stack", "vstack", "hstack", "column_stack",
    "dstack", "tile", "repeat", "copy", "array", "arange", "linspace",
}

#: (parent directory, file name) pairs scoped in their entirety.
HOT_LOOP_FILES = {("core", "updates.py"), ("core", "fused.py")}

#: Function names treated as engine run paths inside hot-path directories.
RUN_PATH_FUNCS = {"run", "run_iteration", "run_iteration_host",
                  "_worker_main"}

#: Functions the engine invokes once (or more) per iteration: their whole
#: body is per-iteration steady state, so allocation is flagged anywhere in
#: it, not only inside loop bodies. ``step_units`` is the one chunk loop;
#: ``step`` is the per-iteration step every engine session hands the driver.
PER_ITERATION_FUNCS = {"run_iteration", "run_iteration_host",
                       "iteration_draws", "step_units", "step"}


def _is_hot_loop_file(src: SourceFile) -> bool:
    parts = src.parts
    return len(parts) >= 2 and (parts[-2], parts[-1]) in HOT_LOOP_FILES


def _alloc_name(call: ast.Call) -> str:
    if isinstance(call.func, ast.Attribute) and call.func.attr in ALLOC_CALLS:
        return dotted_name(call.func) or call.func.attr
    if isinstance(call.func, ast.Name) and call.func.id in ALLOC_CALLS:
        return call.func.id
    return ""


def _finding(src: SourceFile, node: ast.Call, name: str,
             where: str) -> Finding:
    return Finding(
        rule="ALLOC001", path=src.rel, line=node.lineno,
        col=node.col_offset, severity="warning",
        message=(f"array allocation '{name}()' {where} "
                 "— the update hot path must stay allocation-free "
                 "(hoist into the per-run UpdateWorkspace) or justify "
                 "with '# alloc-ok: <reason>'"),
        snippet=src.snippet(node.lineno))


def _scan_region(src: SourceFile, region: ast.AST,
                 where: str) -> List[Finding]:
    out: List[Finding] = []
    seen = set()
    for node in loop_bodies(region):
        if not isinstance(node, ast.Call):
            continue
        name = _alloc_name(node)
        if not name:
            continue
        key = (node.lineno, node.col_offset)
        if key in seen:
            continue
        seen.add(key)
        out.append(_finding(src, node, name,
                            f"inside a {where} loop body"))
    return out


def _scan_whole_function(src: SourceFile,
                         func: ast.FunctionDef) -> List[Finding]:
    """Every allocating call in ``func``'s body, loop or not."""
    out: List[Finding] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        name = _alloc_name(node)
        if not name:
            continue
        out.append(_finding(
            src, node, name,
            f"in per-iteration function '{func.name}' (runs every "
            "iteration even outside a loop)"))
    return out


@checker("ALLOC001", pragma="alloc-ok", severity="warning", scope="file")
def check_alloc001(src: SourceFile) -> List[Finding]:
    """Array allocation in hot-loop bodies and per-iteration functions."""
    out: List[Finding] = []
    hot_file = _is_hot_loop_file(src)
    if hot_file:
        out.extend(_scan_region(src, src.tree, "hot-path"))
    elif src.in_hot_path_dir():
        for node in ast.walk(src.tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in RUN_PATH_FUNCS):
                out.extend(_scan_region(src, node, f"'{node.name}' run-path"))
    else:
        return []
    # Per-iteration functions: the whole body is steady state.
    reported = {(f.line, f.col) for f in out}
    for node in ast.walk(src.tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in PER_ITERATION_FUNCS):
            for finding in _scan_whole_function(src, node):
                if (finding.line, finding.col) not in reported:
                    reported.add((finding.line, finding.col))
                    out.append(finding)
    return out
