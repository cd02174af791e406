"""AST-based contract linter for the repo's determinism/perf invariants.

The codebase runs on a stack of invariants that used to live only in
ROADMAP prose and after-the-fact tests; this package enforces them
statically, in the diff itself:

========  ==========  ====================================================
rule      pragma      invariant
========  ==========  ====================================================
DET001    det-ok      every entropy source derives from the master seed
                      via ``derive_seed``; no wall-clock reads feeding
                      hot-path computation
DET002    det-ok      ``derive_seed`` labels are unique codebase-wide
                      (duplicates alias PRNG streams)
ALLOC001  alloc-ok    hot-loop bodies stay allocation-free (PR 2)
XP001     xp-ok       xp/backend-parameterised functions dispatch array
                      math through the backend, never raw ``np.`` (PR 3)
SHM001    shm-ok      ``SharedArrayBlock`` create/attach/close/unlink
                      ownership discipline (PR 6)
MEM001    mem-ok      per-iteration transient footprint stays bounded by
                      ``memory_budget``, never scaling with iteration
                      size (PR 8)
OBS001    obs-ok      hot-path clock reads route through the
                      ``repro.obs.clock`` seam, never raw ``time.*``
                      (PR 9)
PRAGMA001 —           every pragma carries a mandatory reason
========  ==========  ====================================================

Run it as ``repro analyze [paths] [--strict] [--format text|json]``; CI
gates ``repro analyze src --strict``. New invariants land with a checker:
register one via the :func:`checker` decorator (the same registry pattern
as :mod:`repro.bench`).
"""
from .engine import AnalysisReport, run_analysis
from .pragmas import Pragma, scan_pragmas
from .registry import (REGISTRY, AnalysisError, Checker, CheckerRegistry,
                       Finding, checker, load_builtin_checkers)
from .source import SourceFile, collect_python_files, load_source_file

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "Checker",
    "CheckerRegistry",
    "Finding",
    "Pragma",
    "REGISTRY",
    "SourceFile",
    "checker",
    "collect_python_files",
    "load_builtin_checkers",
    "load_source_file",
    "run_analysis",
    "scan_pragmas",
]
