"""Analysed-file model: one parse per file, shared by every checker.

A :class:`SourceFile` bundles everything a checker reads — the parsed AST,
the raw lines (for snippets and pragma scanning) and the resolved import
aliases — so the engine parses each file exactly once regardless of how
many checkers run over it.
"""
from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .astutil import import_aliases
from .registry import AnalysisError

__all__ = ["SourceFile", "collect_python_files", "load_source_file"]

#: Directory names whose contents are never analysed.
SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}

#: Package sub-directories holding determinism-critical hot-path code.
#: DET001's wall-clock rule and ALLOC001's run-path rule scope to these.
HOT_PATH_DIRS = ("core", "backend", "multilevel", "parallel", "prng")


@dataclass
class SourceFile:
    """One parsed Python source file under analysis."""

    path: Path                     # as given / resolved on disk
    rel: str                       # display path (posix, relative to CWD)
    source: str
    lines: List[str]
    tree: Optional[ast.Module]
    parse_error: Optional[str] = None
    aliases: Dict[str, str] = field(default_factory=dict)

    @property
    def parts(self) -> tuple:
        return tuple(Path(self.rel).parts)

    def in_hot_path_dir(self) -> bool:
        """Whether the file lives under a determinism-critical directory."""
        return any(part in HOT_PATH_DIRS for part in self.parts[:-1])

    def snippet(self, line: int) -> str:
        """The stripped source line ('' out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


def collect_python_files(paths: List[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    out: List[Path] = []
    seen = set()
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            candidates = [p]
        elif p.is_dir():
            candidates = sorted(
                f for f in p.rglob("*.py")
                if not any(part in SKIP_DIRS for part in f.parts)
            )
        else:
            raise AnalysisError(f"no such file or directory: {raw}")
        for f in candidates:
            key = f.resolve()
            if key not in seen:
                seen.add(key)
                out.append(f)
    return out


def load_source_file(path: Path) -> SourceFile:
    """Read and parse one file; parse failures are recorded, not raised."""
    rel = path.as_posix()
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return SourceFile(path=path, rel=rel, source=source, lines=lines,
                          tree=None, parse_error=f"{exc.msg} (line {exc.lineno})")
    return SourceFile(path=path, rel=rel, source=source, lines=lines,
                      tree=tree, aliases=import_aliases(tree))
