"""The analysis engine: walk files, run checkers, apply pragmas.

One :func:`run_analysis` call produces an :class:`AnalysisReport`:

1. every ``.py`` file under the requested paths is parsed once
   (:mod:`repro.analysis.source`);
2. each registered file-scope checker runs over each file, project-scope
   checkers run once over the whole set;
3. per-line pragmas with valid (nonempty) reasons suppress matching
   findings; pragmas *without* a reason suppress nothing and are reported
   as ``PRAGMA001`` errors — the reason is the documentation.

A pragma with a reason is the only way to suppress a finding. Exit
semantics (mirrored by ``repro analyze``): ``error`` findings always fail;
``warning`` findings fail only under ``--strict`` — which is how CI runs
it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .pragmas import Pragma, scan_pragmas
from .registry import REGISTRY, CheckerRegistry, Finding, load_builtin_checkers
from .source import SourceFile, collect_python_files, load_source_file

__all__ = ["AnalysisReport", "run_analysis", "REPORT_VERSION"]

REPORT_VERSION = 1


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed_by_pragma: int = 0
    files_analyzed: int = 0
    rules_run: List[str] = field(default_factory=list)

    # ------------------------------------------------------------- verdicts
    def counts(self) -> Dict[str, int]:
        out = {"error": 0, "warning": 0}
        for f in self.findings:
            out[f.severity] = out.get(f.severity, 0) + 1
        return out

    def exit_code(self, strict: bool = False) -> int:
        counts = self.counts()
        if counts.get("error", 0):
            return 1
        if strict and counts.get("warning", 0):
            return 1
        return 0

    # ------------------------------------------------------------ rendering
    def format_text(self, strict: bool = False) -> str:
        lines = []
        for f in self.findings:
            lines.append(f"{f.location()}: {f.rule} {f.severity}: {f.message}")
            if f.snippet:
                lines.append(f"    {f.snippet}")
        counts = self.counts()
        verdict = "FAIL" if self.exit_code(strict) else "OK"
        lines.append(
            f"{verdict}: {len(self.findings)} finding(s) "
            f"({counts.get('error', 0)} error, {counts.get('warning', 0)} warning) "
            f"in {self.files_analyzed} file(s); "
            f"{self.suppressed_by_pragma} suppressed by pragma")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": REPORT_VERSION,
            "files_analyzed": self.files_analyzed,
            "rules": list(self.rules_run),
            "counts": self.counts(),
            "suppressed": {"pragma": self.suppressed_by_pragma},
            "findings": [f.to_dict() for f in self.findings],
        }

    def format_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _pragma_findings(src: SourceFile,
                     pragmas: Dict[int, List[Pragma]]) -> List[Finding]:
    """PRAGMA001: a recognised pragma token without the mandatory reason."""
    out = []
    for line_pragmas in pragmas.values():
        for pragma in line_pragmas:
            if not pragma.valid:
                out.append(Finding(
                    rule="PRAGMA001",
                    path=src.rel,
                    line=pragma.line,
                    col=0,
                    severity="error",
                    message=(f"pragma '{pragma.token}' requires a reason: "
                             f"write '# {pragma.token}: <why this site is "
                             "exempt>' — reasonless suppressions are not "
                             "honoured"),
                    snippet=src.snippet(pragma.line),
                ))
    return out


def _apply_pragmas(findings: List[Finding], registry: CheckerRegistry,
                   pragmas_by_file: Dict[str, Dict[int, List[Pragma]]]
                   ) -> tuple:
    """Drop findings whose line (or the standalone comment directly above)
    carries that rule's pragma token with a valid reason."""
    covered: Dict[str, Dict[int, set]] = {}
    for rel, pragmas in pragmas_by_file.items():
        per_line: Dict[int, set] = {}
        for line_pragmas in pragmas.values():
            for pragma in line_pragmas:
                if pragma.valid:
                    for line in pragma.lines_covered():
                        per_line.setdefault(line, set()).add(pragma.token)
        covered[rel] = per_line
    kept: List[Finding] = []
    suppressed = 0
    for f in findings:
        token = registry.pragma_for(f.rule)
        if token and token in covered.get(f.path, {}).get(f.line, set()):
            suppressed += 1
        else:
            kept.append(f)
    return kept, suppressed


def run_analysis(
    paths: List[str],
    registry: Optional[CheckerRegistry] = None,
) -> AnalysisReport:
    """Analyse ``paths`` (files or directories) and return the report.

    ``registry`` defaults to the global registry with the built-in checkers
    loaded; tests pass their own to pin the rule set.
    """
    if registry is None:
        registry = load_builtin_checkers()
    elif registry is REGISTRY:
        load_builtin_checkers()

    files = [load_source_file(p) for p in collect_python_files(paths)]
    tokens = registry.pragma_tokens()

    findings: List[Finding] = []
    pragmas_by_file: Dict[str, Dict[int, List[Pragma]]] = {}
    parsed: List[SourceFile] = []
    for src in files:
        if src.tree is None:
            findings.append(Finding(
                rule="PARSE001", path=src.rel, line=1, col=0, severity="error",
                message=f"file does not parse: {src.parse_error}"))
            continue
        parsed.append(src)
        pragmas = scan_pragmas(src.lines, tokens)
        pragmas_by_file[src.rel] = pragmas
        findings.extend(_pragma_findings(src, pragmas))
        for chk in registry.checkers():
            if chk.scope == "file":
                findings.extend(chk.func(src))
    for chk in registry.checkers():
        if chk.scope == "project":
            findings.extend(chk.func(parsed))

    findings, n_pragma = _apply_pragmas(findings, registry, pragmas_by_file)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return AnalysisReport(
        findings=findings,
        suppressed_by_pragma=n_pragma,
        files_analyzed=len(files),
        rules_run=registry.rules(),
    )
