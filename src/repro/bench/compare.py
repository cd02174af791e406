"""Regression gate: diff two benchmark result files and classify every metric.

``repro bench compare OLD NEW --max-regress 10%`` loads two schema-valid
documents, matches their cases by name, and classifies each *tracked* metric
(direction ``lower`` or ``higher``; ``info`` metrics are recorded but never
gated):

* ``ok``      — no change, or the change goes in the good direction
* ``improved``— the change beats the old value by more than the warn band
* ``warn``    — regressed, but within the allowed threshold
* ``fail``    — regressed beyond ``--max-regress``
* ``missing`` — the case or metric disappeared from the new file (a silent
  coverage loss counts as a failure unless explicitly allowed)
* ``new``     — tracked metric only present in the new file (never fails)

Measured wall-clock metrics (``"deterministic": false`` with a time unit,
see :data:`WALL_TIME_UNITS`) are gated like any other tracked metric **when
the two documents come from the same timing environment** (same
platform/machine/interpreter, the interpreter compared by the file its path
resolves to). When the environments differ — e.g. a
baseline produced on a developer machine compared on a CI runner — a raw
wall-time regression beyond threshold is downgraded to ``warn`` with a
note, because absolute wall times are not comparable across machines;
regenerate the baseline on the comparing machine to re-arm that gate.
Dimensionless measured metrics (e.g. the hogwild/accumulate cost *ratio*,
unit ``x``) are machine-independent and therefore hard-gate everywhere —
they are the cross-machine guard against hot-path scaling regressions.

The exit code contract the CI gate relies on: 0 when nothing failed,
1 when any metric regressed beyond threshold or coverage was lost.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from .schema import case_index, load_results
from .tables import format_table

__all__ = [
    "MetricDelta",
    "ComparisonReport",
    "parse_threshold",
    "compare_documents",
    "compare_files",
]

#: Relative change below which a difference is reported as plain ``ok``.
NOISE_BAND = 1e-12

#: Environment fields that must agree for wall times to be comparable.
TIMING_KEYS = ("platform", "machine", "executable", "python")

#: Environment fields whose difference :func:`compare_documents` notes, and why.
_MISMATCH_NOTES = {
    "python": "metric values are only bit-reproducible under identical numerics",
    "numpy": "metric values are only bit-reproducible under identical numerics",
    "cext": "the compiled kernels' callers time different code with and without them",
}

#: Units marking a metric as an *absolute* wall-clock duration. Only these
#: are eligible for the cross-environment fail→warn downgrade; measured but
#: dimensionless metrics (ratios) stay hard-gated on every machine.
WALL_TIME_UNITS = ("s", "ms", "us", "ns")


@dataclass(frozen=True)
class MetricDelta:
    """Outcome for one ``case/metric`` pair."""

    case: str
    metric: str
    direction: str
    old: Optional[float]
    new: Optional[float]
    rel_change: Optional[float]
    status: str

    @property
    def label(self) -> str:
        return f"{self.case}/{self.metric}"


@dataclass
class ComparisonReport:
    """All metric deltas plus the headline verdict."""

    max_regress: float
    deltas: List[MetricDelta] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(d.status in ("fail", "missing") for d in self.deltas)

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def by_status(self, status: str) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status == status]

    def summary_line(self) -> str:
        counts: Dict[str, int] = {}
        for delta in self.deltas:
            counts[delta.status] = counts.get(delta.status, 0) + 1
        parts = [f"{counts[s]} {s}" for s in
                 ("fail", "missing", "warn", "improved", "ok", "new") if s in counts]
        verdict = "FAIL" if self.failed else "PASS"
        return (f"bench compare: {verdict} "
                f"({', '.join(parts) if parts else 'no tracked metrics'}; "
                f"threshold {self.max_regress:.1%})")

    def format(self, include_ok: bool = True) -> str:
        rows = []
        order = {"fail": 0, "missing": 1, "warn": 2, "improved": 3, "ok": 4, "new": 5}
        for delta in sorted(self.deltas, key=lambda d: (order[d.status], d.label)):
            if not include_ok and delta.status in ("ok", "new"):
                continue
            rows.append([
                delta.label,
                delta.direction,
                "-" if delta.old is None else f"{delta.old:.6g}",
                "-" if delta.new is None else f"{delta.new:.6g}",
                "-" if delta.rel_change is None else f"{delta.rel_change:+.2%}",
                delta.status.upper(),
            ])
        table = format_table(
            ["case/metric", "dir", "old", "new", "change", "status"],
            rows or [["(no tracked metrics)", "-", "-", "-", "-", "-"]],
            title="Benchmark regression gate",
        )
        lines = [table]
        lines.extend(f"[note] {note}" for note in self.notes)
        lines.append(self.summary_line())
        return "\n".join(lines)


def parse_threshold(text: str) -> float:
    """Parse ``"10%"`` or ``"0.1"`` into a fraction; reject nonsense."""
    raw = text.strip()
    try:
        value = float(raw[:-1]) / 100.0 if raw.endswith("%") else float(raw)
    except ValueError:
        raise ValueError(f"cannot parse regression threshold {text!r}") from None
    if not 0.0 <= value < 10.0:
        raise ValueError(f"regression threshold {text!r} out of range [0, 1000%)")
    return value


def _relative_change(old: float, new: float) -> float:
    """Relative change of ``new`` vs ``old``; sign follows raw value movement."""
    if old == 0.0:
        return 0.0 if new == 0.0 else float("inf") if new > 0 else float("-inf")
    return (new - old) / abs(old)


def _classify(direction: str, old: float, new: float, max_regress: float) -> str:
    rel = _relative_change(old, new)
    # A "worsening" is movement against the metric's good direction.
    worsening = rel if direction == "lower" else -rel
    if abs(rel) <= NOISE_BAND:
        return "ok"
    if worsening <= 0:
        return "improved" if -worsening > max_regress else "ok"
    return "fail" if worsening > max_regress else "warn"


def _timing_environment(doc: Mapping) -> Dict[str, object]:
    """The document's :data:`TIMING_KEYS`, with the interpreter path
    resolved: ``.../bin/python`` and ``.../bin/python3`` are often links to
    one file, and so one timing environment."""
    env = {key: doc["environment"].get(key) for key in TIMING_KEYS}
    if env["executable"]:
        env["executable"] = os.path.realpath(env["executable"])
    return env


def compare_documents(
    old_doc: Mapping,
    new_doc: Mapping,
    max_regress: float = 0.10,
    allow_missing: bool = False,
) -> ComparisonReport:
    """Diff two validated result documents."""
    report = ComparisonReport(max_regress=max_regress)
    old_cases = case_index(old_doc)
    new_cases = case_index(new_doc)

    # Wall-clock metrics are only hard-gated between runs of the same timing
    # environment; across machines the threshold degrades to a warning.
    old_timing, new_timing = _timing_environment(old_doc), _timing_environment(new_doc)
    differing = [key for key in TIMING_KEYS if old_timing[key] != new_timing[key]]
    timing_downgrades = 0

    for env_key, why in _MISMATCH_NOTES.items():
        old_env = old_doc["environment"].get(env_key)
        new_env = new_doc["environment"].get(env_key)
        if old_env != new_env:
            report.notes.append(
                f"environment mismatch: {env_key} {old_env} -> {new_env} ({why})")
    if old_doc.get("master_seed") != new_doc.get("master_seed"):
        report.notes.append(
            f"master seed differs: {old_doc.get('master_seed')} -> "
            f"{new_doc.get('master_seed')}; values are not directly comparable"
        )

    for case_name, old_case in sorted(old_cases.items()):
        new_case = new_cases.get(case_name)
        for metric_name, old_metric in sorted(old_case["metrics"].items()):
            direction = old_metric["direction"]
            if direction == "info":
                continue
            old_value = float(old_metric["value"])
            new_metric = None if new_case is None else new_case["metrics"].get(metric_name)
            if new_metric is None:
                report.deltas.append(MetricDelta(
                    case=case_name, metric=metric_name, direction=direction,
                    old=old_value, new=None, rel_change=None,
                    status="ok" if allow_missing else "missing",
                ))
                continue
            new_value = float(new_metric["value"])
            status = _classify(direction, old_value, new_value, max_regress)
            wall_clock = (
                not (old_metric.get("deterministic", True)
                     and new_metric.get("deterministic", True))
                and old_metric.get("unit") in WALL_TIME_UNITS
            )
            if status == "fail" and wall_clock and differing:
                status = "warn"
                timing_downgrades += 1
            report.deltas.append(MetricDelta(
                case=case_name, metric=metric_name, direction=direction,
                old=old_value, new=new_value,
                rel_change=_relative_change(old_value, new_value),
                status=status,
            ))

    for case_name, new_case in sorted(new_cases.items()):
        old_case = old_cases.get(case_name, {"metrics": {}})
        for metric_name, new_metric in sorted(new_case["metrics"].items()):
            if new_metric["direction"] == "info":
                continue
            # A metric whose old record was untracked ("info") only became
            # gateable now — surface it as "new" rather than dropping it.
            old_metric = old_case["metrics"].get(metric_name)
            if old_metric is None or old_metric["direction"] == "info":
                report.deltas.append(MetricDelta(
                    case=case_name, metric=metric_name,
                    direction=new_metric["direction"],
                    old=None, new=float(new_metric["value"]),
                    rel_change=None, status="new",
                ))
    if timing_downgrades:
        report.notes.append(
            f"{timing_downgrades} wall-clock metric(s) regressed beyond threshold "
            "but the documents come from different timing environments "
            f"(differing {', '.join(differing)}); "
            "downgraded to warn — regenerate the baseline on this machine to re-arm the gate"
        )
    return report


def compare_files(
    old_path: str,
    new_path: str,
    max_regress: float = 0.10,
    allow_missing: bool = False,
) -> ComparisonReport:
    """Load, validate and diff two ``BENCH_*.json`` files."""
    return compare_documents(
        load_results(old_path), load_results(new_path),
        max_regress=max_regress, allow_missing=allow_missing,
    )
