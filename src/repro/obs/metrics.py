"""Typed metrics registry: counters and gauges with labels.

Before PR 9 every engine grew ad-hoc ``Dict[str, float]`` counters with
implicit per-key semantics (``add_counter`` accumulated, ``max_counter``
took high-water maxima, and nothing recorded which was which). This module
makes the model explicit:

* :class:`Counter` — monotonic accumulation (``update_dispatches``,
  ``point_collisions``, ``fused_iterations``).
* :class:`Gauge` — last-set or high-water values (``peak_rss_bytes``,
  ``fused_chunks``).

Phase timings are trace spans (:mod:`repro.obs.tracer`), not metrics.

Metrics are identified by ``(name, labels)``: a registry carries base
labels (``engine``/``backend``), call sites add theirs
(``level``/``worker``), and one *name* keeps one metric kind across all
label sets — mixing kinds under a name raises, which is the typo guard the
flat dicts never had.

Backward compatibility: :meth:`MetricsRegistry.counter_values` renders the
registry back into the historical flat dict (base labels elided, extra
labels as ``name{k=v}``), which is what keeps ``LayoutResult.counters``
and every existing ``summary()`` key byte-for-byte stable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = ["MetricsError", "Counter", "Gauge", "MetricEntry",
           "MetricsSnapshot", "MetricsRegistry"]

LabelItems = Tuple[Tuple[str, str], ...]


class MetricsError(ValueError):
    """Metric misuse: one name bound to two different metric kinds."""


class Counter:
    """Monotonically accumulating value."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        if value < 0:
            raise MetricsError("counters only accumulate non-negative values"
                               " (use a gauge for signed quantities)")
        self.value += value


class Gauge:
    """Point-in-time value with ``set`` / high-water ``record_max``."""

    kind = "gauge"
    __slots__ = ("value", "_is_set")

    def __init__(self) -> None:
        self.value = 0.0
        self._is_set = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self._is_set = True

    def record_max(self, value: float) -> None:
        value = float(value)
        self.value = value if not self._is_set else max(self.value, value)
        self._is_set = True


@dataclass(frozen=True)
class MetricEntry:
    """One immutable snapshot row: name, kind, labels, value."""

    name: str
    kind: str
    labels: LabelItems
    value: float

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind,
                "labels": dict(self.labels), "value": self.value}


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen, queryable view of a registry at one instant."""

    entries: Tuple[MetricEntry, ...] = ()

    def value(self, name: str, **labels) -> float:
        """Value of the metric matching ``name`` and the *full* label set."""
        wanted = _label_items(labels)
        for entry in self.entries:
            if entry.name == name and entry.labels == wanted:
                return entry.value
        raise KeyError(f"no metric {name!r} with labels {dict(wanted)}")

    def to_dicts(self) -> List[Dict[str, Any]]:
        """JSON-ready rows (used by ``LayoutResult.to_dict``)."""
        return [entry.to_dict() for entry in self.entries]


def _label_items(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create store for typed, labelled metrics.

    Insertion-ordered: snapshots and flat views list metrics in first-touch
    order, which keeps rendered output stable across runs of the same code
    path (a determinism property the trace-structure tests lean on).
    """

    def __init__(self, labels: Optional[Mapping[str, object]] = None):
        self.labels: Dict[str, str] = {str(k): str(v)
                                       for k, v in (labels or {}).items()}
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}
        self._kinds: Dict[str, str] = {}

    # ------------------------------------------------------------- families
    def _get(self, name: str, factory, labels: Mapping[str, object]):
        if not name:
            raise MetricsError("metric name must be non-empty")
        kind = factory.kind
        known = self._kinds.get(name)
        if known is not None and known != kind:
            raise MetricsError(
                f"metric {name!r} already registered as a {known}, "
                f"requested as a {kind}")
        full = dict(self.labels)
        full.update({str(k): str(v) for k, v in labels.items()})
        key = (name, _label_items(full))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
            self._kinds[name] = kind
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(name, Counter, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(name, Gauge, labels)

    # --------------------------------------------------------------- views
    def value(self, name: str, **labels) -> float:
        """Current value of an existing metric (KeyError when absent)."""
        full = dict(self.labels)
        full.update({str(k): str(v) for k, v in labels.items()})
        key = (name, _label_items(full))
        metric = self._metrics.get(key)
        if metric is None:
            raise KeyError(f"no metric {name!r} with labels {full}")
        return float(metric.value)

    def snapshot(self) -> MetricsSnapshot:
        """Immutable copy of every metric (attached to ``LayoutResult``)."""
        entries = []
        for (name, labels), metric in self._metrics.items():
            entries.append(MetricEntry(
                name=name, kind=metric.kind, labels=labels,
                value=float(metric.value)))
        return MetricsSnapshot(entries=tuple(entries))

    def counter_values(self) -> Dict[str, float]:
        """The historical flat counter dict, derived from the registry.

        Base labels (present on every metric of this registry) are elided;
        extra labels render as ``name{k=v,...}`` so per-worker/per-level
        metrics coexist with the label-free keys the ``summary()`` contract
        pins (``update_dispatches``, ``peak_rss_bytes``, ...).
        """
        base = _label_items(self.labels)
        out: Dict[str, float] = {}
        for (name, labels), metric in self._metrics.items():
            extra = tuple(item for item in labels if item not in base)
            if extra:
                rendered = ",".join(f"{k}={v}" for k, v in extra)
                key = f"{name}{{{rendered}}}"
            else:
                key = name
            out[key] = float(metric.value)
        return out
