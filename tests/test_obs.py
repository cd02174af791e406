"""Tests for the run-telemetry layer (``repro.obs``, PR 9).

Covers the clock seam, the tracer/span primitives, the typed metrics
registry, the versioned JSONL trace file (round-trip + rejection paths),
the cross-worker merge ordering contract, and the end-to-end
integration: engines emit structurally deterministic traces without
moving a byte of the layout, ``layout_graph(trace=...)`` writes
schema-valid files for flat / shm / multilevel runs, and the
``on_progress`` callback streams global iteration counts.
"""
from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.core import CpuBaselineEngine, layout_graph, make_engine
from repro.multilevel.driver import MultilevelDriver
from repro.obs import clock
from repro.obs.metrics import MetricsError, MetricsRegistry
from repro.obs.summarize import (phase_breakdown, render_compare,
                                 render_summary)
from repro.obs.trace_file import (TRACE_SCHEMA_MAJOR, TRACE_SCHEMA_VERSION,
                                  TraceSchemaError, merge_events,
                                  parse_schema_version, read_trace,
                                  write_trace)
from repro.obs.tracer import NULL_TRACER, TraceEvent, Tracer, event_structure


def _ramp():
    """Deterministic clock stub: 0.0, 1.0, 2.0, ... per read."""
    counter = itertools.count()
    return lambda: float(next(counter))


class TestClockSeam:
    def test_live_reads_are_monotonic_floats(self):
        a, b = clock.perf_counter(), clock.perf_counter()
        assert isinstance(a, float) and b >= a
        assert clock.monotonic() >= 0.0

    def test_stub_clock_swaps_both_reads_and_restores(self):
        with clock.stub_clock(_ramp()):
            assert clock.perf_counter() == 0.0
            assert clock.monotonic() == 1.0
            assert clock.perf_counter() == 2.0
        # Restored: live reads are again real (large, strictly positive).
        assert clock.perf_counter() > 2.0

    def test_stub_clock_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with clock.stub_clock(lambda: 0.0):
                raise RuntimeError("boom")
        assert clock.perf_counter() > 0.0


class TestTracer:
    def test_emit_records_labelled_events(self):
        tracer = Tracer(labels={"engine": "t"})
        tracer.emit("draw", 1.0, 0.5, iteration=3, count=7)
        (event,) = tracer.events
        assert (event.name, event.t0, event.dur) == ("draw", 1.0, 0.5)
        assert (event.iteration, event.count) == (3, 7)
        assert event.labels == {"engine": "t"}

    def test_span_measures_through_the_clock_seam(self):
        tracer = Tracer()
        with clock.stub_clock(_ramp()):
            with tracer.span("schedule", count=2):
                pass
        (event,) = tracer.events
        assert event.name == "schedule"
        assert (event.t0, event.dur) == (0.0, 1.0)

    def test_bind_shares_the_event_list_and_merges_labels(self):
        root = Tracer(labels={"engine": "multi"})
        view = root.bind(level="2")
        view.emit("level", 0.0, 1.0)
        root.emit("prolong", 1.0, 0.5)
        assert [e.name for e in root.events] == ["level", "prolong"]
        assert root.events[0].labels == {"engine": "multi", "level": "2"}
        assert root.events[1].labels == {"engine": "multi"}

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.bind(worker="0") is NULL_TRACER
        with NULL_TRACER.span("iteration"):
            pass
        NULL_TRACER.emit("draw", 0.0, 0.0)
        assert NULL_TRACER.events == []

    def test_event_structure_is_timestamp_free(self):
        a = Tracer(labels={"w": "0"})
        b = Tracer(labels={"w": "0"})
        a.emit("draw", 10.0, 1.0, iteration=0, count=4)
        b.emit("draw", 99.0, 7.0, iteration=0, count=4)
        assert event_structure(a.events) == event_structure(b.events)
        b.emit("merge", 100.0, 0.1, iteration=0)
        assert event_structure(a.events) != event_structure(b.events)


class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        reg = MetricsRegistry()
        reg.counter("terms").add(3.0)
        reg.counter("terms").add(2.0)
        assert reg.value("terms") == 5.0
        with pytest.raises(MetricsError):
            reg.counter("terms").add(-1.0)

    def test_gauge_record_max_is_high_water(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("peak")
        gauge.record_max(10.0)
        gauge.record_max(4.0)
        assert reg.value("peak") == 10.0
        gauge.set(1.0)
        assert reg.value("peak") == 1.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricsError, match="already registered"):
            reg.gauge("x")

    def test_counter_values_elides_base_labels_renders_extras(self):
        reg = MetricsRegistry(labels={"engine": "shm", "backend": "numpy"})
        reg.counter("update_dispatches").add(4.0)
        reg.counter("worker_terms", worker="0").add(10.0)
        reg.counter("worker_terms", worker="1").add(12.0)
        assert reg.counter_values() == {
            "update_dispatches": 4.0,
            "worker_terms{worker=0}": 10.0,
            "worker_terms{worker=1}": 12.0,
        }

    def test_snapshot_value_requires_full_label_match(self):
        reg = MetricsRegistry(labels={"engine": "cpu"})
        reg.gauge("depth").set(3.0)
        snap = reg.snapshot()
        assert snap.value("depth", engine="cpu") == 3.0
        with pytest.raises(KeyError):
            snap.value("depth")


class TestTraceFile:
    def _events(self, n=3):
        return [TraceEvent(name="iteration", t0=float(i), dur=0.5,
                           iteration=i, count=1, labels={"engine": "t"})
                for i in range(n)]

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_trace(path, self._events(), meta={"engine": "t", "iterations": 3})
        doc = read_trace(path)
        assert doc.schema_version == TRACE_SCHEMA_VERSION
        assert doc.meta == {"engine": "t", "iterations": 3}
        assert doc.dropped == 0
        assert event_structure(doc.events) == event_structure(self._events())
        assert [e.t0 for e in doc.events] == [0.0, 1.0, 2.0]

    def test_older_drop_counts_still_read(self, tmp_path):
        # Files written while shm workers traced into fixed-size rings may
        # carry a positive end.dropped; schema 1.0 still reads and shows it.
        path = tmp_path / "rings.jsonl"
        lines = [
            {"record": "header", "schema_version": "1.0", "meta": {}},
            {"record": "event", "name": "draw", "t0": 0.0, "dur": 1.0},
            {"record": "end", "events": 1, "dropped": 24},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        doc = read_trace(str(path))
        assert doc.dropped == 24
        assert "1 event(s), 24 dropped" in render_summary(doc)

    def test_write_is_atomic(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_trace(str(path), self._events())
        assert not path.with_suffix(".jsonl.tmp").exists()

    def test_unknown_major_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        header = {"record": "header",
                  "schema_version": f"{TRACE_SCHEMA_MAJOR + 1}.0", "meta": {}}
        path.write_text(json.dumps(header) + "\n"
                        + json.dumps({"record": "end", "events": 0,
                                      "dropped": 0}) + "\n")
        with pytest.raises(TraceSchemaError, match="major"):
            read_trace(str(path))

    def test_same_major_future_minor_accepted_unknown_kinds_skipped(
            self, tmp_path):
        path = tmp_path / "minor.jsonl"
        lines = [
            {"record": "header",
             "schema_version": f"{TRACE_SCHEMA_MAJOR}.9", "meta": {}},
            {"record": "annotation", "text": "added by a later minor"},
            {"record": "event", "name": "draw", "t0": 0.0, "dur": 1.0},
            {"record": "end", "events": 1, "dropped": 0},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        doc = read_trace(str(path))
        assert doc.schema_version == f"{TRACE_SCHEMA_MAJOR}.9"
        assert [e.name for e in doc.events] == ["draw"]

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "trunc.jsonl")
        write_trace(path, self._events())
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:-1])  # drop the end record
        with pytest.raises(TraceSchemaError, match="truncated"):
            read_trace(path)

    def test_end_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.jsonl"
        lines = [
            {"record": "header", "schema_version": TRACE_SCHEMA_VERSION,
             "meta": {}},
            {"record": "event", "name": "draw", "t0": 0.0, "dur": 1.0},
            {"record": "end", "events": 5, "dropped": 0},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(TraceSchemaError, match="declares 5"):
            read_trace(str(path))

    def test_malformed_inputs_rejected(self, tmp_path):
        cases = {
            "empty.jsonl": "",
            "notjson.jsonl": "not json\n",
            "noheader.jsonl": json.dumps({"record": "end", "events": 0}) + "\n",
            "badversion.jsonl": json.dumps(
                {"record": "header", "schema_version": "one.zero"}) + "\n",
        }
        for name, text in cases.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(TraceSchemaError):
                read_trace(str(path))

    def test_parse_schema_version(self):
        assert parse_schema_version("1.0") == (1, 0)
        assert parse_schema_version("12.34") == (12, 34)
        for bad in (None, 1.0, "1", "1.0.0", "a.b", "-1.0"):
            with pytest.raises(TraceSchemaError):
                parse_schema_version(bad)


class TestMergeEvents:
    def test_merge_orders_by_start_time(self):
        parent = [TraceEvent("schedule", 0.0, 1.0),
                  TraceEvent("iteration", 4.0, 2.0)]
        worker = [TraceEvent("draw", 1.0, 0.5), TraceEvent("dispatch", 2.0, 0.5)]
        merged = merge_events([parent, worker])
        assert [e.name for e in merged] == ["schedule", "draw", "dispatch",
                                            "iteration"]

    def test_merge_preserves_per_stream_order(self):
        streams = [
            [TraceEvent("draw", float(i), 0.1, iteration=i) for i in range(4)],
            [TraceEvent("merge", float(i) + 0.5, 0.1, iteration=i)
             for i in range(4)],
        ]
        merged = merge_events(streams)
        for name in ("draw", "merge"):
            iters = [e.iteration for e in merged if e.name == name]
            assert iters == sorted(iters)

    def test_equal_t0_interleaves_stably_by_stream_index(self):
        a = [TraceEvent("draw", 1.0, 0.1, labels={"worker": "0"})]
        b = [TraceEvent("draw", 1.0, 0.1, labels={"worker": "1"})]
        merged_ab = merge_events([a, b])
        assert [e.labels["worker"] for e in merged_ab] == ["0", "1"]
        merged_ba = merge_events([b, a])
        assert [e.labels["worker"] for e in merged_ba] == ["1", "0"]


class TestEngineTracing:
    def test_traced_run_is_byte_identical_to_untraced(self, small_synthetic,
                                                      fast_params):
        plain = CpuBaselineEngine(small_synthetic, fast_params).run()
        traced_engine = CpuBaselineEngine(small_synthetic, fast_params)
        traced_engine.tracer = Tracer(labels={"engine": traced_engine.name})
        traced = traced_engine.run()
        assert np.array_equal(plain.layout.coords, traced.layout.coords)
        assert plain.total_terms == traced.total_terms

    def test_engine_emits_one_phase_trio_per_iteration(self, small_synthetic,
                                                       fast_params):
        engine = CpuBaselineEngine(small_synthetic, fast_params)
        engine.tracer = Tracer(labels={"engine": engine.name})
        result = engine.run()
        events = engine.tracer.events
        for name in ("draw", "dispatch", "iteration"):
            per_iter = [e for e in events
                        if e.name == name and e.iteration >= 0]
            assert len(per_iter) == result.iterations
        assert [e.name for e in events if e.iteration < 0].count("transfer") == 2
        assert sum(1 for e in events if e.name == "schedule") == 1

    def test_trace_structure_is_deterministic_across_runs(self, small_synthetic,
                                                          fast_params):
        structures = []
        for _ in range(2):
            engine = CpuBaselineEngine(small_synthetic, fast_params)
            engine.tracer = Tracer()
            engine.run()
            structures.append(tuple(event_structure(engine.tracer.events)))
        assert structures[0] == structures[1]

    def test_stubbed_clock_gives_fully_deterministic_traces(self,
                                                            small_synthetic,
                                                            fast_params):
        """With the clock stubbed, even timestamps are byte-stable."""
        def traced_run():
            engine = CpuBaselineEngine(small_synthetic, fast_params)
            engine.tracer = Tracer()
            with clock.stub_clock(_ramp()):
                engine.run()
            return [(e.name, e.t0, e.dur, e.iteration, e.count)
                    for e in engine.tracer.events]

        assert traced_run() == traced_run()

    def test_result_metrics_snapshot_matches_counters(self, small_synthetic,
                                                      fast_params):
        engine = CpuBaselineEngine(small_synthetic, fast_params)
        result = engine.run()
        assert result.metrics is not None
        assert result.metrics.value(
            "update_dispatches", engine=engine.name,
            backend=engine.backend.name) \
            == result.counters["update_dispatches"]
        rows = result.to_dict()["metrics"]
        assert any(row["name"] == "update_dispatches" for row in rows)


class TestLayoutTraceFiles:
    def test_layout_graph_writes_schema_valid_trace(self, small_synthetic,
                                                    fast_params, tmp_path):
        path = str(tmp_path / "flat.jsonl")
        result = layout_graph(small_synthetic, params=fast_params, trace=path)
        doc = read_trace(path)
        assert doc.meta["engine"] == "cpu-baseline"
        assert doc.meta["iterations"] == result.iterations
        assert doc.dropped == 0
        # Single-stream files keep emission order; enclosing spans land
        # *after* their children (their t0 is earlier), so only per-name
        # start times are monotonic — file order is not a t0 sort.
        for name in ("draw", "dispatch", "iteration"):
            t0s = [e.t0 for e in doc.events if e.name == name]
            assert t0s == sorted(t0s)
        assert {e.name for e in doc.events} >= {"schedule", "draw", "dispatch",
                                                "iteration", "transfer"}

    def test_untraced_run_matches_traced_run(self, small_synthetic,
                                             fast_params, tmp_path):
        plain = layout_graph(small_synthetic, params=fast_params)
        traced = layout_graph(small_synthetic, params=fast_params,
                              trace=str(tmp_path / "t.jsonl"))
        assert np.array_equal(plain.layout.coords, traced.layout.coords)

    def test_shm_run_merges_per_worker_traces(self, medium_synthetic,
                                              fast_params, tmp_path):
        path = str(tmp_path / "shm.jsonl")
        result = layout_graph(medium_synthetic, params=fast_params,
                              workers=2, trace=path)
        doc = read_trace(path)
        assert doc.meta["workers"] == 2
        workers = {e.labels.get("worker") for e in doc.events
                   if "worker" in e.labels}
        assert workers == {"0", "1"}
        t0s = [e.t0 for e in doc.events]
        assert t0s == sorted(t0s)
        for worker in ("0", "1"):
            iters = [e for e in doc.events
                     if e.labels.get("worker") == worker
                     and e.name == "iteration"]
            assert len(iters) == result.iterations
        assert doc.dropped == 0

    def test_multilevel_trace_has_level_and_prolong_spans(self,
                                                          small_synthetic,
                                                          fast_params,
                                                          tmp_path):
        path = str(tmp_path / "multi.jsonl")
        driver = MultilevelDriver(small_synthetic,
                                  fast_params.with_(levels=3, trace=path))
        driver.run()
        doc = read_trace(path)
        depth = driver.hierarchy.depth
        assert len([e for e in doc.events if e.name == "level"]) == depth
        assert len([e for e in doc.events if e.name == "prolong"]) == depth - 1
        levels = {e.labels.get("level") for e in doc.events
                  if "level" in e.labels}
        assert levels == {str(k) for k in range(depth)}

    def test_multilevel_depth_one_delegates_trace_to_flat_engine(
            self, small_synthetic, fast_params, tmp_path):
        path = str(tmp_path / "depth1.jsonl")
        driver = MultilevelDriver(small_synthetic,
                                  fast_params.with_(levels=1, trace=path))
        driver.run()
        doc = read_trace(path)
        assert doc.meta["engine"] == "cpu-baseline"


class TestProgressCallbacks:
    def test_flat_engine_streams_one_call_per_iteration(self, small_synthetic,
                                                        fast_params):
        calls = []
        layout_graph(small_synthetic, params=fast_params,
                     on_progress=lambda c, t, s: calls.append((c, t, s)))
        assert [c for c, _, _ in calls] \
            == list(range(1, fast_params.iter_max + 1))
        assert all(t == fast_params.iter_max for _, t, _ in calls)
        assert calls[0][2]["engine"] == "cpu-baseline"
        assert all("eta" in s and "terms" in s for _, _, s in calls)

    def test_make_engine_threads_the_callback(self, small_synthetic,
                                              fast_params):
        calls = []
        engine = make_engine(small_synthetic, "cpu", fast_params,
                             on_progress=lambda *a: calls.append(a))
        engine.run()
        assert len(calls) == fast_params.iter_max

    def test_shm_run_reports_workers(self, medium_synthetic, fast_params):
        calls = []
        layout_graph(medium_synthetic, params=fast_params, workers=2,
                     on_progress=lambda c, t, s: calls.append((c, t, s)))
        assert [c for c, _, _ in calls] \
            == list(range(1, fast_params.iter_max + 1))
        assert all(s["workers"] == 2 for _, _, s in calls)

    def test_multilevel_offsets_to_global_counts(self, small_synthetic,
                                                 fast_params):
        calls = []
        driver = MultilevelDriver(small_synthetic,
                                  fast_params.with_(levels=3))
        driver.on_progress = lambda c, t, s: calls.append((c, t, s))
        driver.run()
        grand_total = sum(driver.level_iterations())
        assert [c for c, _, _ in calls] == list(range(1, grand_total + 1))
        assert all(t == grand_total for _, t, _ in calls)
        assert {s["level"] for _, _, s in calls} \
            == set(range(driver.hierarchy.depth))


class TestPhaseBreakdown:
    def test_dispatch_reports_self_time(self):
        w0, w1 = {"worker": "0"}, {"worker": "1"}
        events = [TraceEvent("selection", 1.0, 2.0, 0, labels=w0),
                  TraceEvent("merge", 3.0, 1.0, 0, labels=w0),
                  TraceEvent("dispatch", 0.5, 5.0, 0, labels=w0),
                  # no dispatch span with these labels encloses it
                  TraceEvent("selection", 1.0, 7.0, 0, labels=w1)]
        breakdown = phase_breakdown(events)
        assert breakdown["dispatch"] == (1, 1, 2.0)
        assert breakdown["selection"] == (2, 2, 9.0)

    def test_flat_run_leaves_fit_inside_iterations(self, small_synthetic,
                                                   fast_params, tmp_path):
        path = str(tmp_path / "flat.jsonl")
        layout_graph(small_synthetic, params=fast_params, trace=path)
        doc = read_trace(path)
        phases = phase_breakdown(doc.events)
        assert {"selection", "merge"} <= set(phases)
        leaves = sum(phases[name][2] for name in
                     ("draw", "dispatch", "selection", "merge"))
        assert leaves <= phases["iteration"][2] + 1e-9
        assert phases["dispatch"][2] >= 0.0
        shares = [float(line.split()[-1].rstrip("%"))
                  for line in render_summary(doc).splitlines()
                  if line.endswith("%")]
        assert sum(shares) == pytest.approx(100.0, abs=0.5)


class TestTraceCli:
    def _write(self, tmp_path, name, small_synthetic, fast_params):
        path = str(tmp_path / name)
        layout_graph(small_synthetic, params=fast_params, trace=path)
        return path

    def test_summarize_renders_phase_table(self, small_synthetic, fast_params,
                                           tmp_path, capsys):
        from repro.cli import trace_main

        path = self._write(tmp_path, "a.jsonl", small_synthetic, fast_params)
        assert trace_main(["summarize", path]) == 0
        out = capsys.readouterr().out
        assert f"schema {TRACE_SCHEMA_VERSION}" in out
        for phase in ("draw", "dispatch", "iteration", "schedule"):
            assert phase in out

    def test_compare_renders_ratios(self, small_synthetic, fast_params,
                                    tmp_path, capsys):
        from repro.cli import trace_main

        old = self._write(tmp_path, "old.jsonl", small_synthetic, fast_params)
        new = self._write(tmp_path, "new.jsonl", small_synthetic, fast_params)
        assert trace_main(["compare", old, new]) == 0
        out = capsys.readouterr().out
        assert "trace compare:" in out and "ratio" in out

    def test_schema_error_exits_two(self, tmp_path, capsys):
        from repro.cli import trace_main

        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(
            {"record": "header", "schema_version": "99.0", "meta": {}}) + "\n")
        assert trace_main(["summarize", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        from repro.cli import trace_main

        assert trace_main(["summarize", str(tmp_path / "absent.jsonl")]) == 2

    def test_layout_cli_writes_and_announces_trace(self, tmp_path, capsys):
        from pathlib import Path

        from repro.cli import main

        gfa = Path(__file__).parent / "data" / "golden" / "tiny.gfa"
        trace = tmp_path / "cli.jsonl"
        lay = tmp_path / "cli.lay"
        assert main(["layout", "--gfa", str(gfa),
                     "--iter-max", "3", "--steps-factor", "1.0",
                     "--trace", str(trace), "--progress",
                     "--out-lay", str(lay)]) == 0
        captured = capsys.readouterr()
        assert f"wrote run trace to {trace}" in captured.out
        assert "iteration 3/3" in captured.err
        assert read_trace(str(trace)).events

    def test_summaries_render_worker_lists(self, medium_synthetic,
                                           fast_params, tmp_path):
        path = str(tmp_path / "w.jsonl")
        layout_graph(medium_synthetic, params=fast_params, workers=2,
                     trace=path)
        doc = read_trace(path)
        text = render_summary(doc, source=path)
        assert "workers: 0, 1" in text
        assert "dropped" not in text  # zero drops stay silent
        assert "ratio" in render_compare(doc, doc)
