"""Tests for the benchmark orchestration subsystem (registry/schema/compare)."""
from __future__ import annotations

import json

import pytest

from repro.backend import cext
from repro.bench.compare import (
    compare_documents,
    compare_files,
    parse_threshold,
)
from repro.bench.context import BenchContext
from repro.bench.registry import (
    BenchRegistry,
    CaseResult,
    DuplicateCaseError,
    Metric,
    UnknownCaseError,
    UnknownSuiteError,
    bench_case,
)
from repro.bench.schema import (
    SCHEMA_VERSION,
    SchemaError,
    default_output_path,
    list_tracked_metrics,
    load_results,
    metric_values,
    validate_results,
    write_results,
)


def make_case_doc(name, metrics, source="Fig. T"):
    """A schema-valid case record with the given {name: (value, direction)}."""
    return {
        "name": name,
        "source": source,
        "suites": ["smoke"],
        "wall_time": {"repeats": 1, "times_s": [0.5], "min_s": 0.5, "mean_s": 0.5},
        "metrics": {
            metric: {"value": value, "unit": "s", "direction": direction}
            for metric, (value, direction) in metrics.items()
        },
        "graph_properties": {"n_nodes": 100.0},
    }


def make_doc(cases, seed=9399):
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "smoke",
        "master_seed": seed,
        "environment": {"python": "3.11.7", "numpy": "2.4.6"},
        "runner": {"warmup": 0, "repeats": 1},
        "cases": cases,
    }


class TestRegistry:
    def test_decorator_registers_and_annotates(self):
        registry = BenchRegistry()

        @bench_case("case_a", source="Fig. 1", suites=("smoke",), registry=registry)
        def case_a(ctx):
            """Does a thing."""
            return CaseResult()

        assert "case_a" in registry
        assert case_a.case.summary == "Does a thing."
        assert registry.get("case_a").source == "Fig. 1"

    def test_duplicate_name_rejected(self):
        registry = BenchRegistry()

        @bench_case("dup", registry=registry)
        def first(ctx):
            return CaseResult()

        with pytest.raises(DuplicateCaseError, match="already registered"):
            @bench_case("dup", registry=registry)
            def second(ctx):
                return CaseResult()

    def test_unknown_suite_declaration_rejected(self):
        registry = BenchRegistry()
        with pytest.raises(UnknownSuiteError):
            @bench_case("c", suites=("nope",), registry=registry)
            def case(ctx):
                return CaseResult()

    def test_all_is_not_declarable(self):
        registry = BenchRegistry()
        with pytest.raises(UnknownSuiteError):
            @bench_case("c", suites=("all",), registry=registry)
            def case(ctx):
                return CaseResult()

    def test_suite_resolution(self):
        registry = BenchRegistry()

        @bench_case("s1", suites=("smoke",), registry=registry)
        def s1(ctx):
            return CaseResult()

        @bench_case("f1", suites=("figures",), registry=registry)
        def f1(ctx):
            return CaseResult()

        assert [c.name for c in registry.suite("smoke")] == ["s1"]
        assert [c.name for c in registry.suite("figures")] == ["f1"]
        assert [c.name for c in registry.suite("all")] == ["f1", "s1"]
        with pytest.raises(UnknownSuiteError):
            registry.suite("bogus")

    def test_unknown_case_lookup(self):
        with pytest.raises(UnknownCaseError):
            BenchRegistry().get("missing")

    def test_metric_validation(self):
        with pytest.raises(ValueError, match="direction"):
            Metric(1.0, direction="sideways")
        with pytest.raises(TypeError):
            Metric("fast")

    def test_case_result_duplicate_metric(self):
        result = CaseResult()
        result.add("m", 1.0)
        with pytest.raises(ValueError, match="recorded twice"):
            result.add("m", 2.0)


class TestContext:
    def test_seed_derivation_is_deterministic(self):
        a, b = BenchContext(123), BenchContext(123)
        assert a.seed_for("x/y") == b.seed_for("x/y")
        assert a.rng("r").integers(0, 1 << 30) == b.rng("r").integers(0, 1 << 30)

    def test_labels_and_master_seed_decorrelate(self):
        ctx = BenchContext(123)
        assert ctx.seed_for("a") != ctx.seed_for("b")
        assert BenchContext(1).seed_for("a") != BenchContext(2).seed_for("a")

    def test_params_carry_master_seed(self):
        ctx = BenchContext(77)
        assert ctx.bench_params.seed == 77
        assert ctx.quality_bench_params.seed == 77

    def test_invalid_master_seed(self):
        with pytest.raises(ValueError):
            BenchContext(-1)


class TestSchema:
    def test_round_trip(self, tmp_path):
        doc = make_doc([make_case_doc("c1", {"t": (1.5, "lower")})])
        path = tmp_path / "BENCH_smoke.json"
        write_results(doc, str(path))
        back = load_results(str(path))
        assert back == doc
        assert metric_values(back) == {"c1": {"t": 1.5}}
        assert list_tracked_metrics(back) == ["c1/t"]

    def test_default_output_path(self):
        assert default_output_path("smoke").endswith("BENCH_smoke.json")

    def test_unsupported_version(self):
        doc = make_doc([])
        doc["schema_version"] = 99
        with pytest.raises(SchemaError, match="unsupported"):
            validate_results(doc)

    def test_missing_key(self):
        doc = make_doc([])
        del doc["environment"]
        with pytest.raises(SchemaError, match="environment"):
            validate_results(doc)

    def test_duplicate_case_names(self):
        doc = make_doc([make_case_doc("c", {}), make_case_doc("c", {})])
        with pytest.raises(SchemaError, match="duplicate case name"):
            validate_results(doc)

    def test_repeats_times_mismatch(self):
        case = make_case_doc("c", {})
        case["wall_time"]["repeats"] = 3
        with pytest.raises(SchemaError, match="repeats=3"):
            validate_results(make_doc([case]))

    def test_bad_direction(self):
        case = make_case_doc("c", {"m": (1.0, "diagonal")})
        with pytest.raises(SchemaError, match="direction"):
            validate_results(make_doc([case]))

    def test_bool_rejected_for_int_fields(self):
        doc = make_doc([])
        doc["master_seed"] = True
        with pytest.raises(SchemaError, match="master_seed"):
            validate_results(doc)
        doc = make_doc([])
        doc["schema_version"] = True
        with pytest.raises(SchemaError, match="schema_version"):
            validate_results(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_results(str(path))

    def test_write_rejects_invalid(self, tmp_path):
        with pytest.raises(SchemaError):
            write_results({"schema_version": SCHEMA_VERSION}, str(tmp_path / "x.json"))


class TestCompare:
    def pair(self, old_value, new_value, direction):
        old = make_doc([make_case_doc("c", {"m": (old_value, direction)})])
        new = make_doc([make_case_doc("c", {"m": (new_value, direction)})])
        return old, new

    def test_identical_passes(self):
        report = compare_documents(*self.pair(2.0, 2.0, "lower"))
        assert [d.status for d in report.deltas] == ["ok"]
        assert report.exit_code == 0

    def test_small_regression_warns(self):
        report = compare_documents(*self.pair(2.0, 2.1, "lower"), max_regress=0.10)
        assert [d.status for d in report.deltas] == ["warn"]
        assert report.exit_code == 0

    def test_large_regression_fails(self):
        report = compare_documents(*self.pair(2.0, 2.5, "lower"), max_regress=0.10)
        assert [d.status for d in report.deltas] == ["fail"]
        assert report.exit_code == 1
        assert "FAIL" in report.summary_line()

    def test_higher_direction_inverts(self):
        # Speedup dropping 25% is a failure; rising is an improvement.
        report = compare_documents(*self.pair(10.0, 7.5, "higher"), max_regress=0.10)
        assert [d.status for d in report.deltas] == ["fail"]
        report = compare_documents(*self.pair(10.0, 13.0, "higher"), max_regress=0.10)
        assert [d.status for d in report.deltas] == ["improved"]

    def test_info_metrics_ignored(self):
        report = compare_documents(*self.pair(1.0, 99.0, "info"))
        assert report.deltas == []
        assert report.exit_code == 0

    def test_missing_case_fails_unless_allowed(self):
        old = make_doc([make_case_doc("gone", {"m": (1.0, "lower")})])
        new = make_doc([])
        assert compare_documents(old, new).exit_code == 1
        assert compare_documents(old, new, allow_missing=True).exit_code == 0

    def test_new_metric_never_fails(self):
        old = make_doc([])
        new = make_doc([make_case_doc("fresh", {"m": (1.0, "lower")})])
        report = compare_documents(old, new)
        assert [d.status for d in report.deltas] == ["new"]
        assert report.exit_code == 0

    def test_info_to_gated_transition_reported_as_new(self):
        # A metric that was untracked (info) in the baseline but gated in the
        # candidate must surface as "new", not silently vanish.
        old = make_doc([make_case_doc("c", {"m": (1.0, "info")})])
        new = make_doc([make_case_doc("c", {"m": (99.0, "lower")})])
        report = compare_documents(old, new, max_regress=0.10)
        assert [d.status for d in report.deltas] == ["new"]
        assert report.exit_code == 0

    def test_environment_mismatch_noted(self):
        old, new = self.pair(1.0, 1.0, "lower")
        new["environment"]["numpy"] = "1.26.0"
        report = compare_documents(old, new)
        assert any("numpy" in note for note in report.notes)

    def test_compiled_kernel_mismatch_noted_not_gated(self):
        old, new = self.pair(1.0, 1.0, "lower")
        old["environment"]["cext"] = "loaded"
        new["environment"]["cext"] = "no C compiler on PATH (tried cc, gcc, clang)"
        report = compare_documents(old, new)
        assert [note for note in report.notes if "cext loaded -> no C compiler" in note]
        assert report.exit_code == 0
        new["environment"]["cext"] = "loaded"
        assert compare_documents(old, new).notes == []

    def _wall_pair(self, old_value, new_value):
        old, new = self.pair(old_value, new_value, "lower")
        for doc in (old, new):
            doc["cases"][0]["metrics"]["m"]["deterministic"] = False
        return old, new

    def test_wall_metric_gated_in_same_environment(self):
        report = compare_documents(*self._wall_pair(2.0, 2.5), max_regress=0.10)
        assert [d.status for d in report.deltas] == ["fail"]
        assert report.exit_code == 1

    def test_wall_metric_downgraded_across_environments(self):
        old, new = self._wall_pair(2.0, 2.5)
        new["environment"]["platform"] = "Linux-other-host"
        report = compare_documents(old, new, max_regress=0.10)
        assert [d.status for d in report.deltas] == ["warn"]
        assert report.exit_code == 0
        assert any("timing environments" in note for note in report.notes)

    def test_interpreter_links_are_one_timing_environment(self, tmp_path):
        interpreter = tmp_path / "python3.11"
        interpreter.write_text("")
        for link in ("python", "python3"):
            (tmp_path / link).symlink_to(interpreter)
        old, new = self._wall_pair(2.0, 2.5)
        old["environment"]["executable"] = str(tmp_path / "python")
        new["environment"]["executable"] = str(tmp_path / "python3")
        report = compare_documents(old, new, max_regress=0.10)
        assert [d.status for d in report.deltas] == ["fail"]
        # Another interpreter file is another timing environment.
        (tmp_path / "python3.12").write_text("")
        new["environment"]["executable"] = str(tmp_path / "python3.12")
        report = compare_documents(old, new, max_regress=0.10)
        assert [d.status for d in report.deltas] == ["warn"]
        assert any("differing executable" in note for note in report.notes)

    def test_ns_metric_is_wall_time(self):
        # perf_gfa_ingest's ingest_ns_per_step: gated like the s/ms metrics.
        old, new = self._wall_pair(500.0, 600.0)
        for doc in (old, new):
            doc["cases"][0]["metrics"]["m"]["unit"] = "ns"
        assert compare_documents(old, new, max_regress=0.10).exit_code == 1
        new["environment"]["platform"] = "Linux-other-host"
        report = compare_documents(old, new, max_regress=0.10)
        assert [d.status for d in report.deltas] == ["warn"]

    def test_deterministic_metric_still_fails_across_environments(self):
        old, new = self.pair(2.0, 2.5, "lower")
        new["environment"]["platform"] = "Linux-other-host"
        report = compare_documents(old, new, max_regress=0.10)
        assert [d.status for d in report.deltas] == ["fail"]
        assert report.exit_code == 1

    def test_zero_baseline(self):
        report = compare_documents(*self.pair(0.0, 0.5, "lower"), max_regress=0.10)
        assert [d.status for d in report.deltas] == ["fail"]
        report = compare_documents(*self.pair(0.0, 0.0, "lower"))
        assert [d.status for d in report.deltas] == ["ok"]

    def test_compare_files(self, tmp_path):
        old, new = self.pair(2.0, 4.0, "lower")
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        write_results(old, str(old_path))
        write_results(new, str(new_path))
        report = compare_files(str(old_path), str(new_path), max_regress=0.10)
        assert report.exit_code == 1
        assert "fail" in report.format().lower()

    def test_parse_threshold(self):
        assert parse_threshold("10%") == pytest.approx(0.10)
        assert parse_threshold("0.25") == pytest.approx(0.25)
        assert parse_threshold(" 5% ") == pytest.approx(0.05)
        with pytest.raises(ValueError):
            parse_threshold("fast")
        with pytest.raises(ValueError):
            parse_threshold("-3%")


class TestEnvironmentFingerprint:
    def test_fingerprint_fields(self):
        from repro.bench.env import environment_fingerprint

        fp = environment_fingerprint()
        assert set(fp) >= {"python", "numpy", "platform", "repro", "git", "cext"}
        assert fp["cext"] == cext.status()
        assert json.dumps(fp)  # JSON-serialisable
