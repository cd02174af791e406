"""Tests for the benchmark runner and the ``repro bench`` CLI."""
from __future__ import annotations

import os

import pytest

from repro.bench.registry import BenchRegistry, CaseResult, bench_case
from repro.bench.runner import SuiteRunError, run_case, run_suite
from repro.bench.schema import load_results, metric_values, validate_results
from repro.cli import main


@pytest.fixture()
def toy_registry():
    registry = BenchRegistry()

    @bench_case("toy_fast", source="Fig. T", suites=("smoke",), registry=registry)
    def toy_fast(ctx):
        """A deterministic toy case."""
        result = CaseResult(graph_properties={"n_nodes": 4.0})
        result.add("modelled_s", 0.25 + ctx.seed_for("toy/const") * 0.0,
                   unit="s(model)", direction="lower")
        result.add("speedup", 4.0, unit="x", direction="higher")
        result.tables.append("toy table")
        return result

    return registry


class TestRunner:
    def test_run_suite_document(self, toy_registry, tmp_path):
        out = tmp_path / "BENCH_smoke.json"
        doc = run_suite("smoke", registry=toy_registry, out_path=str(out),
                        echo=lambda *_: None, warmup=1, repeats=3)
        validate_results(doc)
        assert load_results(str(out)) == doc
        case = doc["cases"][0]
        assert case["name"] == "toy_fast"
        assert case["wall_time"]["repeats"] == 3
        assert len(case["wall_time"]["times_s"]) == 3
        assert case["metrics"]["modelled_s"]["direction"] == "lower"
        assert doc["runner"] == {"warmup": 1, "repeats": 3, "backend": "numpy"}

    def test_master_seed_recorded(self, toy_registry):
        doc = run_suite("smoke", registry=toy_registry, master_seed=42,
                        out_path="", echo=lambda *_: None)
        assert doc["master_seed"] == 42

    def test_empty_suite_rejected(self, toy_registry):
        with pytest.raises(SuiteRunError, match="zero cases"):
            run_suite("figures", registry=toy_registry, out_path="",
                      echo=lambda *_: None)

    def test_invalid_runner_args(self, toy_registry):
        with pytest.raises(ValueError):
            run_suite("smoke", registry=toy_registry, repeats=0)

    def test_nondeterministic_case_detected(self):
        registry = BenchRegistry()
        counter = {"n": 0}

        @bench_case("flaky", suites=("smoke",), registry=registry)
        def flaky(ctx):
            counter["n"] += 1
            result = CaseResult()
            result.add("value", counter["n"], direction="lower")
            return result

        with pytest.raises(SuiteRunError, match="nondeterministic"):
            run_suite("smoke", registry=registry, repeats=2, out_path="",
                      echo=lambda *_: None)

    def test_assertion_failure_is_reported(self):
        registry = BenchRegistry()

        @bench_case("broken", suites=("smoke",), registry=registry)
        def broken(ctx):
            assert False, "shape mismatch"

        with pytest.raises(SuiteRunError, match="shape"):
            run_suite("smoke", registry=registry, out_path="", echo=lambda *_: None)

    def test_run_case_prints_tables(self, toy_registry, capsys):
        lines = []
        result = run_case("toy_fast", registry=toy_registry, echo=lines.append)
        assert result.metrics["speedup"].value == 4.0
        assert lines == ["toy table"]


class TestBenchCli:
    def test_run_twice_is_byte_identical_on_metrics(self, tmp_path):
        """Acceptance: two smoke runs on one commit yield identical metrics."""
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["bench", "run", "--suite", "smoke", "--out", str(first)]) == 0
        assert main(["bench", "run", "--suite", "smoke", "--out", str(second)]) == 0
        doc_a, doc_b = load_results(str(first)), load_results(str(second))
        assert metric_values(doc_a) == metric_values(doc_b)
        assert doc_a["suite"] == "smoke"
        assert {c["name"] for c in doc_a["cases"]} >= {
            "smoke_layout_cpu", "smoke_layout_gpu_model", "smoke_ablation",
        }

    def test_compare_cli_pass_and_fail(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["bench", "run", "--suite", "smoke", "--out", str(out)]) == 0
        # Self-comparison passes.
        assert main(["bench", "compare", str(out), str(out)]) == 0
        assert "PASS" in capsys.readouterr().out
        # Inject a >10% regression on a tracked lower-is-better metric.
        doc = load_results(str(out))
        for case in doc["cases"]:
            for metric in case["metrics"].values():
                if metric["direction"] == "lower":
                    metric["value"] *= 2.0
        worse = tmp_path / "worse.json"
        from repro.bench.schema import write_results

        write_results(doc, str(worse))
        assert main(["bench", "compare", str(out), str(worse),
                     "--max-regress", "10%"]) == 1
        assert "FAIL" in capsys.readouterr().out
        # A huge threshold lets the same diff pass.
        assert main(["bench", "compare", str(out), str(worse),
                     "--max-regress", "150%"]) == 0

    def test_compare_cli_bad_threshold(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        main(["bench", "run", "--suite", "smoke", "--out", str(out)])
        assert main(["bench", "compare", str(out), str(out),
                     "--max-regress", "banana"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_compare_cli_missing_file(self, tmp_path, capsys):
        assert main(["bench", "compare", "/nonexistent/a.json",
                     "/nonexistent/b.json"]) == 2

    def test_list_cli(self, capsys):
        assert main(["bench", "list", "--suite", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "smoke_layout_cpu" in out

    def test_layout_subcommand_writes_tsv(self, tmp_path, capsys):
        tsv = tmp_path / "toy.tsv"
        code = main(["layout", "--dataset", "HLA-DRB1", "--scale", "0.05",
                     "--iter-max", "2", "--steps-factor", "1.0",
                     "--out-tsv", str(tsv)])
        assert code == 0
        assert tsv.exists()
        assert "layout complete" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["--dataset", "HLA-DRB1"], ["lay"], []])
    def test_unknown_first_argument_lists_subcommands(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "layout, bench, analyze, trace" in err

    def test_layout_subcommand(self, tmp_path, capsys):
        code = main(["layout", "--dataset", "HLA-DRB1", "--scale", "0.05",
                     "--iter-max", "2", "--steps-factor", "1.0"])
        assert code == 0
        assert "layout complete" in capsys.readouterr().out

    @pytest.mark.parametrize("policy", ["hogwild", "accumulate", "last_writer"])
    def test_layout_merge_policy_flag(self, policy, capsys):
        """--merge-policy reaches LayoutParams (first-class since PR 3)."""
        code = main(["layout", "--dataset", "HLA-DRB1", "--scale", "0.05",
                     "--iter-max", "2", "--steps-factor", "1.0",
                     "--merge-policy", policy])
        assert code == 0
        out = capsys.readouterr().out
        assert f"merge={policy}" in out
        assert "layout complete" in out

    def test_layout_merge_policy_changes_result(self, tmp_path):
        """Distinct policies must produce distinct layouts (flag is live)."""
        blobs = {}
        for policy in ("hogwild", "accumulate"):
            out = tmp_path / f"{policy}.lay"
            assert main(["layout", "--dataset", "HLA-DRB1", "--scale", "0.05",
                         "--iter-max", "2", "--steps-factor", "1.0",
                         "--merge-policy", policy,
                         "--out-lay", str(out)]) == 0
            blobs[policy] = out.read_bytes()
        assert blobs["hogwild"] != blobs["accumulate"]

    def test_layout_rejects_unknown_merge_policy(self, capsys):
        with pytest.raises(SystemExit):
            main(["layout", "--dataset", "HLA-DRB1",
                  "--merge-policy", "banana"])

    def test_layout_rejects_retired_backend(self, capsys):
        """A backend name the registry no longer holds is a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(["layout", "--dataset", "HLA-DRB1", "--backend", "numba"])
        assert exc.value.code == 2
        assert "--backend: invalid choice" in capsys.readouterr().err

    def test_layout_fused_flags_parse_and_run(self, tmp_path, capsys):
        """--fused / --no-fused still parse, warn, and change no layout."""
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["--dataset", "HLA-DRB1"]).fused is None
        assert parser.parse_args(["--dataset", "HLA-DRB1",
                                  "--fused"]).fused is True
        assert parser.parse_args(["--dataset", "HLA-DRB1",
                                  "--no-fused"]).fused is False
        blobs = {}
        for flag in ("--fused", "--no-fused"):
            out = tmp_path / f"{flag.strip('-')}.lay"
            with pytest.warns(FutureWarning, match="fused option"):
                assert main(["layout", "--dataset", "HLA-DRB1", "--scale",
                             "0.05", "--iter-max", "2", "--steps-factor",
                             "1.0", flag, "--out-lay", str(out)]) == 0
            blobs[flag] = out.read_bytes()
        out = tmp_path / "plain.lay"
        assert main(["layout", "--dataset", "HLA-DRB1", "--scale", "0.05",
                     "--iter-max", "2", "--steps-factor", "1.0",
                     "--out-lay", str(out)]) == 0
        assert blobs["--fused"] == blobs["--no-fused"] == out.read_bytes()

    def test_bench_run_fused_flag_is_a_deprecated_no_op(self, monkeypatch,
                                                        tmp_path):
        """--no-fused still parses, warns and reaches nothing."""
        import repro.bench.runner as runner

        seen = {}
        monkeypatch.setattr(runner, "run_suite",
                            lambda suite, **kwargs: seen.update(kwargs))
        out = tmp_path / "unfused.json"
        with pytest.warns(FutureWarning, match="fused option"):
            assert main(["bench", "run", "--suite", "smoke", "--no-fused",
                         "--out", str(out)]) == 0
        assert "fused" not in seen and seen["out_path"] == str(out)

    def test_bench_run_profile_writes_per_case_artifacts(self, toy_registry,
                                                         tmp_path):
        out = tmp_path / "BENCH_smoke.json"
        run_suite("smoke", registry=toy_registry, out_path=str(out),
                  echo=lambda *_: None, profile=True)
        from repro.bench.runner import profile_dir_for

        profile_dir = profile_dir_for(str(out))
        artifact = os.path.join(profile_dir, "toy_fast.txt")
        assert os.path.isfile(artifact)
        with open(artifact, encoding="utf-8") as handle:
            text = handle.read()
        assert "cProfile summary: case=toy_fast" in text
        assert "cumulative" in text
        # Memory forensics land in the same artifact as the time ranking.
        assert "peak RSS:" in text
        rss_line = next(line for line in text.splitlines()
                        if line.startswith("peak RSS:"))
        assert int(rss_line.split()[2]) > 0


class TestCommittedBaseline:
    def test_baseline_is_schema_valid_and_current(self):
        """The committed CI baseline stays loadable and matches the registry."""
        import os

        baseline = os.path.join(os.path.dirname(__file__), "..",
                                "benchmarks", "baselines", "BENCH_smoke.json")
        doc = load_results(baseline)
        assert doc["suite"] == "smoke"
        from repro.bench.registry import load_builtin_cases

        registered = {c.name for c in load_builtin_cases().suite("smoke")}
        assert {c["name"] for c in doc["cases"]} == registered
