"""Tests for the repro.analysis contract linter (PR 7).

Each checker is driven over small known-good / known-bad fixture trees
written to tmp_path; the suite also covers the pragma grammar, the JSON
report schema, CLI exit codes, and an end-to-end clean run over the real
``src`` tree.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    CheckerRegistry,
    checker,
    run_analysis,
    scan_pragmas,
)
from repro.analysis.registry import DuplicateCheckerError, UnknownCheckerError
from repro.cli import analyze_main

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"


def write_tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def findings_for(tmp_path, files, rule=None):
    write_tree(tmp_path, files)
    report = run_analysis([str(tmp_path)])
    if rule is None:
        return report.findings
    return [f for f in report.findings if f.rule == rule]


class TestDet001:
    def test_unseeded_rng_flagged_anywhere(self, tmp_path):
        found = findings_for(tmp_path, {
            "util/helper.py": "import numpy as np\nrng = np.random.default_rng()\n",
        }, rule="DET001")
        assert len(found) == 1
        assert found[0].line == 2
        assert "derive_seed" in found[0].message

    def test_derive_seed_argument_exempts(self, tmp_path):
        found = findings_for(tmp_path, {
            "core/draws.py": (
                "import numpy as np\n"
                "from repro.prng import derive_seed\n"
                "def make(seed):\n"
                "    return np.random.default_rng(derive_seed(seed, 'draws'))\n"
            ),
        }, rule="DET001")
        assert found == []

    def test_random_module_and_urandom_flagged(self, tmp_path):
        found = findings_for(tmp_path, {
            "core/bad.py": (
                "import os\n"
                "import random\n"
                "x = random.random()\n"
                "y = os.urandom(8)\n"
            ),
        }, rule="DET001")
        assert sorted(f.line for f in found) == [3, 4]

    def test_wallclock_flagged_only_in_hot_path_dirs(self, tmp_path):
        files = {
            "core/engine.py": "import time\nt = time.perf_counter()\n",
            "bench/timing.py": "import time\nt = time.perf_counter()\n",
        }
        found = findings_for(tmp_path, files, rule="DET001")
        assert [f.path for f in found] == [str(tmp_path / "core" / "engine.py")]

    def test_pragma_with_reason_suppresses(self, tmp_path):
        write_tree(tmp_path, {
            "core/ok.py": (
                "import numpy as np\n"
                "rng = np.random.default_rng(7)  # det-ok: fixture seed\n"
            ),
        })
        report = run_analysis([str(tmp_path)])
        assert report.findings == []
        assert report.suppressed_by_pragma == 1

    def test_standalone_pragma_covers_next_line(self, tmp_path):
        write_tree(tmp_path, {
            "core/ok.py": (
                "import numpy as np\n"
                "# det-ok: fixture seed\n"
                "rng = np.random.default_rng(7)\n"
            ),
        })
        report = run_analysis([str(tmp_path)])
        assert report.findings == []
        assert report.suppressed_by_pragma == 1

    def test_reasonless_pragma_rejected_and_does_not_suppress(self, tmp_path):
        write_tree(tmp_path, {
            "core/bad.py": (
                "import numpy as np\n"
                "rng = np.random.default_rng()  # det-ok\n"
            ),
        })
        report = run_analysis([str(tmp_path)])
        rules = sorted(f.rule for f in report.findings)
        assert rules == ["DET001", "PRAGMA001"]
        assert report.suppressed_by_pragma == 0

    def test_wrong_token_does_not_suppress(self, tmp_path):
        found = findings_for(tmp_path, {
            "core/bad.py": (
                "import numpy as np\n"
                "rng = np.random.default_rng()  # alloc-ok: wrong token\n"
            ),
        }, rule="DET001")
        assert len(found) == 1


class TestDet002:
    def test_duplicate_labels_flagged_after_first(self, tmp_path):
        found = findings_for(tmp_path, {
            "a.py": "s1 = derive_seed(seed, 'stream')\n",
            "b.py": "s2 = derive_seed(seed, 'stream')\n",
            "c.py": "s3 = derive_seed(seed, 'other')\n",
        }, rule="DET002")
        assert len(found) == 1
        assert found[0].path.endswith("b.py")
        assert "a.py" in found[0].message

    def test_fstring_templates_collapse_to_duplicates(self, tmp_path):
        found = findings_for(tmp_path, {
            "a.py": "s1 = derive_seed(seed, f'lvl{i}')\n",
            "b.py": "s2 = derive_seed(seed, f'lvl{j}')\n",
        }, rule="DET002")
        assert len(found) == 1

    def test_unique_labels_clean(self, tmp_path):
        found = findings_for(tmp_path, {
            "a.py": "s1 = derive_seed(seed, 'one')\ns2 = derive_seed(seed, 'two')\n",
        }, rule="DET002")
        assert found == []


ALLOC_LOOP = (
    "import numpy as np\n"
    "def run(n):\n"
    "    for i in range(n):\n"
    "        buf = np.zeros(4)\n"
    "    return buf\n"
)


class TestAlloc001:
    def test_allocation_in_hot_loop_file_flagged(self, tmp_path):
        found = findings_for(tmp_path, {"core/updates.py": ALLOC_LOOP},
                             rule="ALLOC001")
        assert len(found) == 1
        assert found[0].severity == "warning"
        assert found[0].line == 4

    def test_allocation_outside_loop_clean(self, tmp_path):
        found = findings_for(tmp_path, {
            "core/updates.py": "import numpy as np\nbuf = np.zeros(4)\n",
        }, rule="ALLOC001")
        assert found == []

    def test_run_path_function_in_hot_dir_flagged(self, tmp_path):
        text = ALLOC_LOOP.replace("def run(", "def run_iteration(")
        found = findings_for(tmp_path, {"parallel/engine.py": text},
                             rule="ALLOC001")
        assert len(found) == 1

    def test_non_run_function_outside_hot_files_clean(self, tmp_path):
        text = ALLOC_LOOP.replace("def run(", "def helper(")
        found = findings_for(tmp_path, {"parallel/engine.py": text},
                             rule="ALLOC001")
        assert found == []

    def test_alloc_ok_pragma_suppresses(self, tmp_path):
        text = ALLOC_LOOP.replace(
            "buf = np.zeros(4)",
            "buf = np.zeros(4)  # alloc-ok: once per level, not per step")
        write_tree(tmp_path, {"core/fused.py": text})
        report = run_analysis([str(tmp_path)])
        assert [f for f in report.findings if f.rule == "ALLOC001"] == []
        assert report.suppressed_by_pragma == 1


class TestAlloc001PerIterationFunctions:
    """PR 8 extension: per-iteration functions are whole-body steady state."""

    FUNC_TOP_ALLOC = (
        "import numpy as np\n"
        "def iteration_draws(uniforms, plan, xp):\n"
        "    out = xp.empty((8, 4))\n"
        "    return out\n"
    )

    def test_function_top_alloc_flagged_without_a_loop(self, tmp_path):
        found = findings_for(tmp_path,
                             {"backend/draws.py": self.FUNC_TOP_ALLOC},
                             rule="ALLOC001")
        assert len(found) == 1
        assert found[0].line == 3
        assert "per-iteration function 'iteration_draws'" in found[0].message

    def test_run_iteration_host_scanned_too(self, tmp_path):
        text = self.FUNC_TOP_ALLOC.replace("def iteration_draws(",
                                           "def run_iteration_host(")
        found = findings_for(tmp_path, {"core/engine.py": text},
                             rule="ALLOC001")
        assert len(found) == 1

    def test_other_function_names_stay_loop_scoped(self, tmp_path):
        text = self.FUNC_TOP_ALLOC.replace("def iteration_draws(",
                                           "def helper_draws(")
        found = findings_for(tmp_path, {"backend/draws.py": text},
                             rule="ALLOC001")
        assert found == []

    def test_loop_and_whole_body_findings_deduplicate(self, tmp_path):
        text = (
            "import numpy as np\n"
            "def iteration_draws(plan, xp):\n"
            "    for seg in plan:\n"
            "        buf = xp.zeros(seg)\n"
            "    return buf\n"
        )
        found = findings_for(tmp_path, {"core/fused.py": text},
                             rule="ALLOC001")
        assert len(found) == 1  # one site, one finding — not loop + body

    def test_alloc_ok_pragma_suppresses_whole_body_finding(self, tmp_path):
        text = self.FUNC_TOP_ALLOC.replace(
            "out = xp.empty((8, 4))",
            "out = xp.empty((8, 4))  # alloc-ok: grow-on-demand scratch")
        write_tree(tmp_path, {"backend/draws.py": text})
        report = run_analysis([str(tmp_path)])
        assert [f for f in report.findings if f.rule == "ALLOC001"] == []
        assert report.suppressed_by_pragma == 1


class TestAlloc001ChunkStep:
    """The one chunk loop and every engine's per-iteration step are
    whole-body scanned wherever they live in a hot-path directory."""

    CHUNK_STEP = (
        "def step_units(units, backend, coords, eta, iteration):\n"
        "    for rng, plans in units:\n"
        "        for chunk in plans:\n"
        "            block = rng.next_double_block(chunk.calls)\n"
        "            backend.run_iteration(chunk, coords, block, eta,"
        " iteration)\n"
    )

    def test_allocation_in_chunk_step_flagged(self, tmp_path):
        text = self.CHUNK_STEP.replace("next_double_block(chunk.calls)",
                                       "next_double_block(chunk.calls).copy()")
        found = findings_for(tmp_path, {"core/base.py": text},
                             rule="ALLOC001")
        assert len(found) == 1
        assert found[0].line == 4
        assert "per-iteration function 'step_units'" in found[0].message

    def test_allocation_free_chunk_step_clean(self, tmp_path):
        found = findings_for(tmp_path, {"core/base.py": self.CHUNK_STEP},
                             rule="ALLOC001")
        assert found == []

    def test_allocation_in_engine_step_flagged(self, tmp_path):
        found = findings_for(tmp_path, {"parallel/engine.py": (
            "import numpy as np\n"
            "def session(layout):\n"
            "    def step(eta, iteration, t_iter):\n"
            "        return np.zeros(4)\n"
            "    yield step\n"
        )}, rule="ALLOC001")
        assert len(found) == 1
        assert found[0].line == 4


class TestMem001:
    ITER_SCALE_ALLOC = (
        "import numpy as np\n"
        "def draws(total_terms, xp):\n"
        "    return xp.empty((8, total_terms))\n"
    )

    def test_iteration_scale_alloc_in_hot_dir_flagged(self, tmp_path):
        found = findings_for(tmp_path,
                             {"core/fused.py": self.ITER_SCALE_ALLOC},
                             rule="MEM001")
        assert len(found) == 1
        assert found[0].severity == "warning"
        assert "total_terms" in found[0].message
        assert "memory_budget" in found[0].message

    def test_bulk_prng_draw_sized_by_iteration_flagged(self, tmp_path):
        found = findings_for(tmp_path, {
            "prng/streams.py": (
                "def block(rng, plan):\n"
                "    return rng.next_double_block(plan.calls_per_iteration)\n"
            ),
        }, rule="MEM001")
        assert len(found) == 1
        assert "calls_per_iteration" in found[0].message

    def test_attribute_spelling_of_scale_name_flagged(self, tmp_path):
        found = findings_for(tmp_path, {
            "backend/x.py": (
                "import numpy as np\n"
                "def stage(result, xp):\n"
                "    return xp.zeros(result.terms_per_iteration)\n"
            ),
        }, rule="MEM001")
        assert len(found) == 1

    def test_chunk_sized_alloc_clean(self, tmp_path):
        found = findings_for(tmp_path, {
            "core/fused.py": (
                "import numpy as np\n"
                "def draws(chunk_terms, xp):\n"
                "    return xp.empty((8, chunk_terms))\n"
            ),
        }, rule="MEM001")
        assert found == []

    def test_outside_hot_path_dirs_clean(self, tmp_path):
        found = findings_for(tmp_path,
                             {"bench/cases/big.py": self.ITER_SCALE_ALLOC},
                             rule="MEM001")
        assert found == []

    def test_mem_ok_pragma_suppresses(self, tmp_path):
        text = self.ITER_SCALE_ALLOC.replace(
            "return xp.empty((8, total_terms))",
            "return xp.empty((8, total_terms))  "
            "# mem-ok: plan is budget-bounded by build_iteration_plans")
        write_tree(tmp_path, {"core/fused.py": text})
        report = run_analysis([str(tmp_path)])
        assert [f for f in report.findings if f.rule == "MEM001"] == []
        assert report.suppressed_by_pragma >= 1


class TestXp001:
    def test_np_call_in_backend_function_flagged(self, tmp_path):
        found = findings_for(tmp_path, {
            "m.py": (
                "import numpy as np\n"
                "def apply(x, xp):\n"
                "    return np.sqrt(x)\n"
            ),
        }, rule="XP001")
        assert len(found) == 1
        assert "apply" in found[0].message

    def test_xp_call_and_plain_function_clean(self, tmp_path):
        found = findings_for(tmp_path, {
            "m.py": (
                "import numpy as np\n"
                "def apply(x, xp):\n"
                "    return xp.sqrt(x)\n"
                "def host_only(x):\n"
                "    return np.sqrt(x)\n"
            ),
        }, rule="XP001")
        assert found == []

    def test_dtype_reference_and_allowlist_clean(self, tmp_path):
        found = findings_for(tmp_path, {
            "m.py": (
                "import numpy as np\n"
                "def apply(x, backend):\n"
                "    eps = np.finfo(np.float64).eps\n"
                "    return backend.xp.asarray(x, dtype=np.float64) + eps\n"
            ),
        }, rule="XP001")
        assert found == []

    def test_xp_ok_pragma_suppresses(self, tmp_path):
        write_tree(tmp_path, {
            "m.py": (
                "import numpy as np\n"
                "def apply(x, xp):\n"
                "    return np.asarray(x)  # xp-ok: host staging buffer\n"
            ),
        })
        report = run_analysis([str(tmp_path)])
        assert [f for f in report.findings if f.rule == "XP001"] == []


SHM_GOOD = (
    "def parent(payload):\n"
    "    block = SharedArrayBlock.create(payload)\n"
    "    try:\n"
    "        use(block)\n"
    "    finally:\n"
    "        block.unlink()\n"
)
SHM_BAD_CREATE = (
    "def parent(payload):\n"
    "    block = SharedArrayBlock.create(payload)\n"
    "    use(block)\n"
)
SHM_BAD_ATTACH = (
    "def worker(name):\n"
    "    block = SharedArrayBlock.attach(name)\n"
    "    use(block)\n"
    "    block.unlink()\n"
)
SHM_GOOD_ATTACH = (
    "def worker(name):\n"
    "    block = SharedArrayBlock.attach(name)\n"
    "    try:\n"
    "        use(block)\n"
    "    finally:\n"
    "        block.close()\n"
)


class TestShm001:
    def test_create_with_finally_unlink_clean(self, tmp_path):
        assert findings_for(tmp_path, {"m.py": SHM_GOOD}, rule="SHM001") == []

    def test_create_without_finally_unlink_flagged(self, tmp_path):
        found = findings_for(tmp_path, {"m.py": SHM_BAD_CREATE}, rule="SHM001")
        assert len(found) == 1
        assert found[0].line == 2

    def test_attacher_unlinking_flagged(self, tmp_path):
        found = findings_for(tmp_path, {"m.py": SHM_BAD_ATTACH}, rule="SHM001")
        assert len(found) == 1
        assert found[0].line == 4

    def test_attacher_closing_clean(self, tmp_path):
        assert findings_for(tmp_path, {"m.py": SHM_GOOD_ATTACH},
                            rule="SHM001") == []

    def test_shm_ok_pragma_suppresses_ownership_transfer(self, tmp_path):
        text = SHM_BAD_CREATE.replace(
            "SharedArrayBlock.create(payload)",
            "SharedArrayBlock.create(payload)  # shm-ok: caller unlinks")
        write_tree(tmp_path, {"m.py": text})
        report = run_analysis([str(tmp_path)])
        assert [f for f in report.findings if f.rule == "SHM001"] == []


class TestObs001:
    def test_raw_clock_read_in_hot_path_flagged(self, tmp_path):
        found = findings_for(tmp_path, {
            "core/engine.py": "import time\nt = time.perf_counter()\n",
        }, rule="OBS001")
        assert len(found) == 1
        assert found[0].line == 2
        assert "repro.obs.clock" in found[0].message

    def test_clock_seam_alias_is_clean(self, tmp_path):
        found = findings_for(tmp_path, {
            "core/engine.py": (
                "from repro.obs import clock as obs_clock\n"
                "t = obs_clock.perf_counter()\n"
                "m = obs_clock.monotonic()\n"
            ),
        }, rule="OBS001")
        assert found == []

    def test_non_hot_path_dirs_exempt(self, tmp_path):
        found = findings_for(tmp_path, {
            "bench/timing.py": "import time\nt = time.perf_counter()\n",
            "obs/clock.py": "import time\nt = time.monotonic()\n",
        }, rule="OBS001")
        assert found == []

    def test_monotonic_and_time_time_flagged_too(self, tmp_path):
        found = findings_for(tmp_path, {
            "parallel/engine.py": (
                "import time\n"
                "a = time.monotonic()\n"
                "b = time.time()\n"
            ),
        }, rule="OBS001")
        assert sorted(f.line for f in found) == [2, 3]

    def test_obs_ok_pragma_suppresses(self, tmp_path):
        # One pragma per line: the standalone det-ok covers the read's why,
        # the trailing obs-ok its how — both findings suppressed.
        write_tree(tmp_path, {
            "core/engine.py": (
                "import time\n"
                "# det-ok: reporting only\n"
                "t = time.perf_counter()  # obs-ok: seam bootstrap\n"
            ),
        })
        report = run_analysis([str(tmp_path)])
        assert [f for f in report.findings
                if f.rule in ("OBS001", "DET001")] == []
        assert report.suppressed_by_pragma == 2

    def test_complementary_to_det001(self, tmp_path):
        """A raw hot-path clock read trips both the why- and how-rules."""
        rules = sorted(f.rule for f in findings_for(tmp_path, {
            "core/engine.py": "import time\nt = time.perf_counter()\n",
        }))
        assert rules == ["DET001", "OBS001"]


class TestRobust001:
    def test_bare_recv_in_parallel_flagged(self, tmp_path):
        found = findings_for(tmp_path, {
            "parallel/runtime.py": (
                "def wait(conn):\n"
                "    return conn.recv()\n"
            ),
        }, rule="ROBUST001")
        assert len(found) == 1
        assert found[0].line == 2
        assert "supervisor" in found[0].message

    def test_untimed_join_in_parallel_flagged(self, tmp_path):
        found = findings_for(tmp_path, {
            "parallel/runtime.py": (
                "def stop(proc):\n"
                "    proc.terminate()\n"
                "    proc.join()\n"
            ),
        }, rule="ROBUST001")
        assert len(found) == 1
        assert found[0].line == 3
        assert "timeout" in found[0].message

    def test_timed_join_and_str_join_clean(self, tmp_path):
        found = findings_for(tmp_path, {
            "parallel/runtime.py": (
                "def stop(proc, parts):\n"
                "    proc.join(timeout=5.0)\n"
                "    proc.join(5.0)\n"
                "    return ', '.join(parts)\n"
            ),
        }, rule="ROBUST001")
        assert found == []

    def test_outside_parallel_dir_exempt(self, tmp_path):
        found = findings_for(tmp_path, {
            "obs/listener.py": (
                "def wait(conn, proc):\n"
                "    proc.join()\n"
                "    return conn.recv()\n"
            ),
        }, rule="ROBUST001")
        assert found == []

    def test_robust_ok_pragma_suppresses_poll_guarded_recv(self, tmp_path):
        write_tree(tmp_path, {
            "parallel/runtime.py": (
                "def wait(conn):\n"
                "    if conn.poll(0.05):\n"
                "        return conn.recv()  # robust-ok: poll-guarded\n"
            ),
        })
        report = run_analysis([str(tmp_path)])
        assert [f for f in report.findings if f.rule == "ROBUST001"] == []
        assert report.suppressed_by_pragma == 1


class TestCext001:
    def test_library_loads_outside_the_loader_flagged(self, tmp_path):
        found = findings_for(tmp_path, {
            "metrics/fast.py": (
                "import ctypes\n"
                "from ctypes import cdll\n"
                "import numpy as np\n"
                "a = ctypes.CDLL('libm.so.6')\n"
                "b = cdll.LoadLibrary('libm.so.6')\n"
                "c = np.ctypeslib.load_library('libk', '.')\n"
            ),
        }, rule="CEXT001")
        assert sorted(f.line for f in found) == [4, 5, 6]
        assert "repro/backend/cext.py" in found[0].message

    def test_the_loader_and_plain_ctypes_use_clean(self, tmp_path):
        found = findings_for(tmp_path, {
            "backend/cext.py": "import ctypes\nlib = ctypes.CDLL('k.so')\n",
            "metrics/stress.py": (
                "import ctypes\n"
                "size = ctypes.sizeof(ctypes.c_double)\n"
                "ptr = ctypes.c_void_p(0)\n"
            ),
        }, rule="CEXT001")
        assert found == []

    def test_cext_ok_pragma_suppresses(self, tmp_path):
        write_tree(tmp_path, {
            "core/probe.py": (
                "import ctypes\n"
                "libc = ctypes.CDLL(None)  # cext-ok: the process's own symbols\n"
            ),
        })
        report = run_analysis([str(tmp_path)])
        assert [f for f in report.findings if f.rule == "CEXT001"] == []
        assert report.suppressed_by_pragma == 1


class TestPragmaScanner:
    def test_scan_finds_tokens_and_reasons(self):
        lines = [
            "x = 1  # det-ok: reason here",
            "# alloc-ok: standalone reason",
            "y = 2",
            "z = 3  # det-ok",
        ]
        pragmas = scan_pragmas(lines, ("det-ok", "alloc-ok"))
        same_line = pragmas[1][0]
        assert same_line.token == "det-ok" and same_line.valid
        assert same_line.lines_covered() == [1]
        standalone = pragmas[2][0]
        assert standalone.standalone and standalone.valid
        assert standalone.lines_covered() == [2, 3]
        reasonless = pragmas[4][0]
        assert not reasonless.valid

    def test_unknown_tokens_ignored(self):
        assert scan_pragmas(["x  # noqa: E501"], ("det-ok",)) == {}


class TestParseErrors:
    def test_syntax_error_reported_as_parse001(self, tmp_path):
        found = findings_for(tmp_path, {"m.py": "def broken(:\n"})
        assert [f.rule for f in found] == ["PARSE001"]


class TestExitCodesAndReport:
    def test_error_findings_exit_1_regardless_of_strict(self, tmp_path):
        write_tree(tmp_path, {"core/m.py": "import numpy as np\nrng = np.random.default_rng()\n"})
        report = run_analysis([str(tmp_path)])
        assert report.exit_code(strict=False) == 1
        assert report.exit_code(strict=True) == 1

    def test_warnings_exit_1_only_under_strict(self, tmp_path):
        write_tree(tmp_path, {"core/updates.py": ALLOC_LOOP})
        report = run_analysis([str(tmp_path)])
        assert all(f.severity == "warning" for f in report.findings)
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1

    def test_json_report_schema(self, tmp_path):
        write_tree(tmp_path, {"core/m.py": "import numpy as np\nrng = np.random.default_rng()\n"})
        report = run_analysis([str(tmp_path)])
        payload = json.loads(report.format_json())
        assert payload["version"] == 1
        assert payload["files_analyzed"] == 1
        assert set(payload["counts"]) == {"error", "warning"}
        finding = payload["findings"][0]
        assert {"rule", "path", "line", "col", "severity", "message",
                "snippet"} <= set(finding)
        assert sorted(payload["rules"]) == payload["rules"]


class TestCli:
    def test_analyze_clean_tree_exits_0(self, tmp_path, capsys):
        write_tree(tmp_path, {"m.py": "x = 1\n"})
        assert analyze_main([str(tmp_path), "--strict"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_analyze_bad_tree_exits_1(self, tmp_path, capsys):
        write_tree(tmp_path, {"core/m.py": "import numpy as np\nrng = np.random.default_rng()\n"})
        assert analyze_main([str(tmp_path)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_analyze_missing_path_exits_2(self, tmp_path, capsys):
        assert analyze_main([str(tmp_path / "nope")]) == 2

    def test_json_format_output(self, tmp_path, capsys):
        write_tree(tmp_path, {"m.py": "x = 1\n"})
        assert analyze_main([str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []

    def test_real_src_tree_is_clean_under_strict(self, capsys):
        assert analyze_main([str(SRC_ROOT), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out


class TestRegistry:
    def test_duplicate_rule_registration_rejected(self):
        registry = CheckerRegistry()

        @checker("X001", pragma="x-ok", registry=registry)
        def first(src):
            return []

        with pytest.raises(DuplicateCheckerError):
            @checker("X001", pragma="x-ok", registry=registry)
            def second(src):
                return []

    def test_unknown_rule_lookup_rejected(self):
        registry = CheckerRegistry()
        with pytest.raises(UnknownCheckerError):
            registry.get("NOPE001")
