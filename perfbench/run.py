"""Repository benchmark: GFA in, layout out, on the path ``repro layout`` takes.

Usage, from the repository root::

    python3 perfbench/run.py --workload chr1-flat --seed 1 --seconds 25 --trace 0

Closed loop with one client: runs go one at a time, each in a fresh child
process (``perfbench/pipeline.py``) timed after its imports, until
``--seconds`` have passed. End-to-end metrics are medians over the runs;
their timings are calibrated against a fixed reference workload timed in
each run (``calibrate.py``), because the host's speed drifts.
``--trace 1`` alternates untraced and traced runs and reports per-layer
metrics (medians over the traced runs) and the tracing overhead instead.

Before the timed runs, untimed: the workload's GFA is generated from the
seed (or taken from the content-hash cache under ``.perfbench/``), parsed
back and compared with the generated graph, and on ``chr1-flat`` the
layout of ``python -m repro.cli layout`` is computed once for the parity
check. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every run's details,
including the sha256 of its ``.lay`` output, go to ``.perfbench/results/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: One invocation stops starting runs so that it ends well within 180 s.
DEADLINE_S = 165.0
#: Traced runs: the spans' self times must sum to the traced wall time
#: within this share (the rest is glue between the top-level calls).
SELF_SUM_TOLERANCE = 0.05

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sgd_terms_per_s": "terms/s",
    "output_s": "s",
    "peak_rss_mb": "MiB",
}
COUNTS = ("calls", "draws", "segments", "terms", "dispatches")


def layer_unit(name: str) -> str:
    leaf = name.split(".")[-1]
    for unit in ("ns", "us"):
        if leaf.startswith(f"{unit}_per_") or f"_{unit}_per_" in leaf:
            return unit
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("_mb"):
        return "MiB"
    return "count" if leaf in COUNTS else "ratio"


def child_env() -> dict:
    """The pinned environment of every child: numpy backend, fork start
    method for shm workers, no fault plan."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"}
    env.update(REPRO_BACKEND="numpy", REPRO_SHM_START="fork",
               PYTHONPATH=str(SRC))
    return env


def run_child(cmd: list, timeout: float):
    """Run ``cmd`` in its own session; returns (returncode, stdout, stderr),
    with returncode None on timeout. The whole process group is killed and
    reaped on timeout, so no shm worker outlives it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err


def one_run(cfg: dict, timeout: float) -> dict:
    code, out, err = run_child(
        [sys.executable, str(HERE / "pipeline.py"), json.dumps(cfg)], timeout)
    if code is None:
        return {"problems": [f"timed out after {timeout:.0f} s"]}
    if code != 0:
        tail = err.strip().splitlines()[-1:] or [f"exit code {code}"]
        return {"problems": [f"raised: {tail[0]}"]}
    return json.loads(out.strip().splitlines()[-1])


def cli_layout_sha(workload, seed: int, gfa: Path, out_dir: Path,
                   timeout: float):
    out_dir.mkdir(parents=True, exist_ok=True)
    out_lay = out_dir / "cli.lay"
    code, _, err = run_child(
        [sys.executable, "-m", "repro.cli",
         *workload.cli_args(seed, gfa, out_lay)], timeout)
    if code != 0:
        return None, f"repro layout failed: {err.strip()[-200:]}"
    return hashlib.sha256(out_lay.read_bytes()).hexdigest(), None


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("REPRO_FAULTS"):
        print("refusing to run: REPRO_FAULTS is set", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    from pipeline import STRESS_SAMPLES_PER_STEP, lean_digest
    from repro.core.layout import initialize_layout
    from repro.metrics import sampled_path_stress
    from workloads import WORKLOADS, cached_gfa, graph_seed, roundtrip_problems

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    t_start = time.monotonic()
    workload = WORKLOADS[args.workload]
    seed = graph_seed(args.seed)
    run_dir = WORK / "runs" / f"{workload.name}-{seed}-trace{args.trace}"

    # Untimed set-up: inputs, their round trip, the stress to beat.
    gfa, graph = cached_gfa(workload, args.seed, WORK / "cache")
    problems = roundtrip_problems(gfa, graph)
    expected_lean = lean_digest(graph)
    initial_stress = sampled_path_stress(
        initialize_layout(graph, seed=seed), graph,
        samples_per_step=STRESS_SAMPLES_PER_STEP, seed=seed).value
    sizes = {"nodes": graph.n_nodes, "steps": graph.total_steps,
             "paths": graph.n_paths}
    del graph
    gc.collect()
    cli_sha = None
    if workload.cli_parity:
        cli_sha, error = cli_layout_sha(workload, seed, gfa, run_dir,
                                        DEADLINE_S / 3)
        if error:
            problems.append(error)

    records = []
    t_loop = time.monotonic()
    last = 0.0
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        cfg = {"gfa": str(gfa), "params": workload.params(seed),
               "out_dir": str(run_dir / "out"), "trace": traced}
        left = DEADLINE_S - (time.monotonic() - t_start)
        t_run = time.monotonic()
        record = one_run(cfg, left)
        last = time.monotonic() - t_run
        record["traced"] = traced
        records.append(record)
        done = time.monotonic() - t_loop >= args.seconds
        if done and (not args.trace or len(records) >= 2):
            break
        if time.monotonic() - t_start + 1.5 * last > DEADLINE_S:
            break

    # Per-run output checks.
    reference = None
    for record in records:
        if "wall_s" not in record:
            continue
        if record["lean_sha256"] != expected_lean:
            record["problems"].append("parsed graph differs from the generated one")
        if not record["path_stress"] < initial_stress:
            record["problems"].append(
                f"path stress {record['path_stress']:.6g} not below the "
                f"initial layout's {initial_stress:.6g}")
        if workload.flat:
            reference = reference or record["lay_sha256"]
            if record["lay_sha256"] != reference:
                record["problems"].append(".lay differs from the first run's")
        if record["traced"]:
            share = record["layers"]["trace.self_sum_fraction"]
            if abs(share - 1.0) > SELF_SUM_TOLERANCE:
                record["problems"].append(
                    f"layer self times cover {share:.3f} of traced wall_s")
    if cli_sha is not None and reference is not None and cli_sha != reference:
        problems.append("repro layout CLI wrote different .lay bytes")

    ok = [r for r in records if not r["problems"]]
    failed = len(records) - len(ok)
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if args.trace:
        names = list(traced[0]["layers"]) if traced else []
        metrics = {name: {"value": median([r["layers"][name] for r in traced]),
                          "unit": layer_unit(name)} for name in names}
        metrics["trace_overhead"] = {
            "value": (median([r["wall_s"] for r in traced])
                      / median([r["wall_s"] for r in plain]) - 1.0
                      if traced and plain else 0.0),
            "unit": "ratio"}
        metrics["quality.path_stress"] = {
            "value": median([r["path_stress"] for r in ok]), "unit": "stress"}
        metrics["quality.initial_path_stress"] = {
            "value": initial_stress, "unit": "stress"}
    else:
        metrics = {name: {"value": median([r["end_to_end"][name] for r in plain]),
                          "unit": unit} for name, unit in END_TO_END.items()}

    first = ok[0] if ok else {}
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": first.get("backend"),
        "start_method": first.get("start_method"),
        "terms_per_iteration": first.get("terms_per_iteration"),
        **sizes,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-{seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": workload.name, "seed": seed, "env": env,
                    "problems": problems, "gfa": gfa.name,
                    "cli_lay_sha256": cli_sha, "runs": records}, indent=1))
    shutil.rmtree(run_dir, ignore_errors=True)

    print(f"{workload.name} seed={seed}: {len(records)} runs, {failed} failed; "
          + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("  measured medians: " + ", ".join(
        f"{k}={median([r[k] for r in ok]):.4g}"
        for k in ("wall_s", "setup_s", "run_s", "output_s", "ref_s")))
    for problem in problems + [p for r in records for p in r["problems"]]:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
