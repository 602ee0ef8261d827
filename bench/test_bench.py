"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ["mesh.n_vertices", "mesh.n_elements", "assembly.nnz_K", "assembly.nnz_P",
          "assembly.nnz_R", "system.nnz_S", "system.cg_iters", "smoother.model_bytes",
          "mesh.near_face_share_data", "mesh.near_face_share_query"]


def run_bench(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_harness():
    assert WORKLOADS == list(harness.SIZES["full"]) == list(harness.SIZES["smoke"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= harness.SIZES["smoke"][workload].rounds
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_exactly_for_a_seed():
    for workload in ("fit2d", "query2d"):
        first, second = (result_of(run_bench(workload, 1))["metrics"] for _ in range(2))
        assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    wl = harness.SIZES["smoke"]["query2d"]
    a, b, c = (harness.make_inputs(wl, seed) for seed in (5, 5, 6))
    assert np.array_equal(a[0].values, b[0].values) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0].values, c[0].values)
    # the raster rows lie on grid lines: every one of them is near a face
    assert harness.near_face_share(a[1][wl.n_query:], wl.cells) == 1.0


def test_above_tolerance_fit_counts_as_failed(tmp_path):
    # Jacobi-PCG plus refinement stalls above rtol here and returns no error;
    # the benchmark must count that as a failed operation.
    wl = replace(harness.SIZES["smoke"]["fit2d"], name="stalled", cells=(16, 16),
                 n_data=5000, alpha=1e6, rmse_band=(0.0, np.inf), rounds=3)
    tracer, ctx, outcome, _ = harness.run_workload(
        wl, 0, 0.0, False, ROOT / "src", out_dir=tmp_path)
    assert outcome.attempted == 3
    assert outcome.failed == outcome.attempted
    assert ctx.counts["system.rel_residual"] > harness.RTOL


def test_traced_build_matches_fit_and_spans_cover_it(tmp_path):
    wl = harness.SIZES["smoke"]["fit3d"]
    tracer, ctx, outcome, _ = harness.run_workload(
        wl, 1, 0.0, True, ROOT / "src", out_dir=tmp_path)
    assert outcome.failed == 0
    data, _, _, _ = harness.make_inputs(wl, 1)
    s, problems = harness.traced_fit(ctx, tracer)
    assert problems == []
    ref = harness.fit(data, ctx.mesh, harness.FitConfig(wl.alpha))
    assert np.array_equal(s.u, ref.u) and np.array_equal(s.sigma, ref.sigma)
    total = tracer.durations("fit")[-1]
    stages = ["data.admissible", "assembly", "system.condense", "system.solve",
              "system.recover"]
    covered = sum(tracer.durations(name)[-1] for name in stages)
    assert covered <= total
    assert tracer.self_times("fit")[-1] == pytest.approx(total - covered, abs=1e-9)
    assert tracer.self_times("fit")[-1] < 0.2 * total


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("fit2d", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
