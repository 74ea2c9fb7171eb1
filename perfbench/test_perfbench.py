"""Tests of the benchmark itself, on the tiny size of every workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, tmp_path, trace, refs=None):
    return harness.bench(
        workload, seed=7, seconds=0, trace=trace, size="tiny",
        workdir=str(tmp_path), refs=refs, setup_repeats=1,
    )


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_untraced_run_is_correct_and_complete(workload, tmp_path):
    metrics, extra, tally = _bench(workload, tmp_path, trace=False)
    assert tally.failed == 0, tally.failures
    assert len(extra["pass_times_s"]) >= harness.MIN_PASSES
    assert metrics["wall_s"]["value"] == statistics.fmean(extra["pass_times_s"])
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_traced_run_reports_every_layer_metric(workload, tmp_path):
    from slnapprox import cli, engine, enumeration

    originals = (engine.find_witness, engine.enumerate_points, cli.main)
    metrics, _, tally = _bench(workload, tmp_path, trace=True)
    assert tally.failed == 0, tally.failures
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert all(m["value"] is not None for m in metrics.values())
    # the hooks are gone once the run ends
    assert (engine.find_witness, engine.enumerate_points, cli.main) == originals
    assert enumeration.enumerate_points is engine.enumerate_points


def test_traced_counters_follow_the_work(tmp_path):
    metrics, _, _ = _bench("witness_sweep", tmp_path, trace=True)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["enumeration.calls"] == len(workloads.WITNESS_CALLS["tiny"])
    assert value["engine.candidates"] == value["enumeration.points"]
    assert value["core.family_values_calls"] == value["engine.candidates"]
    assert (
        value["sieve.coprime_part_calls"]
        == value["engine.candidates"] - value["engine.zero_values_skipped"]
    )
    assert 0 < value["engine.first_unit_share"] <= 1
    assert value["engine.find_witness_self_s"] > 0


def test_wrong_reference_counts_as_failed_operation(tmp_path):
    refs = harness.load_references()
    ops = workloads.witness_ops(7, "tiny", str(tmp_path))
    refs[ops[0].key] = dict(refs[ops[0].key], factor_count=refs[ops[0].key]["factor_count"] + 1)
    _, _, tally = _bench("witness_sweep", tmp_path, trace=False, refs=refs)
    passes = tally.attempted // len(ops)
    assert tally.failed == passes > 0
    assert all(f.startswith(ops[0].key) for f in tally.failures)


def test_wrong_count_reference_counts_as_failed_operation(tmp_path):
    refs = harness.load_references()
    for n in workloads.COUNT_PRIME_PAIRS["tiny"][0]:
        rows = refs[f"count_cells/n={n}"]["rows"]
        rows[3] = [*rows[3][:2], rows[3][2] + 1, rows[3][3]]
    ops = workloads.pipeline_ops(7, "tiny", str(tmp_path))
    _, _, tally = _bench("cli_pipeline", tmp_path, trace=False, refs=refs)
    assert tally.failed == tally.attempted // len(ops) > 0
    assert all(f.startswith("count_cells/") for f in tally.failures)


def test_missing_hook_reads_null(tmp_path, monkeypatch):
    from slnapprox import densities

    # witness_sweep never calls delta_n, so the workload still runs
    monkeypatch.delattr(densities, "delta_n")
    metrics, _, tally = _bench("witness_sweep", tmp_path, trace=True)
    assert tally.failed == 0
    assert metrics["densities.delta_n_s"]["value"] is None
    assert metrics["densities.words_sampled"]["value"] is None
    assert metrics["enumeration.points"]["value"] > 0
    assert metrics["densities.density_table_s"]["value"] == 0


def test_metric_definitions_agree_with_benchmark_json():
    defined = json.loads((BENCH_DIR / "metrics.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        keys = SPEC[kind][0].keys()
        assert SPEC[kind] == [{k: m[k] for k in keys} for m in defined[kind]]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_every_seed_draws_inputs_with_references(tmp_path):
    refs = harness.load_references()
    for seed in range(40):
        for name, workload in workloads.WORKLOADS.items():
            for size in workloads.SIZES:
                for op in workload.ops(seed, size, str(tmp_path)):
                    assert op.key in refs


def test_command_line_prints_result_last(tmp_path):
    res = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "cli_pipeline",
         "--seed", "3", "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert not list(BENCH_DIR.glob(".work-*"))


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    res = subprocess.run(
        [*SPEC["command"], "--workload", "cli_pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert res.returncode != 0
    assert res.stdout == ""
