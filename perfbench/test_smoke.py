"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs gunn m=4, two counted point sets and one short job through the same
pass loop the benchmark uses, checks that a corrupted certificate counts
as a failure, and that the metric names match ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import checks
import workloads
from harness import ChildExecutor, RunState, run_pass
from proc import child_env

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _benchmark_names(section: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[section]}


def _executor():
    return ChildExecutor(child_env(ROOT), ROOT, timeout_s=120)


def test_gunn_m4_pass_is_correct(tmp_path):
    jobs = workloads.gunn_jobs(str(tmp_path), m=4)
    result = run_pass(jobs, _executor(), str(tmp_path), RunState())
    assert (result.attempted, result.failed) == (2, 0)
    assert result.labellings == result.realised == 2 * 512
    assert result.peak_rss_mb > 0 and result.cert_bytes > 0


def test_corrupted_certificate_counts_as_failure(tmp_path):
    witness, verify = workloads.gunn_jobs(str(tmp_path), m=4)
    state = RunState()
    assert run_pass([witness], _executor(), str(tmp_path), state).failed == 0
    with open(witness.path) as fh:
        doc = json.load(fh)
    target = doc["witnesses"]["0x1"]
    target["labels"] = [-label for label in target["labels"]]
    with open(witness.path, "w") as fh:
        json.dump(doc, fh)

    assert checks.check_certificate(witness.path, 4) == "labelling 0x1 misclassified"
    result = run_pass([verify], _executor(), str(tmp_path), state)
    assert (result.attempted, result.failed) == (1, 1)
    assert "verify" in state.failures[-1]


def test_two_counted_point_sets(tmp_path):
    jobs = workloads.count_jobs(seed=5, ns=(3, 4), ms=(3,), ds=(2,))
    state = RunState()
    result = run_pass(jobs, _executor(), str(tmp_path), state)
    assert (result.attempted, result.failed) == (2, 0), state.failures
    assert result.labellings == 8 + 16
    assert 4 <= result.realised <= 24


def test_one_short_job(tmp_path):
    jobs = [job for job in workloads.short_jobs(str(tmp_path), seed=0) if job.command == "bounds"]
    result = run_pass(jobs, _executor(), str(tmp_path), RunState())
    assert (result.attempted, result.failed) == (1, 0)


def test_traced_runner_reports_every_layer_metric(tmp_path):
    jobs = workloads.gunn_jobs(str(tmp_path), m=4)
    jobs_path = tmp_path / "jobs.json"
    jobs_path.write_text(json.dumps(workloads.to_json(jobs)))
    out = tmp_path / "traced.json"
    subprocess.run(
        [sys.executable, os.path.join(HERE, "traced.py"), "--jobs", str(jobs_path),
         "--work", str(tmp_path), "--seconds", "0", "--out", str(out),
         "--spans", str(tmp_path / "spans.jsonl")],
        env=child_env(ROOT), cwd=ROOT, check=True, timeout=120)
    result = json.loads(out.read_text())
    metrics = {name: entry[0] for name, entry in result["metrics"].items()}
    assert result["failed"] == 0
    assert set(metrics) == _benchmark_names("per_layer")
    assert metrics["classifier.evaluate_margins.verify.calls_per_labelling"] == 1.0
    assert metrics["constructions.gunn_shatter.calls"] == 512
    self_times = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == "constructions.gunn_shatter.self_s"


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "short-jobs",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _benchmark_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_directory_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gunn-m7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
