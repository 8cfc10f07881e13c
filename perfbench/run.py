"""vcnn benchmark: one workload, measured for a fixed time, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload gunn-m7 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` every job runs as its own ``vcnn`` child process, one
at a time (a closed loop with one client), and the end-to-end metrics are
measured from outside. With ``--trace 1`` a runner child drives the same
jobs in-process with the public ``vcnn`` functions wrapped, and reports
the per-layer metrics. Either way the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The full
record of the run, with environment and output fingerprints, is appended
to ``perfbench/.work/results.jsonl``; ``perfbench/compare.py`` compares
two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import workloads
from harness import HERE, ChildExecutor, RunState, median, run_pass
from proc import child_env, run_child

ENV_PROBE = """
import importlib, json, os, platform, numpy
try:
    importlib.import_module("numba")
    numba = True
except ImportError:
    numba = False
import vcnn.kernels
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "nproc": len(os.sched_getaffinity(0)),
    "numba_imports": numba,
    "backend": getattr(vcnn.kernels, "BACKEND", "none"),
}))
"""
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 150.0


def probe_environment(env: dict, root: str, work: str) -> dict | None:
    out = os.path.join(work, "env.json")
    res = run_child([sys.executable, "-c", ENV_PROBE], env, root, out, timeout_s=60)
    if res.exit_code != 0:
        return None
    with open(out) as fh:
        return json.load(fh)


def measure_setup(env: dict, root: str) -> list[float]:
    """Wall times of fresh interpreters running ``import vcnn.cli``, after one warm-up."""
    argv = [sys.executable, "-c", "import vcnn.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        res = run_child(argv, env, root, timeout_s=60)
        if res.exit_code != 0:
            return []
        if i:
            times.append(res.wall_s)
    return times


def untraced_run(jobs, env: dict, root: str, work: str, seconds: float) -> dict:
    setup = measure_setup(env, root)
    executor = ChildExecutor(env, root, CHILD_TIMEOUT_S)
    state = RunState()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(jobs, executor, work, state))
    labellings = sum(p.labellings for p in passes)
    # A typical pass: each job at its median over the run's passes.
    wall = sum(median(walls) for walls in zip(*(p.job_walls for p in passes)))
    metrics = {
        "setup_s": (median(setup), "s"),
        "wall_s": (wall, "s"),
        "labellings_per_s": (passes[0].labellings / wall, "1/s"),
        "peak_rss_mb": (max(p.peak_rss_mb for p in passes), "MB"),
        "realised_frac": (sum(p.realised for p in passes) / labellings if labellings else 0.0,
                          "ratio"),
    }
    failures = state.failures if setup else ["import vcnn.cli failed"] + state.failures
    return {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes) + (0 if setup else 1),
        "failures": failures,
        "fingerprints": state.fingerprints,
        "passes": [p.wall_s for p in passes],
        "setup_samples": setup,
        "metrics": metrics,
    }


def traced_run(jobs, env: dict, root: str, work: str, seconds: float) -> dict:
    jobs_path = os.path.join(work, "jobs.json")
    out_path = os.path.join(work, "traced.json")
    with open(jobs_path, "w") as fh:
        json.dump(workloads.to_json(jobs), fh)
    argv = [sys.executable, os.path.join(HERE, "traced.py"), "--jobs", jobs_path, "--work", work,
            "--seconds", str(seconds), "--out", out_path,
            "--spans", os.path.join(work, "spans.jsonl")]
    res = run_child(argv, env, root, os.path.join(work, "traced.out"),
                    os.path.join(work, "traced.err"), timeout_s=170)
    if res.exit_code != 0:
        return {"attempted": 1, "failed": 1, "metrics": {},
                "failures": [f"traced runner exited {res.exit_code}"]}
    with open(out_path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vcnn benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vcnn", "cli.py")):
        print("perfbench: src/vcnn not found; run from the root of a vcnn checkout",
              file=sys.stderr)
        return 2
    work_root = os.path.join(HERE, ".work")
    work = os.path.join(work_root, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env(root)
    environment = probe_environment(env, root, work)
    if environment is None:
        print("perfbench: the vcnn package does not import", file=sys.stderr)
        return 1

    jobs = workloads.WORKLOADS[args.workload](args.seed, work)
    run = traced_run if args.trace else untraced_run
    record = run(jobs, env, root, work, args.seconds)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment)
    record["fingerprints"] = {key.replace(work + os.sep, ""): value
                              for key, value in record.get("fingerprints", {}).items()}
    with open(os.path.join(work_root, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")

    correct = record["failed"] == 0 and record["attempted"] > 0
    metrics = {}
    for name, entry in record["metrics"].items():
        metrics[name] = {"value": entry[0], "unit": entry[1]}
        if len(entry) > 2:
            metrics[name]["absent"] = entry[2]
    for line in record.get("failures", [])[:20]:
        print(f"FAILED {line}")
    print(json.dumps({"environment": environment, "fingerprints": record["fingerprints"]}))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
