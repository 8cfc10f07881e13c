"""Traced runner: one child process that runs a workload's jobs in-process.

CLI jobs call ``vcnn.cli.main(argv)`` and count jobs call
``shatter_coefficient_exhaustive``, exactly the commands and calls the
untraced run makes in separate processes. Passes alternate between
traced (wrappers installed) and untraced (wrappers removed), after one
untraced warm-up pass whose time is not used; the difference of their
median wall times is the tracing overhead.

    python3 perfbench/traced.py --jobs JOBS.json --work DIR --seconds S \
        --out RESULT.json --spans SPANS.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
import traceback

import count_child
import workloads
from harness import Outcome, RunState, median, run_pass
from spans import SpanRecorder, Tracer, summarize, write_spans
from workloads import CliJob


class InProcessExecutor:
    """Runs jobs inside this process, opening one ``job.<command>`` span per job when tracing."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.tracing = False
        self.jobs_run = 0

    def run(self, job, stdout_path: str, stderr_path: str) -> Outcome:
        self.recorder.run_id = self.jobs_run
        self.jobs_run += 1
        span = (self.recorder.span(f"job.{job.command}", extra=job.labellings)
                if self.tracing else contextlib.nullcontext())
        counts = ()
        with open(stdout_path, "w") as out, open(stderr_path, "w") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            with span:
                try:
                    if isinstance(job, CliJob):
                        code = sys.modules["vcnn.cli"].main(list(job.argv))
                    else:
                        spec = {"sets": job.sets, "rng_seed": job.rng_seed,
                                "trials": job.trials, "steps": job.steps}
                        counts = tuple(count_child.count_sets(sys.modules["vcnn"], spec))
                        code = 0
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # the run goes on; the job counts as failed
                    traceback.print_exc()
                    code = 1
            wall = time.perf_counter() - start
        return Outcome(code, wall, counts=counts)


def traced_run(jobs, work: str, seconds: float) -> dict:
    recorder = SpanRecorder()
    tracer = Tracer(recorder)
    executor = InProcessExecutor(recorder)
    state = RunState()
    walls = {False: [], True: []}
    attempted = failed = cert_bytes = 0

    def one_pass(tracing: bool):
        nonlocal attempted, failed, cert_bytes
        if tracing:
            tracer.install()
        executor.tracing = tracing
        try:
            result = run_pass(jobs, executor, work, state)
        finally:
            tracer.uninstall()
            executor.tracing = False
        attempted += result.attempted
        failed += result.failed
        if tracing:
            cert_bytes += result.cert_bytes
        return result.wall_s

    start = time.perf_counter()
    one_pass(False)   # warm-up: imports, caches; its time is not used
    tracing = True
    while True:
        walls[tracing].append(one_pass(tracing))
        if walls[False] and time.perf_counter() - start >= seconds:
            break
        tracing = not tracing
    passes = len(walls[True])
    metrics = summarize(recorder.spans, passes, tracer.absent)
    metrics["cli.main.witness.cert_mb"] = (cert_bytes / passes / 1e6, "MB")
    metrics["trace.wall_s"] = (median(walls[True]), "s")
    metrics["trace.untraced_wall_s"] = (median(walls[False]), "s")
    metrics["trace.overhead_s"] = (median(walls[True]) - median(walls[False]), "s")
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": state.failures,
        "fingerprints": state.fingerprints,
        "passes": {"traced": walls[True], "untraced": walls[False]},
        "metrics": metrics,
        "spans": recorder.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    import vcnn  # noqa: F401  (loads every vcnn.* module the tracer rebinds)
    import vcnn.cli  # noqa: F401

    with open(args.jobs) as fh:
        jobs = workloads.from_json(json.load(fh))
    result = traced_run(jobs, args.work, args.seconds)
    write_spans(result.pop("spans"), args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
