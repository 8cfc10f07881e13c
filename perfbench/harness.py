"""Run a workload's jobs once (a pass), time them and check their outputs.

The same pass loop serves the untraced runs (``ChildExecutor``, one child
process per job) and the traced runner (an in-process executor in
``traced.py``). Checks run between jobs, outside the timed region: a
pass's wall time is the sum of its jobs' wall times.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
from dataclasses import dataclass, field

import checks
from proc import CLI_PRELUDE, run_child
from workloads import CliJob, CountJob

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Outcome:
    exit_code: int
    wall_s: float
    peak_rss_mb: float = 0.0
    counts: tuple = ()     # CountJob only: one count per point set
    note: str = ""         # why the job did not run to completion, if it did not


@dataclass
class PassResult:
    wall_s: float = 0.0
    labellings: int = 0    # labellings attempted: built, re-checked or searched
    realised: int = 0      # of those, the ones realised (or confirmed) correctly
    attempted: int = 0     # checked operations: one per command, one per point set
    failed: int = 0
    peak_rss_mb: float = 0.0
    cert_bytes: int = 0    # bytes of the certificates the witness commands wrote
    job_walls: list = field(default_factory=list)


@dataclass
class RunState:
    """What a run remembers across passes: re-check results and fingerprints."""

    rechecked: dict = field(default_factory=dict)      # sha256 -> reason or None
    fingerprints: dict = field(default_factory=dict)   # job key -> sha256 or counts
    failures: list = field(default_factory=list)       # one line per failed operation


class ChildExecutor:
    """Runs each job as a fresh ``python`` child of this process."""

    def __init__(self, env: dict, cwd: str, timeout_s: float = 150.0):
        self.env = env
        self.cwd = cwd
        self.timeout_s = timeout_s

    def run(self, job, stdout_path: str, stderr_path: str) -> Outcome:
        if isinstance(job, CliJob):
            argv = [sys.executable, "-c", CLI_PRELUDE, *job.argv]
        else:
            spec = os.path.splitext(stdout_path)[0] + ".sets.json"
            with open(spec, "w") as fh:
                json.dump({"sets": job.sets, "rng_seed": job.rng_seed,
                           "trials": job.trials, "steps": job.steps}, fh)
            argv = [sys.executable, os.path.join(HERE, "count_child.py"), spec]
        res = run_child(argv, self.env, self.cwd, stdout_path, stderr_path, self.timeout_s)
        note = f"killed after {self.timeout_s:.0f} s" if res.timed_out else ""
        counts = ()
        if isinstance(job, CountJob) and res.exit_code == 0:
            try:
                with open(stdout_path) as fh:
                    counts = tuple(json.load(fh)["counts"])
            except (OSError, ValueError, KeyError) as exc:
                note = f"unreadable counts: {exc}"
        return Outcome(res.exit_code, res.wall_s, res.peak_rss_mb, counts, note)


def _tail(path: str) -> str:
    try:
        with open(path, errors="replace") as fh:
            lines = fh.read().strip().splitlines()
    except OSError:
        return ""
    return lines[-1][:200] if lines else ""


def _check_cli(job: CliJob, stdout_path: str, state: RunState) -> str | None:
    if job.check == "search_found":
        return checks.check_search_found(stdout_path)
    if job.check == "bounds_csv":
        return checks.check_bounds_csv(job.path, job.expect)
    if job.check == "plot_csv":
        return checks.check_plot_csv(job.path, job.expect)
    try:
        sha = checks.sha256_file(job.path)
    except OSError as exc:
        return f"no output file: {exc}"
    if sha not in state.rechecked:
        if job.check == "certificate":
            state.rechecked[sha] = checks.check_certificate(job.path, job.expect)
        else:
            state.rechecked[sha] = checks.check_polytope_square(job.path)
    if job.command == "witness":
        reason = _fingerprint(state, " ".join(job.argv), sha)
        if reason:
            return reason
    return state.rechecked[sha]


def _fingerprint(state: RunState, key: str, value) -> str | None:
    """Remember an output's fingerprint; a change within one run is a failure."""
    previous = state.fingerprints.setdefault(key, value)
    return None if previous == value else f"output changed between passes ({key})"


def run_pass(jobs, executor, work: str, state: RunState) -> PassResult:
    """Run every job once, in order, checking each output after it is timed."""
    result = PassResult()
    for index, job in enumerate(jobs):
        stdout_path = os.path.join(work, f"job{index}.out")
        stderr_path = os.path.join(work, f"job{index}.err")
        # Every pass writes new files: rewriting one in place can make the
        # write slower from pass to pass on some file systems.
        if isinstance(job, CliJob) and "--out" in job.argv:
            with contextlib.suppress(FileNotFoundError):
                os.remove(job.argv[job.argv.index("--out") + 1])
        out = executor.run(job, stdout_path, stderr_path)
        result.wall_s += out.wall_s
        result.job_walls.append(out.wall_s)
        result.peak_rss_mb = max(result.peak_rss_mb, out.peak_rss_mb)
        result.labellings += job.labellings
        label = " ".join(job.argv) if isinstance(job, CliJob) else "count"
        failure = out.note or (f"exit {out.exit_code}: {_tail(stderr_path)}" if out.exit_code else None)

        if isinstance(job, CountJob):
            result.attempted += len(job.sets)
            if failure is None and len(out.counts) != len(job.sets):
                failure = f"{len(out.counts)} counts for {len(job.sets)} point sets"
            if failure is None:
                failure = _fingerprint(state, f"counts seed {job.rng_seed}", list(out.counts))
            if failure is not None:
                result.failed += len(job.sets)
                state.failures.append(f"{label}: {failure}")
                continue
            for (m, points), count in zip(job.sets, out.counts):
                reason = checks.check_count(count, len(points), m, len(points[0]))
                if reason:
                    result.failed += 1
                    state.failures.append(f"{label} n={len(points)} m={m}: {reason}")
                else:
                    result.realised += count
            continue

        result.attempted += 1
        if failure is None:
            failure = _check_cli(job, stdout_path, state)
        if failure is not None:
            result.failed += 1
            state.failures.append(f"{label}: {failure}")
            continue
        result.realised += job.labellings
        if job.command == "witness" and job.check == "certificate":
            result.cert_bytes += os.path.getsize(job.path)
    return result


def median(values):
    return statistics.median(values) if values else 0.0
