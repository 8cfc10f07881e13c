"""The benchmark's workloads, as lists of jobs built from a seed.

A job is one operation the harness times and checks: a ``CliJob`` is one
``vcnn`` command, a ``CountJob`` is one call of
``shatter_coefficient_exhaustive`` per point set. Jobs are plain data so
that the traced runner, a separate process, can receive them as JSON.
"""

from __future__ import annotations

import os
import random
from dataclasses import asdict, dataclass

import numpy as np

# The budget of acceptance test c8, which dominates the test suite's time.
COUNT_TRIALS = 4
COUNT_STEPS = 24
# The search-count point sets are drawn from this seed, as test c8 draws its own.
POINTS_SEED = 99


@dataclass(frozen=True)
class CliJob:
    argv: tuple[str, ...]
    check: str             # name of the output check, see harness._check_cli
    labellings: int = 0    # labellings the command builds or re-checks
    path: str = ""         # file the check reads, besides the command's stdout
    expect: int = 0        # prototype limit or row count the check expects

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class CountJob:
    sets: tuple[tuple[int, tuple[tuple[float, ...], ...]], ...]  # (m, points) per set
    rng_seed: int
    trials: int = COUNT_TRIALS
    steps: int = COUNT_STEPS
    command = "count"   # a class attribute, not a field

    @property
    def labellings(self) -> int:
        return sum(1 << len(points) for _, points in self.sets)


def to_json(jobs) -> list[dict]:
    return [{"type": type(job).__name__, **asdict(job)} for job in jobs]


def from_json(items: list[dict]):
    jobs = []
    for item in items:
        if item["type"] == "CliJob":
            jobs.append(CliJob(tuple(item["argv"]), item["check"], item["labellings"],
                               item["path"], item["expect"]))
        else:
            sets = tuple((m, tuple(tuple(p) for p in pts)) for m, pts in item["sets"])
            jobs.append(CountJob(sets, item["rng_seed"], item["trials"], item["steps"]))
    return jobs


def witness_pair(work: str, kind: str, flag: str, value: int) -> list[CliJob]:
    """``vcnn witness`` with ``--no-meta`` into a file, then ``vcnn verify`` of it."""
    if kind == "gunn":
        n_points, m_max = 2 * value + 1, value
    else:
        n_points, m_max = 2 * value + 2, value + 1
    out = os.path.join(work, f"{kind}-{value}.json")
    labellings = 1 << n_points
    return [
        CliJob(("witness", kind, flag, str(value), "--no-meta", "--out", out),
               "certificate", labellings, out, m_max),
        CliJob(("verify", out), "certificate", labellings, out, m_max),
    ]


def gunn_jobs(work: str, m: int = 7) -> list[CliJob]:
    return witness_pair(work, "gunn", "--m", m)


def count_jobs(seed: int, ns=range(3, 9), ms=(3, 4), ds=(2, 3)) -> list[CountJob]:
    """One point set per (n, m, d), drawn uniformly in [-1, 1]^d as test c8 draws them.

    The point sets are one fixed draw, and ``seed`` seeds the search's
    restarts. Point sets drawn from the seed changed the share of
    labellings no restart realises, and with it the pass time, by about
    7% between seeds, more than the machine's own run-to-run noise.
    """
    rng = np.random.default_rng(POINTS_SEED)
    sets = []
    for n in ns:
        for m in ms:
            for d in ds:
                points = rng.uniform(-1.0, 1.0, size=(n, d))
                sets.append((m, tuple(tuple(float(x) for x in row) for row in points)))
    return [CountJob(tuple(sets), rng_seed=seed)]


def short_jobs(work: str, seed: int) -> list[CliJob]:
    """The fixed set of short commands, each in its own process, in a seeded order."""
    bounds_csv = os.path.join(work, "bounds.csv")
    plot_csv = os.path.join(work, "plot.csv")
    polytope = os.path.join(work, "polytope.json")
    units = [
        [CliJob(("bounds", "--d", "2..10", "--m", "3..50", "--format", "csv", "--out", bounds_csv),
                check="bounds_csv", path=bounds_csv, expect=9 * 48)],
        [CliJob(("plot-data", "--d", "2,3", "--m", "3..50", "--out", plot_csv),
                check="plot_csv", path=plot_csv, expect=48)],
        *[witness_pair(work, "takacs", "--n", n) for n in range(2, 6)],
        witness_pair(work, "gunn", "--m", 4),
        [CliJob(("witness", "polytope", "--square", "--no-meta", "--out", polytope),
                check="polytope", path=polytope),
         CliJob(("verify", polytope), check="polytope", path=polytope)],
        [CliJob(("search", "--d", "2", "--m", "3", "--n", "6", "--seed", "0"),
                check="search_found")],
    ]
    random.Random(seed).shuffle(units)
    return [job for unit in units for job in unit]


WORKLOADS = {
    "gunn-m7": lambda seed, work: gunn_jobs(work),
    "search-count": lambda seed, work: count_jobs(seed),
    "short-jobs": lambda seed, work: short_jobs(work, seed),
}
