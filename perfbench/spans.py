"""In-memory span recorder and the per-layer metrics computed from its spans.

A span is ``[name, start, end, parent, run_id, extra]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``run_id`` the index of
the job that caused it, and ``extra`` what the wrapper observed (a flag
for a raised exception, or a per-call outcome). Spans stay in memory and
are written out by ``write_spans`` when the run ends. A span's self time
is its duration minus the durations of its direct children.

``Tracer`` wraps the public ``vcnn`` functions named in ``TARGETS`` by
rebinding every name, in every loaded ``vcnn.*`` namespace, that refers
to the function, so calls between modules become nested spans and no
source file is edited. ``geometry`` is not wrapped: its helpers run
several times per witness and are counted in their caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np

RAISED = "raised"


def _search_outcome(args, result):
    """(success, restarts used) of ``kernels.search_labeling``.

    Restarts are the returned restart index + 1 on success and all
    restarts on failure; success means the margin reached its target.
    """
    best, _, index = result
    success = bool(best >= args[7])
    return success, int(index) + 1 if success else int(args[2].shape[0])


# (module, function, what to observe per call). Layer names are module names.
TARGETS = [
    ("constructions", "gunn_shatter", None),
    ("constructions", "takacs_shatter", None),
    ("classifier", "evaluate_margins", None),
    ("verification", "verify_shattering", None),
    ("verification", "shatter_coefficient_exhaustive", None),
    ("verification", "search_lower_bound", None),
    ("kernels", "search_labeling", _search_outcome),
    ("cli", "certificate_to_dict", None),
    ("cli", "certificate_from_dict", None),
    ("cli", "reverify_certificate", None),
    ("cli", "main", None),
    ("bounds", "compute_bounds", None),
    ("bounds", "tight_upper_curve", None),
    ("bounds", "loose_upper_curve", None),
]

CLI_COMMANDS = ("bounds", "witness", "verify", "plot-data", "search")
# Job kinds whose labellings are counted, for evaluate_margins calls per labelling.
LABELLING_JOBS = ("witness", "verify", "count")


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.run_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, extra=None):
        rec = self._open(name)
        rec[5] = extra
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = RAISED
                raise
            finally:
                self._close(rec)
            if observe is not None:
                try:
                    rec[5] = observe(args, result)
                except (IndexError, TypeError, ValueError, AttributeError):
                    rec[5] = None
            return result

        return traced


class Tracer:
    """Installs and removes the wrappers for ``TARGETS`` in loaded ``vcnn`` modules."""

    def __init__(self, recorder: SpanRecorder):
        self.absent: dict[str, str] = {}
        self.wrappers = []   # (original, wrapper)
        for module, attr, observe in TARGETS:
            name = f"{module}.{attr}"
            fn = getattr(sys.modules.get(f"vcnn.{module}"), attr, None)
            if not callable(fn):
                self.absent[name] = f"vcnn.{module} has no function {attr}"
                continue
            self.wrappers.append((fn, recorder.wrap(name, fn, observe)))
        self.bound: list[tuple] = []   # (namespace, attribute, original)

    def install(self) -> None:
        for original, wrapper in self.wrappers:
            for modname, module in list(sys.modules.items()):
                if module is None or not (modname == "vcnn" or modname.startswith("vcnn.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self.bound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.bound):
            setattr(module, attr, original)
        self.bound.clear()


def write_spans(spans: list[list], path: str) -> None:
    """One JSON array per line: name, start, end, parent, run id, extra."""
    with open(path, "w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")


def _per_call_metrics(name: str, durations, extras, passes: int) -> dict:
    metrics = {}
    if name == "kernels.search_labeling":
        ms = np.asarray(durations) * 1e3
        outcomes = [e for e in extras if isinstance(e, tuple)]
        metrics[f"{name}.p50_ms"] = (float(np.percentile(ms, 50)) if ms.size else 0.0, "ms")
        metrics[f"{name}.p99_ms"] = (float(np.percentile(ms, 99)) if ms.size else 0.0, "ms")
        metrics[f"{name}.success_frac"] = (
            sum(s for s, _ in outcomes) / len(outcomes) if outcomes else 0.0, "ratio")
        metrics[f"{name}.restarts_per_call"] = (
            sum(r for _, r in outcomes) / len(outcomes) if outcomes else 0.0, "restarts/call")
    if name == "constructions.gunn_shatter":
        metrics[f"{name}.failures"] = (sum(e == RAISED for e in extras) / passes, "count")
    return metrics


def summarize(spans: list[list], passes: int, absent: dict[str, str]) -> dict:
    """Per-layer metrics per traced pass, as ``{name: (value, unit)}``.

    A function in ``absent`` gets ``(None, unit, reason)`` for each of its
    metrics instead of a value.
    """
    n = len(spans)
    child_time = [0.0] * n
    root = list(range(n))
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root[i] = root[parent]

    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[0], []).append(i)

    def self_s(i):
        return spans[i][2] - spans[i][1] - child_time[i]

    def job_kind(i):
        return spans[root[i]][0].removeprefix("job.")

    metrics: dict = {}
    for module, attr, _ in TARGETS:
        name = f"{module}.{attr}"
        if name == "cli.main":
            continue
        idx = by_name.get(name, [])
        metrics[f"{name}.calls"] = (len(idx) / passes, "count")
        metrics[f"{name}.self_s"] = (sum(self_s(i) for i in idx) / passes, "s")
        metrics.update(_per_call_metrics(
            name, [spans[i][2] - spans[i][1] for i in idx], [spans[i][5] for i in idx], passes))

    # A job span's extra is the number of labellings the job handles.
    labellings = {kind: sum(spans[i][5] for i in by_name.get(f"job.{kind}", []))
                  for kind in LABELLING_JOBS}
    margin_calls = dict.fromkeys(LABELLING_JOBS, 0)
    for i in by_name.get("classifier.evaluate_margins", []):
        if job_kind(i) in margin_calls:
            margin_calls[job_kind(i)] += 1
    for kind in LABELLING_JOBS:
        metrics[f"classifier.evaluate_margins.{kind}.calls_per_labelling"] = (
            margin_calls[kind] / labellings[kind] if labellings[kind] else 0.0, "calls/labelling")

    for command in CLI_COMMANDS:
        idx = [i for i in by_name.get("cli.main", []) if job_kind(i) == command]
        metrics[f"cli.main.{command}.calls"] = (len(idx) / passes, "count")
        metrics[f"cli.main.{command}.self_s"] = (sum(self_s(i) for i in idx) / passes, "s")
        metrics[f"cli.main.{command}.wall_s"] = (
            sum(spans[i][2] - spans[i][1] for i in idx) / passes, "s")

    jobs = [i for i in range(n) if spans[i][0].startswith("job.")]
    metrics["unattributed_s"] = (sum(self_s(i) for i in jobs) / passes, "s")

    for name in list(metrics):
        owner = ".".join(name.split(".")[:2])
        if owner in absent:
            metrics[name] = (None, metrics[name][1], absent[owner])
    return metrics
