"""Summarise benchmark runs and compare two sets of them.

    python3 perfbench/compare.py RESULTS.jsonl              # spread of each metric
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl       # NEW against BASE

Each file holds the records ``perfbench/run.py`` appends to
``perfbench/.work/results.jsonl``. For each workload and metric it prints
the median, the quartile spread ``(q3 - q1) / median`` as
``statistics.quantiles(values, n=4)`` gives the quartiles, and, given two
files, how far the new median moved in the metric's bad direction as a
share of the base median, against the bound in ``BENCHMARK.json``. A
workload whose ``vcnn.kernels.BACKEND`` differs between the two files is
flagged and not compared, because the backend switches the search path.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load(path: str) -> dict:
    """{(workload, trace): [record, ...]} from one results file."""
    groups: dict = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median); the spread is 0 below two values."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def metric_values(records: list[dict]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for rec in records:
        for name, entry in rec["metrics"].items():
            if entry[0] is not None:
                values.setdefault(name, []).append(entry[0])
    return values


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    limits = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(argv[0])
    new = load(argv[1]) if len(argv) == 2 else {}
    regressions = 0
    for key in sorted(base):
        workload, trace = key
        print(f"== {workload} (trace {trace}): {len(base[key])} base runs"
              + (f", {len(new.get(key, []))} new runs" if new else ""))
        backends = {r["environment"]["backend"] for r in base[key] + new.get(key, [])}
        if len(backends) > 1:
            print(f"   backends differ {sorted(backends)}: not compared")
            continue
        base_values = metric_values(base[key])
        new_values = metric_values(new.get(key, []))
        for name, values in base_values.items():
            med, sp = spread(values)
            line = f"   {name:58s} median {med:<14.6g} spread {sp:6.3f}"
            limit = limits.get(name, {})
            if name in new_values and med:
                new_med, new_sp = spread(new_values[name])
                worse = (new_med - med) / abs(med)
                if limit.get("better") == "higher":
                    worse = -worse
                line += f"  new {new_med:<14.6g} spread {new_sp:6.3f} worse by {worse:+.3f}"
                if "bound" in limit and worse > limit["bound"]:
                    line += f"  REGRESSION (bound {limit['bound']})"
                    regressions += 1
            elif "bound" in limit and name != "setup_s" and sp > limit["bound"]:
                line += f"  SPREAD ABOVE BOUND {limit['bound']}"
            print(line)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
