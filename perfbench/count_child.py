"""Child process of the search-count workload.

Reads a JSON file of point sets and a search budget, calls
``vcnn.shatter_coefficient_exhaustive`` once per set, and prints
``{"counts": [...]}``. Run with ``src`` on ``PYTHONPATH``:

    python3 perfbench/count_child.py sets.json
"""

from __future__ import annotations

import json
import sys


def count_sets(vcnn, spec: dict) -> list[int]:
    """Counts for every set, calling the library through the ``vcnn`` package."""
    import numpy as np

    budget = vcnn.SearchConfig(d=2, m=3, n=3, trials=spec["trials"], steps=spec["steps"],
                               rng_seed=spec["rng_seed"])
    return [
        int(vcnn.shatter_coefficient_exhaustive(np.asarray(points, dtype=np.float64), m, budget))
        for m, points in spec["sets"]
    ]


def main(path: str) -> int:
    import vcnn

    with open(path) as fh:
        spec = json.load(fh)
    json.dump({"counts": count_sets(vcnn, spec)}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
