"""Hot numeric kernel of the randomized shattering search, in NumPy.

The inner loop of the search — evaluating the minimum decision margin of
a candidate prototype set and hill-climbing prototype coordinates on it —
dominates runtime. ``search_labeling`` runs that hill-climb for one
labelling over a pool of restarts.
"""

from __future__ import annotations

import numpy as np

from .classifier import nearest_distances

# The one backend. Benchmark records store it, and runs are only compared
# when it matches, so it stays even though nothing selects on it.
BACKEND = "numpy"


def _score(points, point_labels, protos, proto_labels):
    """Minimum signed margin, without the tie rule, so it is continuous across boundaries."""
    same, other = nearest_distances(points, point_labels, protos, proto_labels)
    return float((other - same).min())


def search_labeling(points, point_labels, inits, init_labels,
                    sweeps, step0, decay, target, min_step):
    """Try every restart; hill-climb each on minimum margin.

    points        (n, d) float64 query points
    point_labels  (n,)  int64 target labels, +1/-1
    inits         (r, m, d) float64 initial prototype positions
    init_labels   (r, m) int64 prototype labels per restart
    Returns (best_margin, best_prototypes, best_restart_index). Stops at
    the first restart reaching ``target``.
    """
    r, m, d = inits.shape
    best_val = -np.inf
    best_idx = 0
    best_protos = inits[0].copy()
    for ri in range(r):
        protos = inits[ri].copy()
        klab = init_labels[ri]
        val = _score(points, point_labels, protos, klab)
        step = step0
        for _ in range(sweeps):
            improved = False
            for j in range(m):
                for c in range(d):
                    orig = protos[j, c]
                    for move in (step, -step):
                        protos[j, c] = orig + move
                        cand = _score(points, point_labels, protos, klab)
                        if cand > val:
                            val = cand
                            improved = True
                            break
                    else:
                        protos[j, c] = orig
            if val >= target:
                break
            if not improved:
                step *= decay
                if step < min_step:
                    break
        if val > best_val:
            best_val = val
            best_idx = ri
            best_protos = protos.copy()
        if best_val >= target:
            break
    return best_val, best_protos, best_idx
