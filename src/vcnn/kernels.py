"""Hot numeric kernel of the randomized shattering search, in NumPy.

The inner loop of the search — evaluating the minimum decision margin of
a candidate prototype set and hill-climbing prototype coordinates on it —
dominates runtime. ``search_labeling`` runs that hill-climb for one
labelling over a pool of restarts.
"""

from __future__ import annotations

import numpy as np

# Sentinel for "no prototype of this label"; margins against it dominate
# every real distance at O(1) scene scale.
BIG = 1e30

# The one backend. Benchmark records store it, and runs are only compared
# when it matches, so it stays even though nothing selects on it.
BACKEND = "numpy"


def _min_margin_numpy(points, point_labels, protos, proto_labels):
    """Vectorised minimum margin of a prototype set over labelled points."""
    diff = points[:, None, :] - protos[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    same = proto_labels[None, :] == point_labels[:, None]
    d_same = np.where(same, dist, BIG).min(axis=1)
    d_opp = np.where(~same, dist, BIG).min(axis=1)
    return float((d_opp - d_same).min())


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
    best_val = -BIG
    best_idx = 0
    best_protos = inits[0].copy()
    for ri in range(r):
        protos = inits[ri].copy()
        klab = init_labels[ri]
        val = _min_margin_numpy(points, point_labels, protos, klab)
        step = step0
        for _ in range(sweeps):
            improved = False
            for j in range(m):
                for c in range(d):
                    orig = protos[j, c]
                    protos[j, c] = orig + step
                    cand = _min_margin_numpy(points, point_labels, protos, klab)
                    if cand > val:
                        val = cand
                        improved = True
                        continue
                    protos[j, c] = orig - step
                    cand = _min_margin_numpy(points, point_labels, protos, klab)
                    if cand > val:
                        val = cand
                        improved = True
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
