"""Hot numeric kernel of the randomized shattering search, in NumPy.

The search hill-climbs prototype coordinates on the minimum decision
margin of a candidate prototype set. ``search_batch`` climbs every
restart of many labellings of one point set in lockstep: each row of the
batch is one (labelling, restart) problem, all rows take the same
coordinate proposal at once, and the distance tensor is cached so that a
proposal recomputes only the moved prototype's column. A row's result
depends only on its own inputs, so batching changes no result.
``search_labeling`` is the one-labelling case.
"""

from __future__ import annotations

import numpy as np

from .classifier import nearest_distances, prototype_distances

# The one backend. Benchmark records store it, and runs are only compared
# when it matches, so it stays even though nothing selects on it.
BACKEND = "numpy"


def _scores(points, targets, labels, dist):
    """Minimum signed margin per row, without the tie rule, so it is continuous across boundaries."""
    same, other = nearest_distances(points, targets, None, labels, dist=dist)
    return (other - same).min(axis=-1)


def search_batch(points, targets, inits, init_labels, sweeps, step0, decay, target, min_step):
    """Hill-climb every restart of L labellings of one point set on minimum margin.

    points       (n, d) float64 query points
    targets      (L, n) int64 target labels, +1/-1
    inits        (L, r, m, d) float64 initial prototype positions
    init_labels  (L, r, m) int64 prototype labels per restart

    Each restart tries ``+step`` then ``-step`` on every coordinate in
    turn, keeps the first strict improvement, and after a sweep that
    improves nothing multiplies its step by ``decay``. A restart stops at
    the end of a sweep once it reaches ``target``, once its step falls
    below ``min_step``, or once an earlier restart of its labelling has
    reached ``target`` (a later one can no longer be selected).

    Returns ``(best_margin (L,), best_prototypes (L, m, d), best_restart_index (L,))``:
    per labelling the first restart to reach ``target``, otherwise the
    first with the largest margin.
    """
    n_lab, r, m, d = inits.shape
    protos = inits.reshape(n_lab * r, m, d).copy()
    labels = init_labels.reshape(n_lab * r, m)
    tgts = np.repeat(targets, r, axis=0)
    restart = np.tile(np.arange(r), n_lab)
    owner = np.repeat(np.arange(n_lab), r)
    dist = prototype_distances(points, protos)
    vals = _scores(points, tgts, labels, dist)
    first_hit = np.full(n_lab, r)

    # The active rows, compacted; ``rows`` maps them back into the batch.
    rows = np.arange(n_lab * r)
    P, K, T, D, V = protos.copy(), labels, tgts, dist, vals.copy()
    step = np.full(rows.size, float(step0))
    for _ in range(sweeps):
        if not rows.size:
            break
        improved = np.zeros(rows.size, dtype=bool)
        for j in range(m):
            for c in range(d):
                orig = P[:, j, c].copy()
                coord = orig
                column = D[:, j].copy()
                moved = np.zeros(rows.size, dtype=bool)
                for move in (step, -step):
                    P[:, j, c] = orig + move
                    new_column = prototype_distances(points, P[:, j])   # (rows, n): one prototype per row
                    D[:, j] = new_column
                    cand = _scores(points, T, K, D)
                    take = (cand > V) & ~moved
                    V = np.where(take, cand, V)
                    coord = np.where(take, P[:, j, c], coord)
                    column = np.where(take[:, None], new_column, column)
                    moved |= take
                    if moved.all():
                        break
                P[:, j, c] = coord
                D[:, j] = column
                improved |= moved
        reached = V >= target
        step = np.where(improved, step, step * decay)
        np.minimum.at(first_hit, owner[rows[reached]], restart[rows[reached]])
        done = reached | (~improved & (step < min_step)) | (restart[rows] > first_hit[owner[rows]])
        if done.any():
            protos[rows[done]], vals[rows[done]] = P[done], V[done]
            live = ~done
            rows, P, K, T, D, V, step = rows[live], P[live], K[live], T[live], D[live], V[live], step[live]
    protos[rows], vals[rows] = P, V

    vals = vals.reshape(n_lab, r)
    hit = vals >= target
    best = np.where(hit.any(axis=1), hit.argmax(axis=1), vals.argmax(axis=1))
    pick = np.arange(n_lab) * r + best
    return vals[np.arange(n_lab), best], protos[pick], best


def search_labeling(points, point_labels, inits, init_labels,
                    sweeps, step0, decay, target, min_step):
    """``search_batch`` for one labelling.

    point_labels  (n,) int64 target labels, +1/-1
    inits         (r, m, d) float64 initial prototype positions
    init_labels   (r, m) int64 prototype labels per restart
    Returns (best_margin, best_prototypes, best_restart_index).
    """
    best, protos, index = search_batch(points, point_labels[None], inits[None], init_labels[None],
                                       sweeps, step0, decay, target, min_step)
    return float(best[0]), protos[0], int(index[0])
