"""Hot numeric kernel of the randomized shattering search, in NumPy.

The search hill-climbs prototype coordinates on the minimum decision
margin of a candidate prototype set. ``search_batch`` climbs every
restart of many labellings of one point set in lockstep: each row of the
batch is one (labelling, restart) problem, and all rows try the same
coordinate's ``+step`` and ``-step`` moves at once. The distances are
cached split by label (``classifier.split_by_label``): once per sweep
and prototype the kernel takes each split tensor's minimum over the
other prototypes, so a coordinate's ``+step`` and ``-step`` moves are
scored together on (n, 2, rows) arrays from those minima and the moved
prototype's new column, whose squared coordinate differences are cached
too. Minima are exact and distances are summed in
coordinate order, so every score is bit for bit a full recomputation. A
row's result depends only on its own inputs, so batching changes no
result. ``search_labeling`` is the one-labelling case.
"""

from __future__ import annotations

import numpy as np

from .classifier import prototype_distances, split_by_label, summed_distances

# The one backend. Benchmark records store it, and runs are only compared
# when it matches, so it stays even though nothing selects on it.
BACKEND = "numpy"


def _squared(coords, prototype_coords):
    """Squared differences of one coordinate of the points (n, 1, 1) and of prototypes (k, rows): (n, k, rows)."""
    diff = coords - prototype_coords
    return diff * diff


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
    same, other = split_by_label(tgts, labels, prototype_distances(points, protos))
    vals = (other.min(axis=1) - same.min(axis=1)).min(axis=-1)
    first_hit = np.full(n_lab, r)
    coords = points.T[:, :, None, None]          # (d, n, 1, 1)
    rest = [np.arange(m) != j for j in range(m)]

    # The active rows, compacted; ``rows`` maps them back into the batch.
    # The row axis is last: prototypes P (m, d, rows), and S and O hold
    # ``same`` and ``other`` as (m, n, rows), so that every minimum over
    # prototypes or points runs across rows.
    rows = np.arange(n_lab * r)
    P, K, T, V = protos.transpose(1, 2, 0).copy(), labels, tgts, vals.copy()
    S, O = same.transpose(1, 2, 0).copy(), other.transpose(1, 2, 0).copy()
    step = np.full(rows.size, float(step0))
    for _ in range(sweeps):
        if not rows.size:
            break
        start = V   # a move is taken only when it raises V, so a row improved iff V rose
        moves = np.stack((step, -step))
        for j in range(m):
            # A move of prototype j changes only its column. With the other
            # prototypes' minima ``rest_same`` and ``rest_other``, a point's
            # margin is rest_other - min(rest_same, column) where j has the
            # point's label (its column is in S) and min(rest_other, column)
            # - rest_same where not; as negation is exact, both are
            # sign * min(base, column) - ref bit for bit.
            rest_same = S[rest[j]].min(axis=0, initial=np.inf)
            rest_other = O[rest[j]].min(axis=0, initial=np.inf)
            joins = S[j] < np.inf
            base = np.where(joins, rest_same, rest_other)[:, None]
            sign = np.where(joins, -1.0, 1.0)[:, None]
            ref = np.where(joins, -rest_other, rest_same)[:, None]
            squares = [_squared(coords[c], P[j, c, None]) for c in range(d)]   # (n, 1, rows) each
            for c in range(d):
                orig = P[j, c]
                moved = orig + moves   # (2, rows): the +step and the -step move
                column = summed_distances(squares[:c] + [_squared(coords[c], moved)] + squares[c + 1:])
                cand = (sign * np.minimum(base, column) - ref).min(axis=0)
                up, down = cand[0] > V, cand[1] > V   # -step only counts where +step fails
                V = np.where(up, cand[0], np.where(down, cand[1], V))
                P[j, c] = np.where(up, moved[0], np.where(down, moved[1], orig))
                squares[c] = _squared(coords[c], P[j, c, None])
            same_j, other_j = split_by_label(T, K[:, j, None], summed_distances(squares).T)
            S[j], O[j] = same_j[:, 0].T, other_j[:, 0].T
        improved, reached = V > start, V >= target
        step = np.where(improved, step, step * decay)
        np.minimum.at(first_hit, owner[rows[reached]], restart[rows[reached]])
        done = reached | (~improved & (step < min_step)) | (restart[rows] > first_hit[owner[rows]])
        if done.any():
            protos[rows[done]], vals[rows[done]] = P[..., done].transpose(2, 0, 1), V[done]
            live = ~done
            rows, K, T, V, step = rows[live], K[live], T[live], V[live], step[live]
            P, S, O = P[..., live], S[..., live], O[..., live]
    protos[rows], vals[rows] = P.transpose(2, 0, 1), V

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
