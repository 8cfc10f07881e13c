"""Output checks that do not trust the program under test.

Every check here reads what a job wrote and re-derives its claim with
plain NumPy, without importing ``vcnn``. A check returns ``None`` when the
output is correct, or a one-line reason when it is not; the harness counts
a reason as a failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

CERTIFICATE_SCHEMA = "vcnn-certificate/1"
POLYTOPE_SCHEMA = "vcnn-polytope-witness/1"


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _nearest_labels_and_margins(points: np.ndarray, protos: np.ndarray, labels: np.ndarray):
    """1NN labels and margins for a stack of k prototype sets of equal size.

    points (n, d), protos (k, m, d), labels (k, m) -> two (k, n) arrays.
    The margin is the distance to the nearest opposite-label prototype
    minus the distance to the nearest prototype (inf if there is none).
    """
    diff = points[None, :, None, :] - protos[:, None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=3))                      # (k, n, m)
    nearest = dist.argmin(axis=2)                                    # (k, n)
    win = np.take_along_axis(labels, nearest, axis=1)                # (k, n)
    d_win = np.take_along_axis(dist, nearest[:, :, None], axis=2)[:, :, 0]
    opposite = labels[:, None, :] != win[:, :, None]                 # (k, n, m)
    d_opp = np.where(opposite, dist, np.inf).min(axis=2)
    return win, d_opp - d_win


def check_certificate(path: str, m_max: int) -> str | None:
    """Re-check a ``vcnn-certificate/1`` file from its bytes alone.

    Confirms 2^n witness keys, at most ``m_max`` prototypes per witness,
    nearest-prototype labels equal to every labelling, every margin at
    least ``mu > 0``, and the recorded minimum margin.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"cannot read certificate: {exc}"
    if doc.get("schema") != CERTIFICATE_SCHEMA:
        return f"unexpected schema {doc.get('schema')!r}"
    try:
        points = np.asarray(doc["points"], dtype=np.float64)
        mu = float(doc["mu"])
        witnesses = doc["witnesses"]
        verified = doc["verified"]
        recorded_min = doc.get("min_margin")
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed certificate: {exc}"
    n = points.shape[0]
    if verified is not True:
        return "certificate is not marked verified"
    if not mu > 0:
        return f"mu {mu!r} is not strictly positive"
    try:
        keys = sorted(int(key, 16) for key in witnesses)
    except (TypeError, ValueError) as exc:
        return f"bad witness key: {exc}"
    if keys != list(range(1 << n)):
        return f"{len(keys)} witness keys, expected all {1 << n} labellings"

    groups: dict[int, list[tuple[int, list, list]]] = {}
    for key, wit in witnesses.items():
        try:
            protos, labels = wit["prototypes"], wit["labels"]
        except (KeyError, TypeError) as exc:
            return f"malformed witness {key}: {exc}"
        m = len(labels)
        if not 1 <= m <= m_max or len(protos) != m:
            return f"witness {key} has {m} labels and {len(protos)} prototypes, limit {m_max}"
        groups.setdefault(m, []).append((int(key, 16), protos, labels))

    bit_index = np.arange(n)
    worst = math.inf
    for m, items in groups.items():
        bits = np.array([item[0] for item in items], dtype=np.int64)
        protos = np.asarray([item[1] for item in items], dtype=np.float64)
        labels = np.asarray([item[2] for item in items], dtype=np.int64)
        if protos.shape != (len(items), m, points.shape[1]):
            return f"prototype arrays of size {m} have shape {protos.shape}"
        if not np.all(np.isin(labels, (-1, 1))):
            return "a witness label is not +1 or -1"
        want = np.where((bits[:, None] >> bit_index[None, :]) & 1 == 1, 1, -1)
        got, margins = _nearest_labels_and_margins(points, protos, labels)
        wrong = np.flatnonzero(~np.all(got == want, axis=1))
        if wrong.size:
            return f"labelling {int(bits[wrong[0]]):#x} misclassified"
        thin = np.flatnonzero(~np.all(margins >= mu, axis=1))
        if thin.size:
            return f"labelling {int(bits[thin[0]]):#x} margin below mu {mu!r}"
        worst = min(worst, float(margins.min()))
    if recorded_min is not None and math.isfinite(worst):
        if not math.isclose(worst, float(recorded_min), rel_tol=1e-9, abs_tol=0.0):
            return f"recorded min margin {recorded_min!r}, recomputed {worst!r}"
    return None


def check_polytope_square(path: str) -> str | None:
    """Re-check a ``--square`` polytope witness on a grid away from the boundary.

    A point of the grid over [-3, 3]^2 is inside the unit-square polytope
    when ``max(|x|, |y|) < 1``; its 1NN label must be the inside label
    there and the opposite label outside.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("schema") != POLYTOPE_SCHEMA or doc.get("verified") is not True:
            return "polytope witness has the wrong schema or is not verified"
        protos = np.asarray(doc["prototypes"], dtype=np.float64)
        labels = np.asarray(doc["labels"], dtype=np.int64)
        inside = int(doc["inside_label"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"cannot read polytope witness: {exc}"
    axis = np.linspace(-3.0, 3.0, 241)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    depth = np.abs(grid).max(axis=1)
    grid = grid[np.abs(depth - 1.0) > 1e-6]
    want = np.where(np.abs(grid).max(axis=1) < 1.0, inside, -inside)
    got, _ = _nearest_labels_and_margins(grid, protos[None], labels[None])
    bad = int((got[0] != want).sum())
    return f"{bad} grid points disagree with square membership" if bad else None


def check_bounds_csv(path: str, rows: int) -> str | None:
    """The bounds CSV has ``rows`` rows and ``lower <= upper_tight`` on each."""
    try:
        with open(path, newline="") as fh:
            table = list(csv.DictReader(fh))
        pairs = [(int(r["lower"]), int(r["upper_tight"])) for r in table]
    except (OSError, ValueError, KeyError) as exc:
        return f"cannot read bounds CSV: {exc}"
    if len(pairs) != rows:
        return f"bounds CSV has {len(pairs)} rows, expected {rows}"
    broken = [i for i, (lo, hi) in enumerate(pairs) if lo > hi]
    return f"lower > upper_tight on row {broken[0]}" if broken else None


def check_plot_csv(path: str, rows: int) -> str | None:
    """The plot-data CSV has ``rows`` rows and every tight curve is finite."""
    try:
        with open(path, newline="") as fh:
            table = list(csv.DictReader(fh))
        tight = [float(v) for r in table for k, v in r.items() if k.startswith("tight_")]
    except (OSError, ValueError) as exc:
        return f"cannot read plot CSV: {exc}"
    if len(table) != rows:
        return f"plot CSV has {len(table)} rows, expected {rows}"
    return None if all(math.isfinite(v) and v > 0 for v in tight) else "non-finite tight curve"


def check_search_found(path: str) -> str | None:
    """The ``vcnn search`` stdout reports a certificate."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        return f"cannot read search output: {exc}"
    return None if text.startswith("certificate found") else f"search said: {text.strip()[:120]}"


def shatter_q(d: int, m: int) -> float:
    """Exponent q of the shatter-coefficient bound 2^m n^q, as the paper gives it."""
    return 9.0 * (m - 2) if d == 2 else (d + 1) * m * (m - 1) / 2.0


def check_count(count, n: int, m: int, d: int) -> str | None:
    """The acceptance invariant ``2 <= count <= min(2^n, 2^m n^q)``."""
    if not isinstance(count, int):
        return f"count {count!r} is not an integer"
    if count < 2:
        return f"count {count} below 2 (the constant labellings are always realisable)"
    if math.log2(count) > min(n, m + shatter_q(d, m) * math.log2(n)):
        return f"count {count} above min(2^{n}, 2^m n^q)"
    return None
