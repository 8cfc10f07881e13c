"""The 1NN rule over labelled prototype sets, with margin semantics.

A classifier is an immutable set of labelled prototypes; a query point
gets the label of the nearest prototype (Euclidean metric). The margin of
a query is the distance to the nearest opposite-label prototype minus the
distance to the nearest prototype of the winning label, so margin zero
means the query sits on a decision boundary. A set whose prototypes all
share one label is a constant classifier with margin +inf everywhere.

Ties resolve to +1: a query whose margin is at most ``TIE_RTOL`` times
its distance to the nearest prototype gets label +1 and margin 0,
whichever prototype ``argmin`` picked. The rule is relative so that it
commutes with scaling, and it makes a query on a boundary get the same
label after any rigid motion, whatever the prototype order or the
roundoff. The margin 0 keeps a tie from passing any realisation check.

Realisation checks are strict: a labelling is only accepted when every
point is classified correctly with margin at least ``mu``, which makes
witnesses robust to floating point and independent of the tie rule.
``realisation`` is the one place that decides it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import DEFAULT_TOL, as_point

# Default decision margin required by realisation checks, for scenes of
# unit circumradius.
DEFAULT_MU = 1e-6

# Relative margin at or below which a query counts as a tie (label +1).
TIE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class LabeledPrototypeSet:
    """m labelled prototypes in R^d; the parameters of one 1NN classifier."""

    prototypes: np.ndarray  # (m, d)
    labels: np.ndarray      # (m,) values in {+1, -1}

    def __post_init__(self):
        protos = np.asarray(self.prototypes, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if protos.ndim != 2 or protos.shape[0] < 1:
            raise InvalidInputError("prototypes must be a non-empty (m, d) array")
        if labels.shape != (protos.shape[0],):
            raise InvalidInputError("labels must match the number of prototypes")
        if not np.all(np.isfinite(protos)):
            raise InvalidInputError("prototype coordinates must be finite")
        if not np.all(np.isin(labels, (-1, 1))):
            raise InvalidInputError("labels must be +1 or -1")
        if protos.shape[0] > 1:
            diff = protos[:, None, :] - protos[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
            np.fill_diagonal(dist, np.inf)
            if dist.min() <= DEFAULT_TOL:
                raise InvalidInputError("prototypes must be pairwise distinct")
        object.__setattr__(self, "prototypes", protos)
        object.__setattr__(self, "labels", labels)

    @property
    def m(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]


@dataclass(frozen=True)
class Labeling:
    """A binary labelling of an indexed point sequence, stored as a bitmask.

    Bit i gives the label of point i: set bits are +1, clear bits are -1.
    """

    bits: int
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise InvalidInputError("labelling size must be >= 1")
        if not 0 <= self.bits < (1 << self.size):
            raise InvalidInputError(f"bits {self.bits:#x} out of range for {self.size} points")

    def __len__(self) -> int:
        return self.size

    def label(self, i: int) -> int:
        if not 0 <= i < self.size:
            raise InvalidInputError(f"index {i} out of range")
        return 1 if (self.bits >> i) & 1 else -1

    def to_array(self) -> np.ndarray:
        bits = (self.bits >> np.arange(self.size)) & 1
        return np.where(bits == 1, 1, -1).astype(np.int64)

    @classmethod
    def from_array(cls, labels) -> "Labeling":
        labels = np.asarray(labels)
        if not np.all(np.isin(labels, (-1, 1))):
            raise InvalidInputError("labels must be +1 or -1")
        bits = int(np.sum((labels == 1) * (1 << np.arange(labels.size, dtype=object))))
        return cls(bits=bits, size=int(labels.size))


def evaluate_margins(s: LabeledPrototypeSet, points) -> tuple[np.ndarray, np.ndarray]:
    """Labels and margins of the 1NN classifier at each query point.

    Returns ``(labels, margins)`` with shapes (n,). Margins are
    nonnegative; +inf where no opposite-label prototype exists. Ties
    resolve to label +1 and margin 0 (see the module docstring).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[1] != s.dim:
        raise InvalidInputError(f"dimension mismatch: {pts.shape[1]} vs {s.dim}")
    diff = pts[:, None, :] - s.prototypes[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    order = np.argmin(dist, axis=1)
    win_labels = s.labels[order]
    d_win = dist[np.arange(pts.shape[0]), order]
    opp = s.labels[None, :] != win_labels[:, None]
    d_opp = np.where(opp, dist, np.inf).min(axis=1)
    margins = d_opp - d_win
    tie = margins <= TIE_RTOL * d_win
    win_labels[tie] = 1
    margins[tie] = 0.0
    return win_labels, margins


def classify(s: LabeledPrototypeSet, x) -> tuple[int, float]:
    """Label and margin of one query point under the 1NN rule."""
    labels, margins = evaluate_margins(s, as_point(x)[None, :])
    return int(labels[0]), float(margins[0])


def realisation(s: LabeledPrototypeSet, points, target: np.ndarray, mu: float) -> tuple[bool, float]:
    """Whether ``s`` realises ``target`` at margin ``mu``, and its minimum margin.

    ``target`` holds the wanted label of each point. The labelling is
    realised iff every point gets its target label with margin >= mu;
    this is the test behind every witness that is accepted or rejected.
    The caller checks that ``mu`` is positive.
    """
    got, margins = evaluate_margins(s, points)
    min_margin = float(margins.min())
    return bool(np.all(got == target)) and min_margin >= mu, min_margin


def realizes(s: LabeledPrototypeSet, points, labeling: Labeling, mu: float = DEFAULT_MU) -> bool:
    """True iff ``s`` classifies every point as ``labeling`` with margin >= mu."""
    if mu <= 0:
        raise InvalidInputError("mu must be positive")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] != labeling.size:
        raise InvalidInputError("labelling size must match the number of points")
    return realisation(s, pts, labeling.to_array(), mu)[0]
