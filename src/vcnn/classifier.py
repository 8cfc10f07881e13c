"""The 1NN rule over labelled prototype sets, with margin semantics.

A classifier is an immutable set of labelled prototypes; a query point
gets the label of the nearest prototype (Euclidean metric). The margin of
a query is the distance to the nearest opposite-label prototype minus the
distance to the nearest prototype of the winning label, so margin zero
means the query sits on a decision boundary. A set whose prototypes all
share one label is a constant classifier with margin +inf everywhere.

Ties resolve to +1: a query whose margin is at most ``TIE_RTOL`` times
its distance to the nearest prototype gets label +1 and margin 0,
whatever the prototype order. The rule is relative so that it commutes
with scaling, and it makes a query on a boundary get the same label
after any rigid motion, whatever the roundoff. The margin 0 keeps a tie from passing any realisation check.

Realisation checks are strict: a labelling is only accepted when every
point is classified correctly with margin at least ``mu``, which makes
witnesses robust to floating point and independent of the tie rule.
``realisation`` is the one place that decides it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import DEFAULT_TOL

# Default decision margin required by realisation checks, for scenes of
# unit circumradius.
DEFAULT_MU = 1e-6

# Relative margin at or below which a query counts as a tie (label +1).
TIE_RTOL = 1e-12


def check_int(name: str, value, least: int) -> None:
    """Raise ``InvalidInputError`` unless ``value`` is an integer >= ``least``; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise InvalidInputError(f"{name} must be an integer >= {least}, got {value!r}")


def check_mu(mu) -> None:
    """Raise ``InvalidInputError`` unless the decision margin ``mu`` is finite and positive; a bool is refused."""
    if isinstance(mu, (bool, np.bool_)) or not 0 < mu < math.inf:
        raise InvalidInputError(f"mu must be finite and positive, got {mu!r}")


@dataclass(frozen=True, eq=False)
class LabeledPrototypeSet:
    """m labelled prototypes in R^d; the parameters of one 1NN classifier."""

    prototypes: np.ndarray  # (m, d)
    labels: np.ndarray      # (m,) values in {+1, -1}

    def __post_init__(self):
        protos = np.asarray(self.prototypes, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        check_prototype_stack(protos[None], labels[None])
        object.__setattr__(self, "prototypes", protos)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_checked_stack(cls, prototypes: np.ndarray, labels: np.ndarray) -> list["LabeledPrototypeSet"]:
        """One set per row of stacks that ``check_prototype_stack`` accepted.

        ``prototypes`` is (k, m, d) float64 and ``labels`` (k, m) int64,
        or sequences of k such (m, d) and (m,) arrays; each set holds its
        rows (views of a stack's rows), which are not checked again.
        """
        sets = []
        for protos, labs in zip(prototypes, labels):
            s = object.__new__(cls)
            object.__setattr__(s, "prototypes", protos)
            object.__setattr__(s, "labels", labs)
            sets.append(s)
        return sets

    def negated(self) -> "LabeledPrototypeSet":
        """A copy of the prototypes with every label negated: the witness of the complement labelling.

        Negating the labels and the target leaves every margin of
        ``realisation`` bit for bit as it was, so the copy realises ``~L``
        exactly when this set realises ``L``, at the same minimum margin.
        It is not checked again: ``check_prototype_stack``'s verdict does
        not change when labels +1 and -1 swap.
        """
        return LabeledPrototypeSet.from_checked_stack([self.prototypes.copy()], [-self.labels])[0]

    @property
    def m(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]


@functools.lru_cache(maxsize=64)
def _upper_pairs(m: int) -> tuple[np.ndarray, ...]:
    """Indices ``(i, j)`` of every pair i < j of m prototypes, read-only: every caller shares them."""
    pairs = np.triu_indices(m, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def check_prototype_stack(prototypes: np.ndarray, labels: np.ndarray) -> None:
    """Raise ``InvalidInputError`` unless every row is a valid prototype set.

    ``prototypes`` is a (k, m, d) float64 stack and ``labels`` a (k, m)
    int64 stack of k sets of m >= 1 prototypes each. Each set needs finite
    coordinates, labels +1 or -1, and prototypes pairwise more than
    ``DEFAULT_TOL`` apart. This is the one check behind every
    ``LabeledPrototypeSet``, one at a time or a stack at once.
    """
    if prototypes.ndim != 3 or prototypes.shape[1] < 1:
        raise InvalidInputError("prototypes must be a non-empty (m, d) array")
    if labels.shape != prototypes.shape[:2]:
        raise InvalidInputError("labels must match the number of prototypes")
    if not np.isfinite(prototypes).all():
        raise InvalidInputError("prototype coordinates must be finite")
    if not (np.abs(labels) == 1).all():
        raise InvalidInputError("labels must be +1 or -1")
    m = prototypes.shape[1]
    if m > 1:
        # each pair once: (p_j - p_i)^2 equals (p_i - p_j)^2 exactly
        i, j = _upper_pairs(m)
        diff = prototypes[:, j] - prototypes[:, i]
        if np.sqrt((diff * diff).sum(axis=-1)).min() <= DEFAULT_TOL:
            raise InvalidInputError("prototypes must be pairwise distinct")


# The label of a clear bit and of a set bit.
_BIT_LABELS = np.array([-1, 1], dtype=np.int64)
_BIT_LABELS.setflags(write=False)


@dataclass(frozen=True)
class Labeling:
    """A binary labelling of an indexed point sequence, stored as a bitmask.

    Bit i gives the label of point i: set bits are +1, clear bits are -1.
    """

    bits: int
    size: int

    def __post_init__(self):
        object.__setattr__(self, "bits", operator.index(self.bits))   # a NumPy integer becomes an int
        if self.size < 1:
            raise InvalidInputError("labelling size must be >= 1")
        if not 0 <= self.bits < (1 << self.size):
            raise InvalidInputError(f"bits {self.bits:#x} out of range for {self.size} points")

    @functools.cached_property
    def array(self) -> np.ndarray:
        """The labels as a read-only int64 array, built once, for a labelling of any size."""
        raw = np.frombuffer(self.bits.to_bytes((self.size + 7) // 8, "little"), np.uint8)
        labels = _BIT_LABELS[np.unpackbits(raw, count=self.size, bitorder="little")]
        labels.setflags(write=False)
        return labels

    @classmethod
    def from_array(cls, labels) -> "Labeling":
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise InvalidInputError(f"labels must be a 1-D array, got {labels.ndim} dimensions")
        if not np.all(np.isin(labels, (-1, 1))):
            raise InvalidInputError("labels must be +1 or -1")
        bits = int(np.sum((labels == 1) * (1 << np.arange(labels.size, dtype=object))))
        return cls(bits=bits, size=int(labels.size))


def summed_distances(squares) -> np.ndarray:
    """Square root of the sum of ``squares``, one array of squared coordinate differences per coordinate.

    The terms are added in coordinate order, which makes a distance the
    same whatever shape it is computed in, and lets the search kernel
    replace one coordinate's term. NumPy's own sum adds fewer than eight
    terms in this order too (more it groups pairwise), so for d < 8 the
    result is bit for bit ``np.sqrt(sum(axis=-1))``.
    """
    total = squares[0]
    for square in squares[1:]:
        total = total + square
    return np.sqrt(total)


def prototype_distances(points, prototypes) -> np.ndarray:
    """Euclidean distances from (n, d) points to (..., m, d) prototypes, shape (..., m, n)."""
    diff = points - prototypes[..., :, None, :]
    squares = diff * diff
    return summed_distances([squares[..., c] for c in range(squares.shape[-1])])


def split_by_label(target, labels, dist) -> tuple[np.ndarray, np.ndarray]:
    """``dist`` split into ``(same, other)`` by whether a prototype has the point's label.

    ``dist`` (..., m, n) holds prototype-to-point distances, ``labels``
    (..., m) the prototype labels and ``target`` (..., n) one label per
    point. ``same`` keeps the distances to prototypes of the point's label
    and ``other`` those to the rest; each is +inf where the other keeps
    the distance. This is the one test of which label a prototype counts as.
    """
    same = labels[..., :, None] == target[..., None, :]
    return np.where(same, dist, np.inf), np.where(same, np.inf, dist)


def nearest_distances(points, target, prototypes, labels) -> tuple[np.ndarray, np.ndarray]:
    """Each point's distance to its nearest prototype of label ``target``, and of the other label.

    ``target`` (..., n) holds one label per point. ``prototypes``
    (..., m, d) and ``labels`` (..., m) may carry leading batch axes.
    Returns the minima over the prototype axis of ``split_by_label``,
    ``(same, other)`` of shape (..., n); +inf where none.
    """
    same, other = split_by_label(target, labels, prototype_distances(points, prototypes))
    return same.min(axis=-2), other.min(axis=-2)


def evaluate_margins(s: LabeledPrototypeSet, points) -> tuple[np.ndarray, np.ndarray]:
    """Labels and margins of the 1NN classifier at each query point.

    ``points`` is an (n, d) array, or one point as a 1-D array; any other
    rank raises ``InvalidInputError``. Returns ``(labels, margins)`` with
    shapes (n,). Margins are nonnegative; +inf where no opposite-label
    prototype exists. Ties resolve to label +1 and margin 0 (see the
    module docstring).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2:
        raise InvalidInputError(f"points must be an (n, d) array, got {pts.ndim} dimensions")
    if pts.shape[1] != s.dim:
        raise InvalidInputError(f"dimension mismatch: {pts.shape[1]} vs {s.dim}")
    same, other = nearest_distances(pts, np.ones(pts.shape[0], dtype=np.int64), s.prototypes, s.labels)
    margins = other - same
    margins[np.abs(margins) <= TIE_RTOL * np.minimum(same, other)] = 0.0
    return np.where(margins >= 0, 1, -1), np.abs(margins)


def realisation(s: LabeledPrototypeSet, points, target: np.ndarray, mu: float) -> tuple[bool, float]:
    """Whether ``s`` realises ``target`` at margin ``mu``, and its minimum margin.

    ``target`` holds the wanted label of each point, shape (n,) for the
    n points; any other shape raises ``InvalidInputError``. The labelling
    is realised iff every point gets its target label with margin >= mu;
    this is the test behind every witness that is accepted or rejected.
    The minimum margin is negative if a point gets the wrong label, and 0
    if a point is a tie. The caller checks ``mu`` with ``check_mu``.
    """
    got, margins = evaluate_margins(s, points)
    if np.shape(target) != got.shape:
        raise InvalidInputError(f"target must hold one label per point: shape {got.shape}, got {np.shape(target)}")
    # + 0.0 turns the -0.0 of a tie against a -1 target into 0
    min_margin = float(np.where(got == target, margins, -margins).min()) + 0.0
    return min_margin >= mu, min_margin

