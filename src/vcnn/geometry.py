"""Points, halfspaces and convex polytopes with explicit tolerances.

Everything is plain float64 geometry. Halfspaces are normalised on
construction so offsets are true boundary distances and a single absolute
tolerance is meaningful package-wide; scenes are assumed O(1) in extent
(the witness constructions use unit circumradius). Polytopes are stored
as facet lists only and may be unbounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Absolute tolerance for geometric predicates on O(1) coordinates.
DEFAULT_TOL = 1e-9


def as_point(coords) -> np.ndarray:
    """Coerce a coordinate sequence to a finite float64 vector."""
    p = np.asarray(coords, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise InvalidInputError(f"expected a 1-d coordinate sequence, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("point coordinates must be finite")
    return p


def _require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise InvalidInputError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")


@dataclass(frozen=True, eq=False)
class Halfspace:
    """Closed halfspace ``{x : normal . x <= offset}`` with unit normal.

    The normal is normalised on construction (the offset is rescaled to
    match), so ``normal @ x - offset`` is the signed distance to the
    boundary hyperplane: negative inside, positive outside.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = as_point(self.normal)
        norm = float(np.linalg.norm(n))
        if norm <= DEFAULT_TOL:
            raise InvalidInputError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", n / norm)
        object.__setattr__(self, "offset", float(self.offset) / norm)

    @property
    def dim(self) -> int:
        return self.normal.size

    def value(self, x) -> float:
        """Signed distance from ``x`` to the boundary hyperplane."""
        x = as_point(x)
        _require_same_dim(x, self.normal)
        return float(self.normal @ x) - self.offset


def reflect(p, h: Halfspace) -> np.ndarray:
    """Mirror image of ``p`` across the boundary hyperplane of ``h``.

    The boundary is the perpendicular bisector of the segment from ``p``
    to the result.
    """
    p = as_point(p)
    _require_same_dim(p, h.normal)
    return p - 2.0 * h.value(p) * h.normal


@dataclass(frozen=True, eq=False)
class ConvexPolytope:
    """Finite intersection of halfspaces, possibly unbounded."""

    facets: tuple[Halfspace, ...]

    def __post_init__(self):
        facets = tuple(self.facets)
        if len(facets) < 1:
            raise InvalidInputError("a polytope needs at least one facet")
        d = facets[0].dim
        if any(f.dim != d for f in facets):
            raise InvalidInputError("all facets must share one dimension")
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "_normals", np.array([f.normal for f in facets]))
        object.__setattr__(self, "_offsets", np.array([f.offset for f in facets]))

    @property
    def dim(self) -> int:
        return self.facets[0].dim

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @property
    def normals(self) -> np.ndarray:
        """Unit facet normals, shape (n_facets, dim)."""
        return self._normals

    def side_values(self, xs: np.ndarray) -> np.ndarray:
        """Signed facet distances, shape (n_points, n_facets)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        _require_same_dim(xs, self._normals)
        return xs @ self._normals.T - self._offsets


def contains_many(polytope: ConvexPolytope, xs, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Membership of each row of ``xs``: +1 inside, 0 boundary, -1 outside.

    Inside means strictly inside every facet by more than ``tol``;
    outside means strictly beyond some facet by more than ``tol``;
    anything else is boundary. One point ``x`` is ``contains_many(polytope, [x])[0]``.
    """
    if tol <= 0:
        raise InvalidInputError("tolerance must be positive")
    vals = polytope.side_values(xs)
    outside = np.any(vals > tol, axis=1)
    inside = np.all(vals < -tol, axis=1)
    return np.where(outside, -1, np.where(inside, 1, 0)).astype(np.int8)


def regular_polygon_vertices(n: int, radius: float = 1.0, phase: float = 0.0) -> np.ndarray:
    """Vertices of a regular n-gon of given circumradius centred at the origin.

    The first vertex sits at angle ``phase``; successive vertices proceed
    counter-clockwise. Returns an (n, 2) array.
    """
    if n < 3:
        raise InvalidInputError(f"a polygon needs n >= 3 vertices, got {n}")
    if not 0 < radius < math.inf:
        raise InvalidInputError(f"radius must be finite and positive, got {radius!r}")
    angles = phase + 2.0 * math.pi * np.arange(n) / n
    return radius * np.column_stack([np.cos(angles), np.sin(angles)])
