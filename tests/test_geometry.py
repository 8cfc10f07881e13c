import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcnn.errors import InvalidInputError
from vcnn.geometry import (
    ConvexPolytope,
    Halfspace,
    contains_many,
    reflect,
    regular_polygon_vertices,
)


def unit_square():
    return ConvexPolytope(
        (
            Halfspace(np.array([1.0, 0.0]), 1.0),
            Halfspace(np.array([-1.0, 0.0]), 1.0),
            Halfspace(np.array([0.0, 1.0]), 1.0),
            Halfspace(np.array([0.0, -1.0]), 1.0),
        )
    )


def reflect_via_foot(p, h):
    """Independent reflection: drop the foot on the hyperplane, double it."""
    p = np.asarray(p, dtype=float)
    foot = p - (float(h.normal @ p) - h.offset) * h.normal
    return 2.0 * foot - p


class TestHalfspace:
    def test_normalisation(self):
        h = Halfspace(np.array([3.0, 4.0]), 10.0)
        assert np.allclose(h.normal, [0.6, 0.8])
        assert h.offset == pytest.approx(2.0)

    def test_zero_normal_rejected(self):
        with pytest.raises(InvalidInputError):
            Halfspace(np.array([0.0, 0.0]), 1.0)

    def test_value_is_signed_distance(self):
        h = Halfspace(np.array([0.0, 2.0]), 4.0)
        assert h.value([7.0, 5.0]) == pytest.approx(3.0)
        assert h.value([7.0, -1.0]) == pytest.approx(-3.0)


class TestReflect:
    def test_axis_aligned(self):
        h = Halfspace(np.array([1.0, 0.0]), 1.0)
        assert np.allclose(reflect([0.0, 0.0], h), [2.0, 0.0])

    def test_fixed_point_on_boundary(self):
        h = Halfspace(np.array([1.0, 0.0]), 1.0)
        assert np.allclose(reflect([1.0, 0.5], h), [1.0, 0.5])

    def test_matches_independent_foot_construction(self):
        h = Halfspace(np.array([0.6, 0.8]), 1.0)
        p = np.array([0.3, -0.7])
        expected = reflect_via_foot(p, h)
        assert np.allclose(reflect(p, h), expected, atol=1e-14)
        # frozen value from the foot construction
        assert np.allclose(reflect(p, h), [1.956, 1.508], atol=1e-12)

    def test_dimension_mismatch(self):
        h = Halfspace(np.array([1.0, 0.0]), 1.0)
        with pytest.raises(InvalidInputError):
            reflect([1.0, 2.0, 3.0], h)

    @given(
        px=st.floats(-10, 10), py=st.floats(-10, 10),
        nx=st.floats(-1, 1), ny=st.floats(-1, 1),
        b=st.floats(-5, 5),
    )
    def test_involution_and_equidistance(self, px, py, nx, ny, b):
        if math.hypot(nx, ny) < 1e-3:
            return
        h = Halfspace(np.array([nx, ny]), b)
        p = np.array([px, py])
        r = reflect(p, h)
        # r is about 2|offset| from the origin, so the round trip is exact to rounding at that size
        assert np.allclose(reflect(r, h), p, atol=1e-12 * max(1.0, abs(h.offset)))
        # boundary points are equidistant from p and its mirror image
        tangent = np.array([-h.normal[1], h.normal[0]])
        for t in (-2.0, 0.0, 3.5):
            x = h.offset * h.normal + t * tangent
            assert abs(np.linalg.norm(x - p) - np.linalg.norm(x - r)) <= 1e-9


class TestContainsMany:
    def test_unit_square_trichotomy(self):
        sq = unit_square()
        assert contains_many(sq, [[0.0, 0.0]])[0] == 1
        assert contains_many(sq, [[1.0, 0.0]])[0] == 0
        assert contains_many(sq, [[2.0, 0.0]])[0] == -1

    def test_matches_the_sup_norm_rule_point_by_point(self, rng):
        # the unit square is the sup-norm ball: inside below 1 - tol, outside above 1 + tol
        sq = unit_square()
        pts = np.vstack([rng.uniform(-2, 2, size=(200, 2)), [[1.0, 0.3], [-0.2, -1.0], [1.0, 1.0]]])
        sup = np.abs(pts).max(axis=1)
        want = np.where(sup > 1 + 1e-9, -1, np.where(sup < 1 - 1e-9, 1, 0))
        codes = contains_many(sq, pts)
        assert codes.dtype == np.int8 and codes.tolist() == want.tolist()
        assert [contains_many(sq, [p])[0] for p in pts] == want.tolist()

    def test_tolerance_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            contains_many(unit_square(), [[0.0, 0.0]], tol=0.0)


class TestRegularPolygon:
    def test_square_vertices(self):
        v = regular_polygon_vertices(4, 1.0)
        assert np.allclose(v, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-12)

    def test_equal_adjacent_chords(self):
        v = regular_polygon_vertices(7, 1.0)
        chords = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
        assert np.allclose(chords, 2 * math.sin(math.pi / 7), atol=1e-12)

    def test_longest_diagonal_distance_from_centre(self):
        # the chord from vertex 0 to vertex 3 of a regular 7-gon; checked
        # against an explicit point-to-segment distance
        v = regular_polygon_vertices(7, 1.0)
        a, b = v[0], v[3]
        t = np.clip(float((-a) @ (b - a)) / float((b - a) @ (b - a)), 0.0, 1.0)
        dist = float(np.linalg.norm(a + t * (b - a)))
        assert dist == pytest.approx(math.cos(3 * math.pi / 7), abs=1e-12)
        assert dist == pytest.approx(0.2225, abs=5e-5)

    def test_rotation_invariance_as_a_set(self):
        n = 9
        v = regular_polygon_vertices(n, 1.0, phase=0.3)
        angle = 2 * math.pi / n
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        rotated = v @ rot.T
        # rotating by one step permutes the vertex set
        for p in rotated:
            assert np.min(np.linalg.norm(v - p, axis=1)) <= 1e-12

    def test_small_n_rejected(self):
        with pytest.raises(InvalidInputError):
            regular_polygon_vertices(2, 1.0)
