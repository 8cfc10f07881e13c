import math

import numpy as np
import pytest

from conftest import witness_rows
from vcnn import constructions
from vcnn.classifier import DEFAULT_MU, Labeling, evaluate_margins
from vcnn.constructions import (
    Arrangement,
    _build_strip,
    _pad_facets,
    _partners,
    _run_chords,
    _strip_plans,
    _strip_witness,
    centre_to_longest_diagonal,
    gunn_arrangement,
    gunn_shatter,
    inner_pair_offset,
    polytope_to_prototypes,
    strip_width,
    takacs_arrangement,
    takacs_shatter,
)
from vcnn.errors import (
    ConstructionInfeasibleError,
    InvalidInputError,
    InvalidWitnessError,
    UnsupportedParametersError,
)
from vcnn.geometry import ConvexPolytope, Halfspace, contains_many, reflect, regular_polygon_vertices
from vcnn.verification import verify_shattering


def unit_square():
    return ConvexPolytope(
        (
            Halfspace(np.array([1.0, 0.0]), 1.0),
            Halfspace(np.array([-1.0, 0.0]), 1.0),
            Halfspace(np.array([0.0, 1.0]), 1.0),
            Halfspace(np.array([0.0, -1.0]), 1.0),
        )
    )


def assert_membership_agreement(polytope, witness, inside_label, rng, n_samples=10000, box=3.0):
    """1NN classification must agree with polytope membership off the boundary band."""
    samples = rng.uniform(-box, box, size=(n_samples, polytope.dim))
    member = contains_many(polytope, samples, tol=1e-9)
    keep = member != 0
    got, _ = evaluate_margins(witness, samples[keep])
    want = np.where(member[keep] == 1, inside_label, -inside_label)
    assert int((got != want).sum()) == 0


class TestArrangements:
    def test_takacs_counts(self):
        assert takacs_arrangement(2).n == 6
        assert takacs_arrangement(3).n == 8

    def test_takacs_circle_radii(self):
        arr = takacs_arrangement(4, radius=2.5)
        radii = np.linalg.norm(arr.points[:-1], axis=1)
        assert np.allclose(radii, 2.5, atol=1e-12)
        assert np.allclose(arr.points[arr.special["center_index"]], 0.0)

    def test_takacs_small_n_rejected(self):
        with pytest.raises(UnsupportedParametersError):
            takacs_arrangement(1)

    def test_gunn_counts_and_layout(self):
        arr = gunn_arrangement(4)
        assert arr.n == 9
        i1, i2 = arr.special["inner_indices"]
        delta = inner_pair_offset(4)
        assert np.allclose(arr.points[i1], [delta, 0.0])
        assert np.allclose(arr.points[i2], [-delta, 0.0])
        # apex sits at angle pi/2
        assert np.allclose(arr.points[arr.special["apex_index"]], [0.0, 1.0], atol=1e-12)

    def test_gunn_small_m_rejected(self):
        with pytest.raises(UnsupportedParametersError):
            gunn_arrangement(3)

    def test_budget_is_the_papers_prototype_count(self):
        assert takacs_arrangement(3).budget == 4
        assert gunn_arrangement(5).budget == 5
        assert Arrangement(kind="search", points=np.zeros((3, 2)), radius=1.0, param=3).budget == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError, match="kind"):
            Arrangement(kind="foo", points=np.zeros((3, 2)), radius=1.0, param=3)

    @pytest.mark.parametrize("kind, n_points", [("takacs", 7), ("takacs", 9), ("gunn", 8), ("gunn", 10)])
    def test_point_count_must_match_param(self, kind, n_points):
        # takacs N has 2N+2 points, gunn m has 2m+1; the budget is read from param
        with pytest.raises(InvalidInputError, match="param 4 has"):
            Arrangement(kind=kind, points=np.zeros((n_points, 2)), radius=1.0, param=4)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"radius": 0.0}, "radius"),
            ({"radius": -1.0}, "radius"),
            ({"radius": math.nan, "points": np.full((3, 2), math.nan)}, "radius"),
            ({"radius": math.inf}, "radius"),
            ({"radius": True}, "radius"),
            ({"param": 0}, "param"),
            ({"param": 2.5}, "param"),
            ({"param": True}, "param"),
            ({"points": [[0.0, 0.0], [1.0, math.nan], [0.0, 1.0]]}, "finite"),
            ({"points": [0.0, 1.0, 2.0]}, "non-empty"),
            ({"points": np.zeros((0, 2))}, "non-empty"),
            ({"points": None}, "search arrangement has no layout"),
        ],
        ids=["radius-0", "radius-negative", "radius-nan", "radius-inf", "radius-true", "param-0", "param-2.5",
             "param-true", "nan-point", "1d-points", "empty-points", "no-points"],
    )
    def test_invalid_arrangement_refused(self, kwargs, match):
        # the radius is checked before the points, so a NaN radius reports the radius
        args = {"kind": "search", "points": np.zeros((3, 2)), "radius": 1.0, "param": 3, **kwargs}
        with pytest.raises(InvalidInputError, match=match):
            Arrangement(**args)

    @pytest.mark.parametrize(
        "kind, param, points, error, match",
        [
            ("takacs", 2, np.random.default_rng(0).uniform(-1, 1, (6, 2)), InvalidInputError,
             "points are not the takacs arrangement"),
            ("gunn", 4, np.random.default_rng(0).uniform(-1, 1, (9, 2)), InvalidInputError,
             "points are not the gunn arrangement"),
            ("gunn", 4, gunn_arrangement(4, radius=2.0).points, InvalidInputError,
             "points are not the gunn arrangement of param 4 and radius 1.0"),
            ("takacs", 2, np.hstack([takacs_arrangement(2).points, np.zeros((6, 1))]), InvalidInputError,
             "points are not the takacs arrangement"),
            ("gunn", 4, np.hstack([gunn_arrangement(4).points, np.zeros((9, 1))]), InvalidInputError,
             "points are not the gunn arrangement"),
            ("takacs", 1, np.vstack([regular_polygon_vertices(3), np.zeros((1, 2))]), UnsupportedParametersError,
             "takacs arrangement needs param >= 2, got 1"),
            ("gunn", 3, np.vstack([regular_polygon_vertices(5, phase=math.pi / 2.0),
                                   [[inner_pair_offset(3), 0.0], [-inner_pair_offset(3), 0.0]]]),
             UnsupportedParametersError, "gunn arrangement needs param >= 4, got 3"),
        ],
        ids=["takacs-random", "gunn-random", "gunn-radius-2-labelled-1", "takacs-lifted", "gunn-lifted",
             "takacs-triangle", "gunn-pentagon"],
    )
    def test_points_that_are_not_the_layout_refused(self, kind, param, points, error, match):
        # each of these, accepted, sent a sweep into a "(bug)" error or a bare NumPy ValueError
        with pytest.raises(error, match=match):
            Arrangement(kind=kind, points=points, radius=1.0, param=param)

    @pytest.mark.parametrize("radius", [1e-9, 0.99e-6, 1.01e6, 1e155])
    def test_radius_outside_the_tolerances_range_is_refused(self, radius):
        # the constructions' absolute tolerances serve radii in [1e-6, 1e6] only
        with pytest.raises(InvalidInputError, match=r"radius must be in \[1e-06, 1e\+06\]"):
            Arrangement(kind="search", points=np.zeros((3, 2)), radius=radius, param=3)

    @pytest.mark.parametrize("radius", [1e-6, 1e6])
    @pytest.mark.parametrize("build, param, generator", [(takacs_arrangement, 2, takacs_shatter),
                                                         (gunn_arrangement, 4, gunn_shatter)])
    def test_radius_range_ends_verify(self, build, param, generator, radius):
        assert verify_shattering(build(param, radius), generator, mu=1e-6 * radius).verified

    def test_numpy_integer_param_is_stored_as_int(self):
        arr = Arrangement(kind="search", points=np.zeros((3, 2)), radius=1.0, param=np.int64(3))
        assert type(arr.param) is int

    @pytest.mark.parametrize("build", [takacs_arrangement, gunn_arrangement])
    def test_numpy_float_radius_is_stored_as_float(self, build):
        # the points are built from the float, so the stored file's layout check passes on load
        arr = build(4, np.float32(1.5))
        assert type(arr.radius) is float and arr.radius == 1.5
        assert np.array_equal(arr.points, build(4, 1.5).points)

    def test_layout_is_derived_once_per_arrangement(self, monkeypatch):
        layout, calls = constructions._LAYOUTS["gunn"], []

        def derive(param):
            calls.append(param)
            return layout.derive(param)

        monkeypatch.setitem(constructions._LAYOUTS, "gunn", layout._replace(derive=derive))
        arr = gunn_arrangement(4)
        assert verify_shattering(arr, gunn_shatter).verified   # reads n_vertices, special and budget
        assert calls == [4]
        Arrangement(kind="gunn", points=arr.points, radius=1.0, param=4)
        assert calls == [4, 4]

    @pytest.mark.parametrize("build, kind", [(takacs_arrangement, "takacs"), (gunn_arrangement, "gunn")])
    def test_builder_builds_and_checks_its_layout_once(self, monkeypatch, build, kind):
        layout, calls = constructions._LAYOUTS[kind], []

        def counted(name, f):
            def wrapper(*args):
                calls.append(name)
                return f(*args)
            return wrapper

        monkeypatch.setitem(constructions._LAYOUTS, kind, layout._replace(points=counted("points", layout.points)))
        monkeypatch.setattr(constructions, "_check_radius", counted("radius", constructions._check_radius))
        monkeypatch.setattr(constructions, "_check_param", counted("param", constructions._check_param))
        arr = build(4, 2.0)
        assert calls == ["radius", "param", "points"]   # each once, and both checks before the build
        assert not arr.points.flags.writeable
        assert np.array_equal(arr.points, layout.points(4, 2.0))

    def test_special_is_derived_from_kind_and_param(self):
        assert takacs_arrangement(3).special == {"center_index": 7}
        assert gunn_arrangement(5).special == {"apex_index": 0, "inner_indices": [9, 10]}
        assert Arrangement(kind="search", points=np.zeros((3, 2)), radius=1.0, param=3).special == {}

    @pytest.mark.parametrize("build, generator", [(takacs_arrangement, takacs_shatter),
                                                  (gunn_arrangement, gunn_shatter)])
    def test_arrangement_built_from_its_four_fields_verifies(self, build, generator):
        built = build(4, 2.0)
        arr = Arrangement(kind=built.kind, points=built.points, radius=2.0, param=4)
        assert verify_shattering(arr, generator).verified

    @pytest.mark.parametrize("m", [4, 5, 6, 10])
    def test_inner_offset_is_half_the_diagonal_clearance(self, m):
        # same quantity in its two closed forms
        n_v = 2 * m - 1
        assert inner_pair_offset(m) == pytest.approx(
            0.5 * math.cos((m - 1) * math.pi / n_v), abs=1e-15
        )
        assert inner_pair_offset(m) == pytest.approx(
            0.5 * centre_to_longest_diagonal(n_v), abs=1e-15
        )

    @pytest.mark.parametrize("m", [4, 5, 6, 9])
    def test_no_diagonal_separates_inner_points_from_centre(self, m):
        arr = gunn_arrangement(m)
        n_v = 2 * m - 1
        verts = arr.points[:n_v]
        inners = arr.points[n_v:]
        for i in range(n_v):
            for j in range(i + 2, n_v):
                if i == 0 and j == n_v - 1:
                    continue  # adjacent pair around the seam
                a, b = verts[i], verts[j]
                normal = np.array([-(b - a)[1], (b - a)[0]])
                side_centre = float(normal @ (-a))
                for p in inners:
                    side_p = float(normal @ (p - a))
                    assert side_p * side_centre > 0.0


class TestGeometricFacts:
    @pytest.mark.parametrize("n", list(range(7, 42, 2)))
    def test_no_vertex_between_longest_diagonal_and_parallel_diameter(self, n):
        verts = regular_polygon_vertices(n, 1.0, phase=math.pi / 2)
        half = (n - 1) // 2
        for k in range(n):
            for step in (half, half + 1):
                far = (k + step) % n
                chord = verts[far] - verts[k]
                u = np.array([-chord[1], chord[0]])
                u /= np.linalg.norm(u)
                if float(u @ (verts[k] + verts[far])) < 0:
                    u = -u
                h = float(u @ verts[k])
                assert h == pytest.approx(centre_to_longest_diagonal(n), abs=1e-12)
                proj = verts @ u
                strictly_between = (proj > 1e-9) & (proj < h - 1e-9)
                assert not strictly_between.any()

    @pytest.mark.parametrize("m", list(range(4, 21)))
    def test_strip_width_formula_and_bound(self, m):
        arr = gunn_arrangement(m)
        n_v = 2 * m - 1
        verts = arr.points[:n_v]
        b_pt = arr.points[arr.special["inner_indices"][0]]
        widths = []
        for d_idx in range(n_v):
            _, near = _partners(verts, d_idx, b_pt)
            a, b = verts[d_idx], verts[near]
            # explicit point-to-line distance from the centre
            t = b - a
            dist = abs(t[0] * (-a[1]) - t[1] * (-a[0])) / float(np.linalg.norm(t))
            widths.append(dist)
        assert np.allclose(widths, strip_width(m), atol=1e-12)
        assert strip_width(m) < 0.63
        assert strip_width(4) == pytest.approx(math.sin(3 * math.pi / 14), abs=1e-15)

    def test_strip_width_decreases_in_m(self):
        values = [strip_width(m) for m in range(4, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_parallel_lines_separate_strip_triples(self, m):
        # for every vertex except the one nearest the other interior point,
        # both partner chords admit a separating strip around the triple
        arr = gunn_arrangement(m)
        n_v = 2 * m - 1
        verts = arr.points[:n_v]
        inner = arr.special["inner_indices"]
        for b_idx, w_idx in (inner, inner[::-1]):
            b_pt, w_pt = arr.points[b_idx], arr.points[w_idx]
            c_idx = int(np.argmin(np.linalg.norm(verts - w_pt, axis=1)))
            for d_idx in range(n_v):
                if d_idx == c_idx:
                    continue
                for partner in _partners(verts, d_idx, b_pt):
                    strip_in = arr.points[[d_idx, partner, b_idx]]
                    out = arr.points[
                        [i for i in range(arr.n) if i not in (d_idx, partner, b_idx)]
                    ]
                    chord = verts[partner] - verts[d_idx]
                    u0 = np.array([-chord[1], chord[0]])
                    u0 /= np.linalg.norm(u0)
                    if float(u0 @ (verts[d_idx] + verts[partner])) < 0:
                        u0 = -u0
                    strip = _build_strip(strip_in, out, u0, np.zeros(2), arr.radius)
                    assert strip is not None, (m, b_idx, d_idx, partner)
                    u, lo, hi = strip
                    in_proj = strip_in @ u
                    out_proj = out @ u
                    assert np.all((in_proj > lo) & (in_proj < hi))
                    assert np.all((out_proj < lo) | (out_proj > hi))


class TestPolytopeToPrototypes:
    def test_unit_square_reflections(self):
        witness = polytope_to_prototypes(unit_square(), np.zeros(2), 1)
        assert witness.m == 5
        assert witness.labels.tolist() == [1, -1, -1, -1, -1]
        got = sorted(map(tuple, witness.prototypes.tolist()))
        want = sorted([(0.0, 0.0), (2.0, 0.0), (-2.0, 0.0), (0.0, 2.0), (0.0, -2.0)])
        assert np.allclose(got, want, atol=1e-12)

    def test_interior_must_be_strict(self):
        with pytest.raises(InvalidWitnessError):
            polytope_to_prototypes(unit_square(), np.array([1.0, 0.0]), 1)

    def test_square_agreement(self, rng):
        witness = polytope_to_prototypes(unit_square(), np.zeros(2), 1)
        assert_membership_agreement(unit_square(), witness, 1, rng)

    def test_unbounded_digon_agreement(self, rng):
        digon = ConvexPolytope(
            (
                Halfspace(np.array([1.0, 0.3]), 0.8),
                Halfspace(np.array([-0.2, 1.0]), 0.7),
            )
        )
        witness = polytope_to_prototypes(digon, np.array([-0.5, -0.5]), -1)
        assert witness.m == 3
        assert_membership_agreement(digon, witness, -1, rng)


def reflect_each_facet(polytope, interior, inside_label):
    """The reflection witness built one facet at a time with ``geometry.reflect``."""
    protos = [interior] + [reflect(interior, f) for f in polytope.facets]
    labels = [inside_label] + [-inside_label] * polytope.n_facets
    return np.array(protos), np.array(labels)


class TestPolytopeToPrototypesMatchesReflect:
    def test_bit_identical_at_origin(self, rng):
        from conftest import random_convex_polygon

        for _ in range(50):
            poly = random_convex_polygon(rng, int(rng.integers(3, 12)))
            label = int(rng.choice([-1, 1]))
            witness = polytope_to_prototypes(poly, np.zeros(2), label)
            protos, labels = reflect_each_facet(poly, np.zeros(2), label)
            assert witness.prototypes.tobytes() == protos.tobytes()
            assert witness.labels.tolist() == labels.tolist()

    def test_close_elsewhere(self, rng):
        from conftest import random_convex_polygon, random_simplex

        cases = [random_simplex(rng, dim) for dim in (2, 3, 4, 5) for _ in range(5)]
        for _ in range(20):
            poly = random_convex_polygon(rng, int(rng.integers(3, 12)))
            cases.append((poly, rng.uniform(-0.2, 0.2, size=2)))
        for poly, interior in cases:
            witness = polytope_to_prototypes(poly, interior, 1)
            protos, labels = reflect_each_facet(poly, interior, 1)
            assert np.allclose(witness.prototypes, protos, rtol=1e-12, atol=1e-12)
            assert witness.labels.tolist() == labels.tolist()

    def test_slack_refusal_kept(self):
        with pytest.raises(InvalidWitnessError, match="strict interiority"):
            polytope_to_prototypes(unit_square(), np.array([0.0, 1.0 - 1e-12]), 1)


class TestTakacsShatter:
    def test_one_against_five_partition_uses_full_budget(self):
        arr = takacs_arrangement(2)
        labels = np.array([1, -1, 1, 1, 1, 1])  # one circle point differs
        witness = takacs_shatter(arr, Labeling.from_array(labels))
        assert witness.m == 3

    def test_constant_labelling_single_prototype(self):
        arr = takacs_arrangement(2)
        witness = takacs_shatter(arr, Labeling(0b111111, 6))
        assert witness.m == 1
        assert witness.labels.tolist() == [1]

    def test_all_circle_points_opposite_to_centre(self):
        # the decision region degenerates to an unbounded wedge at N=2
        arr = takacs_arrangement(2)
        labels = np.array([-1, -1, -1, -1, -1, 1])
        witness = takacs_shatter(arr, Labeling.from_array(labels))
        assert witness.m <= 3

    def test_exhaustive_small_case(self):
        cert = verify_shattering(takacs_arrangement(2), takacs_shatter)
        assert cert.verified
        assert set(cert.witnesses) == {1, 3}

    def test_wrong_kind_rejected(self):
        arr = gunn_arrangement(4)
        with pytest.raises(InvalidInputError):
            takacs_shatter(arr, Labeling(0, 9))

    def test_labelling_size_mismatch(self):
        arr = takacs_arrangement(2)
        with pytest.raises(InvalidInputError):
            takacs_shatter(arr, Labeling(0, 5))


class TestGunnShatter:
    def test_constant_labelling(self):
        arr = gunn_arrangement(4)
        witness = gunn_shatter(arr, Labeling(0, 9))
        assert witness.m == 1
        assert witness.labels.tolist() == [-1]

    def test_lone_interior_minority_point(self):
        # only one interior point differs: a thin strip around it suffices,
        # with the unused budget parked far away
        arr = gunn_arrangement(4)
        labels = np.full(9, -1)
        labels[7] = 1
        witness = gunn_shatter(arr, Labeling.from_array(labels))
        assert witness.m <= 4
        got, margins = evaluate_margins(witness, arr.points)
        assert np.all(got == labels)
        assert margins.min() >= 1e-6

    def test_three_point_minority_example(self):
        # minority class: the two strip vertices plus one interior point;
        # expect one minority prototype inside the circle, two majority
        # prototypes inside, one minority prototype outside
        arr = gunn_arrangement(4)
        labels = np.full(9, -1)
        labels[[0, 5, 7]] = 1
        witness = gunn_shatter(arr, Labeling.from_array(labels))
        assert witness.m == 4
        norms = np.linalg.norm(witness.prototypes, axis=1)
        inside = norms < arr.radius
        assert sorted(zip(witness.labels.tolist(), inside.tolist())) == [
            (-1, True),
            (-1, True),
            (1, False),
            (1, True),
        ]

    def test_exhaustive_m4_with_budget_and_strip_invariants(self):
        arr = gunn_arrangement(4)
        cert = verify_shattering(arr, gunn_shatter)
        assert cert.verified
        assert max(cert.witnesses) <= 4
        for bits, witness in witness_rows(cert):
            lab = Labeling(bits, arr.n).array
            if lab[7] != lab[8]:
                # strip core first, its two reflections last: all inside
                norms = np.linalg.norm(witness.prototypes[[0, -2, -1]], axis=1)
                assert np.all(norms < arr.radius)

    @pytest.mark.slow
    def test_exhaustive_m6(self):
        cert = verify_shattering(gunn_arrangement(6), gunn_shatter)
        assert cert.verified
        assert max(cert.witnesses) <= 6

    def test_wrong_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            gunn_shatter(takacs_arrangement(2), Labeling(0, 6))

    def test_scales_with_radius(self):
        arr = gunn_arrangement(4, radius=3.0)
        labels = np.full(9, -1)
        labels[[0, 5, 7]] = 1
        witness = gunn_shatter(arr, Labeling.from_array(labels), mu=1e-6)
        got, margins = evaluate_margins(witness, arr.points)
        assert np.all(got == labels)
        assert margins.min() >= 1e-6


def same_witnesses(got, want):
    assert got.verified and want.verified
    assert got.min_margin == want.min_margin
    assert got.witnesses.keys() == want.witnesses.keys()
    for m, stacks in got.witnesses.items():
        for got_stack, want_stack in zip(stacks, want.witnesses[m], strict=True):
            assert np.array_equal(got_stack, want_stack)


class TestGunnPlanTable:
    def test_sweeps_match_fresh_arrangements(self):
        # one arrangement swept at two margins, then a second arrangement:
        # each sweep must equal the same sweep on a fresh arrangement
        shared = gunn_arrangement(5)
        first = verify_shattering(shared, gunn_shatter, 1e-6)
        same_witnesses(first, verify_shattering(gunn_arrangement(5), gunn_shatter, 1e-6))
        same_witnesses(verify_shattering(shared, gunn_shatter, 1e-3),
                       verify_shattering(gunn_arrangement(5), gunn_shatter, 1e-3))
        wide = gunn_arrangement(5, radius=2.0)
        same_witnesses(verify_shattering(wide, gunn_shatter, 1e-6),
                       verify_shattering(gunn_arrangement(5, radius=2.0), gunn_shatter, 1e-6))

        # witnesses own their arrays: scribbling over them changes no later sweep
        for _, prototypes, labels in first.witnesses.values():
            prototypes[:] = 7.0
            labels[:] = 1
        same_witnesses(verify_shattering(shared, gunn_shatter, 1e-6),
                       verify_shattering(gunn_arrangement(5), gunn_shatter, 1e-6))

    def test_plan_whose_prototypes_coincide_does_not_build(self):
        # the lone black interior point's one plan parks a prototype; parked on
        # the strip core, the prototypes are not pairwise distinct, so the plan
        # is passed over instead of raising InvalidInputError
        arr = gunn_arrangement(4)
        labeling = Labeling(1 << 7, arr.n)
        (plan,) = _strip_plans(arr, labeling.array.tolist(), 1)
        assert plan[2] == 1
        assert _strip_witness(arr, 1, *plan, DEFAULT_MU) is not None
        core, _ = arr._plans["strip", plan[0]]
        arr._plans["park", 1] = (core.copy(),)
        assert _strip_witness(arr, 1, *plan, DEFAULT_MU) is None
        with pytest.raises(ConstructionInfeasibleError, match="no strip plan builds"):
            gunn_shatter(arr, labeling)

    @pytest.mark.parametrize("build, generator, param",
                             [(gunn_arrangement, gunn_shatter, 4), (takacs_arrangement, takacs_shatter, 2)],
                             ids=["gunn4", "takacs2"])
    def test_constant_witnesses_own_their_arrays(self, build, generator, param):
        # the constant labellings too: neither the labelling nor the arrangement points are viewed
        arr, fresh = build(param), build(param)
        points = arr.points.copy()
        for bits in (0, (1 << arr.n) - 1):
            labeling = Labeling(bits, arr.n)
            witness = generator(arr, labeling)
            assert witness.prototypes.flags.owndata and witness.labels.flags.owndata
            witness.prototypes[:] = 7.0
            witness.labels[:] = -witness.labels
            assert np.array_equal(arr.points, points)
            assert np.array_equal(labeling.array, np.full(arr.n, 1 if bits else -1))
            assert_same(generator(arr, labeling), generator(fresh, labeling))

    def test_arrangement_points_are_read_only(self):
        points = gunn_arrangement(4).points.copy()
        arr = Arrangement(kind="gunn", points=points, radius=1.0, param=4)
        points[0] = 5.0    # the caller's array is not the arrangement's
        assert arr.points[0, 0] != 5.0
        with pytest.raises(ValueError):
            arr.points[0, 0] = 5.0


def circular_runs_oracle(mask):
    """Maximal runs of True in circular index order, each a list of indices, as the disc witness found them."""
    n = len(mask)
    if not any(mask):
        return []
    if all(mask):
        return [list(range(n))]
    start = 0
    while not (mask[start] and not mask[start - 1]):
        start += 1
    runs, current = [], []
    for k in range(n):
        i = (start + k) % n
        if mask[i]:
            current.append(i)
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    return runs


def disc_witness_oracle(arrangement, labels, inside_label):
    """The disc witness built per labelling: chords against this labelling's kept points, then pads.

    Returns the witness and, per run ``(first, length)``, its reflection
    rows and its chord count.
    """
    n_v = arrangement.n_vertices
    circle = arrangement.points[:n_v]
    mask = labels[:n_v] != inside_label
    kept = np.vstack([circle[~mask], arrangement.points[n_v:], np.zeros((1, 2))])
    facets, spans = [], {}
    for run in circular_runs_oracle(mask.tolist()):
        chords = _run_chords(circle, run, kept, arrangement.radius)
        spans[run[0], len(run)] = (len(facets) + 1, len(chords))
        facets.extend(chords)
    facets.extend(_pad_facets(arrangement.budget - 1 - len(facets), arrangement.radius))
    witness = polytope_to_prototypes(ConvexPolytope(tuple(facets)), np.zeros(2), inside_label)
    rows = {key: (witness.prototypes[at : at + count], count) for key, (at, count) in spans.items()}
    return witness, rows


class TestRunTable:
    @pytest.mark.parametrize("radius", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("build, generator, param",
                             [(gunn_arrangement, gunn_shatter, 4), (gunn_arrangement, gunn_shatter, 5),
                              (gunn_arrangement, gunn_shatter, 6), (takacs_arrangement, takacs_shatter, 2),
                              (takacs_arrangement, takacs_shatter, 3), (takacs_arrangement, takacs_shatter, 4)],
                             ids=["gunn4", "gunn5", "gunn6", "takacs2", "takacs3", "takacs4"])
    def test_every_run_entry_is_the_per_labelling_recipe(self, build, generator, param, radius):
        # every cut-off vertex mask, the points off the polygon labelled +1: each run's
        # tabled rows, whichever labelling built them, are this labelling's own chords
        arr = build(param, radius)
        n_v = arr.n_vertices
        off_polygon = sum(1 << i for i in range(n_v, arr.n))
        splits = 0
        for mask in range(1, 1 << n_v):
            bits = ((1 << n_v) - 1 - mask) | off_polygon
            labeling = Labeling(bits, arr.n)
            witness = generator(arr, labeling, 1e-6 * radius)
            want, rows = disc_witness_oracle(arr, labeling.array, 1)
            assert_same(witness, want)
            for (first, length), (reflections, count) in rows.items():
                entry = arr._plans["run", first, length]
                assert entry.tobytes() == reflections.tobytes()
                splits += count > 1
        assert splits > 0

    @pytest.mark.parametrize("build, generator, param",
                             [(gunn_arrangement, gunn_shatter, 5), (takacs_arrangement, takacs_shatter, 4)],
                             ids=["gunn5", "takacs4"])
    def test_full_sweep_tables_at_most_one_entry_per_run(self, build, generator, param):
        arr = build(param)
        assert verify_shattering(arr, generator).verified
        n_v = arr.n_vertices
        runs = [key for key in arr._plans if key[0] == "run"]
        # n_v starts times n_v - 1 lengths, plus the whole polygon
        assert 0 < len(runs) <= n_v * (n_v - 1) + 1


PAIRED = pytest.mark.parametrize(
    "build, generator, param",
    [(gunn_arrangement, gunn_shatter, 4), (gunn_arrangement, gunn_shatter, 5),
     (takacs_arrangement, takacs_shatter, 2), (takacs_arrangement, takacs_shatter, 3),
     (takacs_arrangement, takacs_shatter, 4)],
    ids=["gunn4", "gunn5", "takacs2", "takacs3", "takacs4"],
)


def pair_entries(arrangement):
    return [key for key in arrangement._plans if key[0] == "pair"]


def assert_same(got, want, sign=1):
    """``got`` has bit-equal prototypes and ``sign`` times the labels of ``want``."""
    assert np.array_equal(got.prototypes, want.prototypes)
    assert np.array_equal(got.labels, sign * want.labels)


class TestComplementPairs:
    @PAIRED
    def test_complement_witness_is_the_negated_witness(self, build, generator, param):
        # each call is the first of its pair on its arrangement, so both are built afresh
        low, high = build(param), build(param)
        n = low.n
        full = (1 << n) - 1
        for bits in range(1 << (n - 1)):
            witness = generator(low, Labeling(bits, n))
            assert_same(generator(high, Labeling(full ^ bits, n)), witness, sign=-1)

    @PAIRED
    def test_descending_sweep_matches_ascending(self, build, generator, param):
        up, down = build(param), build(param)
        n = up.n
        ascending = [generator(up, Labeling(bits, n)) for bits in range(1 << n)]
        descending = [generator(down, Labeling(bits, n)) for bits in reversed(range(1 << n))]
        for want, got in zip(ascending, reversed(descending)):
            assert_same(got, want)
        assert pair_entries(up) == pair_entries(down) == []

    @PAIRED
    def test_same_labelling_twice_is_rebuilt_not_negated(self, build, generator, param):
        arr, fresh = build(param), build(param)
        n = arr.n
        full = (1 << n) - 1
        for bits in range(1 << n):
            first = generator(arr, Labeling(bits, n))
            assert_same(generator(arr, Labeling(bits, n)), first)
            assert_same(first, generator(fresh, Labeling(bits, n)))
        # every labelling was asked for twice in a row: its complement still negates it
        assert_same(generator(arr, Labeling(full, n)), generator(fresh, Labeling(0, n)), sign=-1)

    @PAIRED
    def test_scribbled_first_witness_leaves_its_complement(self, build, generator, param):
        arr, fresh = build(param), build(param)
        n = arr.n
        full = (1 << n) - 1
        for bits in range(1 << (n - 1)):
            witness = generator(arr, Labeling(bits, n))
            witness.prototypes[:] = 1
            witness.labels[:] = 1
            assert_same(generator(arr, Labeling(full ^ bits, n)),
                        generator(fresh, Labeling(full ^ bits, n)))

    @PAIRED
    def test_margins_never_share_an_entry(self, build, generator, param):
        arr, fresh = build(param), build(param)
        n = arr.n
        labeling, complement = Labeling(5, n), Labeling(((1 << n) - 1) ^ 5, n)
        generator(arr, labeling, 1e-6)
        got = generator(arr, complement, 1e-4)   # built, not the 1e-6 entry negated
        assert sorted(pair_entries(arr), key=lambda key: key[2]) == [("pair", 5, 1e-6), ("pair", 5, 1e-4)]
        assert_same(got, generator(fresh, complement, 1e-4))

    @PAIRED
    def test_full_sweep_leaves_no_pair_entry(self, build, generator, param):
        arr = build(param)
        assert verify_shattering(arr, generator).verified
        assert pair_entries(arr) == []


class TestRandomPolytopeAgreement:
    def test_random_polygons(self, rng):
        from conftest import random_convex_polygon

        for _ in range(10):
            n_facets = int(rng.integers(3, 11))
            poly = random_convex_polygon(rng, n_facets)
            label = int(rng.choice([-1, 1]))
            witness = polytope_to_prototypes(poly, np.zeros(2), label)
            assert witness.m == n_facets + 1
            assert_membership_agreement(poly, witness, label, rng, n_samples=2000)

    def test_random_simplices(self, rng):
        from conftest import random_simplex

        for dim in (3, 4, 5):
            poly, centroid = random_simplex(rng, dim)
            witness = polytope_to_prototypes(poly, centroid, 1)
            assert_membership_agreement(poly, witness, 1, rng, n_samples=2000)
