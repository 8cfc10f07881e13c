import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vcnn.classifier import (
    DEFAULT_MU,
    LabeledPrototypeSet,
    Labeling,
    check_prototype_stack,
    evaluate_margins,
    nearest_distances,
    prototype_distances,
    check_mu,
    realisation,
)
from vcnn.constructions import gunn_arrangement, gunn_shatter, takacs_arrangement, takacs_shatter
from vcnn.errors import InvalidInputError
from vcnn.geometry import DEFAULT_TOL


def two_prototypes():
    return LabeledPrototypeSet(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([1, -1]))


class TestLabeledPrototypeSet:
    def test_basic_fields(self):
        s = two_prototypes()
        assert s.m == 2 and s.dim == 2

    def test_coincident_prototypes_rejected(self):
        with pytest.raises(InvalidInputError):
            LabeledPrototypeSet(np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([1, -1]))

    def test_bad_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            LabeledPrototypeSet(np.array([[0.0, 0.0]]), np.array([2]))


    def test_negated_is_a_private_copy_with_every_label_negated(self):
        s = LabeledPrototypeSet(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.5]]), np.array([1, -1, -1]))
        flipped = s.negated()
        assert flipped.prototypes.tobytes() == s.prototypes.tobytes()
        assert not np.shares_memory(flipped.prototypes, s.prototypes)
        assert flipped.labels.tolist() == [-1, 1, 1] and flipped.labels.dtype == np.int64


@st.composite
def lattice_cases(draw):
    """``(prototypes, labels, points, target)`` on the integer lattice, where exact ties occur."""
    d = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(-3, 3)] * d)
    prototypes = draw(st.lists(coords, min_size=1, max_size=5, unique=True))
    m = len(prototypes)
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m))
    points = draw(st.lists(coords, min_size=1, max_size=8))
    target = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(points), max_size=len(points)))
    return prototypes, labels, points, target


class TestComplementLemma:
    """Negating a witness's labels and the target leaves ``realisation`` bit for bit as it was.

    The search and the constructions (``constructions._paired``) hand the
    complement ``~L`` the witness of ``L`` with every label negated, and
    rely on it passing exactly when ``L``'s does, at the same margin.
    """

    @given(case=lattice_cases(), mu=st.sampled_from([DEFAULT_MU, 0.5, 1.0]))
    # a point midway between prototypes of both labels: margin 0, against either target
    @example(case=([(0, 0), (2, 0)], [1, -1], [(1, 0), (-1, 0)], [1, 1]), mu=DEFAULT_MU)
    @example(case=([(0, 0), (2, 0)], [1, -1], [(1, 0), (-1, 0)], [-1, 1]), mu=DEFAULT_MU)
    # one-label witnesses: every margin is +inf or -inf
    @example(case=([(0, 0), (1, 1)], [1, 1], [(3, 0), (0, 2)], [1, 1]), mu=DEFAULT_MU)
    @example(case=([(0, 0), (1, 1)], [-1, -1], [(3, 0), (0, 2)], [1, -1]), mu=DEFAULT_MU)
    def test_negating_labels_and_target_changes_nothing(self, case, mu):
        prototypes, labels, points, target = (np.array(field) for field in case)
        prototypes = prototypes.astype(np.float64)
        points = points.astype(np.float64)
        ok, worst = realisation(LabeledPrototypeSet(prototypes, labels), points, target, mu)
        ok_negated, worst_negated = realisation(LabeledPrototypeSet(prototypes, -labels), points, -target, mu)
        assert ok_negated == ok
        assert struct.pack("<d", worst_negated) == struct.pack("<d", worst)   # the sign of a zero too


class TestCheckPrototypeStack:
    def stack(self):
        protos = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]] * 4)
        labels = np.array([[1, -1, 1]] * 4)
        return protos, labels

    def test_valid_stack_passes(self):
        check_prototype_stack(*self.stack())

    @pytest.mark.parametrize(
        "defect",
        [
            lambda p, l: p.__setitem__((2, 1, 0), np.nan),
            lambda p, l: l.__setitem__((2, 1), 0),
            lambda p, l: p.__setitem__((2, 2), p[2, 0] + [0.5 * DEFAULT_TOL, 0.0]),
            lambda p, l: p.__setitem__((2, 2), p[2, 0] + [DEFAULT_TOL, 0.0]),
        ],
        ids=["non-finite", "label-zero", "coincident", "at-tolerance"],
    )
    def test_defect_in_a_later_row_refused(self, defect):
        protos, labels = self.stack()
        defect(protos, labels)
        with pytest.raises(InvalidInputError):
            check_prototype_stack(protos, labels)

    def test_matches_the_full_distance_matrix(self, rng):
        # the upper triangle gives the same verdict as every ordered pair
        for _ in range(200):
            protos = rng.normal(size=(1, 5, 2))
            protos[0, 3] = protos[0, 1] + rng.choice([0.0, 0.5, 1.0, 2.0]) * DEFAULT_TOL * rng.normal(size=2)
            diff = protos[0][None, :, :] - protos[0][:, None, :]
            dist = np.sqrt((diff * diff).sum(axis=-1))
            np.fill_diagonal(dist, np.inf)
            try:
                check_prototype_stack(protos, np.ones((1, 5), dtype=np.int64))
                refused = False
            except InvalidInputError:
                refused = True
            assert refused == bool(dist.min() <= DEFAULT_TOL)


class TestLabeling:
    def test_bitmask_semantics(self):
        lab = Labeling(0b101, 3)
        assert [int(lab.array[i]) for i in range(3)] == [1, -1, 1]
        assert lab.size == 3

    def test_roundtrip(self):
        arr = np.array([1, -1, -1, 1, 1])
        assert Labeling.from_array(arr).array.tolist() == arr.tolist()

    def test_array_is_built_once_and_read_only(self):
        lab = Labeling(0b101, 3)
        assert lab.array is lab.array
        assert lab.array.dtype == np.int64 and lab.array.tolist() == [1, -1, 1]
        with pytest.raises(ValueError):
            lab.array[0] = -1

    @pytest.mark.parametrize(
        "arrangement, generator",
        [(takacs_arrangement(2), takacs_shatter), (gunn_arrangement(4), gunn_shatter)],
        ids=["takacs", "gunn"],
    )
    def test_witness_cannot_write_through_the_labelling(self, arrangement, generator):
        lab = Labeling(0, arrangement.n)   # constant: the witness's one label is the labelling's first
        witness = generator(arrangement, lab)
        witness.labels[0] = 1              # the witness owns a copy
        assert lab.array.tolist() == [-1] * arrangement.n
        with pytest.raises(ValueError):
            lab.array[0] = 1

    def test_out_of_range_bits(self):
        with pytest.raises(InvalidInputError):
            Labeling(8, 3)

    @pytest.mark.parametrize("size", [1, 15, 22, 64, 80])
    def test_array_matches_the_bit_by_bit_reference(self, size):
        rng = np.random.default_rng(size)
        masks = {0, (1 << size) - 1, 1 << (size - 1)}
        masks |= {int.from_bytes(rng.bytes(10), "little") % (1 << size) for _ in range(40)}
        for bits in masks:
            array = Labeling(bits, size).array
            assert array.dtype == np.int64 and not array.flags.writeable
            assert array.tolist() == [1 if bits >> i & 1 else -1 for i in range(size)]

    @pytest.mark.parametrize("labels", [[[1, -1], [1, 1]], [[1]], 1], ids=["2-d", "column", "scalar"])
    def test_from_array_refuses_labels_that_are_not_1d(self, labels):
        # the 2-d array got NumPy's broadcast error as its message
        with pytest.raises(InvalidInputError, match="labels must be a 1-D array"):
            Labeling.from_array(labels)

    def test_realises_a_labelling_past_63_bits(self):
        # 80 points on a line, +1 from x = 40 on: bit 79 is set
        points = np.column_stack([np.arange(80.0), np.zeros(80)])
        labeling = Labeling.from_array(np.where(np.arange(80) < 40, -1, 1))
        assert labeling.bits >= 2**63
        s = LabeledPrototypeSet(np.array([[19.5, 0.0], [59.5, 0.0]]), np.array([-1, 1]))
        assert realisation(s, points, labeling.array, DEFAULT_MU)[0]
        assert not realisation(s, points, Labeling(labeling.bits ^ 1 << 79, 80).array, DEFAULT_MU)[0]

    def test_numpy_integer_bits_are_stored_as_int(self):
        lab = Labeling(np.int64(5), 3)
        assert type(lab.bits) is int and lab.array.tolist() == [1, -1, 1]


class TestOnePointMargins:
    def test_basic_margin(self):
        labels, margins = evaluate_margins(two_prototypes(), [[0.5, 0.0]])
        assert labels.tolist() == [1]
        assert margins[0] == pytest.approx(1.0)

    def test_tie_has_zero_margin(self):
        _, margins = evaluate_margins(two_prototypes(), [[1.0, 0.0]])
        assert margins[0] == pytest.approx(0.0, abs=1e-12)

    def test_tie_label_survives_rotation(self):
        # (1, 0.5) is on the bisector; after rotating by 3 rad the two
        # distances differ by roundoff, which must not decide the label
        s = two_prototypes()
        rot = np.array([[math.cos(3.0), -math.sin(3.0)], [math.sin(3.0), math.cos(3.0)]])
        moved = LabeledPrototypeSet(s.prototypes @ rot.T, s.labels)
        q = np.array([1.0, 0.5])
        for labels, margins in (evaluate_margins(s, [q]), evaluate_margins(moved, [rot @ q])):
            assert (labels.tolist(), margins.tolist()) == ([1], [0.0])

    @pytest.mark.parametrize(
        "points, message",
        [(np.zeros((2, 3)), "dimension mismatch"), (np.zeros((2, 2, 2)), "an \\(n, d\\) array"),
         (np.zeros((1, 1, 2)), "an \\(n, d\\) array")],
        ids=["3-d-points", "rank-3", "rank-3-one-point"],
    )
    def test_points_of_another_dimension_or_rank_refused(self, points, message):
        # the (2, 2, 2) array gave two labels and two margins
        with pytest.raises(InvalidInputError, match=message):
            evaluate_margins(two_prototypes(), points)

    def test_a_bare_point_is_one_row(self):
        labels, margins = evaluate_margins(two_prototypes(), [0.5, 0.0])
        assert (labels.tolist(), margins.tolist()) == ([1], [1.0])

    def test_single_prototype_margin_infinite(self):
        s = LabeledPrototypeSet(np.array([[3.0, 4.0]]), np.array([-1]))
        labels, margins = evaluate_margins(s, [[100.0, -50.0]])
        assert labels.tolist() == [-1]
        assert margins[0] == math.inf

    @given(
        angle=st.floats(0, 2 * math.pi),
        tx=st.floats(-5, 5),
        ty=st.floats(-5, 5),
        qx=st.floats(-3, 3),
        qy=st.floats(-3, 3),
    )
    def test_rigid_motion_invariance(self, angle, tx, ty, qx, qy):
        s = two_prototypes()
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        shift = np.array([tx, ty])
        moved = LabeledPrototypeSet(s.prototypes @ rot.T + shift, s.labels)
        q = np.array([qx, qy])
        l0, m0 = evaluate_margins(s, [q])
        l1, m1 = evaluate_margins(moved, [rot @ q + shift])
        assert l0.tolist() == l1.tolist()
        assert m1[0] == pytest.approx(m0[0], abs=1e-9)

    @given(scale=st.floats(0.01, 100), qx=st.floats(-3, 3), qy=st.floats(-3, 3))
    def test_scaling_scales_margin(self, scale, qx, qy):
        s = two_prototypes()
        scaled = LabeledPrototypeSet(s.prototypes * scale, s.labels)
        q = np.array([qx, qy])
        l0, m0 = evaluate_margins(s, [q])
        l1, m1 = evaluate_margins(scaled, [q * scale])
        assert l0.tolist() == l1.tolist()
        assert m1[0] == pytest.approx(m0[0] * scale, rel=1e-9)

    def test_two_prototype_boundary_is_perpendicular_bisector(self, rng):
        a, b = rng.uniform(-1, 1, size=(2, 2))
        s = LabeledPrototypeSet(np.array([a, b]), np.array([1, -1]))
        mid = 0.5 * (a + b)
        normal = b - a
        for q in rng.uniform(-2, 2, size=(100, 2)):
            side = float(normal @ (q - mid))
            if abs(side) < 1e-9:
                continue
            labels, _ = evaluate_margins(s, [q])
            assert labels.tolist() == [1 if side < 0 else -1]


def argmin_margins(s, pts):
    """Labels and margins by the nearest prototype overall (reference for evaluate_margins)."""
    diff = pts[:, None, :] - s.prototypes[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    order = np.argmin(dist, axis=1)
    win_labels = s.labels[order]
    d_win = dist[np.arange(pts.shape[0]), order]
    opp = s.labels[None, :] != win_labels[:, None]
    margins = np.where(opp, dist, np.inf).min(axis=1) - d_win
    tie = margins <= 1e-12 * d_win
    win_labels[tie] = 1
    margins[tie] = 0.0
    return win_labels, margins


class TestNearestDistances:
    def test_distances_are_numpys_sum_below_eight_coordinates(self, rng):
        # summed in coordinate order, as NumPy sums fewer than eight terms, so no byte changed
        for d in range(1, 8):
            points, protos = rng.uniform(-1, 1, size=(9, d)), rng.uniform(-3, 3, size=(5, 4, d))
            diff = points - protos[..., :, None, :]
            assert np.array_equal(prototype_distances(points, protos), np.sqrt((diff * diff).sum(axis=-1)))

    def test_one_label_set_has_infinite_margin(self):
        points = np.array([[0.0, 0.0]])
        same, other = nearest_distances(points, np.array([1]), np.array([[0.5, 0.0]]), np.array([1]))
        assert same[0] == 0.5
        assert other[0] - same[0] == math.inf

    def test_evaluate_margins_matches_argmin_rule(self, rng):
        # integer coordinates on a small grid give many exact ties
        for _ in range(500):
            m, d = rng.integers(1, 5), rng.integers(1, 4)
            grid = rng.permutation(np.stack(np.meshgrid(*[np.arange(-2, 3)] * d), -1).reshape(-1, d))
            s = LabeledPrototypeSet(grid[:m].astype(float), rng.choice([-1, 1], size=m))
            pts = rng.integers(-3, 4, size=(20, d)).astype(float)
            got, margins = evaluate_margins(s, pts)
            want, want_margins = argmin_margins(s, pts)
            assert np.array_equal(got, want)
            assert np.array_equal(margins, want_margins)


class TestRealisation:
    def test_matching_labelling(self):
        s = two_prototypes()
        pts = np.array([[-1.0, 0.0], [3.0, 0.0]])
        assert realisation(s, pts, Labeling.from_array([1, -1]).array, 0.1)[0]
        assert not realisation(s, pts, Labeling.from_array([-1, 1]).array, 0.1)[0]

    def test_margin_threshold_enforced(self):
        s = two_prototypes()
        pts = np.array([[0.9, 0.0]])
        # margin is 0.2 here
        assert realisation(s, pts, Labeling.from_array([1]).array, 0.1)[0]
        assert not realisation(s, pts, Labeling.from_array([1]).array, 0.3)[0]

    @pytest.mark.parametrize(
        "points, target",
        [(np.zeros((2, 2)), [1]), (np.zeros((2, 2)), [1, -1, 1]), (np.zeros((1, 2)), [1, -1]),
         (np.zeros((2, 2)), [[1, -1]]), (np.zeros((2, 2)), 1)],
        ids=["short", "long", "one-point", "row", "scalar"],
    )
    def test_target_must_hold_one_label_per_point(self, points, target):
        # broadcasting let a short target through: two points and [1] gave (True, 2.0)
        with pytest.raises(InvalidInputError, match="one label per point"):
            realisation(two_prototypes(), points, np.array(target), 0.1)

    def test_misclassified_point_has_negative_minimum_margin(self):
        pts = np.array([[-1.0, 0.0], [0.5, 0.0]])
        ok, worst = realisation(two_prototypes(), pts, np.array([1, -1]), 0.1)
        assert not ok
        assert worst == pytest.approx(-1.0)

    def test_mu_must_be_positive(self):
        for mu in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                check_mu(mu)

    def test_margins_vectorised_consistent(self, rng):
        protos = rng.uniform(-1, 1, size=(5, 3))
        labels = rng.choice([-1, 1], size=5)
        if np.all(labels == labels[0]):
            labels[0] = -labels[0]
        s = LabeledPrototypeSet(protos, labels)
        pts = rng.uniform(-1, 1, size=(50, 3))
        got, margins = evaluate_margins(s, pts)
        for p, l, mg in zip(pts, got, margins):
            l2, m2 = evaluate_margins(s, [p])
            assert l2.tolist() == [l] and m2[0] == pytest.approx(mg, abs=1e-12)
