import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vcnn.classifier import (
    LabeledPrototypeSet,
    Labeling,
    classify,
    evaluate_margins,
    realizes,
)
from vcnn.errors import InvalidInputError


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


class TestLabeling:
    def test_bitmask_semantics(self):
        lab = Labeling(0b101, 3)
        assert [lab.label(i) for i in range(3)] == [1, -1, 1]
        assert lab.to_array().tolist() == [1, -1, 1]

    def test_roundtrip(self):
        arr = np.array([1, -1, -1, 1, 1])
        assert Labeling.from_array(arr).to_array().tolist() == arr.tolist()

    def test_out_of_range_bits(self):
        with pytest.raises(InvalidInputError):
            Labeling(8, 3)


class TestClassify:
    def test_basic_margin(self):
        label, margin = classify(two_prototypes(), [0.5, 0.0])
        assert label == 1
        assert margin == pytest.approx(1.0)

    def test_tie_has_zero_margin(self):
        _, margin = classify(two_prototypes(), [1.0, 0.0])
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_tie_label_survives_rotation(self):
        # (1, 0.5) is on the bisector; after rotating by 3 rad the two
        # distances differ by roundoff, which must not decide the label
        s = two_prototypes()
        rot = np.array([[math.cos(3.0), -math.sin(3.0)], [math.sin(3.0), math.cos(3.0)]])
        moved = LabeledPrototypeSet(s.prototypes @ rot.T, s.labels)
        q = np.array([1.0, 0.5])
        assert classify(s, q) == (1, 0.0)
        assert classify(moved, rot @ q) == (1, 0.0)

    def test_single_prototype_margin_infinite(self):
        s = LabeledPrototypeSet(np.array([[3.0, 4.0]]), np.array([-1]))
        label, margin = classify(s, [100.0, -50.0])
        assert label == -1
        assert margin == math.inf

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
        l0, m0 = classify(s, q)
        l1, m1 = classify(moved, rot @ q + shift)
        assert l0 == l1
        assert m1 == pytest.approx(m0, abs=1e-9)

    @given(scale=st.floats(0.01, 100), qx=st.floats(-3, 3), qy=st.floats(-3, 3))
    def test_scaling_scales_margin(self, scale, qx, qy):
        s = two_prototypes()
        scaled = LabeledPrototypeSet(s.prototypes * scale, s.labels)
        q = np.array([qx, qy])
        l0, m0 = classify(s, q)
        l1, m1 = classify(scaled, q * scale)
        assert l0 == l1
        assert m1 == pytest.approx(m0 * scale, rel=1e-9)

    def test_two_prototype_boundary_is_perpendicular_bisector(self, rng):
        a, b = rng.uniform(-1, 1, size=(2, 2))
        s = LabeledPrototypeSet(np.array([a, b]), np.array([1, -1]))
        mid = 0.5 * (a + b)
        normal = b - a
        for q in rng.uniform(-2, 2, size=(100, 2)):
            side = float(normal @ (q - mid))
            if abs(side) < 1e-9:
                continue
            label, _ = classify(s, q)
            assert label == (1 if side < 0 else -1)


class TestRealizes:
    def test_matching_labelling(self):
        s = two_prototypes()
        pts = np.array([[-1.0, 0.0], [3.0, 0.0]])
        assert realizes(s, pts, Labeling.from_array([1, -1]), mu=0.1)
        assert not realizes(s, pts, Labeling.from_array([-1, 1]), mu=0.1)

    def test_margin_threshold_enforced(self):
        s = two_prototypes()
        pts = np.array([[0.9, 0.0]])
        # margin is 0.2 here
        assert realizes(s, pts, Labeling.from_array([1]), mu=0.1)
        assert not realizes(s, pts, Labeling.from_array([1]), mu=0.3)

    def test_mu_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            realizes(two_prototypes(), np.zeros((1, 2)), Labeling(1, 1), mu=0.0)

    def test_margins_vectorised_consistent(self, rng):
        protos = rng.uniform(-1, 1, size=(5, 3))
        labels = rng.choice([-1, 1], size=5)
        if np.all(labels == labels[0]):
            labels[0] = -labels[0]
        s = LabeledPrototypeSet(protos, labels)
        pts = rng.uniform(-1, 1, size=(50, 3))
        got, margins = evaluate_margins(s, pts)
        for p, l, mg in zip(pts, got, margins):
            l2, m2 = classify(s, p)
            assert l2 == l and m2 == pytest.approx(mg, abs=1e-12)
