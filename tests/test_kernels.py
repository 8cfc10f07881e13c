import numpy as np

from vcnn import kernels


def test_min_margin_sentinel_for_one_class():
    points = np.array([[0.0, 0.0]])
    target = np.array([1], dtype=np.int64)
    protos = np.array([[0.5, 0.0]])
    labels = np.array([1], dtype=np.int64)
    # no opposite prototype: margin saturates at the sentinel scale
    val = kernels._min_margin_numpy(points, target, protos, labels)
    assert val > 1e29


def test_search_improves_on_initial_margin(rng):
    points = np.array([[-1.0, 0.0], [1.0, 0.0]])
    target = np.array([1, -1], dtype=np.int64)
    inits = np.array([[[-0.1, 0.0], [0.1, 0.0]]])
    init_labels = np.array([[1, -1]], dtype=np.int64)
    val, protos, _ = kernels.search_labeling(
        points, target, inits, init_labels, 60, 0.3, 0.5, 1.5, 1e-7
    )
    assert val >= 1.5  # hill-climb reaches the requested margin target
