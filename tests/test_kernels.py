import numpy as np

from vcnn import kernels
from vcnn.classifier import LabeledPrototypeSet, realisation


def test_search_improves_on_initial_margin(rng):
    points = np.array([[-1.0, 0.0], [1.0, 0.0]])
    target = np.array([1, -1], dtype=np.int64)
    inits = np.array([[[-0.1, 0.0], [0.1, 0.0]]])
    init_labels = np.array([[1, -1]], dtype=np.int64)
    val, protos, _ = kernels.search_labeling(
        points, target, inits, init_labels, 60, 0.3, 0.5, 1.5, 1e-7
    )
    assert val >= 1.5  # hill-climb reaches the requested margin target


def test_score_is_the_realisation_minimum_margin(rng):
    # with no sweeps the kernel returns the score of its one restart
    for _ in range(200):
        n, m, d = rng.integers(1, 8), rng.integers(1, 5), rng.integers(1, 4)
        points = rng.uniform(-1, 1, size=(n, d))
        target = rng.choice([-1, 1], size=n)
        s = LabeledPrototypeSet(rng.uniform(-1, 1, size=(m, d)), rng.choice([-1, 1], size=m))
        val, _, _ = kernels.search_labeling(
            points, target, s.prototypes[None], s.labels[None], 0, 0.1, 0.5, np.inf, 1e-7
        )
        assert val == realisation(s, points, target, 1e-6)[1]
