import numpy as np
import pytest

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


def _reference_score(points, point_labels, protos, proto_labels):
    diff = points[:, None, :] - protos[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    same = proto_labels[None, :] == point_labels[:, None]
    return float((np.where(same, np.inf, dist).min(axis=1) - np.where(same, dist, np.inf).min(axis=1)).min())


def _reference_search(points, point_labels, inits, init_labels, sweeps, step0, decay, target, min_step):
    """The per-restart hill-climb the lockstep kernel replaced, one restart after another."""
    best_val, best_idx, best_protos = -np.inf, 0, inits[0].copy()
    for ri in range(inits.shape[0]):
        protos = inits[ri].copy()
        val = _reference_score(points, point_labels, protos, init_labels[ri])
        step = step0
        for _ in range(sweeps):
            improved = False
            for j in range(protos.shape[0]):
                for c in range(protos.shape[1]):
                    orig = protos[j, c]
                    for move in (step, -step):
                        protos[j, c] = orig + move
                        cand = _reference_score(points, point_labels, protos, init_labels[ri])
                        if cand > val:
                            val, improved = cand, True
                            break
                    else:
                        protos[j, c] = orig
            if val >= target:
                break
            if not improved:
                step *= decay
                if step < min_step:
                    break
        if val > best_val:
            best_val, best_idx, best_protos = val, ri, protos.copy()
        if best_val >= target:
            break
    return best_val, best_protos, best_idx


@pytest.mark.parametrize("n, m, d", [(5, 1, 2), (7, 3, 2), (12, 4, 3)], ids=["m1", "m3", "n12-m4-d3"])
def test_cached_minima_match_a_fresh_score(rng, n, m, d):
    # after 12 sweeps each restart's margin, scored from cached minima, is the fresh
    # score of its prototypes, bit for bit; one restart per labelling returns every
    # restart, and a third of them have one label
    for _ in range(4):
        points = rng.uniform(-1, 1, size=(n, d))
        targets = rng.choice([-1, 1], size=(12, n))
        labels = rng.choice([-1, 1], size=(12, 1, m))
        labels[::3] = rng.choice([-1, 1], size=(4, 1, 1))
        best, protos, _ = kernels.search_batch(
            points, targets, rng.uniform(-1, 1, size=(12, 1, m, d)), labels, 12, 0.2, 0.5, np.inf, 1e-7)
        for k in range(12):
            fresh = _reference_score(points, targets[k], protos[k], labels[k, 0])
            assert np.float64(best[k]).tobytes() == np.float64(fresh).tobytes()


def _random_problem(rng):
    n, m, d = int(rng.integers(1, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
    r, n_lab = int(rng.integers(1, 6)), int(rng.integers(1, 9))
    labels = rng.choice([-1, 1], size=(n_lab, r, m))
    one_label = rng.random((n_lab, r)) < 0.25   # these restarts score +inf or -inf
    labels[one_label] = rng.choice([-1, 1], size=(int(one_label.sum()), 1))
    return (
        rng.uniform(-1, 1, size=(n, d)),
        rng.choice([-1, 1], size=(n_lab, n)),
        rng.uniform(-1, 1, size=(n_lab, r, m, d)),
        labels,
        int(rng.choice([0, 1, 3, 12])),
        float(rng.uniform(0.01, 0.5)),
        0.5,
        float(rng.choice([0.05, 0.2, 0.6, np.inf])),
        float(rng.choice([1e-6, 1e-2, 0.3])),
    )


def _assert_rows_equal(got, want):
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


def test_batch_is_bit_identical_to_per_restart_loop(rng):
    # values, prototypes and restart indices, for one-label restarts (scores of
    # +-inf), no sweeps, min_step above step0, and targets met at different sweeps
    for _ in range(120):
        points, targets, inits, labels, *budget = _random_problem(rng)
        best, protos, index = kernels.search_batch(points, targets, inits, labels, *budget)
        for k in range(targets.shape[0]):
            want = _reference_search(points, targets[k], inits[k], labels[k], *budget)
            _assert_rows_equal((best[k], protos[k], index[k]), want)


def test_earlier_restart_wins_even_when_a_later_one_reaches_target_first():
    points = np.array([[-1.0, 0.0], [1.0, 0.0]])
    target = np.array([1, -1], dtype=np.int64)
    # restart 0 needs several sweeps to reach margin 1.5; restart 1 starts past it
    inits = np.array([[[-0.1, 0.0], [0.1, 0.0]], [[-1.0, 0.0], [1.0, 0.0]]])
    init_labels = np.array([[1, -1], [1, -1]], dtype=np.int64)
    for sweeps, winner in ((60, 0), (1, 1)):
        got = kernels.search_labeling(points, target, inits, init_labels, sweeps, 0.3, 0.5, 1.5, 1e-7)
        want = _reference_search(points, target, inits, init_labels, sweeps, 0.3, 0.5, 1.5, 1e-7)
        _assert_rows_equal(got, want)
        assert got[2] == winner and got[0] >= 1.5


def test_split_batch_equals_unsplit(rng):
    for _ in range(40):
        points, targets, inits, labels, *budget = _random_problem(rng)
        whole = kernels.search_batch(points, targets, inits, labels, *budget)
        cut = int(rng.integers(0, targets.shape[0] + 1))
        parts = [kernels.search_batch(points, targets[s], inits[s], labels[s], *budget)
                 for s in (slice(None, cut), slice(cut, None))]
        for got, part in zip(whole, zip(*parts)):
            assert np.array_equal(got, np.concatenate(part))
