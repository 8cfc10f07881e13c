"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``. Heavier sweeps live here;
module tests cover the same operations at smaller sizes.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_convex_polygon, random_simplex, stored_bits
from vcnn.bounds import (
    LN2,
    chatzigeorgiou_seed,
    compute_bounds,
    compute_bounds_range,
    lambert_wm1,
    loose_upper_curve,
    tight_upper_curve,
)
from vcnn.classifier import evaluate_margins
from vcnn.constructions import (
    gunn_arrangement,
    gunn_shatter,
    polytope_to_prototypes,
    strip_width,
    takacs_arrangement,
    takacs_shatter,
)
from vcnn.geometry import contains_many, regular_polygon_vertices
from vcnn.verification import (
    SearchConfig,
    search_lower_bound,
    shatter_coefficient_exhaustive,
    verify_shattering,
)

MU = 1e-6

# recorded constant for the planar growth ratio max over m <= 1e5
# (measured 29.9956 at m = 12)
PLANAR_RATIO_CAP = 30.5


def test_c1_planar_lower_bound_exhaustive_m4_m5():
    # every labelling of the 2m+1 point arrangement realised with at most
    # m prototypes at margin >= 1e-6, for m = 4 (512 labelings) and
    # m = 5 (2048 labelings): the 2m+1 planar lower bound, verified
    started = time.time()
    for m in (4, 5):
        arrangement = gunn_arrangement(m, radius=1.0)
        cert = verify_shattering(arrangement, gunn_shatter, mu=MU)
        assert cert.verified, (m, cert.first_failure, cert.failure_reason)
        assert stored_bits(cert) == list(range(2 ** (2 * m + 1)))
        assert max(cert.witnesses) <= m
        assert cert.min_margin >= MU
    assert time.time() - started < 60.0


def test_c2_circle_arrangement_exhaustive_and_search_negative():
    # the circle-plus-centre arrangement shatters for N = 2..5; at N = 2
    # this certifies that six points are shattered by three prototypes.
    for n_facets in (2, 3, 4, 5):
        cert = verify_shattering(takacs_arrangement(n_facets), takacs_shatter, mu=MU)
        assert cert.verified, (n_facets, cert.first_failure, cert.failure_reason)
        assert stored_bits(cert) == list(range(2 ** (2 * n_facets + 2)))
        assert max(cert.witnesses) <= n_facets + 1

    # the matching positive search: three prototypes shatter six points
    cert6 = search_lower_bound(
        SearchConfig(d=2, m=3, n=6, trials=24, point_sets=6, steps=120, rng_seed=0)
    )
    assert cert6 is not None and cert6.verified and cert6.arrangement.n == 6

    # regression expectation under a fixed seed and budget: no 7-point
    # certificate appears; absence is evidence, not proof
    cert7 = search_lower_bound(
        SearchConfig(d=2, m=3, n=7, trials=16, point_sets=2, steps=80, rng_seed=0)
    )
    assert cert7 is None


def test_c3_reflection_construction_agreement():
    # polytope membership and 1NN classification agree on sampled points
    # outside a tolerance band, for random polygons and random simplices
    rng = np.random.default_rng(1234)
    cases = []
    for _ in range(100):
        cases.append((random_convex_polygon(rng, int(rng.integers(3, 11))), np.zeros(2)))
    for _ in range(50):
        cases.append(random_simplex(rng, int(rng.integers(3, 6))))
    for polytope, interior in cases:
        inside_label = int(rng.choice([-1, 1]))
        witness = polytope_to_prototypes(polytope, interior, inside_label)
        samples = rng.uniform(-3.0, 3.0, size=(10000, polytope.dim))
        member = contains_many(polytope, samples, tol=1e-9)
        keep = member != 0
        got, _ = evaluate_margins(witness, samples[keep])
        want = np.where(member[keep] == 1, inside_label, -inside_label)
        assert int((got != want).sum()) == 0


def test_c4_tight_upper_bound_solver_grid():
    # the solver satisfies its defining equation, brackets the lower
    # bound, and matches an independent integer scan across the grid
    for d in range(2, 11):
        for row in compute_bounds_range(d, range(3, 51)):
            m, q, n_star, n_int = row.m, row.q, row.upper_tight_real, row.upper_tight
            residual = abs(m + q * math.log2(n_star) - n_star) / n_star
            assert residual <= 1e-9
            assert n_int >= row.lower
            cap = 1024
            while True:
                ns = np.arange(1, cap + 1, dtype=np.float64)
                ok = m + q * np.log2(ns) >= ns
                if not ok[-1]:
                    break
                cap *= 2
            assert n_int == int(ns[ok].max()), (d, m)
    assert compute_bounds(2, 3).upper_tight == 55


def test_c5_lambert_residuals_and_bound_orderings():
    ys = -np.exp(np.linspace(math.log(1e-30), math.log(1.0 / math.e) - 1e-9, 1000))
    for y in ys:
        w = lambert_wm1(float(y))
        assert abs(w * math.exp(w) - y) <= 1e-12 * abs(y)

    for u in np.linspace(1e-9, 50.0, 1001):
        w = lambert_wm1(-math.exp(-float(u) - 1.0))
        assert w > chatzigeorgiou_seed(float(u))

    for d in range(2, 11):
        ms = np.arange(3, 51)
        assert np.all(loose_upper_curve(d, ms) >= tight_upper_curve(d, ms))


def test_c6_growth_rate_checks():
    ms = np.arange(3, 100001, dtype=np.float64)
    scale = ms * np.log(ms)

    planar = tight_upper_curve(2, ms) / scale
    assert float(planar.max()) < PLANAR_RATIO_CAP

    spatial = tight_upper_curve(3, ms) / scale
    tail = spatial[ms >= 1000]
    assert np.all(np.diff(tail) > 0)
    assert tail[-1] > 10 * tail[0]  # genuinely diverging, not flat

    q = 4.0 * ms * (ms - 1.0) / 2.0
    qp = q / LN2
    ratio = loose_upper_curve(3, ms) / (qp * np.log(qp))
    sel = ms >= 1000
    assert np.all(ratio[sel] > 0.9) and np.all(ratio[sel] < 1.5)


def test_c7_polygon_geometry_facts():
    # no vertex between a longest diagonal and the parallel diameter
    for n in range(7, 42, 2):
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
                proj = verts @ u
                assert not np.any((proj > 1e-9) & (proj < h - 1e-9))

    # strip width formula equals the explicit point-to-line distance and
    # stays below 0.63 R
    from vcnn.constructions import _partners

    for m in range(4, 21):
        arr = gunn_arrangement(m)
        verts = arr.points[: 2 * m - 1]
        b_pt = arr.points[arr.special["inner_indices"][0]]
        for d_idx in range(2 * m - 1):
            _, near = _partners(verts, d_idx, b_pt)
            a, b = verts[d_idx], verts[near]
            t = b - a
            dist = abs(t[0] * (-a[1]) - t[1] * (-a[0])) / float(np.linalg.norm(t))
            assert abs(dist - strip_width(m)) <= 1e-12
        assert strip_width(m) < 0.63


@pytest.mark.slow
def test_c8_search_counts_respect_shatter_coefficient_bound():
    # the searched pattern count never exceeds min(2^n, 2^m n^q); the
    # bound's own precondition keeps m in {3, 4} here
    rng = np.random.default_rng(99)
    budget = SearchConfig(d=2, m=3, n=3, trials=4, steps=24, rng_seed=17)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(3, 5))
        d = int(rng.choice([2, 3]))
        points = rng.uniform(-1.0, 1.0, size=(n, d))
        count = shatter_coefficient_exhaustive(points, m, budget)
        assert count >= 2  # constants are always realizable
        assert math.log2(count) <= min(n, m + compute_bounds(d, m).q * math.log2(n))
