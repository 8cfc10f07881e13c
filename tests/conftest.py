import math
import multiprocessing
import os

import numpy as np
import pytest


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[acceptance] {name}: {'PASS' if report.passed else 'FAIL'}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def sweep_parts(monkeypatch):
    """``sweep_parts(k)`` makes every later sweep run in k parts: in this process for 1, forked otherwise.

    Sets the fork threshold and the CPU count the sweep reads; once the
    test is done, no worker process may be left.
    """
    from vcnn import verification

    def force(parts: int) -> None:
        monkeypatch.setattr(verification, "_FORK_LABELLINGS", 1 if parts > 1 else math.inf)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)), raising=False)

    yield force
    assert multiprocessing.active_children() == []


def stored_bits(cert) -> list[int]:
    """The labelling bitmasks of every witness ``cert`` stores, in ascending order."""
    return sorted(int(bits) for stack, _, _ in cert.witnesses.values() for bits in stack)


def witness_rows(cert) -> list:
    """``(bits, LabeledPrototypeSet)`` of every witness ``cert`` stores, in ascending bitmask order."""
    from vcnn.classifier import LabeledPrototypeSet

    rows = [(int(bits), LabeledPrototypeSet(protos, labels)) for stacks in cert.witnesses.values()
            for bits, protos, labels in zip(*stacks)]
    return sorted(rows, key=lambda row: row[0])


def random_convex_polygon(rng, n_facets, dim=2):
    """n halfspaces with jittered-regular outward normals, all containing the origin.

    Gaps between successive normal directions stay below pi for n >= 4, so
    the intersection is usually bounded; n = 3 may produce an unbounded
    region, which the membership contract allows.
    """
    from vcnn.geometry import ConvexPolytope, Halfspace

    base = 2.0 * np.pi * np.arange(n_facets) / n_facets
    angles = base + rng.uniform(0.0, 2.0 * np.pi / n_facets, size=n_facets)
    offsets = rng.uniform(0.4, 1.2, size=n_facets)
    facets = tuple(
        Halfspace(np.array([np.cos(a), np.sin(a)]), b) for a, b in zip(angles, offsets)
    )
    return ConvexPolytope(facets)


def random_simplex(rng, dim):
    """A non-degenerate simplex in R^dim as a halfspace intersection.

    Returns (polytope, centroid); resamples until the centroid has decent
    facet slack.
    """
    from vcnn.geometry import ConvexPolytope, Halfspace

    while True:
        verts = rng.normal(size=(dim + 1, dim))
        centroid = verts.mean(axis=0)
        facets = []
        ok = True
        for k in range(dim + 1):
            others = np.delete(verts, k, axis=0)
            basis = others[1:] - others[0]
            # normal spans the null space of the facet's tangent basis
            _, s, vt = np.linalg.svd(basis)
            if s.min() < 1e-3:
                ok = False
                break
            normal = vt[-1]
            offset = float(normal @ others[0])
            if float(normal @ verts[k]) > offset:
                normal, offset = -normal, -offset
            facets.append(Halfspace(normal, offset))
        if not ok:
            continue
        poly = ConvexPolytope(tuple(facets))
        slack = -(poly.side_values(centroid[None, :])[0])
        if slack.min() > 0.05:
            return poly, centroid
