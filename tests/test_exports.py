import inspect

import pytest

import vcnn
from vcnn import classifier, geometry
from vcnn.bounds import sample_size_estimate
from vcnn.constructions import polytope_to_prototypes

# One-point forks of kept primitives, removed from the package: a point x is
# contains_many(p, [x])[0], evaluate_margins(s, [x]), labeling.array[i].
REMOVED = ["contains", "INSIDE", "BOUNDARY", "OUTSIDE", "classify"]


def test_every_exported_name_resolves():
    assert len(vcnn.__all__) == len(set(vcnn.__all__))
    for name in vcnn.__all__:
        assert getattr(vcnn, name) is not None


@pytest.mark.parametrize("module", [vcnn, geometry, classifier], ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_not_importable(module, name):
    assert name not in getattr(module, "__all__", ())
    with pytest.raises(ImportError):
        exec(f"from {module.__name__} import {name}", {})


def test_removed_methods_and_keywords_are_gone():
    assert not hasattr(geometry.Halfspace, "boundary_point")
    for attr in ("label", "to_array", "__len__"):
        assert not hasattr(classifier.Labeling, attr)
    assert "tol" not in inspect.signature(polytope_to_prototypes).parameters
    assert "constant" not in inspect.signature(sample_size_estimate).parameters
