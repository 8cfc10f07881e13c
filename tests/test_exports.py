import ast
import inspect
import sys
from pathlib import Path

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


def test_package_imports_only_the_standard_library_numpy_and_itself():
    # SciPy may be installed, but it is not a dependency
    allowed = sys.stdlib_module_names | {"numpy", "vcnn"}
    sources = sorted(Path(vcnn.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
