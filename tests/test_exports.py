import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vcnn
from vcnn import bounds, classifier, geometry
from vcnn.constructions import polytope_to_prototypes

README = Path(__file__).resolve().parent.parent / "README.md"

# One-point forks of kept primitives, removed from the package: a point x is
# contains_many(p, [x])[0], evaluate_margins(s, [x]), labeling.array[i].
# Then names the tool never called: realizes is realisation(s, points,
# labeling.array, mu), the float shatter bound is the _log2 form, and the
# sample-size estimate rested on a convention constant that proves nothing.
# Last the per-bound scalars: each is a field of compute_bounds(d, m), and
# the log2 shatter bound is m + q * log2(n) of its q.
REMOVED = ["contains", "INSIDE", "BOUNDARY", "OUTSIDE", "classify",
           "realizes", "shatter_coefficient_bound", "sample_size_estimate", "DEFAULT_PAC_CONSTANT",
           "lower_bound", "shatter_q", "upper_bound_tight", "upper_bound_loose", "shatter_coefficient_bound_log2"]


def test_every_exported_name_resolves():
    assert len(vcnn.__all__) == len(set(vcnn.__all__))
    for name in vcnn.__all__:
        assert getattr(vcnn, name) is not None


@pytest.mark.parametrize("module", [vcnn, bounds, geometry, classifier], ids=lambda m: m.__name__)
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


def test_every_module_level_import_is_used():
    # no linter runs here, so an import left behind by a deletion is caught here;
    # __init__ imports to re-export, and a line marked "noqa: F401" imports on purpose
    for path in sorted(Path(vcnn.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    exempt = "# noqa: F401" in lines[alias.lineno - 1]
                    assert exempt or bound in used, f"{path.name}:{alias.lineno} imports {bound} but never uses it"


def test_cli_import_loads_no_pool_and_no_random():
    # start-up cost of every command: a process pool and NumPy's random module load only when used
    src = str(Path(vcnn.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, vcnn.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures', 'numpy.random'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_readme_python_examples_run():
    # in order, in one namespace: the certificate round trip reads the first block's cert,
    # and a removed or renamed public name fails here rather than staying in the docs
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["ok"] and namespace["cert"].verified
