"""The declared dependencies match what the package imports, and of scipy
it loads only the compiled kernels it calls."""

import ast
import importlib
import importlib.machinery
import os
import pathlib
import re
import subprocess
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = pathlib.Path(__file__).resolve().parent.parent


def declared(extra=None):
    """The distributions the package depends on, or those of one extra."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    deps = project["dependencies"] if extra is None else project["optional-dependencies"][extra]
    names = (re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in deps)
    return {name.replace("-", "_") for name in names}


def third_party_imports(directory):
    local = {path.stem for path in directory.glob("*.py")} | {"rclstm"}
    found = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return {name for name in found
            if name not in sys.stdlib_module_names and name not in local}


def test_every_declared_dependency_imports():
    for name in declared() | declared("test"):
        importlib.import_module(name)


def test_every_third_party_import_is_declared():
    assert third_party_imports(ROOT / "src" / "rclstm") <= declared()


def test_every_test_import_is_in_the_test_extra():
    # the test extra is installed on top of the package's own dependencies
    assert third_party_imports(ROOT / "tests") <= declared() | declared("test")


def private_scipy_imports(path):
    """(module, name) for each name ``path`` imports from a private scipy
    module, one with a part that starts with an underscore."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "scipy" \
                and any(part.startswith("_") for part in node.module.split(".")):
            found += [(node.module, alias.name) for alias in node.names]
    return found


def test_private_scipy_names_exist():
    # linalg calls scipy's compiled sparse kernels directly; an upgrade that
    # moves one must fail here, by name, and not at the first product
    names = private_scipy_imports(ROOT / "src" / "rclstm" / "linalg.py")
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"the installed scipy lacks {missing}"


def test_only_linalg_imports_private_scipy():
    users = [path.name for path in sorted((ROOT / "src" / "rclstm").glob("*.py"))
             if private_scipy_imports(path)]
    assert users == ["linalg.py"]


#: CSR products, a conversion and a sparse-sparse product, printed as bytes
SCIPY_SPARSE_WORK = """
import numpy as np
import scipy.sparse
a = scipy.sparse.random(30, 20, density=0.2, format="csr", random_state=0)
a.data = np.ceil(a.data * 8)  # small integers: every sum below is exact
x = np.arange(40.0).reshape(20, 2)
assert np.array_equal(a @ x, a.toarray() @ x)
for product in (a @ x[:, 0], a @ x, a.tocsc().toarray(), (a.T @ a).toarray()):
    print(product.tobytes().hex())
"""

#: an rclstm session that trains and serves on CSR, then the work above
RCLSTM_THEN_SCIPY = """
import sys
import numpy as np
import rclstm, rclstm.cli
from rclstm import TrainingConfig, WindowedDataset, build_model, fit
from rclstm.training import predict_batch
rng = np.random.default_rng(0)
data = WindowedDataset(rng.normal(size=(8, 4, 2)), rng.normal(size=8), 4, None)
model = build_model(2, [6, 6], density=0.1, seed=0)
assert all(layer.products().h.csr_products for layer in model.layers)
fit(model, data, TrainingConfig(epochs=1, batch_size=4))
predict_batch(model, data.inputs)
assert "scipy.sparse" not in sys.modules, "rclstm imported scipy.sparse"
assert "scipy.sparse._sparsetools" not in sys.modules, "rclstm registered scipy's kernels"
import scipy.sparse
assert hasattr(scipy.sparse, "_sparsetools"), "scipy.sparse lost its _sparsetools"
""" + SCIPY_SPARSE_WORK


def run_python(code):
    """The standard output of ``code`` run in a fresh interpreter that
    imports the same rclstm package as this test does."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_rclstm_loads_the_sparse_kernels_alone():
    # linalg loads scipy's compiled sparse kernels from their file, not
    # through scipy.sparse; an upgrade that moves the file must fail here,
    # by name, and not as a silent return of the package import
    from rclstm import linalg

    assert linalg.kernel_file() is not None, \
        f"the installed scipy has no sparse/_sparsetools file with a suffix in " \
        f"{importlib.machinery.EXTENSION_SUFFIXES}"
    # a later import of scipy.sparse loads its own kernels, keeps its
    # ``_sparsetools`` attribute and computes as in a process without rclstm
    assert run_python(RCLSTM_THEN_SCIPY) == run_python(SCIPY_SPARSE_WORK)
