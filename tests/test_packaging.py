"""The declared dependencies match what the package imports."""

import ast
import importlib
import pathlib
import re
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
