"""Every public top-level function and class of the package has a user
besides the tests: a helper only tests call is dead code to drop."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rclstm").glob("*.py"))


def names_used(tree):
    """The names that the ``Name`` and ``Attribute`` nodes under ``tree`` use."""
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]


def test_every_public_definition_is_referenced():
    # users: the package's modules, not its re-exports, and the benchmark
    users = [path for path in PACKAGE if path.name != "__init__.py"]
    used = Counter(name for path in users + sorted((ROOT / "perfbench").glob("*.py"))
                   for name in names_used(ast.parse(path.read_text())))
    unused = []
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_") \
                    and used[node.name] <= names_used(node).count(node.name):  # own calls
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"defined but used only by tests: {unused}"
