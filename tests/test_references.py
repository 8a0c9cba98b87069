"""Every public top-level function and class of the package, and every
public method and property of its classes, has a user besides the tests:
a helper only tests call is dead code to drop."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rclstm").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def names_used(tree):
    """The names that the ``Name`` and ``Attribute`` nodes under ``tree`` use."""
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]


def called(call):
    """The name a ``Call`` node calls: ``f`` of ``f(...)`` and of ``m.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def definitions(module):
    """The module's top-level functions and classes, then the methods and
    properties of each class, as (qualified name, node)."""
    for node in module.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item)
                        for item in node.body if isinstance(item, FUNCTIONS))


def test_every_public_definition_is_referenced():
    # users: the package's modules, not its re-exports, and the benchmark
    users = [path for path in PACKAGE if path.name != "__init__.py"]
    used = Counter(name for path in users + sorted((ROOT / "perfbench").glob("*.py"))
                   for name in names_used(ast.parse(path.read_text())))
    unused = []
    for path in PACKAGE:
        for qualname, node in definitions(ast.parse(path.read_text())):
            if not node.name.startswith("_") \
                    and used[node.name] <= names_used(node).count(node.name):  # own calls
                unused.append(f"{path.name}:{node.lineno} {qualname}")
    assert not unused, f"defined but used only by tests: {unused}"


def test_only_linalg_reaches_the_raw_kernels():
    # scipy's ``_sparsetools`` kernels check neither shapes, layout nor
    # overlap, so they stay behind ``MaskedMatrix.bind``'s one check
    reaching = []
    for path in PACKAGE + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]
        if any("_sparsetools" in name for name in names):
            reaching.append(path.name)
    assert reaching == ["linalg.py"]


def test_only_sweeps_prepare_turns_a_config_into_data():
    # one path from a RunConfig to its data: every command and every sweep
    # point reads, prepares or generates its series through ``prepare``
    synth = ast.parse((ROOT / "src" / "rclstm" / "synth.py").read_text())
    sources = {"load_traffic_csv", "load_mobility_csv", "load_prepared", "prepare_traffic",
               "prepare_mobility", *(name for name, _ in definitions(synth)
                                     if not name.startswith("_"))}
    callers, preparers = set(), set()
    for path in PACKAGE:
        for statement in ast.parse(path.read_text()).body:
            for node in ast.walk(statement):
                caller = f"{path.stem}.{getattr(statement, 'name', '<module>')}"
                if isinstance(node, ast.Call) and called(node) in sources:
                    callers.add(caller)
                if isinstance(node, ast.Call) and called(node) == "prepare":
                    preparers.add(caller)
    assert callers == {"sweeps.prepare"}
    # each command prepares its data once, and a sweep only in the check of
    # its points: no (point, seed) job prepares, it splits what it is handed
    assert preparers == {"cli.cmd_preprocess", "cli.cmd_train", "cli.cmd_evaluate",
                         "cli.cmd_bench", "sweeps.prepare_points"}
