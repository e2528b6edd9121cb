"""Every attribute ``benchmarks/layers/layers.py`` wraps still exists.

The layered benchmark traces the package by patching named attributes: the
``(span, module, attribute)`` rows of its ``_TARGETS`` table and its
``patch("<module>", "<attribute>", ...)`` calls. The harness only changes at
a re-baseline, so a refactor that renames one of them would first show up as
a crashed benchmark run. This test reads the harness with :mod:`ast` (it
neither imports nor edits it) and resolves each target the way the harness
does: import the module, then follow the dotted attribute path.
"""

import ast
import importlib
import pathlib

import pytest

HARNESS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "layers" / "layers.py"


def harness_targets(source: str) -> list[tuple[str, str, str]]:
    """``(kind, module, attribute path)`` of every ``_TARGETS`` row (kind
    ``"table"``) and of every ``patch(...)`` call whose first two arguments
    are string literals (kind ``"patch"``)."""
    targets = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_TARGETS" for target in node.targets
        ):
            targets += [("table", module, path) for _, module, path in ast.literal_eval(node.value)]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "patch"
              and len(node.args) >= 2
              and all(isinstance(arg, ast.Constant) and isinstance(arg.value, str) for arg in node.args[:2])):
            targets.append(("patch", node.args[0].value, node.args[1].value))
    return targets


TARGETS = harness_targets(HARNESS.read_text())


def test_the_scanner_sees_both_kinds_of_target():
    """A harness the scanner no longer understands must not pass vacuously."""
    kinds = [kind for kind, _, _ in TARGETS]
    assert kinds.count("table") >= 50
    assert kinds.count("patch") >= 1


@pytest.mark.parametrize("kind, module, path", TARGETS, ids=lambda value: value)
def test_harness_target_resolves(kind, module, path):
    owner = importlib.import_module(module)
    for name in path.split("."):
        assert hasattr(owner, name), f"{module}.{path}: {owner!r} has no attribute {name!r}"
        owner = getattr(owner, name)
