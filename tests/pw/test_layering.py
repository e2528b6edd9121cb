"""The plane-wave layer imports nothing above it: ``repro.core`` imports the
propagators, which import :mod:`repro.pw.hamiltonian`, so a ``pw`` module
that imported a higher layer would close an import cycle (and the one ``HΨ``
kernel has to live in ``pw`` for that reason)."""

import ast
import pathlib

import pytest

import repro.pw

_LAYERS_ABOVE = ("core", "api", "batch", "exec", "service", "store", "campaign", "parallel")
_ABOVE = {f"repro.{layer}" for layer in _LAYERS_ABOVE}
_PW_DIR = pathlib.Path(repro.pw.__file__).parent


def _imported(path: pathlib.Path) -> list[str]:
    """Absolute names of every module ``path`` imports, relative ones resolved."""
    package = ["repro", "pw"]
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = base + (node.module.split(".") if node.module else [])
            names.append(".".join(module))
            names += [".".join(module + [alias.name]) for alias in node.names]
    return names


@pytest.mark.parametrize("path", sorted(_PW_DIR.glob("*.py")), ids=lambda path: path.name)
def test_pw_module_imports_no_higher_layer(path):
    above = [name for name in _imported(path) if ".".join(name.split(".")[:2]) in _ABOVE]
    assert not above, f"{path.name} imports {above}"


def test_relative_imports_are_resolved(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("from ..core import batching\nfrom . import grid\nfrom .. import store\n")
    names = _imported(module)
    assert {"repro.core", "repro.pw.grid", "repro.store"} <= set(names)
