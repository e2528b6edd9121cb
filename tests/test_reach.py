"""``benchmarks/reach.py`` without running it: how it matches definitions to
the code objects its hook records, and that its command list is CI's one list
of example commands and covers every example.

The probe itself runs in CI's ``examples`` job; ``reach.json``'s entries are
checked by ``tests/test_architecture.py::reach_list_is_well_formed``.
"""

import importlib.util
import pathlib
import re

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reach", _ROOT / "benchmarks" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def _code_objects(code):
    """``code`` and every code object nested in its constants."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_firstlineno"):
            yield from _code_objects(const)


def test_a_definition_starts_where_its_code_object_does(tmp_path):
    """The hook records ``co_firstlineno``: the first decorator's line of a
    decorated function, the ``def`` line otherwise, for methods and nested
    functions alike. Each definition the probe lists must start there."""
    source = ("import functools\n\n\n"
              "@functools.lru_cache\n"
              "@staticmethod\n"
              "def cached():\n"
              "    def inner():\n"
              "        return 1\n"
              "    return inner\n\n\n"
              "class Cell:\n"
              "    @property\n"
              "    def volume(self):\n"
              "        return 1.0\n\n"
              "    async def wait(self):\n"
              "        return None\n")
    path = tmp_path / "src" / "repro" / "cell.py"
    path.parent.mkdir(parents=True)
    path.write_text(source)
    found = reach.definitions(tmp_path)
    starts = {code.co_name: code.co_firstlineno for code in _code_objects(compile(source, str(path), "exec"))}
    assert {name: first for name, (_, first, _) in found.items()} == {
        "src/repro/cell.py:cached": starts["cached"],
        "src/repro/cell.py:cached.inner": starts["inner"],
        "src/repro/cell.py:Cell.volume": starts["volume"],
        "src/repro/cell.py:Cell.wait": starts["wait"],
    }
    assert found["src/repro/cell.py:cached"][1:] == (4, 6)  # from the first decorator, six lines


def test_ci_runs_the_examples_only_through_the_probe():
    """CI's example commands live in one list, ``reach.EXAMPLES``: the
    workflow runs the probe and starts no example itself."""
    workflow = (_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "run: python benchmarks/reach.py" in workflow
    assert not re.search(r"python3? (examples/|-m repro\.assets)", workflow)


def test_every_example_runs_under_the_probe():
    """A new example is probed (and so run in CI) from the day it lands."""
    probed = {command[0] for command in reach.EXAMPLES if command[0].startswith("examples/")}
    shipped = {path.relative_to(_ROOT).as_posix() for path in (_ROOT / "examples").glob("*.py")}
    assert probed == shipped
    assert all(command[0].startswith(str(_ROOT)) or command[0] == "-m" for command in reach.commands())
