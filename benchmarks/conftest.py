"""Shared fixtures and collection hooks of the benchmark harness.

``bench_batchstep.py`` writes its result table through ``results_dir`` /
``report_writer`` (``benchmarks/results/<name>.txt`` and its JSON record);
the layered benchmark (``benchmarks/layers``) and
``test_traced_lockstep_run.py`` are plain tests of the tracing harness. The
collection hook below marks the one harness test that pins a removed span as
a strict xfail.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: ``benchmarks/layers`` is frozen between re-baselines and this test of it
#: still looks for a ``core.propagators.step`` span under ``BatchRunner.run``;
#: a group's jobs advance through ``step_many`` only. The test runs: its
#: traced-export == untraced-export assert comes first and still has to hold,
#: and only the ``KeyError`` of the span lookup after it is expected. Strict,
#: so the re-baseline that renames the span has to delete this entry;
#: ``test_traced_lockstep_run.py`` holds the span checks meanwhile.
_PINS_THE_REMOVED_SOLO_STEP_SPAN = (
    "layers/test_harness.py::test_traced_run_exports_the_same_bytes_as_an_untraced_one"
)


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid.endswith(_PINS_THE_REMOVED_SOLO_STEP_SPAN):
            item.add_marker(pytest.mark.xfail(
                raises=KeyError, strict=True,
                reason="looks for a core.propagators.step span; lockstep runs record step_many",
            ))


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory where benchmarks drop their result tables."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_report(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Write a benchmark report to disk and echo it to stdout."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n[{name}]\n{text}\n(written to {path})")


@pytest.fixture(scope="session")
def report_writer(results_dir):
    """Callable ``(name, text)`` that persists a benchmark report."""

    def _write(name: str, text: str) -> None:
        write_report(results_dir, name, text)

    return _write

