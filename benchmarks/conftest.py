"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it computes the
model (or measured) values, prints a plain-text table with the paper's numbers
alongside, writes the same table to ``benchmarks/results/<name>.txt`` and runs
a representative kernel under ``pytest-benchmark`` so timing data is collected
by ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.perf import PWDFTPerformanceModel, SiliconWorkload

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
    """Directory where benchmarks drop their paper-vs-model tables."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def si1536_model() -> PWDFTPerformanceModel:
    """The calibrated performance model of the paper's largest system."""
    return PWDFTPerformanceModel(SiliconWorkload.from_atom_count(1536))


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


@pytest.fixture(scope="session")
def h2_session():
    """A config-driven session for the tiny hybrid-functional H2 system.

    Used by the benchmarks that measure the *real* physics engine (PT-CN vs
    RK4 accuracy and cost), as the laptop-scale stand-in for the paper's
    silicon supercells. The session caches the converged ground state, so
    every benchmark that propagates from it shares one SCF.
    """
    from repro.api import Session, SimulationConfig

    config = SimulationConfig.from_dict(
        {
            "system": {"structure": "hydrogen_molecule", "params": {"box": 10.0, "bond_length": 1.4}},
            "basis": {"ecut": 3.0, "grid_factor": 1.0},
            "xc": {"hybrid_mixing": 0.25, "screening_length": None},
            "run": {"gs_scf_tolerance": 1e-7, "gs_max_scf_iterations": 50},
        }
    )
    return Session(config)
