"""Golden regression test: ``run_tddft`` on the quickstart config vs a
committed reference trajectory.

The reference ``.npz`` under ``tests/api/golden/`` was produced by
:func:`_regenerate` (run ``python tests/api/test_golden.py --regenerate``
after an *intentional* physics change) from the config committed next to it,
so the fixture is self-describing. The comparison tolerances leave room for
BLAS/FFT rounding differences across platforms while still catching any real
change to the physics (a wrong sign, a changed default, a broken propagator
ships errors many orders of magnitude above 1e-7).
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from repro.api import SimulationConfig, run_tddft
from repro.core.dynamics import Trajectory

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
CONFIG_PATH = GOLDEN_DIR / "quickstart_n2.json"
TRAJECTORY_PATH = GOLDEN_DIR / "quickstart_n2.npz"

#: cross-platform slack for identical physics (see module docstring)
ATOL = 1e-7


def _golden_config() -> SimulationConfig:
    return SimulationConfig.from_dict(json.loads(CONFIG_PATH.read_text()))


@pytest.fixture(scope="module")
def fresh_trajectory() -> Trajectory:
    return run_tddft(_golden_config())


@pytest.fixture(scope="module")
def golden_trajectory() -> Trajectory:
    return Trajectory.load_npz(TRAJECTORY_PATH)


def test_golden_files_are_committed():
    assert CONFIG_PATH.exists() and TRAJECTORY_PATH.exists(), (
        "golden fixtures missing; regenerate with "
        "`python tests/api/test_golden.py --regenerate`"
    )


def test_energy_series_matches_golden(fresh_trajectory, golden_trajectory):
    np.testing.assert_allclose(
        fresh_trajectory.energies, golden_trajectory.energies, rtol=0, atol=ATOL
    )


def test_dipole_series_matches_golden(fresh_trajectory, golden_trajectory):
    np.testing.assert_allclose(
        fresh_trajectory.dipoles, golden_trajectory.dipoles, rtol=0, atol=ATOL
    )


def test_norm_and_time_grid_match_golden(fresh_trajectory, golden_trajectory):
    np.testing.assert_allclose(
        fresh_trajectory.electron_numbers,
        golden_trajectory.electron_numbers,
        rtol=0,
        atol=1e-9,
    )
    np.testing.assert_allclose(
        fresh_trajectory.times, golden_trajectory.times, rtol=0, atol=1e-12
    )


def test_golden_metadata_records_its_config(golden_trajectory):
    """The archive is self-describing: its provenance metadata must name the
    exact config committed next to it."""
    metadata = golden_trajectory.metadata
    assert metadata["config"] == _golden_config().to_dict()
    assert metadata["integrator"] == "PT-CN"
    assert metadata["n_steps"] == golden_trajectory.n_steps


def _regenerate() -> None:
    """Recompute and overwrite the golden fixtures (intentional changes only)."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    config = _golden_config() if CONFIG_PATH.exists() else _default_config()
    CONFIG_PATH.write_text(json.dumps(config.to_dict(), indent=2) + "\n")
    trajectory = run_tddft(config)
    trajectory.save_npz(TRAJECTORY_PATH)
    print(f"wrote {CONFIG_PATH} and {TRAJECTORY_PATH}")


def _default_config() -> SimulationConfig:
    """The quickstart physics, trimmed to two steps to keep the fixture small."""
    return SimulationConfig.from_dict(
        {
            "system": {
                "structure": "hydrogen_molecule",
                "params": {"box": 10.0, "bond_length": 1.4},
            },
            "basis": {"ecut": 3.0, "grid_factor": 1.0},
            "xc": {"hybrid_mixing": 0.25, "screening_length": None},
            "laser": {
                "pulse": "gaussian",
                "params": {
                    "amplitude": 0.005,
                    "omega": 0.35,
                    "t0_as": 150.0,
                    "sigma_as": 60.0,
                    "polarization": [1.0, 0.0, 0.0],
                },
            },
            "propagator": {
                "name": "ptcn",
                "params": {"scf_tolerance": 1e-6, "max_scf_iterations": 30},
            },
            "run": {"time_step_as": 50.0, "n_steps": 2, "gs_scf_tolerance": 1e-7},
        }
    )


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
