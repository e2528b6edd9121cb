"""Fig. 6: PT-CN against RK4 over one 50 as window, on the model at Summit
scale and executed on the hybrid H2 molecule through one zip-mode sweep."""

import pytest

from repro.analysis.paper_data import FIG6
from repro.api import SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.perf import ptcn_vs_rk4


def _h2_fock_applications() -> tuple[int, int]:
    """Full ``H Psi`` applications of PT-CN (one 50 as step) and RK4 (25 steps
    of 2 as) from one shared hybrid ground state."""
    base = SimulationConfig.from_dict({
        "system": {"structure": "hydrogen_molecule", "params": {"box": 10.0, "bond_length": 1.4}},
        "basis": {"ecut": 3.0, "grid_factor": 1.0},
        "xc": {"hybrid_mixing": 0.25, "screening_length": None},
        "run": {"gs_scf_tolerance": 1e-7, "gs_max_scf_iterations": 50},
    })
    axes = {
        "propagator": [
            {"name": "ptcn", "params": {"scf_tolerance": 1e-6, "max_scf_iterations": 40}},
            {"name": "rk4", "params": {}},
        ],
        "run": [{"time_step_as": 50.0, "n_steps": 1}, {"time_step_as": 2.0, "n_steps": 25}],
    }
    report = BatchRunner(SweepSpec(base, axes, mode="zip")).run()
    assert [result.status for result in report] == ["completed", "completed"]
    return tuple(result.summary["hamiltonian_applications"] for result in report.results)


@pytest.fixture(scope="module")
def modelled():
    speedups = {row["n_gpus"]: row["speedup"] for row in ptcn_vs_rk4(gpu_counts=(36, 768))}
    ptcn, rk4 = _h2_fock_applications()
    return {
        "ptcn_vs_rk4_speedup_36gpu": speedups[36],
        "ptcn_vs_rk4_speedup_768gpu": speedups[768],
        "h2_ptcn_per_rk4_fock_applications": ptcn / rk4,
    }


@pytest.mark.parametrize("row", list(FIG6))
def test_fig6(modelled, row, admitted):
    assert admitted(FIG6, modelled, row)
