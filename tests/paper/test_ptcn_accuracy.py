"""Section 2's claim, executed: PT-CN at a step 20x RK4's follows the same
physics over a 40 as window of the hybrid H2 molecule, in far fewer Fock
applications, and both conserve energy. One zip-mode sweep runs both
propagators from one shared ground state, each opened by the registered
``delta_kick`` (strength 1e-2): the ground state alone is stationary, and
its density and dipole would agree to 1e-6 whatever the integrator did.

After the kick, centred PT-CN reads a dipole difference of 8.9e-4 and an
energy drift of 8.8e-7, each at least 1.4x below its ceiling in
:data:`~repro.analysis.paper_data.PTCN_ACCURACY`; PT-CN with Alg. 1 line 2's
half step taken at 1.1 dt reads 1.8e-3 and 6.1e-6, and fails both."""

import numpy as np
import pytest

from repro.analysis.paper_data import PTCN_ACCURACY
from repro.api import SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.core.observables import dipole_moment
from repro.pw import compute_density


@pytest.fixture(scope="module")
def modelled():
    base = SimulationConfig.from_dict({
        "system": {"structure": "hydrogen_molecule", "params": {"box": 10.0, "bond_length": 1.4}},
        "basis": {"ecut": 3.0, "grid_factor": 1.0},
        "xc": {"hybrid_mixing": 0.25, "screening_length": None},
        "laser": {"pulse": "delta_kick", "params": {"strength": 1e-2}},
        "run": {"gs_scf_tolerance": 1e-7, "gs_max_scf_iterations": 50},
    })
    axes = {
        "propagator": [
            {"name": "rk4", "params": {}},
            {"name": "ptcn", "params": {"scf_tolerance": 1e-8, "max_scf_iterations": 50}},
        ],
        "run": [{"time_step_as": 1.0, "n_steps": 40}, {"time_step_as": 20.0, "n_steps": 2}],
    }
    report = BatchRunner(SweepSpec(base, axes, mode="zip")).run()
    rk4, ptcn = (result.trajectory for result in report.results)
    rho_rk4 = compute_density(rk4.final_wavefunction)
    rho_ptcn = compute_density(ptcn.final_wavefunction)
    dipoles = [dipole_moment(t.final_wavefunction) for t in (ptcn, rk4)]
    return {
        "relative_density_difference": float(np.max(np.abs(rho_ptcn - rho_rk4)) / np.max(np.abs(rho_rk4))),
        "dipole_difference": float(np.max(np.abs(dipoles[0] - dipoles[1]))),
        "ptcn_per_rk4_fock_applications": (
            ptcn.total_hamiltonian_applications / rk4.total_hamiltonian_applications
        ),
        "ptcn_energy_drift_ha": ptcn.energy_drift,
        "rk4_energy_drift_ha": rk4.energy_drift,
    }


@pytest.mark.parametrize("row", list(PTCN_ACCURACY))
def test_ptcn_accuracy(modelled, row, admitted):
    assert admitted(PTCN_ACCURACY, modelled, row)
