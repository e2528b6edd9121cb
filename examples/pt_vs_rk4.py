#!/usr/bin/env python
"""PT-CN vs RK4: the paper's central algorithmic comparison, measured.

Propagates the same hybrid-functional system over the same time window with
(a) the explicit RK4 integrator at a small stable step and (b) the PT-CN
integrator at a 20x larger step, then compares the gauge-invariant observables
(density, dipole, energy) and the number of Fock exchange applications — the
quantity that dominates the cost of hybrid-functional rt-TDDFT (Section 1 of
the paper).

The comparison is declared as a two-job zip-mode sweep through
``repro.batch``: each integrator is paired with its own natural step size,
and the :class:`~repro.batch.BatchRunner` converges the shared ground state
once before fanning out the two propagations.

Usage:
    python examples/pt_vs_rk4.py
"""

from __future__ import annotations

import numpy as np

from repro.api import SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.core.observables import dipole_moment
from repro.pw import compute_density

CONFIG = {
    "system": {"structure": "hydrogen_chain", "params": {"n_atoms": 4, "spacing": 2.0, "box": 7.0}},
    "basis": {"ecut": 2.5},
    "xc": {"hybrid_mixing": 0.25, "screening_length": None},
    "laser": {
        "pulse": "gaussian",
        "params": {
            "amplitude": 0.01,
            "omega": 0.3,
            "t0_as": 60.0,
            "sigma_as": 30.0,
            "polarization": [1, 0, 0],
            "phase": np.pi / 2,
        },
    },
    "run": {"gs_scf_tolerance": 1e-7},
}

WINDOW_AS = 60.0

#: each integrator at its own natural step over the same window (zip mode)
AXES = {
    "propagator": [
        {"name": "rk4", "params": {}},
        {"name": "ptcn", "params": {"scf_tolerance": 1e-7, "max_scf_iterations": 40}},
    ],
    "run": [
        {"time_step_as": 1.0, "n_steps": int(WINDOW_AS / 1.0)},
        {"time_step_as": 20.0, "n_steps": int(WINDOW_AS / 20.0)},
    ],
}


def main() -> None:
    spec = SweepSpec(SimulationConfig.from_dict(CONFIG), AXES, mode="zip")
    runner = BatchRunner(spec)
    n_scf = runner.prepare_ground_states()
    report = runner.run()

    rk4, ptcn = report.results
    print(f"Propagated {WINDOW_AS:.0f} as of laser-driven dynamics ({n_scf} shared SCF):\n")
    print(report.to_table())

    rho_ref = compute_density(rk4.trajectory.final_wavefunction)
    rho_pt = compute_density(ptcn.trajectory.final_wavefunction)
    diff = np.max(np.abs(rho_pt - rho_ref)) / np.max(np.abs(rho_ref))
    print(f"\nmax relative density difference PT-CN vs RK4: {diff:.2e}")

    d_ref = dipole_moment(rk4.trajectory.final_wavefunction)
    d_pt = dipole_moment(ptcn.trajectory.final_wavefunction)
    print(f"Final dipole (RK4)  : {d_ref}")
    print(f"Final dipole (PT-CN): {d_pt}")

    ratio = (
        rk4.summary["hamiltonian_applications"] / ptcn.summary["hamiltonian_applications"]
    )
    print(
        f"\nPT-CN reached the same physics with {ratio:.1f}x fewer Fock exchange applications."
        "\n(The paper reports 20-30x for silicon at a 50 as step vs RK4 at 0.5 as, Fig. 6.)"
    )


if __name__ == "__main__":
    main()
