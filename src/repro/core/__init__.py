"""The paper's core contribution: parallel transport gauge rt-TDDFT.

Contains the PT-CN propagator (Alg. 1), the explicit RK4 baseline the paper
compares against (Fig. 6), an ordinary Crank–Nicolson and an ETRS propagator
for ablation studies, Anderson mixing for the inner fixed-point iteration,
gauge algebra utilities, trajectory observables and the simulation driver.
"""

from .anderson import AndersonMixer
from .dynamics import TDDFTSimulation, Trajectory
from .gauge import (
    density_matrix_distance,
    parallel_transport_align,
    pt_residual,
    subspace_hamiltonian,
)
from .observables import (
    absorption_spectrum,
    band_occupations,
    dipole_moment,
    electron_number,
    energy_drift,
    excited_charge,
)
from .propagators import (
    CrankNicolsonPropagator,
    DivergedStepError,
    ETRSPropagator,
    Propagator,
    PTCNPropagator,
    RK4Propagator,
    StepStatistics,
)

__all__ = [
    "AndersonMixer",
    "TDDFTSimulation",
    "Trajectory",
    "density_matrix_distance",
    "parallel_transport_align",
    "pt_residual",
    "subspace_hamiltonian",
    "absorption_spectrum",
    "band_occupations",
    "dipole_moment",
    "electron_number",
    "energy_drift",
    "excited_charge",
    "CrankNicolsonPropagator",
    "DivergedStepError",
    "ETRSPropagator",
    "Propagator",
    "PTCNPropagator",
    "RK4Propagator",
    "StepStatistics",
]
