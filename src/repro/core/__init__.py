"""The paper's core contribution: parallel transport gauge rt-TDDFT.

Contains the PT-CN propagator (Alg. 1), the explicit RK4 baseline the paper
compares against (Fig. 6), an ordinary Crank–Nicolson and an ETRS propagator
for ablation studies, Anderson mixing for the inner fixed-point iteration,
the gauge algebra of the PT residual, trajectory observables and the
simulation driver.
"""

from .anderson import AndersonMixer
from .dynamics import TDDFTSimulation, Trajectory
from .gauge import pt_residual, subspace_hamiltonian
from .observables import absorption_spectrum, dipole_moment, energy_drift
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
    "pt_residual",
    "subspace_hamiltonian",
    "absorption_spectrum",
    "dipole_moment",
    "energy_drift",
    "CrankNicolsonPropagator",
    "DivergedStepError",
    "ETRSPropagator",
    "Propagator",
    "PTCNPropagator",
    "RK4Propagator",
    "StepStatistics",
]
