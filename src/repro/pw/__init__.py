"""Plane-wave DFT/TDDFT substrate (the PWDFT analogue of the paper).

The subpackage provides everything needed to set up and evaluate the
time-dependent Kohn–Sham Hamiltonian with hybrid exchange on a plane-wave
basis: cells and structures, FFT grids and the plane-wave sphere, densities,
Hartree/exchange kernels, model norm-conserving pseudopotentials, the LDA
semi-local functional, the screened Fock exchange operator, laser fields,
ground-state solvers and orthogonalization utilities.
"""

from .basis import Wavefunction
from .density import compute_density, density_error
from .eigensolver import block_davidson
from .exchange import ExchangeOperator
from .grid import FFTGrid, PlaneWaveBasis, choose_grid_shape
from .ground_state import GroundStateResult, GroundStateSolver
from .hamiltonian import EnergyBreakdown, Hamiltonian
from .laser import DeltaKick, GaussianLaserPulse, paper_laser_pulse
from .lattice import Cell
from .orthogonalization import (
    cholesky_orthonormalize,
    lowdin_orthonormalize,
    orthonormality_error,
)
from .poisson import (
    CoulombKernel,
    bare_coulomb_kernel,
    hartree_potential,
    screened_exchange_kernel,
    solve_poisson,
)
from .pseudopotential import (
    NonlocalPotential,
    ProjectorChannel,
    PseudopotentialSpecies,
    cohen_bergstresser_silicon_species,
    ewald_energy,
    structure_factor,
)
from .structures import (
    Structure,
    diamond_silicon,
    hydrogen_chain,
    hydrogen_molecule,
    paper_silicon_series,
    silicon_supercell,
)
from .xc import LDAFunctional

__all__ = [
    "Wavefunction",
    "compute_density",
    "density_error",
    "block_davidson",
    "ExchangeOperator",
    "FFTGrid",
    "PlaneWaveBasis",
    "choose_grid_shape",
    "GroundStateResult",
    "GroundStateSolver",
    "EnergyBreakdown",
    "Hamiltonian",
    "DeltaKick",
    "GaussianLaserPulse",
    "paper_laser_pulse",
    "Cell",
    "cholesky_orthonormalize",
    "lowdin_orthonormalize",
    "orthonormality_error",
    "CoulombKernel",
    "bare_coulomb_kernel",
    "hartree_potential",
    "screened_exchange_kernel",
    "solve_poisson",
    "NonlocalPotential",
    "ProjectorChannel",
    "PseudopotentialSpecies",
    "cohen_bergstresser_silicon_species",
    "ewald_energy",
    "structure_factor",
    "Structure",
    "diamond_silicon",
    "hydrogen_chain",
    "hydrogen_molecule",
    "paper_silicon_series",
    "silicon_supercell",
    "LDAFunctional",
]
