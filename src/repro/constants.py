"""Physical constants and unit conversions used throughout :mod:`repro`.

All internal calculations use Hartree atomic units:

* energy   — Hartree (Ha)
* length   — Bohr radius (a0)
* time     — atomic time unit (approximately 24.188 as)
* mass     — electron mass

The paper quotes times in attoseconds/femtoseconds, lengths in Angstrom and
laser wavelengths in nanometres, so the conversion factors below are used at
the interfaces (structure builders, laser pulses, reporting).
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# Base conversions
# ---------------------------------------------------------------------------

#: Bohr radius in Angstrom.
BOHR_TO_ANGSTROM: float = 0.529177210903
#: Angstrom in Bohr.
ANGSTROM_TO_BOHR: float = 1.0 / BOHR_TO_ANGSTROM

#: Hartree in electron volt.
HARTREE_TO_EV: float = 27.211386245988
#: Electron volt in Hartree.
EV_TO_HARTREE: float = 1.0 / HARTREE_TO_EV

#: Hartree in Rydberg.
HARTREE_TO_RYDBERG: float = 2.0
#: Rydberg in Hartree.
RYDBERG_TO_HARTREE: float = 0.5

#: One atomic time unit in attoseconds.
AU_TIME_TO_ATTOSECOND: float = 24.188843265857
#: One attosecond in atomic time units.
ATTOSECOND_TO_AU_TIME: float = 1.0 / AU_TIME_TO_ATTOSECOND
#: One femtosecond in atomic time units.
FEMTOSECOND_TO_AU_TIME: float = 1000.0 * ATTOSECOND_TO_AU_TIME
#: One atomic time unit in femtoseconds.
AU_TIME_TO_FEMTOSECOND: float = 1.0 / FEMTOSECOND_TO_AU_TIME

#: Speed of light in atomic units (= 1/alpha).
SPEED_OF_LIGHT_AU: float = 137.035999084

#: Planck constant times speed of light, in Hartree * nm, used to convert a
#: laser wavelength (nm) to a photon energy (Ha):  E = HC_HARTREE_NM / lambda.
HC_HARTREE_NM: float = 2.0 * math.pi * SPEED_OF_LIGHT_AU * BOHR_TO_ANGSTROM * 0.1

# ---------------------------------------------------------------------------
# Paper-specific reference values (Section 4 and 5 of the paper)
# ---------------------------------------------------------------------------

#: Silicon cubic lattice constant used in the paper (Angstrom).
SILICON_LATTICE_ANGSTROM: float = 5.43
#: Silicon cubic lattice constant in Bohr.
SILICON_LATTICE_BOHR: float = SILICON_LATTICE_ANGSTROM * ANGSTROM_TO_BOHR

#: Kinetic-energy cutoff used in the paper (Hartree).
PAPER_ECUT_HARTREE: float = 10.0

#: PT-CN time step used in the paper (attoseconds).
PAPER_PTCN_TIMESTEP_AS: float = 50.0
#: RK4 time step used in the paper (attoseconds).
PAPER_RK4_TIMESTEP_AS: float = 0.5

#: Laser wavelength used in the paper (nm).
PAPER_LASER_WAVELENGTH_NM: float = 380.0

#: SCF convergence threshold on the electron density used in the paper.
PAPER_SCF_DENSITY_TOLERANCE: float = 1.0e-6

#: Maximum Anderson mixing history used in the paper.
PAPER_ANDERSON_HISTORY: int = 20


def wavelength_nm_to_energy_hartree(wavelength_nm: float) -> float:
    """Convert a photon wavelength in nanometres to an energy in Hartree.

    Parameters
    ----------
    wavelength_nm:
        Photon wavelength in nanometres. Must be positive.

    Returns
    -------
    float
        Photon energy ``h c / lambda`` in Hartree.
    """
    if wavelength_nm <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength_nm}")
    return HC_HARTREE_NM / wavelength_nm


def attoseconds_to_au(t_as: float) -> float:
    """Convert a time in attoseconds to atomic units."""
    return t_as * ATTOSECOND_TO_AU_TIME


def au_to_attoseconds(t_au: float) -> float:
    """Convert a time in atomic units to attoseconds."""
    return t_au * AU_TIME_TO_ATTOSECOND


def femtoseconds_to_au(t_fs: float) -> float:
    """Convert a time in femtoseconds to atomic units."""
    return t_fs * FEMTOSECOND_TO_AU_TIME
