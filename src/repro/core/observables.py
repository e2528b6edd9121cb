"""Observables recorded along rt-TDDFT trajectories.

The quantities a user of the paper's method actually cares about: total
energy (whose conservation is the standard accuracy check), the dipole moment
(whose Fourier transform gives the absorption spectrum) and the total electron
number (norm conservation). All observables are functions of
the gauge-invariant density matrix, so they agree between propagators that use
different gauges — which is exactly the check the PT formulation relies on.

The dipole and the electron number have one body each, stacked over a group's
densities (:func:`dipoles_many`, :func:`electron_numbers_many`), as the energy
has in :func:`repro.pw.hamiltonian.energies_many`: the trajectory records call
them on a stepped group, and :func:`dipole_moment` is the dipole's width-1
call on one wavefunction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pw.basis import Wavefunction
from ..pw.density import compute_density
from ..pw.grid import FFTGrid
from ..pw.laser import sawtooth_position

__all__ = [
    "dipoles_many",
    "electron_numbers_many",
    "dipole_moment",
    "absorption_spectrum",
    "energy_drift",
]


def dipoles_many(grid: FFTGrid, densities: np.ndarray) -> np.ndarray:
    """Electronic dipole moments ``d_k = integral r_k rho(r) dr`` of a stack of
    densities, shape ``(njobs, 3)`` (sawtooth convention).

    For periodic cells the position operator is defined through the sawtooth
    coordinate (see :func:`repro.pw.laser.sawtooth_position`); only *changes*
    of the dipole are physically meaningful, which is all the absorption
    spectrum needs. Each job's density slice is reduced alone, so its dipole
    does not depend on the width of the stack.
    """
    components = [np.real(grid.integrate(densities * sawtooth_position(grid, direction)))
                  for direction in np.eye(3)]
    return np.stack(components, axis=-1)


def electron_numbers_many(grid: FFTGrid, densities: np.ndarray) -> np.ndarray:
    """Total electron numbers ``integral rho(r) dr`` of a stack of densities
    (norm-conservation check), shape ``(njobs,)``."""
    return np.real(grid.integrate(densities))


def dipole_moment(wavefunction: Wavefunction) -> np.ndarray:
    """Dipole moment of ``wavefunction``'s density: the width-1 call of
    :func:`dipoles_many`."""
    grid = wavefunction.basis.grid
    return dipoles_many(grid, compute_density(wavefunction, grid)[None])[0]


def energy_drift(energies: np.ndarray) -> float:
    """Maximum absolute deviation of a trajectory's energy from its initial value."""
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        return 0.0
    return float(np.max(np.abs(energies - energies[0])))


@dataclass
class AbsorptionSpectrum:
    """Absorption spectrum data.

    Attributes
    ----------
    frequencies:
        Angular frequencies in Hartree.
    strength:
        Dipole strength function (arbitrary units) per frequency.
    """

    frequencies: np.ndarray
    strength: np.ndarray


def absorption_spectrum(
    times: np.ndarray,
    dipole: np.ndarray,
    kick_strength: float = 1.0,
    damping: float = 0.2,
    max_energy: float = 2.0,
) -> AbsorptionSpectrum:
    """Dipole strength function from a delta-kick dipole trajectory.

    Parameters
    ----------
    times:
        Sample times (atomic units), uniformly spaced.
    dipole:
        Dipole component along the kick direction at each time.
    kick_strength:
        The delta-kick momentum used to excite the system; the spectrum is
        normalised by it.
    damping:
        Exponential window decay rate (Ha) applied before the transform to
        emulate finite lifetime / avoid ringing.
    max_energy:
        Largest frequency (Ha) in the returned grid of 400 samples.
    """
    times = np.asarray(times, dtype=float)
    dipole = np.asarray(dipole, dtype=float)
    if times.shape != dipole.shape:
        raise ValueError("times and dipole must have the same shape")
    if times.size < 4:
        raise ValueError("need at least 4 samples for a spectrum")
    signal = dipole - dipole[0]
    window = np.exp(-damping * (times - times[0]))
    freqs = np.linspace(0.0, max_energy, 400)
    dt = times[1] - times[0]
    # direct (slow) Fourier transform; trajectories are short so this is fine
    phases = np.exp(1j * np.outer(freqs, times - times[0]))
    transform = phases @ (signal * window) * dt
    strength = freqs * np.imag(transform) / max(kick_strength, 1e-30)
    return AbsorptionSpectrum(frequencies=freqs, strength=strength)
