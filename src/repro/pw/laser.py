"""External time-dependent fields: laser pulses and delta kicks.

The paper drives the 30 fs silicon simulations with a 380 nm laser pulse
(Fig. 4b). We model the pulse as a Gaussian-envelope sinusoidal electric field
and couple it in the length gauge, ``V_ext(r, t) = E(t) . r``, using a sawtooth
position operator compatible with periodic boundary conditions (the potential
ramps across the cell and wraps; for bulk-like excitations a delta kick is also
provided, which is the standard way to compute absorption spectra in rt-TDDFT).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import (
    ATTOSECOND_TO_AU_TIME,
    FEMTOSECOND_TO_AU_TIME,
    PAPER_LASER_WAVELENGTH_NM,
    SPEED_OF_LIGHT_AU,
    wavelength_nm_to_energy_hartree,
)
from .fft import plan_memo
from .grid import FFTGrid

__all__ = [
    "GaussianLaserPulse",
    "PumpProbePulse",
    "DeltaKick",
    "paper_laser_pulse",
    "fluence_to_amplitude",
    "fluence_gaussian_pulse",
    "pump_probe_pulse",
    "sawtooth_position",
]

def sawtooth_position(grid: FFTGrid, direction: np.ndarray) -> np.ndarray:
    """The periodic ("sawtooth") position operator ``r . e_hat`` on the grid.

    For a periodic cell the bare position operator is ill defined; the
    conventional length-gauge treatment uses the fractional coordinate along
    the polarisation direction, centred so the discontinuity sits at the cell
    boundary. Returns a real **read-only** array of shape ``grid.shape`` in
    Bohr (the array is memoised on the grid instance per direction — it is
    evaluated at every recorded step and every length-gauge field update).
    """
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if norm < 1e-12:
        raise ValueError("direction must be a nonzero vector")
    direction = direction / norm
    memo = plan_memo(grid, "_sawtooth")
    position = memo.get(direction.tobytes())
    if position is None:
        points = grid.real_space_points  # (n1, n2, n3, 3)
        projection = points @ direction
        # centre around zero: subtract the mean so the sawtooth ramps from -L/2 to L/2
        position = projection - float(np.mean(projection))
        position.flags.writeable = False
        memo[direction.tobytes()] = position
    return position


@dataclass
class GaussianLaserPulse:
    """A linearly polarised Gaussian-envelope laser pulse.

    ``E(t) = E0 * exp(-(t - t0)^2 / (2 sigma^2)) * sin(omega (t - t0) + phase)``

    Attributes
    ----------
    amplitude:
        Peak field strength ``E0`` in Hartree/(e*Bohr) (atomic units).
    omega:
        Carrier angular frequency in Hartree (atomic units of energy).
    t0:
        Pulse centre in atomic time units.
    sigma:
        Gaussian envelope width in atomic time units.
    polarization:
        Cartesian polarisation direction (normalised internally).
    phase:
        Carrier-envelope phase in radians.
    """

    amplitude: float
    omega: float
    t0: float
    sigma: float
    polarization: np.ndarray = None  # type: ignore[assignment]
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        pol = np.array([0.0, 0.0, 1.0]) if self.polarization is None else np.asarray(
            self.polarization, dtype=float
        )
        norm = np.linalg.norm(pol)
        if norm < 1e-12:
            raise ValueError("polarization must be a nonzero vector")
        self.polarization = pol / norm

    # ------------------------------------------------------------------
    def field(self, t: float) -> float:
        """Scalar field amplitude ``E(t)`` at time ``t`` (atomic units)."""
        envelope = np.exp(-((t - self.t0) ** 2) / (2.0 * self.sigma**2))
        return float(self.amplitude * envelope * np.sin(self.omega * (t - self.t0) + self.phase))

    def potential_factory(self, grid: FFTGrid):
        """Return a callable ``t -> V_ext(r, t)`` in the length gauge."""
        position = sawtooth_position(grid, self.polarization)

        def v_ext(t: float) -> np.ndarray:
            return self.field(t) * position

        return v_ext


@dataclass
class DeltaKick:
    """An instantaneous momentum kick ``psi -> exp(i k . r) psi``.

    The standard preparation for linear-response absorption spectra with
    rt-TDDFT: the dipole response to a weak kick, Fourier transformed, gives
    the absorption cross-section.
    """

    strength: float
    polarization: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        pol = np.array([0.0, 0.0, 1.0]) if self.polarization is None else np.asarray(
            self.polarization, dtype=float
        )
        norm = np.linalg.norm(pol)
        if norm < 1e-12:
            raise ValueError("polarization must be a nonzero vector")
        self.polarization = pol / norm

    def phase_factor(self, grid: FFTGrid) -> np.ndarray:
        """The real-space phase factor ``exp(i k . r)`` on the grid."""
        position = sawtooth_position(grid, self.polarization)
        return np.exp(1j * self.strength * position)

    def apply(self, grid: FFTGrid, psi_real: np.ndarray) -> np.ndarray:
        """Apply the kick to real-space orbital values (broadcasts over bands)."""
        return psi_real * self.phase_factor(grid)[None, ...]


@dataclass
class PumpProbePulse:
    """A two-pulse pump–probe field: the sum of two Gaussian-envelope pulses.

    ``E(t) = E_pump(t) + E_probe(t)`` with the probe centred ``delay`` atomic
    time units after the pump. The pulses may be polarised differently; the
    length-gauge coupling then sums one sawtooth-position potential per
    component. This is the scenario axis the asset library's
    ``pulse/pump-probe-*`` entries expose: sweeping ``delay`` maps out the
    transient response, sweeping the pump fluence the excitation density.

    Attributes
    ----------
    pump:
        The pump :class:`GaussianLaserPulse`.
    probe:
        The probe :class:`GaussianLaserPulse`; its ``t0`` is interpreted
        relative to the pump's (``probe.t0 + delay`` would double-count), so
        build it centred at the pump's ``t0`` and let ``delay`` shift it.
    delay:
        Pump→probe centre-to-centre delay in atomic time units (>= 0).
    """

    pump: GaussianLaserPulse
    probe: GaussianLaserPulse
    delay: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.pump, GaussianLaserPulse) or not isinstance(
            self.probe, GaussianLaserPulse
        ):
            raise ValueError("pump and probe must be GaussianLaserPulse instances")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")

    # ------------------------------------------------------------------
    def _probe_time(self, t):
        return t - self.delay

    def potential_factory(self, grid: FFTGrid):
        """``t -> V_ext(r, t)`` in the length gauge, one sawtooth per component."""
        pump_position = sawtooth_position(grid, self.pump.polarization)
        probe_position = sawtooth_position(grid, self.probe.polarization)

        def v_ext(t: float) -> np.ndarray:
            return self.pump.field(t) * pump_position + self.probe.field(
                self._probe_time(t)
            ) * probe_position

        return v_ext


def fluence_to_amplitude(fluence: float, sigma: float) -> float:
    """Peak field ``E0`` of a Gaussian-envelope pulse with the given fluence.

    The cycle-averaged intensity of ``E(t) = E0 exp(-(t-t0)^2/(2 sigma^2))
    sin(omega t)`` is ``I(t) = c E_env(t)^2 / (8 pi)`` (atomic/Gaussian
    units), so the fluence — the time-integrated intensity, in Hartree per
    Bohr² — is ``F = (c / 8 pi) E0^2 sigma sqrt(pi)`` and

    ``E0 = sqrt(8 pi F / (c sigma sqrt(pi)))``.
    """
    if fluence < 0:
        raise ValueError("fluence must be non-negative")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return float(
        np.sqrt(8.0 * np.pi * fluence / (SPEED_OF_LIGHT_AU * sigma * np.sqrt(np.pi)))
    )


def fluence_gaussian_pulse(
    fluence: float,
    omega: float,
    t0: float,
    sigma: float,
    polarization: np.ndarray | None = None,
    phase: float = 0.0,
) -> GaussianLaserPulse:
    """A :class:`GaussianLaserPulse` parameterised by fluence instead of peak
    field — the natural sweep axis for excitation-density studies (all
    arguments in atomic units; fluence in Hartree/Bohr²)."""
    return GaussianLaserPulse(
        amplitude=fluence_to_amplitude(fluence, sigma),
        omega=omega,
        t0=t0,
        sigma=sigma,
        polarization=polarization,
        phase=phase,
    )


def pump_probe_pulse(
    pump_wavelength_nm: float = PAPER_LASER_WAVELENGTH_NM,
    probe_wavelength_nm: float = 2.0 * PAPER_LASER_WAVELENGTH_NM,
    delay_as: float = 0.0,
    duration_fs: float = 30.0,
    amplitude: float | None = None,
    fluence: float | None = None,
    probe_ratio: float = 0.1,
    polarization: np.ndarray | None = None,
) -> PumpProbePulse:
    """A pump–probe pair built in the :func:`paper_laser_pulse` geometry.

    Both components are centred at half the ``duration_fs`` window with a
    width of one sixth of it (the probe then shifted by ``delay_as``
    attoseconds). The pump strength is set by exactly one of ``amplitude``
    (peak field, a.u.) or ``fluence`` (Hartree/Bohr², converted through
    :func:`fluence_to_amplitude`); the probe's peak field is ``probe_ratio``
    times the pump's, along the same ``polarization``.
    """
    if (amplitude is None) == (fluence is None):
        raise ValueError("give exactly one of 'amplitude' (a.u.) or 'fluence' (Ha/Bohr^2)")
    if probe_ratio < 0:
        raise ValueError("probe_ratio must be non-negative")
    window = duration_fs * FEMTOSECOND_TO_AU_TIME
    t0 = 0.5 * window
    sigma = window / 6.0
    if amplitude is None:
        amplitude = fluence_to_amplitude(fluence, sigma)
    pump = GaussianLaserPulse(
        amplitude=amplitude,
        omega=wavelength_nm_to_energy_hartree(pump_wavelength_nm),
        t0=t0,
        sigma=sigma,
        polarization=polarization,
    )
    probe = GaussianLaserPulse(
        amplitude=probe_ratio * amplitude,
        omega=wavelength_nm_to_energy_hartree(probe_wavelength_nm),
        t0=t0,
        sigma=sigma,
        polarization=polarization,
    )
    return PumpProbePulse(pump=pump, probe=probe, delay=delay_as * ATTOSECOND_TO_AU_TIME)


def paper_laser_pulse(
    amplitude: float = 0.01,
    duration_fs: float = 30.0,
    wavelength_nm: float = PAPER_LASER_WAVELENGTH_NM,
    polarization: np.ndarray | None = None,
) -> GaussianLaserPulse:
    """The 380 nm pulse of the paper's Fig. 4(b), scaled to a chosen amplitude.

    The pulse is centred at half the simulation window with a width of one
    sixth of the window so it rises and decays smoothly within the 30 fs run.
    """
    omega = wavelength_nm_to_energy_hartree(wavelength_nm)
    window = duration_fs * FEMTOSECOND_TO_AU_TIME
    return GaussianLaserPulse(
        amplitude=amplitude,
        omega=omega,
        t0=0.5 * window,
        sigma=window / 6.0,
        polarization=polarization if polarization is not None else np.array([0.0, 0.0, 1.0]),
    )
