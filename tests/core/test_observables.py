"""Tests for trajectory observables."""

import numpy as np
import pytest

from repro.core.observables import absorption_spectrum, dipole_moment, energy_drift
from repro.pw import Wavefunction
from support import electron_number


def band_occupations(wavefunction: Wavefunction, reference: Wavefunction) -> np.ndarray:
    """Occupation of each reference (ground-state) band in the propagated state.

    ``n_j = sum_i f_i |<phi_j | psi_i(t)>|^2`` where ``phi_j`` are the
    reference orbitals. At ``t=0`` this returns the reference occupations; the
    deficit from the initial values measures excited carriers.
    """
    overlap = reference.coefficients.conj() @ wavefunction.coefficients.T  # (nref, nprop)
    weights = wavefunction.occupations[None, :]
    return np.real(np.sum(weights * np.abs(overlap) ** 2, axis=1))


def excited_charge(wavefunction: Wavefunction, reference: Wavefunction) -> float:
    """Number of electrons promoted out of the reference occupied subspace."""
    occupations = band_occupations(wavefunction, reference)
    total = float(np.sum(wavefunction.occupations))
    return max(total - float(np.sum(occupations)), 0.0)


class TestDipole:
    def test_shape(self, random_wavefunction):
        assert dipole_moment(random_wavefunction).shape == (3,)

    def test_gauge_invariant(self, random_wavefunction, rng):
        n = random_wavefunction.nbands
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        d1 = dipole_moment(random_wavefunction)
        d2 = dipole_moment(
            Wavefunction(random_wavefunction.basis, q.T @ random_wavefunction.coefficients,
                         random_wavefunction.occupations)
        )
        assert np.allclose(d1, d2, atol=1e-10)

    def test_ground_state_dipole_matches_geometric_centre(self, h2_ground_state, h2_basis):
        """The H2 charge cloud is centred on the box centre, so each dipole component
        equals N_e times the offset between the box centre and the sawtooth origin
        (the mean of the grid coordinates)."""
        _, result = h2_ground_state
        d = dipole_moment(result.wavefunction)
        grid = h2_basis.grid
        centre = 0.5 * grid.cell.lengths
        grid_mean = np.mean(grid.real_space_points.reshape(-1, 3), axis=0)
        expected = 2.0 * (centre - grid_mean)
        assert np.allclose(d, expected, atol=0.3)


class TestElectronNumber:
    def test_matches_occupations(self, random_wavefunction):
        n = electron_number(random_wavefunction)
        assert n == pytest.approx(np.sum(random_wavefunction.occupations), rel=1e-10)


class TestBandOccupations:
    def test_identity_at_t0(self, random_wavefunction):
        occ = band_occupations(random_wavefunction, random_wavefunction)
        assert np.allclose(occ, random_wavefunction.occupations, atol=1e-10)

    def test_excited_charge_zero_initially(self, random_wavefunction):
        assert excited_charge(random_wavefunction, random_wavefunction) == pytest.approx(0.0, abs=1e-10)

    def test_excited_charge_positive_for_orthogonal_state(self, h2_basis, rng):
        a = Wavefunction.random(h2_basis, 1, rng=rng)
        b = Wavefunction.random(h2_basis, 1, rng=rng)
        # make b orthogonal to a
        overlap = a.coefficients[0].conj() @ b.coefficients[0]
        b_coeffs = b.coefficients[0] - overlap * a.coefficients[0]
        b_coeffs /= np.linalg.norm(b_coeffs)
        b = Wavefunction(h2_basis, b_coeffs[None, :])
        assert excited_charge(b, a) == pytest.approx(2.0, abs=1e-8)


class TestEnergyDrift:
    def test_zero_for_constant(self):
        assert energy_drift(np.full(5, -1.3)) == 0.0

    def test_max_deviation(self):
        assert energy_drift(np.array([1.0, 1.5, 0.2])) == pytest.approx(0.8)

    def test_empty(self):
        assert energy_drift(np.array([])) == 0.0


class TestAbsorptionSpectrum:
    def test_single_mode_peak_location(self):
        """A damped cosine dipole signal produces a peak at its frequency."""
        omega0 = 0.5
        times = np.linspace(0.0, 400.0, 4000)
        dipole = 0.01 * np.sin(omega0 * times)
        spec = absorption_spectrum(times, dipole, kick_strength=0.01, damping=0.01, max_energy=1.0)
        peak = spec.frequencies[np.argmax(np.abs(spec.strength))]
        assert peak == pytest.approx(omega0, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            absorption_spectrum(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            absorption_spectrum(np.zeros(2), np.zeros(2))

    def test_frequency_grid(self):
        times = np.linspace(0, 10, 50)
        spec = absorption_spectrum(times, np.zeros(50), max_energy=2.0)
        assert spec.frequencies.shape == (400,)
        assert spec.frequencies[-1] == pytest.approx(2.0)
        assert np.allclose(spec.strength, 0.0)
