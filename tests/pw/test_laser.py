"""Tests for laser pulses, delta kicks and the sawtooth position operator."""

import numpy as np
import pytest

from repro.constants import FEMTOSECOND_TO_AU_TIME
from repro.pw.laser import DeltaKick, GaussianLaserPulse, paper_laser_pulse, sawtooth_position


class TestSawtoothPosition:
    def test_shape_and_zero_mean(self, h2_basis):
        r = sawtooth_position(h2_basis.grid, [0, 0, 1])
        assert r.shape == h2_basis.grid.shape
        assert abs(np.mean(r)) < 1e-10

    def test_range_spans_cell(self, h2_basis):
        length = h2_basis.grid.cell.lengths[2]
        r = sawtooth_position(h2_basis.grid, [0, 0, 1])
        assert r.max() - r.min() == pytest.approx(length * (1 - 1 / h2_basis.grid.shape[2]), rel=1e-10)

    def test_direction_normalisation(self, h2_basis):
        r1 = sawtooth_position(h2_basis.grid, [0, 0, 1])
        r2 = sawtooth_position(h2_basis.grid, [0, 0, 7.5])
        assert np.allclose(r1, r2)

    def test_zero_direction_rejected(self, h2_basis):
        with pytest.raises(ValueError):
            sawtooth_position(h2_basis.grid, [0, 0, 0])


def _envelope(pulse: GaussianLaserPulse, t: float) -> float:
    """The Gaussian envelope ``E0 exp(-(t - t0)^2 / 2 sigma^2)`` the field's sine rides on."""
    return float(pulse.amplitude * np.exp(-((t - pulse.t0) ** 2) / (2.0 * pulse.sigma**2)))


class TestGaussianLaserPulse:
    def test_peak_at_centre(self):
        pulse = GaussianLaserPulse(amplitude=0.1, omega=0.5, t0=10.0, sigma=2.0, phase=np.pi / 2)
        assert abs(pulse.field(10.0)) == pytest.approx(0.1)

    def test_envelope_decay(self):
        pulse = GaussianLaserPulse(amplitude=0.1, omega=0.5, t0=10.0, sigma=2.0)
        assert _envelope(pulse, 10.0 + 6 * 2.0) < 1e-6 * _envelope(pulse, 10.0)

    def test_potential_factory(self, h2_basis):
        pulse = GaussianLaserPulse(amplitude=0.1, omega=0.4, t0=1.0, sigma=1.0, phase=np.pi / 2)
        v = pulse.potential_factory(h2_basis.grid)
        potential = v(1.0)
        assert potential.shape == h2_basis.grid.shape
        assert np.max(np.abs(potential)) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianLaserPulse(amplitude=-1.0, omega=0.4, t0=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            GaussianLaserPulse(amplitude=1.0, omega=0.0, t0=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            GaussianLaserPulse(amplitude=1.0, omega=0.4, t0=0.0, sigma=-1.0)
        with pytest.raises(ValueError):
            GaussianLaserPulse(amplitude=1.0, omega=0.4, t0=0.0, sigma=1.0, polarization=[0, 0, 0])


class TestPaperPulse:
    def test_pulse_centred_in_window(self):
        pulse = paper_laser_pulse(duration_fs=30.0)
        assert pulse.t0 == pytest.approx(15.0 * FEMTOSECOND_TO_AU_TIME)

    def test_pulse_contained_in_window(self):
        pulse = paper_laser_pulse(amplitude=0.01, duration_fs=30.0)
        window = 30.0 * FEMTOSECOND_TO_AU_TIME
        assert _envelope(pulse, 0.0) < 0.02 * pulse.amplitude
        assert _envelope(pulse, window) < 0.02 * pulse.amplitude


class TestDeltaKick:
    def test_phase_factor_unimodular(self, h2_basis):
        kick = DeltaKick(strength=0.01, polarization=[0, 0, 1])
        phase = kick.phase_factor(h2_basis.grid)
        assert np.allclose(np.abs(phase), 1.0)

    def test_apply_preserves_norm(self, h2_basis, rng):
        from repro.pw import Wavefunction

        kick = DeltaKick(strength=0.02)
        wf = Wavefunction.random(h2_basis, 2, rng=rng)
        psi = wf.to_real_space()
        kicked = kick.apply(h2_basis.grid, psi)
        norm_before = np.sum(np.abs(psi) ** 2)
        norm_after = np.sum(np.abs(kicked) ** 2)
        assert norm_after == pytest.approx(norm_before)

    def test_zero_strength_identity(self, h2_basis):
        kick = DeltaKick(strength=0.0)
        assert np.allclose(kick.phase_factor(h2_basis.grid), 1.0)

    def test_invalid_polarization(self):
        with pytest.raises(ValueError):
            DeltaKick(strength=0.1, polarization=[0, 0, 0])
