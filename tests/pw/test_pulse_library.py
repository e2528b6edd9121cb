"""Pump-probe pulses, fluence parameterisation, and the sawtooth memo."""

import numpy as np
import pytest

from repro.constants import (
    ATTOSECOND_TO_AU_TIME,
    SPEED_OF_LIGHT_AU,
)
from repro.pw.grid import FFTGrid
from repro.pw.laser import (
    GaussianLaserPulse,
    PumpProbePulse,
    fluence_gaussian_pulse,
    fluence_to_amplitude,
    pump_probe_pulse,
    sawtooth_position,
)
from repro.pw.lattice import Cell


def _pulse(amplitude=0.1, omega=0.5, t0=10.0, sigma=2.0, polarization=None):
    return GaussianLaserPulse(
        amplitude=amplitude, omega=omega, t0=t0, sigma=sigma, polarization=polarization
    )


class TestPumpProbePulse:
    def test_validation(self):
        with pytest.raises(ValueError, match="GaussianLaserPulse"):
            PumpProbePulse(pump=_pulse(), probe="not a pulse")
        with pytest.raises(ValueError, match="delay"):
            PumpProbePulse(pump=_pulse(), probe=_pulse(), delay=-1.0)

    def test_potential_factory_sums_components(self):
        cell = Cell.cubic(8.0)
        grid = FFTGrid(cell, (6, 6, 6))
        pair = PumpProbePulse(
            pump=_pulse(polarization=[0, 0, 1]),
            probe=_pulse(amplitude=0.05, polarization=[1, 0, 0]),
            delay=1.0,
        )
        v = pair.potential_factory(grid)(9.0)
        expected = pair.pump.field(9.0) * sawtooth_position(grid, [0, 0, 1]) + pair.probe.field(
            8.0
        ) * sawtooth_position(grid, [1, 0, 0])
        assert np.allclose(v, expected)


class TestFluence:
    def test_fluence_amplitude_round_trip(self):
        sigma = 50.0
        amplitude = fluence_to_amplitude(1e-6, sigma)
        # invert: F = (c / 8 pi) E0^2 sigma sqrt(pi)
        fluence = SPEED_OF_LIGHT_AU * amplitude**2 * sigma * np.sqrt(np.pi) / (8.0 * np.pi)
        assert fluence == pytest.approx(1e-6)

    def test_amplitude_scales_as_sqrt_fluence(self):
        assert fluence_to_amplitude(4e-6, 10.0) == pytest.approx(
            2.0 * fluence_to_amplitude(1e-6, 10.0)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            fluence_to_amplitude(-1e-6, 10.0)
        with pytest.raises(ValueError):
            fluence_to_amplitude(1e-6, 0.0)

    def test_fluence_gaussian_pulse(self):
        pulse = fluence_gaussian_pulse(1e-6, omega=0.12, t0=100.0, sigma=25.0)
        assert pulse.amplitude == pytest.approx(fluence_to_amplitude(1e-6, 25.0))
        assert pulse.omega == 0.12


class TestPumpProbeFactory:
    def test_exactly_one_strength_parameter(self):
        with pytest.raises(ValueError, match="exactly one"):
            pump_probe_pulse()
        with pytest.raises(ValueError, match="exactly one"):
            pump_probe_pulse(amplitude=0.01, fluence=1e-6)

    def test_geometry_and_ratio(self):
        pair = pump_probe_pulse(amplitude=0.01, probe_ratio=0.2, delay_as=40.0)
        assert pair.pump.amplitude == pytest.approx(0.01)
        assert pair.probe.amplitude == pytest.approx(0.002)
        assert pair.delay == pytest.approx(40.0 * ATTOSECOND_TO_AU_TIME)
        # probe at twice the pump wavelength -> half the carrier frequency
        assert pair.probe.omega == pytest.approx(pair.pump.omega / 2.0)

    def test_fluence_parameterisation(self):
        pair = pump_probe_pulse(fluence=1e-6)
        assert pair.pump.amplitude == pytest.approx(
            fluence_to_amplitude(1e-6, pair.pump.sigma)
        )


class TestSawtoothMemo:
    def _fresh_grid(self, n=4):
        return FFTGrid(Cell.cubic(6.0), (n, n, n))

    def test_hit_returns_same_array(self):
        grid = self._fresh_grid()
        first = sawtooth_position(grid, [0, 0, 1])
        assert sawtooth_position(grid, [0, 0, 2]) is first  # one direction, normalised
        twin = self._fresh_grid()  # an equal grid holds its own, equal array
        assert sawtooth_position(twin, [0, 0, 1]) is not first
        assert np.array_equal(sawtooth_position(twin, [0, 0, 1]), first)

    def test_distinct_directions_cached_separately(self):
        grid = self._fresh_grid()
        rz = sawtooth_position(grid, [0, 0, 1])
        rx = sawtooth_position(grid, [1, 0, 0])
        assert rz is not rx
        assert sawtooth_position(grid, [0, 0, 1]) is rz

    def test_results_read_only(self):
        grid = self._fresh_grid()
        r = sawtooth_position(grid, [0, 0, 1])
        with pytest.raises(ValueError):
            r[0, 0, 0] = 1.0
