"""Tests for electron density evaluation and mixing."""

import numpy as np
import pytest

from repro.pw import FFTGrid, PlaneWaveBasis, Wavefunction, compute_density, density_error
from repro.pw import density as density_module
from repro.pw.density import DensityMixer
from repro.pw.lattice import Cell


class TestComputeDensity:
    def test_density_nonnegative(self, h2_basis, rng):
        wf = Wavefunction.random(h2_basis, 3, rng=rng)
        rho = compute_density(wf)
        assert np.all(rho >= -1e-14)

    def test_density_integrates_to_electron_count(self, h2_basis, rng):
        wf = Wavefunction.random(h2_basis, 3, rng=rng)
        rho = compute_density(wf)
        n = np.sum(rho) * h2_basis.grid.volume_element
        assert n == pytest.approx(np.sum(wf.occupations), rel=1e-10)

    def test_occupation_weighting(self, h2_basis, rng):
        wf = Wavefunction.random(h2_basis, 2, rng=rng, occupations=np.array([2.0, 0.0]))
        rho = compute_density(wf)
        n = np.sum(rho) * h2_basis.grid.volume_element
        assert n == pytest.approx(2.0, rel=1e-10)

    def test_density_gauge_invariant(self, h2_basis, rng):
        """A unitary rotation of the orbitals leaves the density unchanged."""
        wf = Wavefunction.random(h2_basis, 3, rng=rng)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(a)
        rho1 = compute_density(wf)
        rho2 = compute_density(wf.rotate(q))
        assert np.allclose(rho1, rho2, atol=1e-10)

    def test_density_on_denser_grid(self, h2_basis, rng):
        wf = Wavefunction.random(h2_basis, 2, rng=rng)
        fine_shape = tuple(2 * n for n in h2_basis.grid.shape)
        fine_grid = FFTGrid(h2_basis.grid.cell, fine_shape)
        rho = compute_density(wf, fine_grid)
        assert rho.shape == fine_shape
        n = np.sum(rho) * fine_grid.volume_element
        assert n == pytest.approx(np.sum(wf.occupations), rel=1e-8)

    def test_dense_grid_must_be_finer(self, h2_basis, rng):
        wf = Wavefunction.random(h2_basis, 1, rng=rng)
        coarse = FFTGrid(h2_basis.grid.cell, (4, 4, 4))
        with pytest.raises(ValueError):
            compute_density(wf, coarse)


class TestDensityError:
    def test_zero_for_identical(self, h2_basis, rng):
        wf = Wavefunction.random(h2_basis, 2, rng=rng)
        rho = compute_density(wf)
        assert density_error(rho, rho, h2_basis.grid) == 0.0

    def test_positive_for_different(self, h2_basis, rng):
        wf1 = Wavefunction.random(h2_basis, 2, rng=rng)
        wf2 = Wavefunction.random(h2_basis, 2, rng=rng)
        rho1 = compute_density(wf1)
        rho2 = compute_density(wf2)
        assert density_error(rho1, rho2, h2_basis.grid) > 0.0

    def test_scales_linearly_with_perturbation(self, h2_basis, rng):
        wf = Wavefunction.random(h2_basis, 2, rng=rng)
        rho = compute_density(wf)
        delta = rng.random(rho.shape)
        e1 = density_error(rho + 1e-3 * delta, rho, h2_basis.grid)
        e2 = density_error(rho + 2e-3 * delta, rho, h2_basis.grid)
        assert e2 == pytest.approx(2.0 * e1, rel=1e-6)

    def test_nonpositive_reference_raises(self, h2_basis):
        zero = np.zeros(h2_basis.grid.shape)
        with pytest.raises(ValueError):
            density_error(zero, zero, h2_basis.grid)


class TestDensityMixer:
    def test_full_mixing_returns_output(self):
        mixer = DensityMixer(beta=1.0)
        rho_in = np.zeros((2, 2, 2))
        rho_out = np.ones((2, 2, 2))
        assert np.allclose(mixer.mix(rho_in, rho_out), rho_out)

    def test_partial_mixing(self):
        mixer = DensityMixer(beta=0.25)
        rho_in = np.zeros(5)
        rho_out = np.ones(5)
        assert np.allclose(mixer.mix(rho_in, rho_out), 0.25)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            DensityMixer(beta=0.0)
        with pytest.raises(ValueError):
            DensityMixer(beta=1.5)


def _contraction(rng, n=40, slope=0.6):
    """A linear map ``rho -> fixed + A (rho - fixed)`` with ``|A| <= slope``
    and the charge ``sum(rho)`` conserved: the model of an SCF map near its
    fixed point that the mixer tests iterate."""
    fixed = 1.0 + rng.random(n)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    matrix = basis @ np.diag(slope * rng.uniform(-1.0, 1.0, n)) @ basis.T
    matrix -= np.outer(np.ones(n), matrix.sum(axis=0)) / n  # columns sum to zero: charge is kept
    return fixed, lambda rho: fixed + matrix @ (rho - fixed)


class TestDensityMixerExtrapolation:
    """The ground state's one mixer: linear for the warm-up, Anderson after."""

    def test_warm_up_updates_are_the_linear_step_bit_for_bit(self, rng):
        mixer = DensityMixer(beta=0.4)
        for _ in range(density_module._WARMUP_ITERATIONS):
            rho_in, rho_out = rng.random((4, 4, 4)), rng.random((4, 4, 4))
            assert np.array_equal(mixer.mix(rho_in, rho_out), rho_in + 0.4 * (rho_out - rho_in))
        rho_in, rho_out = rng.random((4, 4, 4)), rng.random((4, 4, 4))
        assert not np.array_equal(mixer.mix(rho_in, rho_out), rho_in + 0.4 * (rho_out - rho_in))

    def test_reset_restarts_history_and_warm_up(self, rng):
        mixer = DensityMixer(beta=0.4)
        for _ in range(6):
            mixer.mix(rng.random(9), rng.random(9))
        mixer.reset()
        assert mixer._densities == [] and mixer._residuals == []
        for _ in range(density_module._WARMUP_ITERATIONS):
            rho_in, rho_out = rng.random(9), rng.random(9)
            assert np.array_equal(mixer.mix(rho_in, rho_out), rho_in + 0.4 * (rho_out - rho_in))

    def test_extrapolation_beats_the_linear_rate_and_keeps_the_charge(self, rng):
        fixed, scf_map = _contraction(rng)
        mixer = DensityMixer(beta=0.4)
        rho = fixed + rng.standard_normal(fixed.size)
        rho += (fixed.sum() - rho.sum()) / rho.size
        errors = []
        for _ in range(14):
            rho = mixer.mix(rho, scf_map(rho))
            errors.append(np.linalg.norm(rho - fixed))
            assert rho.sum() == pytest.approx(fixed.sum(), rel=1e-12)
        # linear mixing at beta 0.4 of a map with slopes in [-0.6, 0.6] contracts
        # by at best 0.6 an update; eleven extrapolated updates do a hundred times better
        assert errors[-1] < 1e-2 * 0.6**11 * errors[2]

    def test_history_is_bounded_by_its_constant_depth(self, rng):
        _, scf_map = _contraction(rng)
        mixer = DensityMixer(beta=0.4)
        rho = 1.0 + rng.random(40)
        for update in range(1, 31):
            rho = mixer.mix(rho, scf_map(rho))
            kept = min(max(0, update - density_module._WARMUP_ITERATIONS + 1), density_module._HISTORY_DEPTH)
            assert len(mixer._densities) == len(mixer._residuals) == kept
        assert density_module._HISTORY_DEPTH <= 8  # grid-sized arrays: 2 x depth, whatever the SCF does

    def test_value_equal_history_entries_give_a_finite_update(self, rng):
        """A stalled SCF hands the mixer the same pair again and again: the
        Gram matrix of residual differences is exactly singular and only the
        regularisation makes the solve well-posed."""
        mixer = DensityMixer(beta=0.4)
        rho_in, rho_out = 1.0 + rng.random(30), 1.0 + rng.random(30)
        for _ in range(density_module._HISTORY_DEPTH + 4):
            mixed = mixer.mix(rho_in.copy(), rho_out.copy())
            assert np.all(np.isfinite(mixed))
        # no direction to extrapolate along: the stalled update is the residual step
        assert np.allclose(mixed, rho_out)

