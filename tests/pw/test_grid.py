"""Tests for :mod:`repro.pw.grid`: FFT conventions, G-vectors, the PW sphere."""

import numpy as np
import pytest

from repro.pw.grid import FFTGrid, PlaneWaveBasis, choose_grid_shape
from repro.pw.lattice import Cell


@pytest.fixture()
def cubic_grid():
    return FFTGrid(Cell.cubic(8.0), (12, 12, 12))


class TestChooseGridShape:
    def test_minimum_size(self):
        shape = choose_grid_shape(Cell.cubic(5.0), 1.0)
        assert all(n >= 4 and n % 2 == 0 for n in shape)

    def test_density_grid_larger_than_wavefunction_grid(self):
        cell = Cell.cubic(10.0)
        wf = choose_grid_shape(cell, 5.0, factor=1.0)
        rho = choose_grid_shape(cell, 5.0, factor=2.0)
        assert all(r >= w for r, w in zip(rho, wf))

    def test_larger_cutoff_needs_more_points(self):
        cell = Cell.cubic(10.0)
        small = choose_grid_shape(cell, 2.0)
        large = choose_grid_shape(cell, 8.0)
        assert all(l >= s for l, s in zip(large, small))

    def test_invalid_ecut(self):
        with pytest.raises(ValueError):
            choose_grid_shape(Cell.cubic(5.0), 0.0)


class TestFFTGrid:
    def test_size_and_volume_element(self, cubic_grid):
        assert cubic_grid.size == 12**3
        assert cubic_grid.volume_element == pytest.approx(8.0**3 / 12**3)

    def test_g_vectors_shape(self, cubic_grid):
        assert cubic_grid.g_vectors.shape == (12, 12, 12, 3)
        assert cubic_grid.g_squared.shape == (12, 12, 12)

    def test_g_zero_at_origin(self, cubic_grid):
        assert np.allclose(cubic_grid.g_vectors[0, 0, 0], 0.0)
        assert cubic_grid.g_squared[0, 0, 0] == pytest.approx(0.0)

    def test_g_squared_consistent(self, cubic_grid):
        g = cubic_grid.g_vectors
        assert np.allclose(cubic_grid.g_squared, np.sum(g * g, axis=-1))

    def test_real_space_points_range(self, cubic_grid):
        pts = cubic_grid.real_space_points
        assert pts.shape == (12, 12, 12, 3)
        assert pts.min() >= 0.0
        assert pts.max() < 8.0

    def test_plane_wave_round_trip(self, cubic_grid):
        """to_real of a single plane-wave coefficient gives exp(iG.r)/sqrt(V)."""
        coeffs = np.zeros(cubic_grid.shape, dtype=complex)
        coeffs[0, 1, 0] = 1.0
        psi = cubic_grid.to_real(coeffs)
        g = cubic_grid.g_vectors[0, 1, 0]
        r = cubic_grid.real_space_points
        expected = np.exp(1j * (r @ g)) / np.sqrt(cubic_grid.cell.volume)
        assert np.allclose(psi, expected)

    def test_normalization_parseval(self, cubic_grid):
        """sum_G |c_G|^2 = 1 implies the real-space orbital integrates to 1."""
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(cubic_grid.shape) + 1j * rng.standard_normal(cubic_grid.shape)
        coeffs /= np.linalg.norm(coeffs)
        psi = cubic_grid.to_real(coeffs)
        norm = np.sum(np.abs(psi) ** 2) * cubic_grid.volume_element
        assert norm == pytest.approx(1.0)

    def test_integrate_constant(self, cubic_grid):
        value = cubic_grid.integrate(np.ones(cubic_grid.shape))
        assert value == pytest.approx(cubic_grid.cell.volume)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            FFTGrid(Cell.cubic(4.0), (1, 4, 4))

    def test_equality(self):
        a = FFTGrid(Cell.cubic(4.0), (8, 8, 8))
        b = FFTGrid(Cell.cubic(4.0), (8, 8, 8))
        c = FFTGrid(Cell.cubic(4.0), (10, 8, 8))
        assert a == b and a != c


class TestPlaneWaveBasis:
    def test_npw_counts_sphere(self, cubic_grid):
        basis = PlaneWaveBasis(cubic_grid, 2.0)
        kinetic = 0.5 * cubic_grid.g_squared
        assert basis.npw == int(np.sum(kinetic <= 2.0 + 1e-12))

    def test_all_kinetic_below_cutoff(self, cubic_grid):
        basis = PlaneWaveBasis(cubic_grid, 1.5)
        assert np.all(basis.kinetic_energies <= 1.5 + 1e-10)

    def test_gamma_point_included(self, cubic_grid):
        basis = PlaneWaveBasis(cubic_grid, 1.0)
        assert np.any(np.all(basis.g_vectors == 0.0, axis=1))

    def test_scatter_gather_round_trip(self, cubic_grid, rng=np.random.default_rng(5)):
        basis = PlaneWaveBasis(cubic_grid, 2.0)
        coeffs = rng.standard_normal((3, basis.npw)) + 1j * rng.standard_normal((3, basis.npw))
        grid_values = basis.to_grid(coeffs)
        assert grid_values.shape == (3,) + cubic_grid.shape
        back = basis.from_grid(grid_values)
        assert np.allclose(coeffs, back)

    def test_to_grid_zero_outside_sphere(self, cubic_grid):
        basis = PlaneWaveBasis(cubic_grid, 1.0)
        coeffs = np.ones((1, basis.npw), dtype=complex)
        grid_values = basis.to_grid(coeffs)
        outside = ~basis.mask
        assert np.allclose(grid_values[0][outside], 0.0)

    def test_real_space_round_trip_inside_sphere(self, cubic_grid):
        basis = PlaneWaveBasis(cubic_grid, 2.0)
        coeffs = basis.random_coefficients(2, np.random.default_rng(6))
        psi = basis.to_real_space(coeffs)
        back = basis.from_real_space(psi)
        assert np.allclose(coeffs, back, atol=1e-12)

    def test_from_real_space_low_pass_projects(self, cubic_grid):
        """Real-space data with high-frequency content is projected onto the sphere."""
        basis = PlaneWaveBasis(cubic_grid, 1.0)
        rng = np.random.default_rng(7)
        psi = rng.standard_normal(cubic_grid.shape) + 1j * rng.standard_normal(cubic_grid.shape)
        coeffs = basis.from_real_space(psi)
        assert coeffs.shape == (basis.npw,) or coeffs.shape[-1] == basis.npw

    def test_wrong_coefficient_length_raises(self, cubic_grid):
        basis = PlaneWaveBasis(cubic_grid, 2.0)
        with pytest.raises(ValueError, match="npw"):
            basis.to_grid(np.zeros(basis.npw + 1))

    def test_random_coefficients_normalised(self, cubic_grid):
        basis = PlaneWaveBasis(cubic_grid, 2.0)
        coeffs = basis.random_coefficients(4, np.random.default_rng(8))
        assert np.allclose(np.linalg.norm(coeffs, axis=1), 1.0)

    def test_invalid_ecut(self, cubic_grid):
        with pytest.raises(ValueError):
            PlaneWaveBasis(cubic_grid, -1.0)


class TestSharedDerivedArraysAreReadOnly:
    """Every job of a group shares its grid's and basis's memoised arrays, so
    an in-place write to one must raise rather than change every later job."""

    def test_in_place_writes_raise(self, h2_basis):
        from repro.pw.poisson import bare_coulomb_kernel

        grid = h2_basis.grid
        kernel = bare_coulomb_kernel(grid)
        shared = [grid.g_vectors, grid.g_squared, grid.real_space_points, *grid.frequencies,
                  h2_basis.g_vectors, h2_basis.g_squared, h2_basis.kinetic_energies, h2_basis.mask,
                  h2_basis.indices, kernel.values, kernel.values_single]
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]
        assert bare_coulomb_kernel(grid).values is kernel.values  # the memo's own array
