"""Tests for the Poisson solver and Coulomb kernels."""

import numpy as np
import pytest

from repro.pw.grid import FFTGrid
from repro.pw.lattice import Cell
from repro.pw.poisson import (
    CoulombKernel,
    bare_coulomb_kernel,
    hartree_energy,
    hartree_potential,
    screened_exchange_kernel,
    solve_poisson,
)


@pytest.fixture()
def grid():
    return FFTGrid(Cell.cubic(14.0), (30, 30, 30))


def gaussian_density(grid, width, charge=1.0):
    """A normalised Gaussian charge distribution centred in the cell."""
    centre = 0.5 * np.array(grid.cell.lengths)
    r = grid.real_space_points - centre
    r2 = np.sum(r * r, axis=-1)
    rho = np.exp(-r2 / (2.0 * width**2))
    rho *= charge / (np.sum(rho) * grid.volume_element)
    return rho, np.sqrt(r2)


class TestKernels:
    def test_bare_kernel_g0_zero(self, grid):
        kernel = bare_coulomb_kernel(grid)
        assert kernel.values[0, 0, 0] == 0.0

    def test_bare_kernel_values(self, grid):
        kernel = bare_coulomb_kernel(grid)
        g2 = grid.g_squared
        mask = g2 > 1e-12
        assert np.allclose(kernel.values[mask], 4.0 * np.pi / g2[mask])

    def test_screened_kernel_finite_at_g0(self, grid):
        mu = 0.3
        kernel = screened_exchange_kernel(grid, mu)
        assert kernel.values[0, 0, 0] == pytest.approx(np.pi / mu**2)

    def test_screened_below_bare(self, grid):
        bare = bare_coulomb_kernel(grid)
        screened = screened_exchange_kernel(grid, 0.3)
        mask = grid.g_squared > 1e-12
        assert np.all(screened.values[mask] <= bare.values[mask] + 1e-12)

    def test_screened_approaches_bare_at_large_g(self, grid):
        bare = bare_coulomb_kernel(grid)
        screened = screened_exchange_kernel(grid, 1.0)
        gmax_idx = np.unravel_index(np.argmax(grid.g_squared), grid.shape)
        assert screened.values[gmax_idx] == pytest.approx(bare.values[gmax_idx], rel=1e-6)

    def test_invalid_screening(self, grid):
        with pytest.raises(ValueError):
            screened_exchange_kernel(grid, -1.0)

    def test_kernel_shape_validation(self, grid):
        with pytest.raises(ValueError):
            CoulombKernel(grid, np.zeros((2, 2, 2)))


class TestHartree:
    def test_gaussian_potential_matches_analytic(self, grid):
        """V(r) of a Gaussian charge is erf(r / (sqrt(2) w)) / r (far from images)."""
        from scipy.special import erf

        width = 0.8
        rho, r = gaussian_density(grid, width)
        v = hartree_potential(grid, rho)
        # compare at intermediate radii: away from the centre (grid resolution)
        # and away from the cell boundary (periodic images)
        mask = (r > 2.0) & (r < 4.5)
        analytic = erf(r[mask] / (np.sqrt(2.0) * width)) / r[mask]
        # periodic-image/background corrections shift the potential by a constant
        shift = np.mean(v[mask] - analytic)
        assert np.max(np.abs(v[mask] - analytic - shift)) < 2e-2

    def test_hartree_energy_positive(self, grid):
        rho, _ = gaussian_density(grid, 1.0)
        assert hartree_energy(grid, rho) > 0.0

    def test_hartree_energy_scales_quadratically(self, grid):
        rho, _ = gaussian_density(grid, 1.0)
        e1 = hartree_energy(grid, rho)
        e2 = hartree_energy(grid, 2.0 * rho)
        assert e2 == pytest.approx(4.0 * e1, rel=1e-10)

    def test_potential_is_real(self, grid):
        rho, _ = gaussian_density(grid, 1.0)
        v = hartree_potential(grid, rho)
        assert np.isrealobj(v)

    def test_uniform_density_gives_constant_potential(self, grid):
        rho = np.full(grid.shape, 0.3)
        v = hartree_potential(grid, rho)
        # with the G=0 term removed, a uniform density produces zero potential
        assert np.max(np.abs(v)) < 1e-12


class TestSolvePoisson:
    def test_linearity(self, grid, rng=np.random.default_rng(0)):
        rho1 = rng.random(grid.shape)
        rho2 = rng.random(grid.shape)
        v12 = solve_poisson(grid, rho1 + rho2)
        v1 = solve_poisson(grid, rho1)
        v2 = solve_poisson(grid, rho2)
        assert np.allclose(v12, v1 + v2, atol=1e-10)

    def test_complex_pair_density_supported(self, grid, rng=np.random.default_rng(1)):
        pair = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        v = solve_poisson(grid, pair)
        assert v.shape == grid.shape
        assert np.iscomplexobj(v)

    def test_kernel_symmetry_preserves_hermiticity(self, grid, rng=np.random.default_rng(2)):
        """int f^*(r) [K * g](r) dr == conj(int g^*(r) [K * f](r) dr) for real symmetric K."""
        f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        g = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        kernel = screened_exchange_kernel(grid, 0.4)
        lhs = np.sum(np.conj(f) * kernel.apply_to_density(g)) * grid.volume_element
        rhs = np.sum(np.conj(g) * kernel.apply_to_density(f)) * grid.volume_element
        assert lhs == pytest.approx(np.conj(rhs), abs=1e-10)

    def test_batched_application(self, grid, rng=np.random.default_rng(3)):
        kernel = bare_coulomb_kernel(grid)
        batch = rng.standard_normal((3,) + grid.shape)
        out = kernel.apply_to_density(batch)
        assert out.shape == (3,) + grid.shape
        single = kernel.apply_to_density(batch[1])
        assert np.allclose(out[1], single)

    def test_convolution_is_ifftn_of_kernel_times_fftn(self, grid, rng=np.random.default_rng(4)):
        """No normalisation pass on either side of the kernel multiply: the
        potential is the written-out ``ifftn(K * fftn(rho))``, for a single
        pair density, a stack, and with the input given up as scratch."""
        kernel = screened_exchange_kernel(grid, 0.4)
        stack = rng.standard_normal((3,) + grid.shape) + 1j * rng.standard_normal((3,) + grid.shape)
        axes = (-3, -2, -1)
        expected = np.fft.ifftn(kernel.values * np.fft.fftn(stack, axes=axes), axes=axes)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(kernel.apply_to_density(stack) - expected)) < 1e-13 * scale
        assert np.max(np.abs(kernel.apply_to_density(stack[1]) - expected[1])) < 1e-13 * scale
        kept = kernel.apply_to_density(stack)
        assert np.array_equal(kernel.apply_to_density(stack.copy(), overwrite=True), kept)

    def test_hartree_potential_of_a_plane_wave_density(self, grid):
        """``rho = cos(G.r)`` has the Hartree potential ``4 pi / G^2 cos(G.r)``."""
        b = grid.cell.reciprocal_vectors
        g_vector = 2 * b[0] + b[2]
        phase = grid.real_space_points @ g_vector
        rho = np.cos(phase)
        expected = 4.0 * np.pi / float(g_vector @ g_vector) * rho
        v = hartree_potential(grid, rho)
        assert np.max(np.abs(v - expected)) < 1e-13 * np.max(np.abs(expected))
