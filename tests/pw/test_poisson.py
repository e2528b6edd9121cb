"""Tests for the Poisson solver and Coulomb kernels."""

import gc
import weakref

import numpy as np
import pytest

from repro.pw.grid import FFTGrid, PlaneWaveBasis
from repro.pw.laser import sawtooth_position
from repro.pw.lattice import Cell
from repro.pw.poisson import (
    CoulombKernel,
    bare_coulomb_kernel,
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


def hartree_energy(grid, rho):
    """``1/2 int rho V_H dr``, as ``repro.pw.hamiltonian.energies_many`` integrates it."""
    return 0.5 * float(np.real(grid.integrate(rho * hartree_potential(grid, rho))))


class TestKernels:
    def test_bare_kernel_g0_zero(self, grid):
        kernel = bare_coulomb_kernel(grid)
        assert kernel.values[0, 0, 0] == 0.0

    def test_bare_kernel_values(self, grid):
        kernel = bare_coulomb_kernel(grid)
        g2 = grid.g_squared
        mask = g2 > 1e-12
        assert np.allclose(kernel.values[mask], 4.0 * np.pi / g2[mask])

    def test_bare_kernel_lives_on_its_grid(self, grid):
        """Built once per grid instance; an equal grid builds its own, equal one."""
        values = bare_coulomb_kernel(grid).values
        assert bare_coulomb_kernel(grid).values is values
        twin = FFTGrid(Cell.cubic(14.0), (30, 30, 30))
        assert twin == grid and bare_coulomb_kernel(twin).values is not values
        assert np.array_equal(bare_coulomb_kernel(twin).values, values)

    def test_a_grid_is_freed_without_a_collection(self, rng):
        """Nothing a grid memoises (plans, kernel values, sawtooth positions)
        refers back to it, so its last reference frees it at once, not at the
        next full collection."""
        grid = FFTGrid(Cell.cubic(8.0), (8, 8, 8))
        basis = PlaneWaveBasis(grid, 1.0)
        rho = rng.standard_normal(grid.shape)
        hartree_potential(grid, rho)
        sawtooth_position(grid, [0.0, 0.0, 1.0])
        basis.from_real_space(basis.to_real_space(basis.random_coefficients(2, rng)))
        owners = [weakref.ref(grid), weakref.ref(basis)]
        gc.disable()
        try:
            del grid, basis
            assert [owner() for owner in owners] == [None, None]
        finally:
            gc.enable()

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


class TestScreenedKernelPhysics:
    """The erfc-screened kernel against closed forms, not against itself.

    For a normalised Gaussian charge ``rho = (a/pi)^{3/2} exp(-a r^2)`` the
    self-energy under ``erfc(mu r)/r`` is ``sqrt(a/2pi) (1 - mu/sqrt(mu^2 +
    a/2))``: the bare Gaussian self-energy minus its ``erf(mu r)/r`` part. In
    a 16-bohr cell the periodic images sit where ``erfc`` is ~1e-29, and on a
    48^3 mesh the Gaussians below are resolved to round-off, so the mesh
    value must match the closed form to ~1e-10 relative. A kernel screened
    with the wrong width (``4 mu^2`` written ``2 mu^2``) is off by 11-31 %.
    """

    @pytest.fixture(scope="class")
    def big_grid(self):
        return FFTGrid(Cell.cubic(16.0), (48, 48, 48))

    @pytest.mark.parametrize("a,mu", [(1.0, 0.5), (2.0, 0.3)])
    def test_gaussian_self_energy_matches_the_closed_form(self, big_grid, a, mu):
        r = big_grid.real_space_points - 0.5 * np.array(big_grid.cell.lengths)
        rho = (a / np.pi) ** 1.5 * np.exp(-a * np.sum(r * r, axis=-1))
        potential = screened_exchange_kernel(big_grid, mu).apply_to_density(rho)
        energy = 0.5 * float(np.real(big_grid.integrate(rho * potential)))
        exact = np.sqrt(a / (2.0 * np.pi)) * (1.0 - mu / np.sqrt(mu * mu + 0.5 * a))
        assert energy == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("mu", [0.3, 0.5, 1.0])
    def test_kernel_is_continuous_at_g0(self, big_grid, mu):
        """``K(G) = pi/mu^2 (1 - x/2 + x^2/6 - ...)`` with ``x = G^2/(4mu^2)``:
        an alternating series, so at the smallest nonzero ``G`` the kernel lies
        between ``pi/mu^2 (1 - x/2)`` and its ``G = 0`` value ``pi/mu^2``."""
        values = screened_exchange_kernel(big_grid, mu).values
        g2 = big_grid.g_squared
        limit = np.pi / mu**2
        assert values[0, 0, 0] == pytest.approx(limit, rel=1e-14)
        smallest = np.min(g2[g2 > 1e-12])
        x = smallest / (4.0 * mu * mu)
        near = values[np.isclose(g2, smallest)]
        assert np.all(near <= limit * (1.0 + 1e-14))
        assert np.all(near >= limit * (1.0 - 0.5 * x) * (1.0 - 1e-14))
