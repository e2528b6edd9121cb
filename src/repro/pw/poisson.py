"""Poisson solver and Coulomb-like kernels in reciprocal space.

Both the Hartree potential and the Fock exchange operator (Eq. 3 of the paper)
reduce to solving Poisson-like equations which, thanks to the convolutional
structure of the kernel, are diagonal in reciprocal space and cost one forward
plus one backward FFT each. The paper's Alg. 2 solves ``N_e^2`` such equations
per Fock application; this module provides the kernels shared by the serial and
the distributed implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fft import get_plan, plan_dtype, plan_memo, read_only
from .grid import FFTGrid

__all__ = [
    "CoulombKernel",
    "bare_coulomb_kernel",
    "screened_exchange_kernel",
    "solve_poisson",
    "hartree_potential",
]


@dataclass(frozen=True)
class CoulombKernel:
    """A reciprocal-space interaction kernel ``K(G)`` on an FFT mesh.

    Attributes
    ----------
    grid:
        The FFT grid the kernel values live on.
    values:
        Real array of shape ``grid.shape`` with the kernel value per G-vector.
    name:
        Human-readable identifier ("bare", "erfc-screened", ...).
    """

    grid: FFTGrid
    values: np.ndarray
    name: str = "custom"

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"kernel values shape {values.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "values", values)

    def apply_to_density(self, rho_real: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Convolve a real-space (pair) density with the kernel.

        Returns the real-space potential ``V(r) = int K(r - r') rho(r') dr'``.
        The imaginary part is retained because pair densities
        ``psi_i^*(r) psi_j(r)`` are complex in general. Broadcasts over
        leading axes (stacked densities of a batched group) through one
        cached-plan call; ``complex64`` pair densities stay single precision.
        ``overwrite=True`` lets ``rho_real`` be destroyed as transform scratch
        (the Fock pair-density stacks); the potential is bit-identical.

        The convolution is ``ifftn(K * fftn(rho))`` and nothing else: the
        ``1/N`` that turns ``fftn(rho)`` into Fourier coefficients and the
        ``N`` that undoes ``ifftn``'s own ``1/N`` cancel exactly around the
        diagonal kernel multiply, so neither pass over the stack is made.
        """
        rho_real = np.asarray(rho_real)
        plan = get_plan(self.grid, plan_dtype(rho_real.dtype))
        rho_g = plan.fftn(rho_real, overwrite=overwrite)
        values = self.values_single if rho_g.dtype == np.complex64 else self.values
        np.multiply(values, rho_g, out=rho_g)  # rho_g is owned scratch here
        return plan.ifftn(rho_g, overwrite=True)

    @property
    def inversion_even(self) -> bool:
        """Whether ``K(-G) == K(G)`` on the mesh (checked once per kernel).

        With real values this makes the real-space kernel real, so
        ``K * conj(rho) = conj(K * rho)`` — the identity that lets the Fock
        operator solve one Poisson equation per *unordered* orbital pair.
        The bare and erfc-screened kernels depend on ``|G|^2`` only and are
        exactly even on orthogonal cells and on odd meshes; on an even mesh
        of a skewed cell the Nyquist planes (which are their own mirror
        index but not their own ``-G``) break it, as a hand-built kernel may.
        """
        cached = getattr(self, "_inversion_even", None)
        if cached is None:
            mirrored = np.roll(self.values[::-1, ::-1, ::-1], 1, axis=(0, 1, 2))
            cached = bool(np.array_equal(self.values, mirrored))
            object.__setattr__(self, "_inversion_even", cached)
        return cached

    @property
    def values_single(self) -> np.ndarray:
        """``float32`` kernel values for the complex64 precision tier
        (float64 values would silently promote the whole convolution)."""
        cached = getattr(self, "_values_single", None)
        if cached is None:
            cached = read_only(self.values.astype(np.float32))
            object.__setattr__(self, "_values_single", cached)
        return cached


def bare_coulomb_kernel(grid: FFTGrid) -> CoulombKernel:
    """The bare Coulomb kernel ``4 pi / G^2`` with the ``G = 0`` term removed.

    Removing the divergent ``G = 0`` component corresponds to a compensating
    homogeneous background (jellium), the standard treatment for charged
    periodic sub-problems; the paper's silicon systems are neutral so the
    total Hartree problem is well defined.

    The values are built once per grid instance and kept in its memo — every
    Hartree solve of every SCF iteration asks for the same deterministic
    array, and rebuilding it dominated small-grid Poisson solves. Only the
    values are kept: a kernel holds its grid, and a grid holding its kernel
    would be a reference cycle that keeps a dropped Session's grid alive
    until the next full collection.
    """
    memo = plan_memo(grid, "_kernels")
    values = memo.get("bare")
    if values is None:
        g2 = grid.g_squared
        values = np.zeros_like(g2)
        nonzero = g2 > 1e-12
        values[nonzero] = 4.0 * np.pi / g2[nonzero]
        memo["bare"] = read_only(values)
    return CoulombKernel(grid, values, name="bare")


def screened_exchange_kernel(grid: FFTGrid, screening_length: float) -> CoulombKernel:
    """Short-range (erfc-screened) exchange kernel used by HSE-type functionals.

    The HSE06 functional used in the paper replaces the bare ``1/r`` in the
    exchange integral by ``erfc(mu r)/r``; in reciprocal space this is

    .. math:: K(G) = \\frac{4\\pi}{G^2}\\left(1 - e^{-G^2/(4\\mu^2)}\\right),

    which is finite at ``G = 0`` with value ``pi / mu^2``.

    Parameters
    ----------
    grid:
        FFT grid.
    screening_length:
        The screening parameter ``mu`` in Bohr^-1 (HSE06 uses ~0.106 a0^-1;
        larger values make the interaction shorter ranged and the operator
        cheaper to converge).
    """
    if screening_length <= 0:
        raise ValueError(f"screening_length must be positive, got {screening_length}")
    mu = float(screening_length)
    g2 = grid.g_squared
    values = np.empty_like(g2)
    nonzero = g2 > 1e-12
    values[nonzero] = (
        4.0 * np.pi / g2[nonzero] * (1.0 - np.exp(-g2[nonzero] / (4.0 * mu * mu)))
    )
    values[~nonzero] = np.pi / (mu * mu)
    return CoulombKernel(grid, values, name="erfc-screened")


def solve_poisson(grid: FFTGrid, rho_real: np.ndarray) -> np.ndarray:
    """Solve one Poisson equation ``V = K * rho`` on the grid with the bare
    Coulomb kernel.

    This is the elementary operation of Eq. 3 / Alg. 2 line 8 in the paper.
    """
    return bare_coulomb_kernel(grid).apply_to_density(rho_real)


def hartree_potential(grid: FFTGrid, rho_real: np.ndarray) -> np.ndarray:
    """Hartree potential of a real electron density (real output)."""
    v = solve_poisson(grid, rho_real)
    return np.real(v)
