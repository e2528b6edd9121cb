"""Electron density evaluation.

The density ``rho(r) = sum_i f_i |psi_i(r)|^2`` (Section 3.4 of the paper) is
obtained by transforming each band to the real-space grid with an FFT and
accumulating; in the distributed code an ``MPI_Allreduce`` over band groups
follows. Here we provide the serial reference used by the physics engine and
by the tests of the distributed implementation.
"""

from __future__ import annotations

import numpy as np

from .basis import Wavefunction
from .grid import FFTGrid

__all__ = ["compute_density", "compute_density_many", "density_error", "DensityMixer"]


def compute_density(wavefunction: Wavefunction, grid: FFTGrid | None = None, psi_real=None) -> np.ndarray:
    """Real-space electron density from a wavefunction set.

    Parameters
    ----------
    wavefunction:
        Orbitals with occupations.
    grid:
        Grid on which to evaluate the density; defaults to the wavefunction's
        own grid. (The paper evaluates the Fock exchange on the wavefunction
        grid but accumulates the density on a denser grid; both are supported
        by passing the appropriate ``grid``.)
    psi_real:
        Optional precomputed ``wavefunction.to_real_space()`` (own grid only):
        the caller's transform is accumulated instead of a second one.

    Returns
    -------
    ndarray
        Non-negative real array of shape ``grid.shape`` integrating to the
        total number of electrons.
    """
    basis = wavefunction.basis
    if grid is None or grid is basis.grid or grid == basis.grid:
        if psi_real is None:
            psi_real = wavefunction.to_real_space()
        # the one-job call of the stacked kernel
        return compute_density_many(basis, None, wavefunction.occupations[None], psi_real[None])[0]
    # interpolate onto a denser grid by zero-padding in Fourier space
    psi_r = _resample_to_grid(basis.grid, grid, basis.to_grid(wavefunction.coefficients))
    occ = wavefunction.occupations[:, None, None, None]
    return np.sum(occ * np.abs(psi_r) ** 2, axis=0)


def compute_density_many(
    basis,
    coeff_stack: np.ndarray | None,
    occupations: np.ndarray,
    psi_real: np.ndarray | None = None,
) -> np.ndarray:
    """Densities of a stack of jobs in one batched transform.

    Parameters
    ----------
    basis:
        The shared :class:`~repro.pw.grid.PlaneWaveBasis` of the stack.
    coeff_stack:
        Coefficients of shape ``(njobs, nbands, npw)``; may be ``None`` when
        ``psi_real`` is given.
    occupations:
        Per-job occupations, shape ``(njobs, nbands)``.
    psi_real:
        Optional precomputed real-space orbitals ``basis.to_real_space(
        coeff_stack)``. The batched stepping engine transforms each iterate
        to real space exactly once and reuses the array for both the density
        accumulation here and the ``V_loc psi`` product of the Hamiltonian
        application — the bits are identical either way, one transform is
        saved per stage.

    Returns
    -------
    ndarray
        Densities of shape ``(njobs,) + grid.shape``. Each slice is
        bit-identical to :func:`compute_density` of that job alone: the FFT
        backend transforms every leading-axis slice independently, and the
        band sum reduces the same contiguous axis in the same order.
    """
    if psi_real is None:
        psi_real = basis.to_real_space(np.asarray(coeff_stack))
    occupations = np.asarray(occupations, dtype=float)
    occ = occupations[:, :, None, None, None]
    if psi_real.dtype != np.complex128:
        # single-precision tier: |psi|^2 is squared in float32 before the
        # float64 occupation product promotes it — keep that promotion order
        return np.sum(occ * np.abs(psi_real) ** 2, axis=1)
    # |psi|^2 accumulated through one reused real buffer instead of three
    # full-stack temporaries; every intermediate holds the same values as
    # ``occ * np.abs(psi_real) ** 2`` (numpy evaluates ``x ** 2`` as
    # ``x * x``), so the band sum reduces bit-identical slices
    weighted = np.abs(psi_real)
    np.multiply(weighted, weighted, out=weighted)
    np.multiply(occ, weighted, out=weighted)
    return np.sum(weighted, axis=1)


def _resample_to_grid(src: FFTGrid, dst: FFTGrid, coeffs_grid: np.ndarray) -> np.ndarray:
    """Zero-pad Fourier coefficients from ``src`` mesh onto ``dst`` mesh and
    return real-space values on ``dst``."""
    if any(d < s for s, d in zip(src.shape, dst.shape)):
        raise ValueError("destination grid must be at least as fine as the source grid")
    lead = coeffs_grid.shape[:-3]
    out = np.zeros(lead + dst.shape, dtype=np.complex128)
    # copy each frequency block respecting fftfreq ordering
    slices_src = []
    slices_dst = []
    for s_n, d_n in zip(src.shape, dst.shape):
        half = s_n // 2
        slices_src.append((slice(0, half), slice(s_n - half, s_n)))
        slices_dst.append((slice(0, half), slice(d_n - half, d_n)))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                out[..., slices_dst[0][i], slices_dst[1][j], slices_dst[2][k]] = coeffs_grid[
                    ..., slices_src[0][i], slices_src[1][j], slices_src[2][k]
                ]
    return dst.to_real(out)


def density_error(rho_new: np.ndarray, rho_old: np.ndarray, grid: FFTGrid) -> float:
    """Normalised density change used as the SCF stopping criterion.

    The paper terminates the PT-CN inner SCF when the change of the electron
    density is below ``1e-6``; we use the volume-weighted L2 norm of the
    difference divided by the number of electrons for the same purpose.
    """
    diff = np.asarray(rho_new) - np.asarray(rho_old)
    ne = float(np.sum(np.abs(rho_old)) * grid.volume_element)
    if ne <= 0:
        raise ValueError("reference density integrates to a non-positive charge")
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) * grid.volume_element) / ne)


def anderson_extrapolation(
    iterates: list[np.ndarray], residuals: list[np.ndarray], regularization: float
) -> tuple[np.ndarray, np.ndarray]:
    """Type-II Anderson / Pulay extrapolation over a history [Anderson, J. ACM
    12, 547]: the combination of the stored iterates whose residual is
    smallest in the least-squares sense, and that residual.

    ``iterates`` and ``residuals`` hold ``m >= 2`` arrays of shape
    ``(rows, n)``, oldest first; every row is an independent problem (the
    bands of a wavefunction, or the density as the one-row case). Returns
    ``(x_bar, f_bar)``; the caller applies its own relaxation to ``f_bar``.
    This is the one least-squares kernel of the package:
    :class:`repro.core.anderson.AndersonMixer` (PT-CN, Alg. 1 line 7) and
    :class:`DensityMixer` (ground-state SCF) both step through it.
    """
    x_k, f_k = iterates[-1], residuals[-1]
    # iterate and residual differences (rows, m-1, n), k = 0..m-2
    dx = np.diff(np.stack(iterates, axis=1), axis=1)
    df = np.diff(np.stack(residuals, axis=1), axis=1)
    # solve min_gamma || f_k - dF gamma || for every row at once, via the
    # stacked normal equations, each regularised on its own Gram scale
    df_h = df.conj()
    gram = df_h @ df.transpose(0, 2, 1)
    scale = np.maximum(1.0, np.abs(gram).max(axis=(1, 2)))
    diagonal = np.arange(gram.shape[1])
    gram[:, diagonal, diagonal] += regularization * scale[:, None]
    rhs = df_h @ f_k[:, :, None]
    try:
        gamma = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:  # pragma: no cover - defensive
        gamma = np.linalg.pinv(gram, hermitian=True) @ rhs
    gamma = gamma.transpose(0, 2, 1)  # (rows, 1, m-1)
    return x_k - (gamma @ dx)[:, 0], f_k - (gamma @ df)[:, 0]


#: Updates after a reset that are plain linear steps. The orbitals start
#: random, so the first residuals say nothing about the SCF map near its fixed
#: point: the first two are not even kept, the third opens the history (a
#: history of one pair has nothing to extrapolate along, so it is the linear
#: step too). An SCF that stops within the warm-up is, bit for bit, the
#: linear-mixing SCF.
_WARMUP_ITERATIONS = 3
#: (density, residual) pairs the extrapolation keeps. H2 converges in the same
#: iteration count from 2 up; a map that needs more directions than this has
#: no fixed point to extrapolate to (ROADMAP item 2), and the bound keeps the
#: memory of such a stalled SCF flat.
_HISTORY_DEPTH = 8
#: Tikhonov term of the least-squares solve, relative to the Gram scale: two
#: value-equal history entries (a stalled SCF) still give a finite update
_REGULARIZATION = 1e-12


class DensityMixer:
    """Density mixing of the ground-state SCF: a linear warm-up, then Anderson.

    The first ``_WARMUP_ITERATIONS`` updates after a :meth:`reset` are
    ``rho_in + beta * (rho_out - rho_in)``. Later ones are the type-II
    Anderson step [Anderson, J. ACM 12, 547; Kresse & Furthmueller, PRB 54,
    11169] over the last ``_HISTORY_DEPTH`` (``rho_in``, ``rho_out - rho_in``)
    pairs, the extrapolated residual applied whole: the SCF maps this package
    solves are nearly flat, and damping the optimal residual by ``beta`` as
    well cost H2 a fifth more iterations. Every update is an affine
    combination of densities of one charge, so the charge is conserved to
    rounding; an extrapolated density may dip below zero in vacuum, where
    :mod:`repro.pw.xc` clips it.

    The rt-TDDFT inner SCF of the paper mixes *wavefunctions*
    (:class:`repro.core.anderson.AndersonMixer`); this mixer only serves the
    ground-state solver that prepares initial states.
    """

    def __init__(self, beta: float = 0.3):
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"mixing parameter beta must be in (0, 1], got {beta}")
        self.beta = float(beta)
        self._densities: list[np.ndarray] = []
        self._residuals: list[np.ndarray] = []
        self._updates = 0

    def reset(self) -> None:
        """Drop the history and start a new warm-up (the SCF map changed)."""
        self._densities.clear()
        self._residuals.clear()
        self._updates = 0

    def mix(self, rho_in: np.ndarray, rho_out: np.ndarray) -> np.ndarray:
        """Return the next input density."""
        residual = rho_out - rho_in
        self._updates += 1
        if self._updates >= _WARMUP_ITERATIONS:
            self._densities.append(rho_in.reshape(1, -1))
            self._residuals.append(residual.reshape(1, -1))
            del self._densities[:-_HISTORY_DEPTH], self._residuals[:-_HISTORY_DEPTH]
        if len(self._densities) < 2:
            return rho_in + self.beta * residual
        rho_bar, residual_bar = anderson_extrapolation(self._densities, self._residuals, _REGULARIZATION)
        return (rho_bar + residual_bar).reshape(rho_in.shape)
