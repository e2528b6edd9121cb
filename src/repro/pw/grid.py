"""FFT grids, G-vectors and the plane-wave sphere.

PWDFT (the code accelerated in the paper) represents wavefunctions by their
Fourier coefficients on the set of reciprocal lattice vectors ``G`` with
kinetic energy ``|G|^2 / 2 <= E_cut`` ("the wavefunction sphere"), while the
charge density lives on a denser FFT grid (the paper uses a density grid with
twice the linear resolution of the wavefunction grid: for Si-1536,
``N_G = 60 x 90 x 120`` wavefunction grid points vs a ``120 x 180 x 240``
density grid).

This module provides

* :class:`FFTGrid` — a uniform real-space grid over the cell together with the
  G-vectors of its discrete Fourier transform and forward/backward transforms
  with the conventions documented in :meth:`FFTGrid.to_real`.
* :class:`PlaneWaveBasis` — the E_cut sphere on an :class:`FFTGrid`, i.e. the
  index set used to store wavefunction coefficients compactly, exactly like the
  "G-space" rows in Fig. 1 of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fft import FFTPlan, get_plan, plan_dtype, plan_memo, read_only
from .lattice import Cell

__all__ = ["FFTGrid", "PlaneWaveBasis", "choose_grid_shape"]


def choose_grid_shape(cell: Cell, ecut: float, factor: float = 2.0) -> tuple[int, int, int]:
    """Choose an FFT grid shape large enough for a given kinetic-energy cutoff.

    A plane wave with cutoff ``E_cut`` has ``|G|_max = sqrt(2 E_cut)``. To
    represent products of wavefunctions (charge densities) without aliasing the
    grid must resolve up to ``factor * |G|_max`` along every reciprocal
    direction; ``factor=2`` is the standard choice for the density grid, while
    ``factor=1`` gives the minimal wavefunction grid.

    Parameters
    ----------
    cell:
        Simulation cell.
    ecut:
        Kinetic energy cutoff in Hartree.
    factor:
        Multiplier on ``|G|_max`` (2.0 for a density grid).

    Returns
    -------
    tuple of int
        Grid dimensions ``(n1, n2, n3)``, each an even number >= 4.
    """
    if ecut <= 0:
        raise ValueError(f"ecut must be positive, got {ecut}")
    gmax = np.sqrt(2.0 * ecut) * factor
    shape = []
    for i in range(3):
        b_len = np.linalg.norm(cell.reciprocal_vectors[i])
        # Need n such that the largest representable frequency n/2 * |b| >= gmax
        n = int(np.ceil(2.0 * gmax / b_len)) + 1
        # round up to the next even number, minimum 4, for friendly FFT sizes
        n = max(4, n + (n % 2))
        shape.append(n)
    return tuple(shape)  # type: ignore[return-value]


@dataclass(frozen=True)
class FFTGrid:
    """A uniform real-space grid with its reciprocal-space counterpart.

    Conventions
    -----------
    A wavefunction is expanded as

    .. math:: \\psi(r) = \\frac{1}{\\sqrt{V}} \\sum_G c_G e^{i G \\cdot r}

    so that ``sum_G |c_G|^2 = 1`` corresponds to a normalised orbital, and the
    density transform uses

    .. math:: \\rho(r) = \\sum_G \\tilde\\rho(G) e^{i G\\cdot r},
              \\qquad \\tilde\\rho(G) = \\frac{1}{V}\\int \\rho(r) e^{-iG\\cdot r} dr .

    Attributes
    ----------
    cell:
        The periodic simulation cell.
    shape:
        FFT grid dimensions ``(n1, n2, n3)``.
    """

    cell: Cell
    shape: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.shape) != 3 or any(int(n) < 2 for n in self.shape):
            raise ValueError(f"grid shape must be three integers >= 2, got {self.shape}")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))

    # ------------------------------------------------------------------
    # Basic sizes
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of grid points ``n1*n2*n3``."""
        n1, n2, n3 = self.shape
        return n1 * n2 * n3

    @cached_property
    def volume_element(self) -> float:
        """Real-space integration weight ``V / N`` (Bohr^3)."""
        return self.cell.volume / self.size

    @cached_property
    def _real_scale(self) -> float:
        """Cached ``N / sqrt(V)`` factor of :meth:`to_real`."""
        return self.size / float(np.sqrt(self.cell.volume))

    @cached_property
    def _fourier_scale(self) -> float:
        """Cached ``sqrt(V) / N`` factor of the forward orbital transform."""
        return float(np.sqrt(self.cell.volume)) / self.size

    # ------------------------------------------------------------------
    # Real-space points and G-vectors
    # ------------------------------------------------------------------
    @cached_property
    def frequencies(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer FFT frequencies along each axis (numpy ``fftfreq`` order)."""
        return tuple(
            read_only(np.fft.fftfreq(n, d=1.0 / n).astype(int)) for n in self.shape
        )  # type: ignore[return-value]

    @cached_property
    def g_vectors(self) -> np.ndarray:
        """G-vectors on the FFT mesh, shape ``(n1, n2, n3, 3)`` (Bohr^-1)."""
        f1, f2, f3 = self.frequencies
        m1, m2, m3 = np.meshgrid(f1, f2, f3, indexing="ij")
        miller = np.stack([m1, m2, m3], axis=-1).astype(float)
        return read_only(miller @ self.cell.reciprocal_vectors)

    @cached_property
    def g_squared(self) -> np.ndarray:
        """``|G|^2`` on the FFT mesh, shape ``(n1, n2, n3)``."""
        g = self.g_vectors
        return read_only(np.einsum("...i,...i->...", g, g))

    @cached_property
    def real_space_points(self) -> np.ndarray:
        """Cartesian coordinates of the grid points, shape ``(n1, n2, n3, 3)``."""
        n1, n2, n3 = self.shape
        f1 = np.arange(n1) / n1
        f2 = np.arange(n2) / n2
        f3 = np.arange(n3) / n3
        m1, m2, m3 = np.meshgrid(f1, f2, f3, indexing="ij")
        frac = np.stack([m1, m2, m3], axis=-1)
        return read_only(frac @ self.cell.lattice_vectors)

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------
    def to_real(self, coeff_grid: np.ndarray) -> np.ndarray:
        """Transform wavefunction coefficients on the full mesh to real space.

        ``psi(r_j) = N / sqrt(V) * ifftn(C)[j]`` with the convention in the
        class docstring. Broadcasts over leading axes (band and/or job index)
        through one cached-plan call; ``complex64`` inputs stay single
        precision.
        """
        coeff_grid = np.asarray(coeff_grid)
        plan = get_plan(self, plan_dtype(coeff_grid.dtype))
        out = plan.ifftn(coeff_grid)
        out *= self._real_scale  # in-place: the transform output is owned here
        return out

    # ------------------------------------------------------------------
    # Integration helpers
    # ------------------------------------------------------------------
    def integrate(self, values: np.ndarray) -> complex:
        """Integrate a field given on the grid over the cell."""
        return np.sum(values, axis=(-3, -2, -1)) * self.volume_element

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FFTGrid):
            return NotImplemented
        return self.shape == other.shape and self.cell == other.cell

    def __hash__(self) -> int:
        return hash((self.shape, self.cell))


def _sphere_indices(grid: FFTGrid, ecut: float) -> np.ndarray:
    """Ascending flat indices, into the raveled mesh of ``grid``, of its
    G-vectors with ``|G|^2/2 <= E_cut`` (to 1e-12 Ha).

    Only the frequencies within reach of the sphere are visited: a G-vector's
    frequency along axis ``i`` is ``G . a_i / 2 pi``, at most
    ``|G|_max |a_i| / 2 pi`` in size. So the cost follows the sphere, not the
    mesh, and a basis is cheap to build before anything asks for the mesh's
    G-vectors (the sweep layer names a config's basis by its index set).
    """
    limit = ecut + 1e-12
    reach = np.sqrt(2.0 * limit) * grid.cell.lengths / (2.0 * np.pi) + 1.0  # a margin of one
    positions = [np.nonzero(np.abs(f) <= r)[0] for f, r in zip(grid.frequencies, reach)]
    f1, f2, f3 = (f[p] for f, p in zip(grid.frequencies, positions))
    m1, m2, m3 = np.meshgrid(f1, f2, f3, indexing="ij")
    g = np.stack([m1, m2, m3], axis=-1).astype(float) @ grid.cell.reciprocal_vectors
    kinetic = 0.5 * np.einsum("...i,...i->...", g, g)
    _, n2, n3 = grid.shape
    p1, p2, p3 = positions
    flat = (p1[:, None, None] * n2 + p2[None, :, None]) * n3 + p3[None, None, :]
    return flat[kinetic <= limit]


class PlaneWaveBasis:
    """The set of plane waves with ``|G|^2/2 <= E_cut`` on an FFT grid.

    This is the compact "G-sphere" storage used by plane-wave codes: a
    wavefunction is a vector of ``npw`` complex coefficients, one per G-vector
    inside the kinetic-energy cutoff sphere. The basis knows how to scatter
    those coefficients onto the full FFT mesh (for FFTs) and gather them back.

    Parameters
    ----------
    grid:
        The wavefunction FFT grid.
    ecut:
        Kinetic energy cutoff in Hartree.
    """

    def __init__(self, grid: FFTGrid, ecut: float):
        if ecut <= 0:
            raise ValueError(f"ecut must be positive, got {ecut}")
        self.grid = grid
        self.ecut = float(ecut)
        self._indices = read_only(_sphere_indices(grid, self.ecut))
        if self._indices.size < 2:
            raise ValueError(
                "plane-wave basis contains fewer than 2 G-vectors; "
                "increase ecut or the grid size"
            )

    # ------------------------------------------------------------------
    @property
    def npw(self) -> int:
        """Number of plane waves in the sphere (paper notation: N_G)."""
        return int(self._indices.size)

    @cached_property
    def mask(self) -> np.ndarray:
        """Boolean mask of sphere membership on the FFT mesh."""
        mask = np.zeros(self.grid.size, dtype=bool)
        mask[self._indices] = True
        return read_only(mask.reshape(self.grid.shape))

    @property
    def indices(self) -> np.ndarray:
        """Flat indices (into the raveled FFT mesh) of the sphere G-vectors."""
        return self._indices

    @cached_property
    def g_vectors(self) -> np.ndarray:
        """G-vectors of the sphere, shape ``(npw, 3)``."""
        return read_only(self.grid.g_vectors.reshape(-1, 3)[self._indices])

    @cached_property
    def g_squared(self) -> np.ndarray:
        """``|G|^2`` for the sphere G-vectors, shape ``(npw,)``."""
        return read_only(self.grid.g_squared.reshape(-1)[self._indices])

    @cached_property
    def kinetic_energies(self) -> np.ndarray:
        """Kinetic energies ``|G|^2/2`` of the sphere plane waves."""
        return read_only(0.5 * self.g_squared)

    # ------------------------------------------------------------------
    # Scatter / gather between sphere storage and the full FFT mesh
    # ------------------------------------------------------------------
    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Scatter sphere coefficients onto the full FFT mesh.

        Parameters
        ----------
        coeffs:
            Array of shape ``(..., npw)``.

        Returns
        -------
        ndarray
            Array of shape ``(..., n1, n2, n3)`` with zeros outside the sphere.
        """
        coeffs = np.asarray(coeffs)
        if coeffs.shape[-1] != self.npw:
            raise ValueError(
                f"last axis must have length npw={self.npw}, got {coeffs.shape[-1]}"
            )
        lead = coeffs.shape[:-1]
        out = np.zeros(lead + (self.grid.size,), dtype=plan_dtype(coeffs.dtype))
        out[..., self._indices] = coeffs
        return out.reshape(lead + self.grid.shape)

    def _forward_plan(self, dtype: np.dtype):
        """The plan whose forward transforms of ``dtype`` arrays compute only
        what this sphere reads (see :class:`~repro.pw.fft.FFTPlan`), built
        once per basis and dtype."""
        memo = plan_memo(self, "_bound_transforms")
        plan = memo.get(dtype)
        if plan is None:
            plan = memo[dtype] = FFTPlan(self.grid, plan_dtype(dtype), support=self.mask)
        return plan

    def _workspace(self, dtype: np.dtype, lead: tuple):
        """``(plan, flat, mesh)`` for scattering ``lead``-shaped stacks of
        ``dtype`` coefficients: views of the leading rows of this basis's one
        workspace of ``dtype`` (flat, and as the mesh the transform takes),
        kept per shape. The workspace is allocated zeroed, and again only when
        a larger stack than any before arrives.

        Reusing the buffer is sound because every row is one mesh, this basis
        always writes the same sphere positions of a row and every other mesh
        position stays zero from the allocation. It is scratch: valid only
        until the next call with the same dtype, so only
        :meth:`to_real_space` — whose FFT immediately copies out of it — may
        use it.
        """
        memo = plan_memo(self, "_bound_transforms")
        buffer, views = memo.get(("workspace", dtype), (None, {}))
        bound = views.get(lead)
        if bound is None:
            rows = math.prod(lead)
            if buffer is None or len(buffer) < rows:  # the views of a smaller buffer go with it
                buffer, views = np.zeros((rows, self.grid.size), dtype=plan_dtype(dtype)), {}
                memo[("workspace", dtype)] = (buffer, views)
            flat = buffer[:rows].reshape(lead + (self.grid.size,))
            plan = get_plan(self.grid, buffer.dtype)
            bound = views[lead] = (plan, flat, flat.reshape(lead + self.grid.shape))
        return bound

    def from_grid(self, grid_values: np.ndarray) -> np.ndarray:
        """Gather full-mesh Fourier coefficients back to sphere storage."""
        grid_values = np.asarray(grid_values)
        lead = grid_values.shape[:-3]
        flat = grid_values.reshape(lead + (self.grid.size,))
        return np.take(flat, self._indices, axis=-1)  # C-contiguous, unlike flat[..., indices]

    # ------------------------------------------------------------------
    # Convenience transforms sphere <-> real space
    # ------------------------------------------------------------------
    def to_real_space(self, coeffs: np.ndarray) -> np.ndarray:
        """Real-space orbital values from sphere coefficients."""
        coeffs = np.asarray(coeffs)
        if coeffs.shape[-1] != self.npw:
            raise ValueError(
                f"last axis must have length npw={self.npw}, got {coeffs.shape[-1]}"
            )
        plan, flat, mesh = self._workspace(coeffs.dtype, coeffs.shape[:-1])
        flat[..., self._indices] = coeffs
        out = plan.ifftn(mesh)  # FFTGrid.to_real, its plan lookup done once
        out *= self.grid._real_scale
        return out

    def from_real_space(self, psi_real: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Sphere coefficients from real-space orbital values (low-pass projects).

        ``overwrite=True`` allows ``psi_real`` to be used as FFT scratch; pass
        it only for arrays the caller discards (e.g. a ``V psi`` product).
        The transform computes only the pencils that reach the sphere, and
        only the gathered ``npw`` values are scaled: the bits of ``from_grid``
        of a full-mesh forward transform times ``sqrt(V) / N``.
        """
        psi_real = np.asarray(psi_real)
        coeffs = self.from_grid(self._forward_plan(psi_real.dtype).fftn(psi_real, overwrite=overwrite))
        coeffs *= self.grid._fourier_scale
        return coeffs

    def random_coefficients(
        self, nbands: int, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Random normalised coefficients, useful for tests and eigensolver guesses."""
        if nbands < 1:
            raise ValueError("nbands must be >= 1")
        rng = np.random.default_rng(0) if rng is None else rng
        c = rng.standard_normal((nbands, self.npw)) + 1j * rng.standard_normal(
            (nbands, self.npw)
        )
        # damp high-frequency components so random guesses are smooth-ish
        damp = 1.0 / (1.0 + self.g_squared)
        c = c * damp[None, :]
        norms = np.linalg.norm(c, axis=1, keepdims=True)
        return c / norms

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlaneWaveBasis(npw={self.npw}, ecut={self.ecut}, "
            f"grid={self.grid.shape})"
        )
