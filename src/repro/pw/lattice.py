"""Simulation cells and lattices for the plane-wave engine.

The plane-wave discretization of the paper (PWDFT) operates on a periodic
supercell. This module provides the :class:`Cell` container holding the real
and reciprocal lattice vectors, conversion between fractional and Cartesian
coordinates, and supercell construction (the paper builds silicon supercells
from 1x1x3 up to 4x6x8 multiples of the 8-atom cubic cell).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Cell"]


@dataclass(frozen=True)
class Cell:
    """A periodic simulation cell.

    Parameters
    ----------
    lattice_vectors:
        ``(3, 3)`` array whose *rows* are the lattice vectors ``a1, a2, a3``
        in Bohr.

    Notes
    -----
    The reciprocal lattice vectors ``b_i`` (rows of :attr:`reciprocal_vectors`)
    satisfy ``a_i . b_j = 2 pi delta_ij``.
    """

    lattice_vectors: np.ndarray
    _reciprocal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        lat = np.asarray(self.lattice_vectors, dtype=float)
        if lat.shape != (3, 3):
            raise ValueError(f"lattice_vectors must have shape (3, 3), got {lat.shape}")
        vol = float(np.linalg.det(lat))
        if abs(vol) < 1e-12:
            raise ValueError("lattice vectors are singular (zero cell volume)")
        object.__setattr__(self, "lattice_vectors", lat)
        object.__setattr__(self, "_volume", abs(vol))
        recip = 2.0 * np.pi * np.linalg.inv(lat).T
        object.__setattr__(self, "_reciprocal", recip)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def cubic(cls, a: float) -> "Cell":
        """Simple cubic cell with lattice constant ``a`` (Bohr)."""
        if a <= 0:
            raise ValueError(f"lattice constant must be positive, got {a}")
        return cls(np.diag([a, a, a]))

    @classmethod
    def orthorhombic(cls, a: float, b: float, c: float) -> "Cell":
        """Orthorhombic cell with edges ``a, b, c`` (Bohr)."""
        if min(a, b, c) <= 0:
            raise ValueError("all cell edges must be positive")
        return cls(np.diag([a, b, c]))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def volume(self) -> float:
        """Cell volume in Bohr^3 (always positive; cached at construction)."""
        return self._volume

    @property
    def reciprocal_vectors(self) -> np.ndarray:
        """``(3, 3)`` array whose rows are the reciprocal lattice vectors."""
        return self._reciprocal

    @property
    def lengths(self) -> np.ndarray:
        """Lengths of the three lattice vectors (Bohr)."""
        return np.linalg.norm(self.lattice_vectors, axis=1)

    def is_orthorhombic(self, tol: float = 1e-10) -> bool:
        """Return True if the lattice vectors are mutually orthogonal."""
        lat = self.lattice_vectors
        gram = lat @ lat.T
        off = gram - np.diag(np.diag(gram))
        return bool(np.max(np.abs(off)) < tol)

    # ------------------------------------------------------------------
    # Coordinate transformations
    # ------------------------------------------------------------------
    def fractional_to_cartesian(self, frac: np.ndarray) -> np.ndarray:
        """Convert fractional coordinates to Cartesian (Bohr).

        Parameters
        ----------
        frac:
            Array of shape ``(..., 3)`` of fractional coordinates.
        """
        frac = np.asarray(frac, dtype=float)
        return frac @ self.lattice_vectors

    def cartesian_to_fractional(self, cart: np.ndarray) -> np.ndarray:
        """Convert Cartesian coordinates (Bohr) to fractional coordinates."""
        cart = np.asarray(cart, dtype=float)
        return cart @ np.linalg.inv(self.lattice_vectors)

    def wrap_fractional(self, frac: np.ndarray) -> np.ndarray:
        """Wrap fractional coordinates into ``[0, 1)``."""
        frac = np.asarray(frac, dtype=float)
        return frac - np.floor(frac)

    def minimum_image_distance(self, r1: np.ndarray, r2: np.ndarray) -> float:
        """Minimum-image distance between two Cartesian points (Bohr).

        Only exact for orthorhombic cells; for general cells it searches the
        27 neighbouring images, which is sufficient for cells that are not
        extremely skewed.
        """
        d_frac = self.cartesian_to_fractional(np.asarray(r2) - np.asarray(r1))
        d_frac -= np.round(d_frac)
        best = np.inf
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    shift = np.array([dx, dy, dz], dtype=float)
                    cart = self.fractional_to_cartesian(d_frac + shift)
                    best = min(best, float(np.linalg.norm(cart)))
        return best

    # ------------------------------------------------------------------
    # Supercells
    # ------------------------------------------------------------------
    def supercell(self, repeats: tuple[int, int, int]) -> "Cell":
        """Return a new cell replicated ``repeats`` times along each vector."""
        nx, ny, nz = repeats
        if min(nx, ny, nz) < 1:
            raise ValueError(f"supercell repeats must be >= 1, got {repeats}")
        scale = np.diag([nx, ny, nz]).astype(float)
        return Cell(scale @ self.lattice_vectors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cell):
            return NotImplemented
        # hash-keyed caches look a grid's cell up on every Hartree solve, and
        # the hit is the same object or byte-equal vectors: skip the allclose
        if self is other or self.lattice_vectors.tobytes() == other.lattice_vectors.tobytes():
            return True
        return bool(np.allclose(self.lattice_vectors, other.lattice_vectors))

    def __hash__(self) -> int:  # needed because __eq__ is overridden
        # NOTE: hashes the exact bytes while __eq__ is an allclose, so two
        # cells can compare equal and hash differently. Hash-keyed caches
        # (FFT plans, bare kernels) therefore share entries only between
        # cells equal *by bytes* — which is what builders of one structure
        # produce; an allclose-but-not-identical cell gets its own entry.
        return hash(self.lattice_vectors.tobytes())
