"""The :class:`Wavefunction` container.

A wavefunction set ``Psi = [psi_1, ..., psi_Ne]`` (paper Eq. 1) is stored as a
``(nbands, npw)`` complex array of plane-wave coefficients on a
:class:`~repro.pw.grid.PlaneWaveBasis` sphere, which mirrors the band-index
storage of PWDFT (each row is one band / column of ``Psi`` in the paper's
notation).
"""

from __future__ import annotations

import numpy as np

from .grid import PlaneWaveBasis

__all__ = ["Wavefunction"]


class Wavefunction:
    """A set of orbitals expanded in a plane-wave basis.

    Parameters
    ----------
    basis:
        The plane-wave sphere the coefficients refer to.
    coefficients:
        Complex array of shape ``(nbands, npw)``. A copy is **not** made;
        callers that need isolation should pass ``coefficients.copy()``.
    occupations:
        Occupation numbers per band. Defaults to 2 (spin-degenerate doubly
        occupied bands, as for the silicon systems of the paper).

    Notes
    -----
    Coefficients are stored in ``complex128`` except when the caller passes
    ``complex64``, which is preserved — the opt-in single-precision screening
    tier (see :meth:`astype`). Everything else is promoted to double.
    """

    def __init__(
        self,
        basis: PlaneWaveBasis,
        coefficients: np.ndarray,
        occupations: np.ndarray | None = None,
    ):
        coefficients = np.asarray(coefficients)
        if coefficients.dtype != np.complex64:
            coefficients = np.asarray(coefficients, dtype=np.complex128)
        if coefficients.ndim != 2:
            raise ValueError(
                f"coefficients must be 2D (nbands, npw), got shape {coefficients.shape}"
            )
        if coefficients.shape[1] != basis.npw:
            raise ValueError(
                f"coefficient second dimension {coefficients.shape[1]} does not match "
                f"basis npw {basis.npw}"
            )
        self.basis = basis
        self.coefficients = coefficients
        if occupations is None:
            occupations = np.full(coefficients.shape[0], 2.0)
        occupations = np.asarray(occupations, dtype=float)
        if occupations.shape != (coefficients.shape[0],):
            raise ValueError(
                f"occupations must have shape ({coefficients.shape[0]},), "
                f"got {occupations.shape}"
            )
        self.occupations = occupations

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nbands(self) -> int:
        """Number of bands (paper notation: N_e)."""
        return self.coefficients.shape[0]

    @property
    def npw(self) -> int:
        """Number of plane waves per band (paper notation: N_G)."""
        return self.coefficients.shape[1]

    def copy(self) -> "Wavefunction":
        """Deep copy of the coefficients (basis and occupations are shared)."""
        return Wavefunction(self.basis, self.coefficients.copy(), self.occupations)

    def astype(self, dtype) -> "Wavefunction":
        """The same orbitals stored at another precision tier.

        Returns ``self`` unchanged when the dtype already matches; otherwise a
        new wavefunction with cast coefficients (basis/occupations shared).
        """
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.complex64), np.dtype(np.complex128)):
            raise ValueError(f"wavefunction dtype must be complex64 or complex128, got {dtype}")
        if self.coefficients.dtype == dtype:
            return self
        return Wavefunction(self.basis, self.coefficients.astype(dtype), self.occupations)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def overlap(self, other: "Wavefunction | np.ndarray" = None) -> np.ndarray:
        """Overlap matrix ``S = Psi^* Phi`` (paper: ``Psi^* (H Psi)`` etc.).

        With no argument returns the self-overlap ``Psi^* Psi``.
        """
        left = self.coefficients
        if other is None:
            right = left
        elif isinstance(other, Wavefunction):
            right = other.coefficients
        else:
            right = np.asarray(other, dtype=np.complex128)
        return left.conj() @ right.T

    # ------------------------------------------------------------------
    # Real-space access
    # ------------------------------------------------------------------
    def to_real_space(self) -> np.ndarray:
        """Real-space orbital values, shape ``(nbands, n1, n2, n3)``."""
        return self.basis.to_real_space(self.coefficients)

    @classmethod
    def from_real_space(
        cls,
        basis: PlaneWaveBasis,
        psi_real: np.ndarray,
        occupations: np.ndarray | None = None,
    ) -> "Wavefunction":
        """Build a wavefunction by projecting real-space orbitals onto the sphere."""
        coeffs = basis.from_real_space(np.asarray(psi_real, dtype=np.complex128))
        return cls(basis, coeffs, occupations)

    @classmethod
    def random(
        cls,
        basis: PlaneWaveBasis,
        nbands: int,
        rng: np.random.Generator | None = None,
    ) -> "Wavefunction":
        """Random orthonormal wavefunction set with the default occupations."""
        from .orthogonalization import lowdin_orthonormalize

        return lowdin_orthonormalize(cls(basis, basis.random_coefficients(nbands, rng)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Wavefunction(nbands={self.nbands}, npw={self.npw})"
