"""Wavefunction orthonormalization.

The paper re-orthogonalises the propagated wavefunctions at the end of each
rt-TDDFT step (Section 3.4): the overlap matrix ``Psi^* Psi`` is formed in the
G-space parallelization, a Cholesky factorisation is computed (on a single GPU
via cuSOLVER in the paper) and the wavefunctions are rotated by the inverse
triangular factor. We provide that Cholesky scheme plus the symmetric Löwdin
variant used for ground-state initialisation.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .basis import Wavefunction

__all__ = [
    "cholesky_orthonormalize",
    "lowdin_orthonormalize",
    "orthonormality_error",
]


def orthonormality_error(wavefunction: Wavefunction) -> float:
    """Max-norm deviation of ``Psi^* Psi`` from the identity."""
    s = wavefunction.overlap()
    return float(np.max(np.abs(s - np.eye(wavefunction.nbands))))


def cholesky_rotation(overlap: np.ndarray) -> np.ndarray:
    """The row-storage rotation that orthonormalizes orbitals of overlap ``S``.

    Factor ``S = L L^*``; the orthonormal set is ``Psi L^{-*}``, i.e. columns
    ``psi_j_new = sum_i psi_i (L^{-*})_{ij}``, which with row storage is
    ``C_new = (L^{-*})^T C = conj(L^{-1}) C``. Returns ``conj(L^{-1})``.
    Requires ``S`` to be (numerically) positive definite.
    """
    try:
        chol = sla.cholesky(overlap, lower=True)
    except sla.LinAlgError as exc:  # pragma: no cover - defensive
        raise np.linalg.LinAlgError(
            "overlap matrix is not positive definite; wavefunctions are linearly dependent"
        ) from exc
    return np.conj(sla.solve_triangular(chol, np.eye(chol.shape[0]), lower=True))


def cholesky_orthonormalize(wavefunction: Wavefunction) -> Wavefunction:
    """Orthonormalize using the Cholesky factorisation of the overlap matrix.

    This mirrors the paper's end-of-step orthogonalization: compute
    ``S = Psi^* Psi``, factor ``S = L L^*`` and replace ``Psi <- Psi L^{-*}``
    (:func:`cholesky_rotation`). The Cholesky scheme preserves the span and is
    the cheapest option.
    """
    new_coeffs = cholesky_rotation(wavefunction.overlap()) @ wavefunction.coefficients
    return Wavefunction(wavefunction.basis, new_coeffs, wavefunction.occupations)


def lowdin_orthonormalize(wavefunction: Wavefunction) -> Wavefunction:
    """Symmetric (Löwdin) orthonormalization ``Psi <- Psi S^{-1/2}``.

    The Löwdin rotation is the orthonormal set closest to the input in the
    least-squares sense, which makes it the natural choice when the input is
    already close to orthonormal (e.g. after a PT-CN step with a loose SCF
    tolerance).
    """
    s = wavefunction.overlap()
    eigval, eigvec = np.linalg.eigh(s)
    if np.min(eigval) <= 1e-14:
        raise np.linalg.LinAlgError(
            "overlap matrix is singular; wavefunctions are linearly dependent"
        )
    s_inv_sqrt = (eigvec * (1.0 / np.sqrt(eigval))) @ eigvec.conj().T
    # Column convention Psi S^{-1/2} -> row storage C_new = (S^{-1/2})^T C
    new_coeffs = s_inv_sqrt.T @ wavefunction.coefficients
    return Wavefunction(wavefunction.basis, new_coeffs, wavefunction.occupations)

