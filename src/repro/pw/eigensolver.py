"""Iterative eigensolvers for the ground-state Kohn–Sham problem.

The rt-TDDFT runs of the paper start from converged ground-state orbitals.
The ground-state SCF driver finds the lowest ``nbands`` eigenpairs of the
(fixed-density) Kohn–Sham Hamiltonian with a preconditioned **block
Davidson** solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["EigenResult", "block_davidson"]

#: outer iterations of a block Davidson solve before it stops unconverged
_MAX_ITERATIONS = 60
#: the search space restarts from the Ritz vectors past this many vectors per band
_SUBSPACE_FACTOR = 4


@dataclass
class EigenResult:
    """Result of an eigensolve.

    Attributes
    ----------
    eigenvalues:
        Ascending eigenvalues, shape ``(nbands,)``.
    eigenvectors:
        Row-stored eigenvectors, shape ``(nbands, npw)``.
    iterations:
        Number of outer iterations performed.
    residual_norms:
        Final residual norms per band.
    converged:
        True if all residuals dropped below the tolerance.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    iterations: int
    residual_norms: np.ndarray
    converged: bool


def _orthonormal_rows(block: np.ndarray) -> np.ndarray:
    """Rows spanning those of ``block``, orthonormal in ``<u|v> = sum conj(u) v``."""
    return np.ascontiguousarray(np.linalg.qr(block.T)[0].T)


def block_davidson(
    apply_h: Callable[[np.ndarray], np.ndarray],
    initial_guess: np.ndarray,
    nbands: int,
    preconditioner: np.ndarray | None = None,
    tolerance: float = 1e-7,
) -> EigenResult:
    """Preconditioned block Davidson solver for the lowest ``nbands`` eigenpairs.

    The orthonormal search space ``V`` and ``H V`` are held side by side, so
    Rayleigh–Ritz needs no application: ``H`` is applied once to the
    orthonormalised guess and once to each block of new directions, and to no
    vector twice (a restart collapses to the Ritz vectors and their images,
    both linear combinations of rows already held).

    Parameters
    ----------
    apply_h:
        Callable mapping a ``(m, npw)`` coefficient block to ``H`` applied to it.
        ``H`` must be Hermitian.
    initial_guess:
        ``(>= nbands, npw)`` starting block.
    nbands:
        Number of eigenpairs wanted.
    preconditioner:
        Positive diagonal preconditioner of shape ``(npw,)`` (e.g.
        ``1 / (|G|^2/2 + shift)``); identity if omitted.
    tolerance:
        Convergence threshold on the residual 2-norms.

    The solve stops after ``_MAX_ITERATIONS`` outer iterations, and the
    search space restarts when it exceeds ``_SUBSPACE_FACTOR * nbands``
    vectors.
    """
    guess = np.asarray(initial_guess, dtype=np.complex128)
    if guess.ndim != 2 or guess.shape[0] < nbands:
        raise ValueError("initial_guess must be a 2D block with at least nbands rows")
    npw = guess.shape[1]
    if preconditioner is None:
        preconditioner = np.ones(npw)
    inverse_preconditioner = 1.0 / np.asarray(preconditioner, dtype=float)

    basis = _orthonormal_rows(guess)
    h_basis = apply_h(basis)
    eigval = np.zeros(nbands)
    ritz = basis[:nbands]
    residual_norms = np.full(nbands, np.inf)
    iterations = 0

    for iterations in range(1, _MAX_ITERATIONS + 1):
        h_sub = basis.conj() @ h_basis.T
        h_sub = 0.5 * (h_sub + h_sub.conj().T)
        eigval, eigvec = np.linalg.eigh(h_sub)
        eigval = eigval[:nbands]
        rotation = eigvec[:, :nbands].T
        ritz = rotation @ basis
        h_ritz = rotation @ h_basis
        residuals = h_ritz - eigval[:, None] * ritz
        residual_norms = np.linalg.norm(residuals, axis=1)
        unconverged = residual_norms >= tolerance
        if not unconverged.any():
            return EigenResult(eigval, ritz, iterations, residual_norms, True)
        if iterations == _MAX_ITERATIONS:
            break  # no Rayleigh-Ritz left to use another block
        # preconditioned correction vectors for unconverged bands
        denom = inverse_preconditioner[None, :] - eigval[unconverged, None]
        # guard against tiny denominators
        denom = np.where(np.abs(denom) < 1e-3, np.sign(denom + 1e-30) * 1e-3, denom)
        corrections = residuals[unconverged] / denom
        norms = np.linalg.norm(corrections, axis=1)
        usable = norms > 1e-14
        corrections = corrections[usable] / norms[usable, None]
        if not len(corrections):
            break
        if len(basis) + len(corrections) > _SUBSPACE_FACTOR * nbands:
            basis, h_basis = ritz, h_ritz
        # orthonormalise the new block only: Gram-Schmidt against the kept
        # rows (twice, so a correction almost inside their span stays
        # orthogonal to working precision), then QR within the block
        for _ in range(2):
            corrections -= (corrections @ basis.conj().T) @ basis
        block = _orthonormal_rows(corrections)
        basis = np.vstack([basis, block])
        h_basis = np.vstack([h_basis, apply_h(block)])

    return EigenResult(eigval, ritz, iterations, residual_norms, bool(np.all(residual_norms < tolerance)))

