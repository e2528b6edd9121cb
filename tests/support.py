"""Reference helpers only the tests call: gauge-invariant distances, a dense
eigensolver and the width-1 electron number the checks compare against.

The shipped code never needs them, so they live here rather than under
``src/``. Test modules import this file as ``support`` (``tests/`` is on the
import path through ``tests/conftest.py``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg as sla

from repro.core.observables import electron_numbers_many
from repro.pw.basis import Wavefunction
from repro.pw.density import compute_density
from repro.pw.eigensolver import EigenResult


def density_matrix_distance(coeff_a: np.ndarray, coeff_b: np.ndarray) -> float:
    """Frobenius distance between the density matrices of two orbital sets.

    ``P = Psi Psi^*`` is gauge invariant, so this distance vanishes exactly
    when the two sets span the same occupied subspace — regardless of any
    unitary rotation between them. Computed without forming the ``npw x npw``
    matrices explicitly:

    ``|P_a - P_b|_F^2 = tr(P_a^2) + tr(P_b^2) - 2 Re tr(P_a P_b)``
    with ``tr(P_a P_b) = |Psi_a^* Psi_b|_F^2`` for orthonormal sets.
    """
    a = np.asarray(coeff_a)
    b = np.asarray(coeff_b)
    s_aa = a.conj() @ a.T
    s_bb = b.conj() @ b.T
    s_ab = a.conj() @ b.T
    tr_aa = float(np.real(np.sum(s_aa * s_aa.conj().T)))
    tr_bb = float(np.real(np.sum(s_bb * s_bb.conj().T)))
    tr_ab = float(np.real(np.sum(s_ab * s_ab.conj())))
    value = tr_aa + tr_bb - 2.0 * tr_ab
    return float(np.sqrt(max(value, 0.0)))


def parallel_transport_align(coefficients: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate ``coefficients`` into the gauge closest to ``reference``.

    Solves ``min_U || Psi U - Psi_ref ||_F`` over unitary ``U`` (the orthogonal
    Procrustes problem); the solution is ``U = W V^*`` from the SVD of the
    overlap ``Psi^* Psi_ref = W Sigma V^*``. For orbital sets that span the
    same subspace this realises the parallel transport of ``reference``'s gauge
    onto ``coefficients``.
    """
    coefficients = np.asarray(coefficients)
    reference = np.asarray(reference)
    overlap = coefficients.conj() @ reference.T  # <psi_i | ref_j>
    w, _, vh = np.linalg.svd(overlap)
    u = w @ vh
    # Psi U in column convention -> U.T @ coefficients in row storage
    return u.T @ coefficients


def unitary_defect(matrix: np.ndarray) -> float:
    """Max-norm deviation of ``U^* U`` from the identity."""
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(n))))


def dense_eigensolve(apply_h: Callable[[np.ndarray], np.ndarray], npw: int, nbands: int) -> EigenResult:
    """Build the dense Hamiltonian by applying ``H`` to unit vectors and diagonalise.

    Cost is ``O(npw)`` operator applications and an ``O(npw^3)`` dense solve, so
    this is only usable for small test bases — but it gives machine-precision
    reference eigenpairs for validating :func:`repro.pw.eigensolver.block_davidson`.
    """
    identity = np.eye(npw, dtype=np.complex128)
    h_matrix = apply_h(identity).T  # columns H e_j -> matrix with H[i, j]
    h_matrix = 0.5 * (h_matrix + h_matrix.conj().T)
    eigval, eigvec = sla.eigh(h_matrix)
    vectors = eigvec[:, :nbands].T
    return EigenResult(
        eigenvalues=eigval[:nbands],
        eigenvectors=np.ascontiguousarray(vectors),
        iterations=1,
        residual_norms=np.zeros(nbands),
        converged=True,
    )


def electron_number(wavefunction: Wavefunction) -> float:
    """Electron number of ``wavefunction``'s density: the width-1 call of
    :func:`repro.core.observables.electron_numbers_many`."""
    grid = wavefunction.basis.grid
    return float(electron_numbers_many(grid, compute_density(wavefunction, grid)[None])[0])
