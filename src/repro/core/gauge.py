"""Parallel transport gauge algebra (Section 2 of the paper).

The physical object of rt-TDDFT is the density matrix ``P(t) = Psi(t) Psi*(t)``,
which is invariant under any unitary rotation ("gauge") ``Psi -> Psi U(t)`` of
the orbitals. The parallel transport gauge is the particular choice that makes
the orbital dynamics as slow as possible; it is defined implicitly by the
equation of motion

.. math:: i \\partial_t \\Psi = H \\Psi - \\Psi (\\Psi^* H \\Psi),

whose right-hand side is the *residual* ``R = H Psi - Psi (Psi^* H Psi)``: the
component of ``H Psi`` orthogonal to the occupied subspace. This module
collects the small pieces of linear algebra the PT propagators use:

* :func:`subspace_hamiltonian` — the ``N_e x N_e`` matrix ``Psi^* H Psi``;
* :func:`apply_subspace_projection` — ``Psi M`` for row-stored orbitals;
* :func:`pt_residual` — the residual above.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "subspace_hamiltonian",
    "pt_residual",
    "apply_subspace_projection",
]


def subspace_hamiltonian(coefficients: np.ndarray, h_coefficients: np.ndarray) -> np.ndarray:
    """The projected Hamiltonian ``S = Psi^* (H Psi)`` (``N_e x N_e``).

    Parameters
    ----------
    coefficients:
        Row-stored orbital coefficients, shape ``(nbands, npw)``.
    h_coefficients:
        ``H`` applied to the same orbitals, same shape.
    """
    coefficients = np.asarray(coefficients)
    h_coefficients = np.asarray(h_coefficients)
    if coefficients.shape != h_coefficients.shape:
        raise ValueError("coefficients and h_coefficients must have identical shapes")
    return coefficients.conj() @ h_coefficients.T


def apply_subspace_projection(coefficients: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Evaluate ``Psi M`` in the paper's column convention for row storage.

    Column convention ``(Psi M)_j = sum_i psi_i M_{ij}`` becomes
    ``M.T @ coefficients`` with row storage.
    """
    return np.asarray(matrix).T @ np.asarray(coefficients)


def pt_residual(coefficients: np.ndarray, h_coefficients: np.ndarray) -> np.ndarray:
    """Parallel transport residual ``R = H Psi - Psi (Psi^* H Psi)``.

    This is the right-hand side of the PT equation of motion (Eq. 4) and the
    quantity whose smallness (compared to ``H Psi``) is the reason the PT gauge
    admits 20–100x larger time steps than the Schrödinger gauge.
    """
    s = subspace_hamiltonian(coefficients, h_coefficients)
    return h_coefficients - apply_subspace_projection(coefficients, s)

