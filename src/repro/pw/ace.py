"""Adaptively compressed exchange (ACE) operator.

The paper (Section 1) notes that on CPU machines the PT formulation can be
combined with the **adaptively compressed exchange** operator [Lin, JCTC 12
(2016) 2242; Jia & Lin, CPC 2019] to reduce the cost of hybrid-functional
rt-TDDFT, while on Summit the GPU-accelerated exact operator alone was the
better choice. We provide ACE as an optional extension so that trade-off can
be explored: the exact Fock operator is applied **once** to the current
occupied orbitals, and the result is compressed into a rank-``N_e`` separable
operator

.. math:: V_{ACE} = -\\sum_k |\\xi_k\\rangle\\langle\\xi_k|,

which agrees with ``V_X`` exactly on the span of the defining orbitals and
costs only two thin GEMMs per application afterwards — no Poisson solves.

Status in this code base (verdict of the layered trace, ``benchmarks/layers``)
------------------------------------------------------------------------------
ACE pays when one compressed operator serves *several* applications to
*other* orbitals than those that define it. RK4 rebuilds ``V_X`` per stage
and applies it once, to the defining orbitals, so there is nothing to
amortise. PT-CN does reuse exchange work across inner iterations — a job with
exact exchange refreshes its Fock term instead of recomputing it every
iteration (:mod:`repro.core.propagators.pt_cn`) — but what it reuses between
two refreshes is the *vector* ``W^m = V_X[Psi^m] Psi^m``, which the exact
operator's self-application memo already holds. Holding ``W^m`` and applying
an :class:`ACEExchangeOperator` compressed from it were measured on Si8 HSE06
and give the same counts at every step size and tolerance tried (e.g. 41
exact applications and 32 frozen iterations over eight 50 as steps at 1e-5
either way): the iterate moves too little between refreshes for the
operator's action off ``Psi^m`` to matter, so ACE would add two GEMMs and a
Cholesky per refresh for nothing. It is therefore not wired
into the propagation loop.

What separates the two lagging schemes is the acceptance test, not the
compression. Lagging the term *and accepting the step on a lagged residual*
changes the fixed point being solved: that is a physics change (parked in
ROADMAP). Refreshing the term and accepting only an update of the exact
residual keeps Alg. 1's fixed point: that is what PT-CN does.

The class stays as the extension the paper mentions:
:meth:`ACEExchangeOperator.compress` goes through
:meth:`ExchangeOperator.apply` on the defining orbitals, i.e. the
pair-symmetric self-application (``N (N+1)/2`` Poisson solves instead of
``N^2``) — see :mod:`repro.pw.exchange`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .basis import Wavefunction
from .exchange import ExchangeOperator

__all__ = ["ACEExchangeOperator"]


class ACEExchangeOperator:
    """Rank-``N_e`` adaptive compression of a Fock exchange operator.

    Parameters
    ----------
    exchange:
        The exact (screened or bare) exchange operator being compressed.

    Notes
    -----
    Call :meth:`compress` with the occupied orbitals whenever the density
    matrix changes (once per SCF outer iteration in ground-state calculations,
    or once per PT-CN step in the cheaper "lagged ACE" mode); afterwards
    :meth:`apply` is essentially free compared to the exact operator.
    """

    def __init__(self, exchange: ExchangeOperator):
        self.exchange = exchange
        self._projectors: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def is_compressed(self) -> bool:
        """Whether :meth:`compress` has been called."""
        return self._projectors is not None

    @property
    def rank(self) -> int:
        """Rank of the compressed operator (number of ACE projectors)."""
        return 0 if self._projectors is None else self._projectors.shape[0]

    @property
    def projectors(self) -> np.ndarray:
        """The ACE projectors ``xi_k``, shape ``(rank, npw)``."""
        if self._projectors is None:
            raise RuntimeError("call compress() before accessing the projectors")
        return self._projectors

    # ------------------------------------------------------------------
    def compress(self, orbitals: Wavefunction) -> None:
        """Build the ACE projectors from the occupied orbitals.

        Performs one exact Fock application ``W = V_X Psi`` (the expensive
        step; a self-application, so it runs on the pair triangle), forms
        ``M = Psi^* W`` (negative semi-definite for occupied orbitals),
        factorises ``-M = L L^*`` and stores
        ``xi = -(L^{-1} W)`` so that ``V_ACE = -sum_k |xi_k><xi_k|``.
        """
        self.exchange.set_orbitals(orbitals)
        w = self.exchange.apply(orbitals.coefficients)  # (nbands, npw)
        m = orbitals.coefficients.conj() @ w.T
        m = 0.5 * (m + m.conj().T)
        # -M must be positive semi-definite; regularise tiny negative eigenvalues
        neg_m = -m + 1e-12 * np.eye(m.shape[0]) * max(1.0, float(np.max(np.abs(m))))
        try:
            chol = sla.cholesky(neg_m, lower=True)
        except sla.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "Psi^* V_X Psi is not negative definite; are the orbitals occupied "
                "and linearly independent?"
            ) from exc
        # column convention: Xi = W L^{-*}; with row storage this is conj(L^{-1}) @ W_rows
        xi = np.conj(sla.solve_triangular(chol, np.conj(w), lower=True))
        self._projectors = xi

    def apply(self, coefficients: np.ndarray) -> np.ndarray:
        """Apply the compressed operator: ``V_ACE Psi = -xi^T (xi^* Psi^T)``."""
        if self._projectors is None:
            raise RuntimeError("call compress() before apply()")
        coefficients = np.asarray(coefficients, dtype=np.complex128)
        single = coefficients.ndim == 1
        if single:
            coefficients = coefficients[None, :]
        amplitudes = self._projectors.conj() @ coefficients.T  # (rank, nbands)
        out = -(self._projectors.T @ amplitudes).T
        return out[0] if single else out

    def energy(self, orbitals: Wavefunction) -> float:
        """Exchange energy ``1/2 sum_n f_n <psi_n|V_ACE|psi_n>`` of the defining orbitals."""
        vx = self.apply(orbitals.coefficients)
        per_band = np.real(np.einsum("ng,ng->n", orbitals.coefficients.conj(), vx))
        return 0.5 * float(np.sum(orbitals.occupations * per_band))
