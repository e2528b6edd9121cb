"""Anderson mixing for wavefunction fixed-point problems (Alg. 1, line 7).

The PT-CN scheme solves a nonlinear fixed-point equation for the new orbitals
at every time step. The paper accelerates that iteration with Anderson mixing
[D. G. Anderson, J. ACM 12 (1965) 547] applied *per wavefunction*, with a
maximum mixing dimension of 20 — which is also why up to 20 copies of the
wavefunctions must be stored (Section 7's memory analysis, 512 GB Summit nodes).

The update is the standard "type-II" Anderson/Pulay one: given a history of
iterates ``x_k`` and their residuals ``f_k``, minimise the linear combination
of residual differences and extrapolate (the least-squares kernel,
:func:`repro.pw.density.anderson_extrapolation`, is shared with the ground
state's density mixer). The mixer applies no preconditioner of its own: the
caller hands in the residual it wants mixed (PT-CN divides its line-6
residual by the diagonal of the Jacobian first).
"""

from __future__ import annotations

import numpy as np

from ..pw.density import anderson_extrapolation

__all__ = ["AndersonMixer"]


class AndersonMixer:
    """Anderson (Pulay/DIIS-type) mixer for complex arrays.

    Parameters
    ----------
    history_size:
        Maximum number of stored previous iterates (the paper uses 20).
    mixing_parameter:
        The relaxation parameter ``beta`` applied to the residual
        (1.0 reproduces the classic Anderson update; smaller values damp).
    per_band:
        If True (paper behaviour), solve an independent least-squares problem
        for each row (band) of the iterate — all bands in one stacked solve;
        if False, treat the whole array as one vector.
    regularization:
        Tikhonov regularisation added to the normal equations for numerical
        robustness when residual differences become nearly linearly dependent.
    """

    def __init__(
        self,
        history_size: int = 20,
        mixing_parameter: float = 1.0,
        per_band: bool = True,
        regularization: float = 1e-12,
    ):
        if history_size < 1:
            raise ValueError("history_size must be >= 1")
        if not 0.0 < mixing_parameter <= 1.0:
            raise ValueError("mixing_parameter must be in (0, 1]")
        self.history_size = int(history_size)
        self.mixing_parameter = float(mixing_parameter)
        self.per_band = bool(per_band)
        self.regularization = float(regularization)
        self._iterates: list[np.ndarray] = []
        self._residuals: list[np.ndarray] = []

    # ------------------------------------------------------------------
    @property
    def history_length(self) -> int:
        """Number of (iterate, residual) pairs currently stored."""
        return len(self._iterates)

    @property
    def memory_copies(self) -> int:
        """Number of wavefunction-sized arrays held (iterates + residuals).

        This is the quantity behind the paper's memory-budget discussion: the
        Anderson history is by far the largest consumer of host memory.
        """
        return len(self._iterates) + len(self._residuals)

    def reset(self) -> None:
        """Drop all history (called at the start of every PT-CN time step)."""
        self._iterates.clear()
        self._residuals.clear()

    # ------------------------------------------------------------------
    def update(self, iterate: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """Produce the next iterate from the current iterate and residual.

        Parameters
        ----------
        iterate:
            Current iterate ``x_k`` (any shape; for wavefunctions
            ``(nbands, npw)``).
        residual:
            Residual ``f_k`` of the fixed-point problem at ``x_k``; the mixer
            drives ``f`` towards zero. Same shape as ``iterate``.

        Returns
        -------
        ndarray
            The mixed next iterate, same shape as the input.
        """
        iterate = np.asarray(iterate, dtype=np.complex128)
        residual = np.asarray(residual, dtype=np.complex128)
        if iterate.shape != residual.shape:
            raise ValueError("iterate and residual must have the same shape")

        # one row per independent least-squares problem: the bands, or the
        # whole array as the one-row case
        rows = iterate.shape[0] if self.per_band and iterate.ndim >= 2 else 1
        self._iterates.append(iterate.reshape(rows, -1).copy())
        self._residuals.append(residual.reshape(rows, -1).copy())
        if len(self._iterates) > self.history_size:
            self._iterates.pop(0)
            self._residuals.pop(0)

        beta = self.mixing_parameter
        if len(self._iterates) == 1:
            return iterate - beta * residual
        x_bar, f_bar = anderson_extrapolation(self._iterates, self._residuals, self.regularization)
        return (x_bar - beta * f_bar).reshape(iterate.shape)
