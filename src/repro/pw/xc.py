"""Local exchange-correlation functionals.

The paper uses the HSE06 hybrid functional: a semi-local exchange-correlation
part plus a fraction of screened Fock exchange. This module provides the
semi-local ("local" in the paper's VHxc notation) part. We implement the
spin-unpolarised LDA: Slater exchange plus Perdew–Zunger 1981 correlation.
Chemical accuracy of the semi-local part is irrelevant to the algorithmic
claims reproduced here (time-step enlargement, operator cost, scaling); what
matters is that VHxc is a nonlinear local potential of the density, which LDA
provides.

The screened Fock exchange part lives in :mod:`repro.pw.exchange`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LDAFunctional", "lda_exchange", "pz81_correlation", "XCResult"]

# Slater exchange prefactor: e_x(rho) = Cx * rho^{1/3}, Cx = -(3/4)(3/pi)^{1/3}
_CX = -0.75 * (3.0 / np.pi) ** (1.0 / 3.0)

# Perdew-Zunger 1981 parameters (unpolarised)
_PZ_GAMMA = -0.1423
_PZ_BETA1 = 1.0529
_PZ_BETA2 = 0.3334
_PZ_A = 0.0311
_PZ_B = -0.048
_PZ_C = 0.0020
_PZ_D = -0.0116


@dataclass(frozen=True)
class XCResult:
    """Result of an exchange-correlation evaluation.

    Attributes
    ----------
    energy_density:
        Energy per electron ``epsilon_xc(rho)`` on the grid.
    potential:
        Functional derivative ``v_xc(rho) = d(rho epsilon_xc)/d rho``.
    energy:
        Integrated exchange-correlation energy (set by the caller that knows
        the integration weight).
    """

    energy_density: np.ndarray
    potential: np.ndarray
    energy: float = 0.0


def lda_exchange(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slater exchange energy density and potential.

    Returns ``(epsilon_x, v_x)`` with ``epsilon_x = Cx rho^(1/3)`` and
    ``v_x = (4/3) Cx rho^(1/3)``. Densities are clipped at zero so tiny
    negative values from FFT round-off do not produce NaNs.
    """
    return _slater(_clipped(rho))


def _clipped(rho: np.ndarray) -> np.ndarray:
    """The density as ``float``, clipped at zero (one full-grid pass)."""
    return np.maximum(np.asarray(rho, dtype=float), 0.0)


def _slater(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`lda_exchange` of a density already clipped at zero."""
    rho13 = np.cbrt(rho)
    eps_x = _CX * rho13
    v_x = (4.0 / 3.0) * _CX * rho13
    return eps_x, v_x


def pz81_correlation(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perdew–Zunger 1981 parameterisation of the correlation energy (unpolarised).

    Returns ``(epsilon_c, v_c)``. Uses the high-density (rs < 1) logarithmic
    form and the low-density Padé form, matched at ``rs = 1`` as in the
    original paper.
    """
    return _pz81(_clipped(rho))


def _pz81(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pz81_correlation` of a density already clipped at zero.

    The low-density Padé form is evaluated on the whole grid (``rs`` of a
    vanishing density taken at ``rho = 1``), the high-density (``rs < 1``)
    points are patched in afterwards and the vanishing ones zeroed: every
    point gets the floats of its own branch, and the common case is not
    gathered and scattered back.
    """
    positive = rho > 1e-20
    rs = (3.0 / (4.0 * np.pi * np.where(positive, rho, 1.0))) ** (1.0 / 3.0)

    sqrt_rs = np.sqrt(rs)
    denom = 1.0 + _PZ_BETA1 * sqrt_rs + _PZ_BETA2 * rs
    eps_c = _PZ_GAMMA / denom
    deps = -_PZ_GAMMA * (0.5 * _PZ_BETA1 / sqrt_rs + _PZ_BETA2) / (denom * denom)
    # v_c = eps - (rs/3) d eps / d rs
    v_c = eps_c - (rs / 3.0) * deps

    high = np.flatnonzero(rs < 1.0)
    if high.size:
        rs_h = rs.flat[high]
        lnrs = np.log(rs_h)
        eps = _PZ_A * lnrs + _PZ_B + _PZ_C * rs_h * lnrs + _PZ_D * rs_h
        deps = _PZ_A / rs_h + _PZ_C * (lnrs + 1.0) + _PZ_D
        eps_c.flat[high] = eps
        v_c.flat[high] = eps - (rs_h / 3.0) * deps
    vanishing = np.flatnonzero(~positive)
    eps_c.flat[vanishing] = 0.0
    v_c.flat[vanishing] = 0.0
    return eps_c, v_c


class LDAFunctional:
    """Spin-unpolarised LDA (Slater exchange + PZ81 correlation).

    The optional ``exchange_scale`` lets a hybrid functional remove the
    fraction of local exchange that is replaced by Fock exchange (PBE0/HSE
    style: ``(1 - alpha)`` of semi-local exchange plus ``alpha`` of Fock
    exchange).
    """

    def __init__(self, exchange_scale: float = 1.0, correlation: bool = True):
        if exchange_scale < 0.0:
            raise ValueError("exchange_scale must be non-negative")
        self.exchange_scale = float(exchange_scale)
        self.correlation = bool(correlation)

    def evaluate(self, rho: np.ndarray, volume_element: float) -> XCResult:
        """Evaluate energy density, potential, and integrated energy."""
        rho = _clipped(rho)
        eps, pot = self._energy_density_and_potential(rho)
        energy = float(np.sum(rho * eps) * volume_element)
        return XCResult(energy_density=eps, potential=pot, energy=energy)

    def evaluate_many(self, rho_stack: np.ndarray, volume_element: float) -> list[XCResult]:
        """Evaluate a ``(njobs,) + grid.shape`` density stack in one pass.

        Every operation is elementwise (and the energy integral reduces each
        job's contiguous grid slice in the same order as :meth:`evaluate`
        reduces the whole array), so each returned slice is bit-identical to
        evaluating that job's density alone — the batched stepping engine
        relies on this to amortize the ufunc dispatch over the job stack.
        """
        rho = _clipped(rho_stack)
        eps, pot = self._energy_density_and_potential(rho)
        energies = np.sum(rho * eps, axis=(-3, -2, -1)) * volume_element
        return [
            XCResult(energy_density=eps[j], potential=pot[j], energy=float(energies[j]))
            for j in range(rho.shape[0])
        ]

    def _energy_density_and_potential(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(epsilon_xc, v_xc)`` of a density clipped at zero once, by the
        caller (clipping is the one full-grid pass both terms would repeat)."""
        eps, pot = _slater(rho)
        if self.exchange_scale != 1.0:  # scaling by 1.0 would copy the same floats
            eps = self.exchange_scale * eps
            pot = self.exchange_scale * pot
        if self.correlation:
            eps_c, v_c = _pz81(rho)
            eps += eps_c  # both terms are fresh arrays of this evaluation
            pot += v_c
        return eps, pot
