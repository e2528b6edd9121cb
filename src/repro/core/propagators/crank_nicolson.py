"""Standard (Schrödinger-gauge) Crank–Nicolson propagator.

Included as an ablation baseline: it is the same implicit midpoint structure as
PT-CN but *without* the parallel transport projection term, so the orbital
phases ``exp(-i eps_i t)`` remain in the dynamics and the fixed-point iteration
only converges for much smaller time steps. Comparing CN with PT-CN at equal
``Delta t`` isolates the benefit of the gauge choice from the benefit of
implicitness — the central algorithmic claim of the paper's Section 2.
"""

from __future__ import annotations

from ...pw.hamiltonian import Hamiltonian
from .pt_cn import PTCNPropagator

__all__ = ["CrankNicolsonPropagator"]


class CrankNicolsonPropagator(PTCNPropagator):
    """Plain Crank–Nicolson: PT-CN with the projection term switched off."""

    name = "CN"
    implicit = True

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        scf_tolerance: float = 1e-6,
        max_scf_iterations: int = 30,
        anderson_history: int = 20,
    ):
        super().__init__(
            hamiltonian,
            scf_tolerance=scf_tolerance,
            max_scf_iterations=max_scf_iterations,
            anderson_history=anderson_history,
            parallel_transport=False,
        )
