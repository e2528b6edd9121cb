"""Enforced time-reversal symmetry (ETRS) exponential propagator.

An extension beyond the paper's two integrators (RK4 and PT-CN): the ETRS
scheme of Castro, Marques and Rubio propagates

``Psi_{n+1} = exp(-i dt/2 H_{n+1}) exp(-i dt/2 H_n) Psi_n``

with the end-of-step Hamiltonian estimated from a predictor step. The matrix
exponentials are applied with a truncated Taylor expansion, so the cost per
step is ``3 * taylor_order`` Hamiltonian applications (predictor, two
half-steps). ETRS sits between RK4
and PT-CN: it is explicit in cost but preserves time-reversal symmetry and
unitarity to high order. It is used in the ablation benchmarks to show that
the PT gauge — not merely implicitness or symmetry — is what buys the large
time steps for hybrid functionals.
"""

from __future__ import annotations

import numpy as np

from ...pw.basis import Wavefunction
from ...pw.hamiltonian import Hamiltonian
from ..batching import apply_many, stack_coefficients, update_potentials_many
from .base import Propagator, StepStatistics

__all__ = ["ETRSPropagator"]


class ETRSPropagator(Propagator):
    """Enforced time-reversal symmetry propagator with Taylor exponentials.

    Parameters
    ----------
    hamiltonian:
        The Kohn–Sham Hamiltonian.
    taylor_order:
        Order of the truncated Taylor expansion of each half-step exponential
        (4 matches the accuracy of RK4).
    """

    name = "ETRS"
    implicit = False

    def __init__(self, hamiltonian: Hamiltonian, taylor_order: int = 4):
        super().__init__(hamiltonian)
        if taylor_order < 1:
            raise ValueError("taylor_order must be >= 1")
        self.taylor_order = int(taylor_order)

    # ------------------------------------------------------------------
    @classmethod
    def step_many(
        cls,
        propagators: "list[ETRSPropagator]",
        wavefunctions: list[Wavefunction],
        times: list[float],
        dts: list[float],
    ) -> tuple[list[Wavefunction], list[StepStatistics]]:
        """Lockstep ETRS steps for a stack of jobs: half-step with ``H_n``,
        half-step with the predicted ``H_{n+1}``.

        The ``H Psi`` transforms and the potential rebuilds run stacked
        across jobs; every job sees its own times, step size, Hamiltonian
        state and ``taylor_order``. Per job the result does not depend on the
        width of the stack.
        """
        njobs = len(propagators)
        basis = wavefunctions[0].basis
        hams = [p.hamiltonian for p in propagators]
        occs = [wf.occupations for wf in wavefunctions]
        orders = [p.taylor_order for p in propagators]
        half_dts = [0.5 * dt for dt in dts]
        c0 = stack_coefficients(wavefunctions)

        def exponential(stack: np.ndarray, taus: list[float]) -> np.ndarray:
            """``exp(-i tau_j H_j)`` on every job's block with the current
            (frozen) Hamiltonians; a job leaves the active set once its own
            Taylor order is summed."""
            out = stack.copy()
            term = stack.copy()
            for order in range(1, max(orders) + 1):
                active = [j for j in range(njobs) if order <= orders[j]]
                if len(active) == njobs:
                    h_term = apply_many(hams, term)
                else:
                    h_term = apply_many([hams[j] for j in active], term[active])
                for idx, j in enumerate(active):
                    term[j] = (-1j * taus[j] / order) * h_term[idx]
                    out[j] += term[j]
            return out

        # Hamiltonians at t_n from the current orbitals
        for j, ham in enumerate(hams):
            ham.set_time(times[j])
        cls._start_of_step(propagators, wavefunctions)

        # predictor: full steps with H_n estimate the densities at t_{n+1};
        # then the first half-steps with H_n
        predictor = exponential(c0, list(dts))
        half = exponential(c0, half_dts)

        # Hamiltonians at t_{n+1} from the predictors
        for j, ham in enumerate(hams):
            ham.set_time(times[j] + dts[j])
        update_potentials_many(
            hams, [Wavefunction(basis, predictor[j], occs[j]) for j in range(njobs)]
        )

        # second half-steps with H_{n+1}
        final = exponential(half, half_dts)
        new_wfs = [Wavefunction(basis, final[j], occs[j]) for j in range(njobs)]

        cls._end_of_step(propagators, new_wfs)
        return new_wfs, [
            cls._explicit_statistics(wf, 3 * order) for wf, order in zip(new_wfs, orders)
        ]
