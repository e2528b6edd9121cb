"""Explicit 4th-order Runge–Kutta propagator (the paper's baseline).

RK4 integrates the Schrödinger-gauge equation ``i dPsi/dt = H(t, P) Psi``
directly. Because the orbitals oscillate with phases ``exp(-i eps_i t)`` the
stable/accurate time step is bounded by the largest eigenvalue of ``H`` — for
the paper's 10 Ha cutoff this is ~0.5 attoseconds, i.e. 100x smaller than the
PT-CN step. Each RK4 step costs four Hamiltonian applications (hence four Fock
exchange applications) and four potential updates, which is what Fig. 6 of the
paper compares against PT-CN.
"""

from __future__ import annotations

import numpy as np

from ...pw.basis import Wavefunction
from ...pw.hamiltonian import Hamiltonian, apply_many, update_potentials_many
from .base import Propagator, StepStatistics

__all__ = ["RK4Propagator"]


class RK4Propagator(Propagator):
    """Classical explicit RK4 for the nonlinear TDDFT equations.

    Parameters
    ----------
    hamiltonian:
        The Kohn–Sham Hamiltonian.
    self_consistent_stages:
        If True (default), the Hamiltonian potential is rebuilt from the
        intermediate stage wavefunctions (the standard nonlinear RK4); if
        False, the potential is frozen over the step (a cheaper linearised
        variant that is useful for tests against the linear Schrödinger
        equation).
    """

    name = "RK4"
    implicit = False

    def __init__(self, hamiltonian: Hamiltonian, self_consistent_stages: bool = True):
        super().__init__(hamiltonian)
        self.self_consistent_stages = bool(self_consistent_stages)

    # bound in this class's own namespace (not only inherited): span tracers
    # such as benchmarks/layers resolve their targets with ``vars(cls)``
    step = Propagator.step

    # ------------------------------------------------------------------
    @classmethod
    def step_many(
        cls,
        propagators: "list[RK4Propagator]",
        wavefunctions: list[Wavefunction],
        times: list[float],
        dts: list[float],
    ) -> tuple[list[Wavefunction], list[StepStatistics]]:
        """Lockstep RK4 steps for a stack of jobs.

        The four stage derivatives ``dPsi/dt = -i H(t, Psi) Psi`` are
        evaluated for the whole stack at once — stage densities, Hartree
        solves and ``H Psi`` transforms batched across jobs, every stage
        transformed to real space once for both its potential update and
        ``H Psi`` — with every job seeing its own stage times, step size and
        Hamiltonian state (the stage combinations apply per-job scalars
        broadcast over the job axis). Per job the result does not depend on
        the width of the stack.
        """
        njobs = len(propagators)
        basis = wavefunctions[0].basis
        hams = [p.hamiltonian for p in propagators]
        occs = [wf.occupations for wf in wavefunctions]
        c0 = np.stack([wf.coefficients for wf in wavefunctions])
        dt_col = np.asarray(dts, dtype=float)[:, None, None]
        if c0.dtype == np.complex64:  # float64 steps would promote the stages
            dt_col = dt_col.astype(np.float32)

        sc = [j for j in range(njobs) if propagators[j].self_consistent_stages]

        def derivative(stack: np.ndarray, stage_times: list[float]) -> np.ndarray:
            for j, ham in enumerate(hams):
                ham.set_time(stage_times[j])
            psi_r = basis.to_real_space(stack)
            if sc:
                update_potentials_many(
                    [hams[j] for j in sc],
                    [Wavefunction(basis, stack[j], occs[j]) for j in sc],
                    psi_real=psi_r if len(sc) == njobs else psi_r[sc],
                )
            return -1j * apply_many(hams, stack, psi_real=psi_r)

        # the first stage is evaluated on the state the previous step ended
        # on, whose transform (and potential) that step left behind
        for j, ham in enumerate(hams):
            ham.set_time(times[j])
        k1 = -1j * apply_many(
            hams, c0, psi_real=cls._start_of_step(propagators, wavefunctions, rows=sc)
        )
        k2 = derivative(c0 + 0.5 * dt_col * k1, [t + 0.5 * dt for t, dt in zip(times, dts)])
        k3 = derivative(c0 + 0.5 * dt_col * k2, [t + 0.5 * dt for t, dt in zip(times, dts)])
        k4 = derivative(c0 + dt_col * k3, [t + dt for t, dt in zip(times, dts)])

        c_new = c0 + (dt_col / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if c_new.dtype != c0.dtype:  # complex64 tier: dt_col is float64
            c_new = c_new.astype(c0.dtype)
        cls._require_finite(c_new, times)
        new_wfs = [Wavefunction(basis, c_new[j], occs[j]) for j in range(njobs)]

        for j, ham in enumerate(hams):
            ham.set_time(times[j] + dts[j])
        cls._end_of_step(propagators, new_wfs)
        return new_wfs, [cls._explicit_statistics(wf, 4) for wf in new_wfs]
