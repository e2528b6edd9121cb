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
from ...pw.hamiltonian import Hamiltonian
from ..batching import apply_many, update_potentials_many
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

    # ------------------------------------------------------------------
    def _time_derivative(self, coefficients, occupations, time: float, psi_real=None) -> np.ndarray:
        """``dPsi/dt = -i H(t, Psi) Psi`` for a coefficient block, transformed
        to real space once for the potential update and ``H Psi``; a handed-in
        ``psi_real`` belongs to a state the Hamiltonian is consistent with."""
        ham = self.hamiltonian
        ham.set_time(time)
        if psi_real is None:
            psi_real = ham.basis.to_real_space(coefficients)
            if self.self_consistent_stages:
                stage_wf = Wavefunction(ham.basis, coefficients, occupations)
                ham.update_potential(stage_wf, psi_real=psi_real)
        return -1j * ham.apply(coefficients, psi_real=psi_real)

    def step(self, wavefunction: Wavefunction, time: float, dt: float) -> tuple[Wavefunction, StepStatistics]:
        """One RK4 step of size ``dt`` starting at ``time``."""
        c0 = wavefunction.coefficients
        occ = wavefunction.occupations

        k1 = self._time_derivative(c0, occ, time, psi_real=self._kept_transform(wavefunction))
        k2 = self._time_derivative(c0 + 0.5 * dt * k1, occ, time + 0.5 * dt)
        k3 = self._time_derivative(c0 + 0.5 * dt * k2, occ, time + 0.5 * dt)
        k4 = self._time_derivative(c0 + dt * k3, occ, time + dt)

        c_new = c0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        new_wf = Wavefunction(wavefunction.basis, c_new, occ)

        self.hamiltonian.set_time(time + dt)
        self._finish_step(new_wf)

        overlap = new_wf.overlap()
        ortho_err = float(np.max(np.abs(overlap - np.eye(new_wf.nbands))))
        stats = StepStatistics(
            scf_iterations=0,
            hamiltonian_applications=4,
            density_error=float("nan"),
            converged=True,
            orthogonality_error=ortho_err,
        )
        return new_wf, stats

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

        The four stage derivatives are evaluated for the whole stack at once
        — stage densities, Hartree solves and ``H Psi`` transforms batched
        across jobs — with every job seeing its own stage times, step size
        and Hamiltonian state. Per job the result is bit-identical to the
        solo :meth:`step` (the stage combinations replicate its expressions
        slice-wise with per-job scalars broadcast over a job axis).
        """
        njobs = len(propagators)
        basis = wavefunctions[0].basis
        hams = [p.hamiltonian for p in propagators]
        occs = [wf.occupations for wf in wavefunctions]
        occ_stack = np.stack(occs)
        c0 = np.stack([wf.coefficients for wf in wavefunctions])
        dt_col = np.asarray(dts, dtype=float)[:, None, None]
        if c0.dtype == np.complex64:  # float64 steps would promote the stages
            dt_col = dt_col.astype(np.float32)

        sc = [j for j in range(njobs) if propagators[j].self_consistent_stages]

        def derivative(
            stack: np.ndarray,
            stage_times: list[float],
            psi: np.ndarray | None = None,
            skip_update: bool = False,
        ) -> np.ndarray:
            for j, ham in enumerate(hams):
                ham.set_time(stage_times[j])
            # one transform feeds both the stage densities and H psi — the
            # solo path transforms the same coefficients twice (once inside
            # compute_density, once inside apply); the bits are identical
            psi_r = stack_real = basis.to_real_space(stack) if psi is None else psi
            if sc and not skip_update:
                if len(sc) != njobs:
                    stack_real = psi_r[sc]
                update_potentials_many(
                    [hams[j] for j in sc],
                    [Wavefunction(basis, stack[j], occs[j]) for j in sc],
                    psi_real=stack_real,
                )
            return -1j * apply_many(hams, stack, psi_real=psi_r)

        # Cross-step cache: the previous step_many call ended by transforming
        # and potential-updating exactly these coefficient blocks (its
        # end-of-step consistency update), so the first stage can reuse that
        # transform — and skip the potential rebuild outright when every
        # Hamiltonian still holds the density of that update. Identity checks
        # on the arrays keep this bit-exact (same objects, same functions).
        cache = propagators[0]._lockstep_cache
        if (
            cache is not None
            and len(cache["coeffs"]) == njobs
            and all(cache["coeffs"][j] is wavefunctions[j].coefficients for j in range(njobs))
        ):
            fresh = all(hams[j].density is cache["densities"][j] for j in sc)
            k1 = derivative(c0, list(times), psi=cache["psi"], skip_update=fresh)
        else:
            k1 = derivative(c0, list(times))
        k2 = derivative(c0 + 0.5 * dt_col * k1, [t + 0.5 * dt for t, dt in zip(times, dts)])
        k3 = derivative(c0 + 0.5 * dt_col * k2, [t + 0.5 * dt for t, dt in zip(times, dts)])
        k4 = derivative(c0 + dt_col * k3, [t + dt for t, dt in zip(times, dts)])

        c_new = c0 + (dt_col / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if c_new.dtype != c0.dtype:  # complex64 tier: dt_col is float64
            c_new = c_new.astype(c0.dtype)
        new_wfs = [Wavefunction(basis, c_new[j], occs[j]) for j in range(njobs)]

        # leave every Hamiltonian consistent with its end-of-step state; the
        # transform is kept so the next lockstep call's first stage can skip it
        for j, ham in enumerate(hams):
            ham.set_time(times[j] + dts[j])
        psi_new = basis.to_real_space(c_new)
        update_potentials_many(hams, new_wfs, psi_real=psi_new)
        propagators[0]._lockstep_cache = {
            "coeffs": [wf.coefficients for wf in new_wfs],
            "psi": psi_new,
            "densities": [ham.density for ham in hams],
        }

        statistics = []
        for j in range(njobs):
            overlap = new_wfs[j].overlap()
            ortho_err = float(np.max(np.abs(overlap - np.eye(new_wfs[j].nbands))))
            statistics.append(
                StepStatistics(
                    scf_iterations=0,
                    hamiltonian_applications=4,
                    density_error=float("nan"),
                    converged=True,
                    orthogonality_error=ortho_err,
                )
            )
        return new_wfs, statistics
