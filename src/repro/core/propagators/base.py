"""Common infrastructure for rt-TDDFT time propagators."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ...pw.basis import Wavefunction
from ...pw.hamiltonian import Hamiltonian, stack_coefficients, update_potentials_many

__all__ = ["StepStatistics", "Propagator", "DivergedStepError"]


class DivergedStepError(ArithmeticError):
    """A step left a job's orbitals non-finite (an unstable time step, a
    blown-up field or inner SCF). ``job`` is the job's row in the stack the
    step was given (:func:`~repro.core.dynamics.run_batched` re-raises it
    with the run's index), ``time`` the time the step started from."""

    def __init__(self, job: int, time: float):
        super().__init__(
            f"job {job} diverged in the step from t = {time:.6g} a.u.: its orbitals are not finite"
        )
        self.job = job
        self.time = time

    def __reduce__(self):  # crosses process-pool boundaries intact
        return type(self), (self.job, self.time)


@dataclass
class StepStatistics:
    """Diagnostics of one propagation step.

    Attributes
    ----------
    scf_iterations:
        Number of inner SCF iterations (0 for explicit schemes).
    hamiltonian_applications:
        Number of evaluations of the full ``H Psi`` performed in the step; for
        hybrid functionals every one of these contains a Fock exchange
        application, the dominant cost the paper is concerned with (Fig. 6's
        quantity). Inner iterations of hybrid PT-CN that reuse the exchange
        term of an earlier one are not counted here but in
        ``extra["frozen_exchange_iterations"]``.
    density_error:
        Final SCF density error (NaN for explicit schemes).
    converged:
        Whether the inner nonlinear iteration converged (always True for
        explicit schemes).
    orthogonality_error:
        Deviation of the output orbitals from orthonormality *before* the
        final re-orthogonalization.
    extra:
        Scheme-specific counts; not serialized with a trajectory.
    """

    scf_iterations: int = 0
    hamiltonian_applications: int = 0
    density_error: float = float("nan")
    converged: bool = True
    orthogonality_error: float = 0.0
    extra: dict = field(default_factory=dict)


class Propagator(ABC):
    """Base class for rt-TDDFT propagators.

    A propagator advances :class:`~repro.pw.basis.Wavefunction`\\ s by one time
    step under a (generally nonlinear, time-dependent) Hamiltonian. There is
    one engine per scheme: subclasses implement :meth:`step_many`, the
    lockstep step of a stack of independent jobs, and :meth:`step` is its
    width-1 call.

    Parameters
    ----------
    hamiltonian:
        The Kohn–Sham Hamiltonian; the propagator is responsible for keeping
        its potential consistent with the propagated orbitals according to the
        scheme's own rules.
    """

    #: human-readable name used in reports
    name: str = "propagator"
    #: whether the scheme is implicit (requires an inner SCF)
    implicit: bool = False
    #: the state this job's last ``step_many`` ended on, or :meth:`prepare`
    #: started it on: its coefficient block, the real-space transform of the
    #: stack it was transformed in with its row there, and the density built
    #: from it
    _lockstep_cache: dict | None = None

    def __init__(self, hamiltonian: Hamiltonian):
        self.hamiltonian = hamiltonian

    # ------------------------------------------------------------------
    def step(self, wavefunction: Wavefunction, time: float, dt: float) -> tuple[Wavefunction, StepStatistics]:
        """Advance ``wavefunction`` from ``time`` to ``time + dt``: the
        width-1 call of :meth:`step_many`.

        Returns the new wavefunction and the step diagnostics; the input
        wavefunction is not modified.
        """
        (new_wavefunction,), (statistics,) = self.step_many([self], [wavefunction], [time], [dt])
        return new_wavefunction, statistics

    @classmethod
    @abstractmethod
    def step_many(
        cls,
        propagators: "list[Propagator]",
        wavefunctions: list[Wavefunction],
        times: list[float],
        dts: list[float],
    ) -> tuple[list[Wavefunction], list[StepStatistics]]:
        """Advance several independent jobs by one step each, in lockstep.

        ``propagators[j]`` (all of class ``cls``, each owning its own
        Hamiltonian) advances ``wavefunctions[j]`` from ``times[j]`` by
        ``dts[j]``. The FFT-bound work runs stacked over a leading job axis
        (:mod:`repro.pw.hamiltonian`); per job the result — coefficients and
        statistics — must be exactly what the same job gets in a stack of any
        other width, so that batching is an execution detail, never a physics
        change. Implementations must not modify the input wavefunctions and
        must end through :meth:`_end_of_step`.
        """

    # ------------------------------------------------------------------
    @staticmethod
    def _start_of_step(
        propagators: "list[Propagator]",
        wavefunctions: list[Wavefunction],
        rows: list[int] | None = None,
    ) -> np.ndarray:
        """The real-space transform of a stack's starting states, with the
        Hamiltonians of jobs ``rows`` (default: all) holding the potential
        built from them.

        The previous ``step_many`` call of each job ended (or its
        :meth:`prepare` started it, :meth:`_end_of_step`) by transforming and
        potential-updating exactly these coefficient blocks, so when every
        job's kept block is its starting one (identity checks on the arrays —
        bit-exact) no transform is made: the stack the jobs ended in is
        reused, or their rows of the stacks they ended in are copied into one
        (a job that stepped alone, or in a stack that has since lost or gained
        members). The potential is rebuilt only for a job whose Hamiltonian
        no longer holds the density of that update.
        """
        njobs = len(propagators)
        rows = list(range(njobs)) if rows is None else rows
        kept = [p._lockstep_cache for p in propagators]
        hit = all(
            entry is not None and entry["coeffs"] is wf.coefficients
            for entry, wf in zip(kept, wavefunctions)
        )
        if not hit:
            psi_real = wavefunctions[0].basis.to_real_space(stack_coefficients(wavefunctions))
        elif kept[0]["psi"].shape[0] == njobs and all(
            entry["psi"] is kept[0]["psi"] and entry["row"] == j for j, entry in enumerate(kept)
        ):
            psi_real = kept[0]["psi"]
        else:
            psi_real = np.stack([entry["psi"][entry["row"]] for entry in kept])
        stale = [
            j for j in rows if not (hit and propagators[j].hamiltonian.density is kept[j]["density"])
        ]
        if stale:
            update_potentials_many(
                [propagators[j].hamiltonian for j in stale],
                [wavefunctions[j] for j in stale],
                psi_real=psi_real if len(stale) == njobs else psi_real[stale],
            )
        return psi_real

    @staticmethod
    def _end_of_step(propagators: "list[Propagator]", wavefunctions: list[Wavefunction]) -> None:
        """Leave every Hamiltonian consistent with its accepted end-of-step
        state (the records of :func:`~repro.core.dynamics.run_batched` read
        the density, Hartree potential and xc energy stored here), keeping the
        one transform that took for the next call's :meth:`_start_of_step`."""
        hams = [p.hamiltonian for p in propagators]
        psi_real = wavefunctions[0].basis.to_real_space(stack_coefficients(wavefunctions))
        update_potentials_many(hams, wavefunctions, psi_real=psi_real)
        for row, (propagator, wavefunction, ham) in enumerate(zip(propagators, wavefunctions, hams)):
            propagator._lockstep_cache = {
                "coeffs": wavefunction.coefficients,
                "psi": psi_real,
                "row": row,
                "density": ham.density,
            }

    @staticmethod
    def _require_finite(coefficients: np.ndarray, times: list[float]) -> None:
        """Raise :class:`DivergedStepError` for the first job of the stack
        ``coefficients`` ``(job, band, G)`` whose accepted state is not finite
        (the stack is only read)."""
        finite = np.isfinite(coefficients.reshape(len(times), -1)).all(axis=1)
        if not finite.all():
            job = int(np.argmin(finite))
            raise DivergedStepError(job, times[job])

    @staticmethod
    def _explicit_statistics(wavefunction: Wavefunction, applications: int) -> StepStatistics:
        """Diagnostics of an explicit step: no inner SCF, and the orbitals'
        loss of orthonormality measured on the returned state."""
        overlap = wavefunction.overlap()
        return StepStatistics(
            scf_iterations=0,
            hamiltonian_applications=applications,
            density_error=float("nan"),
            converged=True,
            orthogonality_error=float(np.max(np.abs(overlap - np.eye(wavefunction.nbands)))),
        )

    # ------------------------------------------------------------------
    def prepare(self, wavefunction: Wavefunction, time: float) -> None:
        """Hook called once before a propagation run starts.

        The default implementation synchronises the Hamiltonian potential and
        exchange orbitals with the initial state exactly as a step ending on
        it would (:meth:`_end_of_step`): one transform serves the density and
        the exchange orbitals, and is kept — in place of anything an earlier
        run left — so the run's first step (as a stack of one) starts on it
        without transforming or rebuilding again.
        """
        self.hamiltonian.set_time(time)
        self._end_of_step([self], [wavefunction])
