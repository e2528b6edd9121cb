"""Common infrastructure for rt-TDDFT time propagators."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ...pw.basis import Wavefunction
from ...pw.hamiltonian import Hamiltonian

__all__ = ["StepStatistics", "Propagator"]


@dataclass
class StepStatistics:
    """Diagnostics of one propagation step.

    Attributes
    ----------
    scf_iterations:
        Number of inner SCF iterations (0 for explicit schemes).
    hamiltonian_applications:
        Number of ``H Psi`` evaluations performed in the step; for hybrid
        functionals every one of these contains a Fock exchange application,
        the dominant cost the paper is concerned with.
    density_error:
        Final SCF density error (NaN for explicit schemes).
    converged:
        Whether the inner nonlinear iteration converged (always True for
        explicit schemes).
    orthogonality_error:
        Deviation of the output orbitals from orthonormality *before* the
        final re-orthogonalization.
    """

    scf_iterations: int = 0
    hamiltonian_applications: int = 0
    density_error: float = float("nan")
    converged: bool = True
    orthogonality_error: float = 0.0
    extra: dict = field(default_factory=dict)


class Propagator(ABC):
    """Base class for rt-TDDFT propagators.

    A propagator advances a :class:`~repro.pw.basis.Wavefunction` by one time
    step under a (generally nonlinear, time-dependent) Hamiltonian. Subclasses
    implement :meth:`step`.

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
    #: safety margin (Hartree) added to the kinetic cutoff when estimating the
    #: Hamiltonian spectral radius for the explicit stability bound — a crude
    #: stand-in for the (bounded) potential terms on top of the kinetic energy
    spectral_radius_margin: float = 10.0
    #: recommended step for implicit PT schemes in atomic time units
    #: (~48 attoseconds: accuracy limited, the paper's production step size)
    implicit_recommended_step: float = 2.0
    #: (coefficients, their real-space transform, the density built from it)
    #: of the state the last solo step ended on, and the same for the job
    #: stack of the last ``step_many`` (held by the stack's first propagator)
    _kept: tuple | None = None
    _lockstep_cache: dict | None = None

    def __init__(self, hamiltonian: Hamiltonian):
        self.hamiltonian = hamiltonian

    # ------------------------------------------------------------------
    def _finish_step(self, wavefunction: Wavefunction) -> None:
        """Leave the Hamiltonian consistent with the accepted end-of-step
        state, keeping the one transform that took for the next step."""
        psi_real = wavefunction.to_real_space()
        self.hamiltonian.update_potential(wavefunction, psi_real=psi_real)
        self._kept = (wavefunction.coefficients, psi_real, self.hamiltonian.density)

    def _kept_transform(self, wavefunction: Wavefunction) -> np.ndarray | None:
        """The real-space orbitals of ``wavefunction`` if the previous step
        ended on this very coefficient array *and* the Hamiltonian still holds
        the density built from it (identity checks, so bit-exact) — the
        potential is then consistent already; else ``None``."""
        kept = self._kept
        if kept is None or kept[0] is not wavefunction.coefficients:
            return None
        return kept[1] if kept[2] is self.hamiltonian.density else None

    # ------------------------------------------------------------------
    @abstractmethod
    def step(self, wavefunction: Wavefunction, time: float, dt: float) -> tuple[Wavefunction, StepStatistics]:
        """Advance ``wavefunction`` from ``time`` to ``time + dt``.

        Returns the new wavefunction and the step diagnostics. Implementations
        must not modify the input wavefunction in place.
        """

    # ------------------------------------------------------------------
    @classmethod
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
        ``dts[j]``. Implementations must return, for every job, exactly what
        ``propagators[j].step(...)`` alone would return — bit-identical
        coefficients and equal statistics — so that batched execution is an
        execution detail, never a physics change.

        This default simply loops :meth:`step`; schemes with a profitable
        batched form (PT-CN, RK4) override it with stacked FFT kernels.
        """
        new_wavefunctions: list[Wavefunction] = []
        statistics: list[StepStatistics] = []
        for propagator, wavefunction, time, dt in zip(propagators, wavefunctions, times, dts):
            new_wf, stats = propagator.step(wavefunction, time, dt)
            new_wavefunctions.append(new_wf)
            statistics.append(stats)
        return new_wavefunctions, statistics

    # ------------------------------------------------------------------
    def recommended_time_step(self) -> float:
        """A rough recommended time step in atomic units.

        Explicit schemes are limited by the spectral radius of the
        Hamiltonian (``dt <~ 2 / ||H||`` for stability), implicit PT schemes by
        accuracy only. The default uses the kinetic-energy cutoff plus
        :attr:`spectral_radius_margin` as a proxy for the spectral radius,
        matching the paper's observation that RK4 needs sub-attosecond steps
        at a 10 Ha cutoff while PT-CN can use ~50 as. Implicit schemes return
        :attr:`implicit_recommended_step`; subclasses (or configs) may
        override either class attribute.
        """
        spectral_radius = (
            float(np.max(self.hamiltonian.kinetic_diagonal)) + self.spectral_radius_margin
        )
        if self.implicit:
            return self.implicit_recommended_step
        return 2.0 / spectral_radius

    def prepare(self, wavefunction: Wavefunction, time: float) -> None:
        """Hook called once before a propagation run starts.

        The default implementation synchronises the Hamiltonian potential and
        exchange orbitals with the initial state, and drops the transforms
        kept from an earlier run.
        """
        self._kept = self._lockstep_cache = None
        self.hamiltonian.set_time(time)
        self.hamiltonian.update_potential(wavefunction)
