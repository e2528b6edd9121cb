"""The rt-TDDFT simulation driver.

Orchestrates propagation runs: :func:`run_batched` repeatedly advances a
group of jobs through their propagators' ``step_many``, records observables
(energy, dipole and electron number, each through its one stacked body, and
SCF statistics) and returns one :class:`Trajectory` per job that the examples
and benchmarks consume; :meth:`TDDFTSimulation.run` is the one-job call. This
is the Python-level counterpart of the outer time loop of the paper's runs
(600 PT-CN steps of 50 as for the 30 fs silicon simulations).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from ..pw.basis import Wavefunction
from ..pw.ground_state import _atomic_savez
from ..pw.hamiltonian import Hamiltonian, energies_many
from .observables import dipoles_many, electron_numbers_many, energy_drift
from .propagators.base import DivergedStepError, Propagator, StepStatistics

__all__ = ["Trajectory", "TDDFTSimulation", "BatchedRun", "run_batched", "json_default"]


def json_default(value):
    """``json.dumps`` default handler coercing numpy scalars/arrays to native
    types — configs and sweep axes are routinely built from ``np.arange`` /
    ``np.linspace``, and their values end up in trajectory metadata and batch
    checkpoint manifests."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass
class Trajectory:
    """Recorded history of an rt-TDDFT run.

    All arrays have one entry per recorded state, including the initial state,
    so their length is ``n_steps + 1``; ``converged`` is ``False`` for an
    implicit step that stopped at its iteration cap. A trajectory holds
    physics only, no clock, so two runs of one job archive the same bytes.

    ``metadata`` carries free-form, JSON-serializable provenance: the driver
    that produced the trajectory records what was run (propagator, step size,
    full config, package version) so that archived/checkpointed trajectories
    remain self-describing. It round-trips through :meth:`to_dict`,
    :meth:`save_npz` and :meth:`load_npz`.
    """

    times: np.ndarray
    energies: np.ndarray
    dipoles: np.ndarray
    electron_numbers: np.ndarray
    scf_iterations: np.ndarray
    hamiltonian_applications: np.ndarray
    density_errors: np.ndarray
    converged: np.ndarray
    final_wavefunction: Wavefunction | None
    step_statistics: list[StepStatistics] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def n_steps(self) -> int:
        """Number of propagation steps taken."""
        return len(self.times) - 1

    @property
    def energy_drift(self) -> float:
        """Maximum deviation of the total energy from its initial value (Ha)."""
        return energy_drift(self.energies)

    @property
    def total_hamiltonian_applications(self) -> int:
        """Total ``H Psi`` (and hence Fock exchange) evaluations of the run."""
        return int(np.sum(self.hamiltonian_applications))

    @property
    def unconverged_steps(self) -> int:
        """Steps whose inner iteration stopped at its cap unconverged."""
        return int(np.count_nonzero(~self.converged))

    @property
    def average_scf_iterations(self) -> float:
        """Mean inner SCF iterations per step (paper reports ~22 at 50 as)."""
        steps = self.scf_iterations[1:]
        return float(np.mean(steps)) if steps.size else 0.0

    def dipole_along(self, direction: np.ndarray) -> np.ndarray:
        """Project the dipole trajectory on a direction (normalised internally)."""
        direction = np.asarray(direction, dtype=float)
        norm = float(np.linalg.norm(direction))
        if norm < 1e-12:
            raise ValueError("direction must be a nonzero vector")
        direction = direction / norm
        return self.dipoles @ direction

    # ------------------------------------------------------------------
    # Serialization (for the analysis layer and batch workloads)
    # ------------------------------------------------------------------
    _ARRAY_FIELDS = (
        "times",
        "energies",
        "dipoles",
        "electron_numbers",
        "scf_iterations",
        "hamiltonian_applications",
        "density_errors",
        "converged",
    )

    @classmethod
    def _arrays(cls, data) -> dict:
        """The recorded arrays of a dict or an open npz. Older exports and
        archives have no ``converged`` (their steps were accepted as
        converged, and read so) and a wall time, which is not read."""
        arrays = {name: np.asarray(data[name]) for name in cls._ARRAY_FIELDS[:-1]}
        recorded = data["converged"] if "converged" in data else [True] * len(arrays["times"])
        arrays["converged"] = np.asarray(recorded)
        return arrays

    def to_dict(self) -> dict:
        """A JSON-serializable summary of the recorded observables.

        Drops the final wavefunction and per-step statistics; use
        :meth:`save_npz` when the full state is needed.
        """
        out = {name: np.asarray(getattr(self, name)).tolist() for name in self._ARRAY_FIELDS}
        out["metadata"] = copy.deepcopy(self.metadata)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Trajectory":
        """Rebuild a trajectory from :meth:`to_dict` output.

        Only the recorded observables (and metadata) are restored; the final
        wavefunction and per-step statistics are not part of the dict form.
        """
        return cls(
            **cls._arrays(data),
            final_wavefunction=None,
            step_statistics=[],
            metadata=copy.deepcopy(data.get("metadata", {})),
        )

    def save_npz(self, path) -> None:
        """Save observables and the final orbitals to a ``.npz`` archive.

        Per-step :class:`StepStatistics` are not serialized (they hold
        free-form diagnostics); everything else round-trips through
        :meth:`load_npz`.
        """
        _atomic_savez(path, **self._npz_arrays())

    def _npz_arrays(self) -> dict:
        """The arrays :meth:`save_npz` archives (and the store digests)."""
        if self.final_wavefunction is None:
            raise ValueError(
                "cannot save_npz: final_wavefunction is None "
                "(trajectory was loaded without a basis)"
            )
        return {
            "metadata_json": json.dumps(self.metadata, default=json_default),
            "final_coefficients": self.final_wavefunction.coefficients,
            "final_occupations": self.final_wavefunction.occupations,
            **{name: np.asarray(getattr(self, name)) for name in self._ARRAY_FIELDS},
        }

    @classmethod
    def load_npz(cls, path, basis=None) -> "Trajectory":
        """Load a trajectory saved by :meth:`save_npz`.

        Parameters
        ----------
        path:
            The ``.npz`` archive.
        basis:
            The :class:`~repro.pw.grid.PlaneWaveBasis` the final orbitals
            refer to; if ``None``, :attr:`final_wavefunction` is left as
            ``None`` and only the observable arrays are restored.
        """
        with np.load(path) as data:
            wavefunction = None
            if basis is not None:
                wavefunction = Wavefunction(
                    basis, data["final_coefficients"], data["final_occupations"]
                )
            metadata = {}
            if "metadata_json" in data.files:  # archives predating metadata lack it
                metadata = json.loads(str(data["metadata_json"][()]))
            return cls(
                **cls._arrays(data),
                final_wavefunction=wavefunction,
                step_statistics=[],
                metadata=metadata,
            )


class TDDFTSimulation:
    """Drive an rt-TDDFT propagation and record observables.

    Parameters
    ----------
    hamiltonian:
        The Kohn–Sham Hamiltonian shared with the propagator.
    propagator:
        Any :class:`~repro.core.propagators.base.Propagator`.
    record_energy:
        Whether to evaluate the total energy at every step (one extra Fock
        exchange application per step for hybrids — the paper counts this as
        one of its 24 applications per step). Disable for pure timing runs.
    record_dipole:
        Whether to record the dipole moment at every step.
    """

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        propagator: Propagator,
        record_energy: bool = True,
        record_dipole: bool = True,
    ):
        self.hamiltonian = hamiltonian
        self.propagator = propagator
        self.record_energy = bool(record_energy)
        self.record_dipole = bool(record_dipole)

    # ------------------------------------------------------------------
    def run(self, initial_state: Wavefunction, time_step: float, n_steps: int) -> Trajectory:
        """Propagate ``initial_state`` (not modified) from t = 0 for
        ``n_steps`` steps of ``time_step`` atomic time units:
        :func:`run_batched` of this one job."""
        (trajectory,) = run_batched(
            [BatchedRun(simulation=self, initial_state=initial_state, time_step=time_step, n_steps=n_steps)]
        )
        return trajectory


@dataclass
class BatchedRun:
    """One job of a lockstep propagation (see :func:`run_batched`).

    Mirrors the arguments of :meth:`TDDFTSimulation.run`, plus the
    provenance ``metadata`` the job's :class:`Trajectory` carries verbatim;
    the simulation carries the job's own propagator and Hamiltonian (jobs of
    one group must not share mutable Hamiltonian state — use
    :meth:`~repro.pw.hamiltonian.Hamiltonian.clone`). Every job starts at
    t = 0.
    """

    simulation: TDDFTSimulation
    initial_state: Wavefunction
    time_step: float
    n_steps: int
    metadata: dict | None = None


def _group_records(
    sims: list[TDDFTSimulation], wfs: list[Wavefunction]
) -> tuple[list[float], list[np.ndarray], list[float]]:
    """Per-job ``(energy, dipole, electron number)`` records for a stepped group.

    ``prepare()`` and every ``step_many`` leave each Hamiltonian holding the
    density, Hartree potential and xc energy of the state they return, so the
    records need no orbital transform, Poisson solve or xc pass of their own:
    they are the stacked observables (:func:`energies_many`,
    :func:`dipoles_many`, :func:`electron_numbers_many`) of those densities,
    over the jobs that record each one (NaN for the others).
    """
    hams = [sim.hamiltonian for sim in sims]
    grid = hams[0].grid
    rho = np.stack([ham.density for ham in hams])
    electrons = [float(n) for n in electron_numbers_many(grid, rho)]

    dipoles = [np.full(3, np.nan) for _ in sims]
    rows = [i for i, sim in enumerate(sims) if sim.record_dipole]
    if rows:
        for i, dipole in zip(rows, dipoles_many(grid, rho[rows])):
            dipoles[i] = dipole

    energies = [float("nan")] * len(sims)
    rows = [i for i, sim in enumerate(sims) if sim.record_energy]
    if rows:
        breakdowns = energies_many(
            [hams[i] for i in rows],
            [wfs[i] for i in rows],
            rho[rows],
            np.stack([hams[i].v_hartree for i in rows]),
            [hams[i]._xc_energy for i in rows],
        )
        for i, breakdown in zip(rows, breakdowns):
            energies[i] = breakdown.total
    return energies, dipoles, electrons


def run_batched(runs: list[BatchedRun]) -> list[Trajectory]:
    """Propagate one or more compatible jobs in lockstep: the propagation
    driver (:meth:`TDDFTSimulation.run` is its one-job call).

    All jobs must share one plane-wave basis (same grid, same structure —
    i.e. one ground-state group); time steps, step counts, propagators and
    laser fields may differ per job. Each lockstep iteration groups the
    still-running jobs by propagator class and advances every group through
    its ``step_many``, so the FFT-bound work of the whole stack runs as
    single batched transforms; jobs are peeled off the stack as they reach
    their own ``n_steps``.

    Returns one :class:`Trajectory` per run, in order — for ``complex128``
    jobs bit-identical to the trajectory the same job gets in a group of any
    other width.
    """
    if not runs:
        return []
    basis = runs[0].initial_state.basis
    for run in runs:
        if run.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if run.time_step <= 0:
            raise ValueError("time_step must be positive")
        if run.initial_state.basis is not basis and run.initial_state.basis.npw != basis.npw:
            raise ValueError("batched runs must share one plane-wave basis")

    njobs = len(runs)
    wavefunctions = []
    for run in runs:
        wavefunction = run.initial_state.copy()
        run.simulation.propagator.prepare(wavefunction, 0.0)
        wavefunctions.append(wavefunction)

    current_times = [0.0] * len(runs)
    steps_done = [0] * njobs
    records: list[dict] = []
    statistics: list[list[StepStatistics]] = [[] for _ in runs]
    energies0, dipoles0, electrons0 = _group_records(
        [run.simulation for run in runs], wavefunctions
    )
    for j, run in enumerate(runs):
        records.append(
            {
                "times": [0.0],
                "energies": [energies0[j]],
                "dipoles": [dipoles0[j]],
                "electrons": [electrons0[j]],
                "scf_iters": [0],
                "h_apps": [0],
                "density_errors": [0.0],
                "converged": [True],
            }
        )

    active = list(range(njobs))
    while active:
        # group the running jobs by propagator class: each class advances as
        # one stacked step_many call (CN shares PT-CN's batched kernel but is
        # a distinct class, hence a distinct stack)
        groups: dict[type, list[int]] = {}
        for j in active:
            groups.setdefault(type(runs[j].simulation.propagator), []).append(j)
        for propagator_cls, members in groups.items():
            try:
                new_wfs, stats = propagator_cls.step_many(
                    [runs[j].simulation.propagator for j in members],
                    [wavefunctions[j] for j in members],
                    [current_times[j] for j in members],
                    [runs[j].time_step for j in members],
                )
            except DivergedStepError as exc:  # name the run, not the stack row
                raise DivergedStepError(members[exc.job], exc.time) from None
            for idx, j in enumerate(members):
                wavefunctions[j] = new_wfs[idx]
                current_times[j] += runs[j].time_step
                steps_done[j] += 1
                statistics[j].append(stats[idx])
            step_energies, step_dipoles, step_electrons = _group_records(
                [runs[j].simulation for j in members],
                [wavefunctions[j] for j in members],
            )
            for idx, j in enumerate(members):
                record = records[j]
                record["times"].append(current_times[j])
                record["energies"].append(step_energies[idx])
                record["dipoles"].append(step_dipoles[idx])
                record["electrons"].append(step_electrons[idx])
                record["scf_iters"].append(stats[idx].scf_iterations)
                record["h_apps"].append(stats[idx].hamiltonian_applications)
                record["density_errors"].append(stats[idx].density_error)
                record["converged"].append(bool(stats[idx].converged))
        active = [j for j in active if steps_done[j] < runs[j].n_steps]

    trajectories = []
    for j, run in enumerate(runs):
        record = records[j]
        trajectories.append(
            Trajectory(
                times=np.asarray(record["times"]),
                energies=np.asarray(record["energies"]),
                dipoles=np.asarray(record["dipoles"]),
                electron_numbers=np.asarray(record["electrons"]),
                scf_iterations=np.asarray(record["scf_iters"]),
                hamiltonian_applications=np.asarray(record["h_apps"]),
                density_errors=np.asarray(record["density_errors"]),
                converged=np.asarray(record["converged"]),
                final_wavefunction=wavefunctions[j],
                step_statistics=statistics[j],
                metadata=copy.deepcopy(run.metadata) if run.metadata else {},
            )
        )
    return trajectories
