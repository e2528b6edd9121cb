"""The rt-TDDFT simulation driver.

Orchestrates propagation runs: :func:`run_batched` repeatedly advances a
group of jobs through their propagators' ``step_many``, records observables
(energy, dipole, electron number, SCF statistics) and returns one
:class:`Trajectory` per job that the examples and benchmarks consume;
:meth:`TDDFTSimulation.run` is the one-job call. This is the Python-level
counterpart of the outer time loop of the paper's runs (600 PT-CN steps of
50 as for the 30 fs silicon simulations).
"""

from __future__ import annotations

import copy
import json
from collections.abc import Callable
from dataclasses import dataclass, field
import time as _wallclock

import numpy as np

from ..pw.basis import Wavefunction
from ..pw.ground_state import _atomic_savez
from ..pw.hamiltonian import EnergyBreakdown, Hamiltonian
from ..pw.laser import sawtooth_position
from .observables import energy_drift
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
    so their length is ``n_steps + 1``.

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
    wall_time: float
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
    )

    def to_dict(self) -> dict:
        """A JSON-serializable summary of the recorded observables.

        Drops the final wavefunction and per-step statistics; use
        :meth:`save_npz` when the full state is needed.
        """
        out = {name: np.asarray(getattr(self, name)).tolist() for name in self._ARRAY_FIELDS}
        out["wall_time"] = float(self.wall_time)
        out["metadata"] = copy.deepcopy(self.metadata)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Trajectory":
        """Rebuild a trajectory from :meth:`to_dict` output.

        Only the recorded observables (and metadata) are restored; the final
        wavefunction and per-step statistics are not part of the dict form.
        """
        return cls(
            **{name: np.asarray(data[name]) for name in cls._ARRAY_FIELDS},
            wall_time=float(data.get("wall_time", 0.0)),
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
            "wall_time": np.float64(self.wall_time),
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
            kwargs = {name: data[name] for name in cls._ARRAY_FIELDS}
            wavefunction = None
            if basis is not None:
                wavefunction = Wavefunction(
                    basis, data["final_coefficients"], data["final_occupations"]
                )
            metadata = {}
            if "metadata_json" in data.files:  # archives predating metadata lack it
                metadata = json.loads(str(data["metadata_json"][()]))
            return cls(
                wall_time=float(data["wall_time"]),
                final_wavefunction=wavefunction,
                step_statistics=[],
                metadata=metadata,
                **kwargs,
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
    def run(
        self,
        initial_state: Wavefunction,
        time_step: float,
        n_steps: int,
        start_time: float = 0.0,
        callback=None,
        metadata: dict | None = None,
    ) -> Trajectory:
        """Propagate ``initial_state`` for ``n_steps`` steps of ``time_step``:
        :func:`run_batched` of this one job.

        Parameters
        ----------
        initial_state:
            Starting orbitals (not modified).
        time_step:
            Step size in atomic time units.
        n_steps:
            Number of steps.
        start_time:
            Initial simulation time.
        callback:
            Optional callable ``(step_index, time, wavefunction, stats)``
            invoked after every step (used by examples for progress output).
        metadata:
            Optional JSON-serializable provenance dict attached verbatim to
            the returned :class:`Trajectory`.
        """
        (trajectory,) = run_batched(
            [
                BatchedRun(
                    simulation=self,
                    initial_state=initial_state,
                    time_step=time_step,
                    n_steps=n_steps,
                    start_time=start_time,
                    metadata=metadata,
                    callback=callback,
                )
            ]
        )
        return trajectory


@dataclass
class BatchedRun:
    """One job of a lockstep propagation (see :func:`run_batched`).

    Mirrors the arguments of :meth:`TDDFTSimulation.run` (``callback`` is
    invoked after every step of this job); the simulation carries the job's
    own propagator and Hamiltonian (jobs of one group must not share mutable
    Hamiltonian state — use :meth:`~repro.pw.hamiltonian.Hamiltonian.clone`).
    """

    simulation: TDDFTSimulation
    initial_state: Wavefunction
    time_step: float
    n_steps: int
    start_time: float = 0.0
    metadata: dict | None = None
    callback: Callable | None = None


def _group_records(
    sims: list[TDDFTSimulation], wfs: list[Wavefunction]
) -> tuple[list[float], list[np.ndarray], list[float]]:
    """Per-job ``(energy, dipole, electron number)`` records for a stepped group.

    ``prepare()`` and every ``step_many`` leave each Hamiltonian holding the
    density, Hartree potential and xc energy of the state they return, so the
    records need no orbital transform, Poisson solve or xc pass of their own.
    The grid integrals run once over the stacked densities — only the
    GEMM-shaped terms (nonlocal, exact exchange) stay per job — and every
    stacked expression reduces each job's contiguous grid slice exactly as
    the per-job observables reduce the whole array, so a job's recorded
    floats do not depend on the width of its group.
    """
    n = len(sims)
    hams = [sim.hamiltonian for sim in sims]
    grid = hams[0].grid
    rho = np.stack([ham.density for ham in hams])
    electron_counts = np.real(grid.integrate(rho))
    electrons = [float(electron_counts[i]) for i in range(n)]

    dipoles: list[np.ndarray] = [np.full(3, np.nan) for _ in range(n)]
    d_rows = [i for i in range(n) if sims[i].record_dipole]
    if d_rows:
        sub = rho[d_rows] if len(d_rows) != n else rho
        components = []
        for direction in np.eye(3):
            position = sawtooth_position(grid, direction)
            components.append(np.real(grid.integrate(sub * position)))
        for k, i in enumerate(d_rows):
            dipoles[i] = np.array([float(c[k]) for c in components])

    energies: list[float] = [float("nan")] * n
    e_rows = [i for i in range(n) if sims[i].record_energy]
    if e_rows:
        sub = rho[e_rows] if len(e_rows) != n else rho
        v_hartree = np.stack([hams[i].v_hartree for i in e_rows])
        xc_energies = [hams[i]._xc_energy for i in e_rows]
        coeff = np.stack([wfs[i].coefficients for i in e_rows])
        occ = np.stack([wfs[i].occupations for i in e_rows])
        kin = np.stack([hams[i].kinetic_diagonal for i in e_rows])
        kinetic = np.real(
            np.sum(occ[:, :, None] * (np.abs(coeff) ** 2) * kin[:, None, :], axis=(-2, -1))
        )
        e_hartree = 0.5 * np.real(grid.integrate(sub * v_hartree))
        v_ionic = np.stack([hams[i].v_ionic for i in e_rows])
        e_external = np.real(grid.integrate(sub * v_ionic))
        v_laser = np.stack([hams[i]._v_external_t for i in e_rows])
        e_laser = np.real(grid.integrate(sub * v_laser))
        for k, i in enumerate(e_rows):
            ham = hams[i]
            wf = wfs[i]
            energies[i] = EnergyBreakdown(
                kinetic=float(kinetic[k]),
                external=float(e_external[k]),
                nonlocal_psp=ham.nonlocal_psp.energy(wf.coefficients, wf.occupations),
                hartree=float(e_hartree[k]),
                xc=float(xc_energies[k]),
                exact_exchange=ham.exchange.energy(wf) if ham.exchange is not None else 0.0,
                ewald=ham._ewald,
                laser=float(e_laser[k]),
            ).total
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
    other width. Per-job ``wall_time`` is the job's share of the lockstep
    wall clock (each iteration's elapsed time split evenly over the jobs
    stepped in it).
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
        run.simulation.propagator.prepare(wavefunction, run.start_time)
        wavefunctions.append(wavefunction)

    current_times = [run.start_time for run in runs]
    steps_done = [0] * njobs
    wall_times = [0.0] * njobs
    records: list[dict] = []
    statistics: list[list[StepStatistics]] = [[] for _ in runs]
    energies0, dipoles0, electrons0 = _group_records(
        [run.simulation for run in runs], wavefunctions
    )
    for j, run in enumerate(runs):
        records.append(
            {
                "times": [run.start_time],
                "energies": [energies0[j]],
                "dipoles": [dipoles0[j]],
                "electrons": [electrons0[j]],
                "scf_iters": [0],
                "h_apps": [0],
                "density_errors": [0.0],
            }
        )

    active = list(range(njobs))
    while active:
        iteration_start = _wallclock.perf_counter()
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
                if runs[j].callback is not None:
                    runs[j].callback(steps_done[j] - 1, current_times[j], wavefunctions[j], stats[idx])
        elapsed = _wallclock.perf_counter() - iteration_start
        share = elapsed / len(active)
        for j in active:
            wall_times[j] += share
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
                wall_time=wall_times[j],
                final_wavefunction=wavefunctions[j],
                step_statistics=statistics[j],
                metadata=copy.deepcopy(run.metadata) if run.metadata else {},
            )
        )
    return trajectories
