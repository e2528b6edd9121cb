"""Sweep results: the per-job record and the aggregated report.

:class:`JobResult` is the JSON-round-trippable outcome of one sweep job
(summary metrics plus the recorded trajectory observables);
:class:`SweepReport` aggregates them into the tables the paper's comparisons
are made of, one table per question: every job's cost
(:meth:`~SweepReport.to_table`), a summary metric over propagator x dt
(:meth:`~SweepReport.pivot`; the Fig. 6 grid is
``pivot("hamiltonian_applications")``), each run's error against the
smallest-step run comparable to it (:meth:`~SweepReport.accuracy_table`), the
per-rank execution accounting (:meth:`~SweepReport.execution_table`) and the
delta-kick spectra (:meth:`~SweepReport.spectrum_table`).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from ..analysis import format_table
from ..constants import HARTREE_TO_EV
from ..core.dynamics import Trajectory, json_default
from ..core.observables import AbsorptionSpectrum, absorption_spectrum

__all__ = ["JobResult", "SweepReport"]

#: statuses of jobs that produced a usable trajectory
_OK_STATUSES = ("completed", "cached")

#: the axes a comparison varies (with ``propagator.*``); runs that agree on
#: every other axis are comparable (:meth:`SweepReport._comparable`)
_VARIED_AXES = ("propagator", "run", "run.time_step_as", "run.n_steps")


def _series(trajectory: Trajectory) -> np.ndarray:
    """The energy and the dipole components, one row per recorded time."""
    return np.column_stack([np.asarray(trajectory.energies, dtype=float),
                            np.asarray(trajectory.dipoles, dtype=float)])


@dataclass
class JobResult:
    """Outcome of one sweep job.

    Attributes
    ----------
    index, job_id, point, config:
        Copied from the :class:`~repro.batch.sweep.SweepJob` (``config`` in
        dict form, so results stay JSON-serializable).
    status:
        ``"completed"`` (ran in this sweep), ``"cached"`` (loaded from a
        checkpoint) or ``"failed"``.
    summary:
        Scalar physics of the run (Fock applications, SCF statistics,
        unconverged steps, energy drift, final observables).
    trajectory:
        The recorded observables; ``None`` for failed jobs. Loaded/worker
        results carry observables only (no final wavefunction).
    error:
        ``"ExcType: message"`` for failed jobs, else ``None``.
    config_hash:
        The job's carried :attr:`~repro.batch.sweep.SweepJob.config_hash` —
        the key :meth:`repro.store.ResultStore.save` files the result under.
        Not part of :meth:`to_dict` (the ``job_id`` embeds it), so ``None``
        on results rebuilt from dicts, which are never saved.
    """

    index: int
    job_id: str
    point: dict
    config: dict
    status: str
    summary: dict = field(default_factory=dict)
    trajectory: Trajectory | None = None
    error: str | None = None
    config_hash: str | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_trajectory(cls, job, trajectory: Trajectory, status: str = "completed") -> "JobResult":
        """Build a successful result from a finished trajectory."""
        summary = {
            "propagator": job.config.propagator.name,
            "integrator": trajectory.metadata.get("integrator", job.config.propagator.name),
            "time_step_as": float(job.config.run.time_step_as),
            "n_steps": int(trajectory.n_steps),
            "hamiltonian_applications": trajectory.total_hamiltonian_applications,
            "average_scf_iterations": trajectory.average_scf_iterations,
            "unconverged_steps": trajectory.unconverged_steps,
            "energy_drift": trajectory.energy_drift,
            "final_energy": float(trajectory.energies[-1]),
            "final_electron_number": float(trajectory.electron_numbers[-1]),
            "final_dipole": [float(x) for x in trajectory.dipoles[-1]],
        }
        # stamped only off the default tier, so complex128 summaries (and the
        # golden exports built from them) are byte-identical to before
        precision = trajectory.metadata.get("precision")
        if precision is not None:
            summary["precision"] = str(precision)
        # asset-driven jobs carry id -> content digest provenance (absent for
        # registry-only configs, keeping their summaries byte-identical)
        assets = trajectory.metadata.get("assets")
        if assets:
            summary["assets"] = dict(assets)
        return cls(
            index=job.index,
            job_id=job.job_id,
            point=copy.deepcopy(job.point),
            config=job.config.to_dict(),
            status=status,
            summary=summary,
            trajectory=trajectory,
            config_hash=job.config_hash,
        )

    @classmethod
    def from_failure(cls, job, exc: BaseException) -> "JobResult":
        """Build a failed result recording the exception."""
        return cls(
            index=job.index,
            job_id=job.job_id,
            point=copy.deepcopy(job.point),
            config=job.config.to_dict(),
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
        )

    @property
    def ok(self) -> bool:
        """Whether the job produced a usable trajectory."""
        return self.status in _OK_STATUSES

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serializable form (trajectory reduced to its observables)."""
        return {
            "index": self.index,
            "job_id": self.job_id,
            "point": copy.deepcopy(self.point),
            "config": copy.deepcopy(self.config),
            "status": self.status,
            "summary": copy.deepcopy(self.summary),
            "trajectory": self.trajectory.to_dict() if self.trajectory is not None else None,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobResult":
        """Inverse of :meth:`to_dict`."""
        trajectory = data.get("trajectory")
        return cls(
            index=int(data["index"]),
            job_id=str(data["job_id"]),
            point=copy.deepcopy(data.get("point", {})),
            config=copy.deepcopy(data.get("config", {})),
            status=str(data["status"]),
            summary=copy.deepcopy(data.get("summary", {})),
            trajectory=Trajectory.from_dict(trajectory) if trajectory is not None else None,
            error=data.get("error"),
        )


class SweepReport:
    """Aggregated results of one sweep, in job order.

    Parameters
    ----------
    results:
        The :class:`JobResult` list (any order; sorted by job index).
    axes:
        The sweep's axis paths, used as the leading table columns.
    execution:
        Every execution fact, none of which is in :meth:`to_dict`: the
        backend's group ledger and placement summary
        (:meth:`repro.exec.SerialBackend.execution_summary`), ``"settings"``,
        ``"n_cached"`` and, per job id under ``"jobs"``, its status and its
        share of its group's ``observed_seconds`` (the tables' wall column).
    """

    def __init__(
        self,
        results: list[JobResult],
        axes: list[str] | None = None,
        execution: dict | None = None,
    ):
        self.results = sorted(results, key=lambda r: r.index)
        self.axes = list(axes or [])
        self.execution = dict(execution or {})

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def completed(self) -> list[JobResult]:
        """Jobs with a usable trajectory (freshly run or checkpoint-loaded)."""
        return [r for r in self.results if r.ok]

    @property
    def cached(self) -> list[JobResult]:
        """Jobs served from a store/checkpoint instead of recomputed."""
        return [r for r in self.results if r.status == "cached"]

    @property
    def n_cached(self) -> int:
        """How many jobs were store hits (the incremental-campaign metric)."""
        return len(self.cached)

    @property
    def failed(self) -> list[JobResult]:
        """Jobs that raised."""
        return [r for r in self.results if r.status == "failed"]

    @property
    def n_unconverged_steps(self) -> int:
        """Implicit steps, over every job, that stopped unconverged at their
        iteration cap."""
        return sum(r.trajectory.unconverged_steps for r in self.completed if r.trajectory is not None)

    @property
    def settings(self) -> dict | None:
        """The settings record in :attr:`execution` (``None`` if absent)."""
        return self.execution.get("settings")

    def _job_record(self, result: JobResult) -> dict:
        return self.execution.get("jobs", {}).get(result.job_id, {})

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The physics export of the sweep, JSON-serializable: bit-identical
        across backends, settings, reruns and cold/warm stores. A served job
        exports as ``"completed"`` (its :attr:`JobResult.status` stays
        ``"cached"`` in memory); execution facts are in :attr:`execution`.
        """
        jobs = [r.to_dict() for r in self.results]
        for job in jobs:
            if job["status"] == "cached":
                job["status"] = "completed"
        return {
            "axes": list(self.axes),
            "n_jobs": len(self.results),
            "n_completed": len(self.completed),
            "n_failed": len(self.failed),
            "n_unconverged_steps": self.n_unconverged_steps,
            "jobs": jobs,
        }

    def to_json(self, exclude_timings: bool = False) -> str:
        """JSON text of :meth:`to_dict` (numpy axis values coerced), indented
        by two spaces: the physics export, without :attr:`execution`."""
        # ``exclude_timings`` has no effect (the export holds no clock); it is
        # accepted because benchmarks/layers/workloads.py still passes it
        return json.dumps(self.to_dict(), indent=2, default=json_default)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepReport":
        """Rebuild a report from its :meth:`to_dict` / :meth:`to_json` form.

        Restores the per-job results (trajectories included when exported),
        the axes, and — when present — the execution section, whose per-job
        records mark the jobs a store served (``"cached"`` again), so
        ``{**r.to_dict(), "execution": r.execution}`` round-trips.
        """
        if not isinstance(data, dict):
            raise ValueError(f"report data must be a dict, got {type(data).__name__}")
        try:
            jobs = data["jobs"]
        except KeyError:
            raise ValueError(
                "report data carries no 'jobs' key; expected the export of "
                "SweepReport.to_dict()/to_json()"
            ) from None
        report = cls([JobResult.from_dict(job) for job in jobs], axes=data.get("axes"),
                     execution=data.get("execution"))
        for result in report.results:
            result.status = report._job_record(result).get("status", result.status)
        return report

    # ------------------------------------------------------------------
    # Execution placement / communication accounting
    # ------------------------------------------------------------------
    def execution_table(self) -> str:
        """Per-rank placement, traffic, wall time and energy of the backend.

        The sweep-level analogue of the paper's Fig. 7/8 scaling tables. For
        the distributed backend each row is one simulated rank: its node, the
        modeled link to the root rank, its groups and jobs, its predicted
        makespan share (seconds on the modeled machine slice, from
        :class:`repro.cost.MachineCostModel`), the wall time its jobs actually
        took in-process, its dispatch/result bytes with their predicted
        transfer seconds, and the predicted energy of its node-seconds. The
        footer reduces the table to the sweep's scaling-curve point
        (:func:`repro.cost.sweep_execution_point`). Other backends produce a
        one-line summary.
        """
        info = self.execution
        if not info:
            return "(no execution summary recorded)"
        from ..cost.model import _rank_records, sweep_execution_point  # deferred: keeps report import light

        line = f"backend={info.get('backend', '?')} schedule={info.get('schedule', '?')}"
        per_rank = _rank_records(info)
        if not per_rank:
            line += f" groups={info.get('n_groups', '?')} jobs={info.get('n_jobs', '?')}"
            if info.get("used_fallback"):
                line += " (fell back to serial)"
            return line
        headers = [
            "rank", "node", "link", "groups", "jobs", "predicted [s]", "observed [s]",
            "dispatch [B]", "result [B]", "comm [s]", "energy [J]",
        ]
        rows = [
            [
                stats.get("rank", "-"),
                stats.get("node", "-"),
                stats.get("link", "-"),
                stats.get("groups", 0),
                stats.get("jobs", 0),
                stats.get("predicted_seconds", 0.0),
                stats.get("observed_seconds", 0.0),
                stats.get("dispatch_bytes", 0),
                stats.get("result_bytes", 0),
                stats.get("comm_seconds", 0.0),
                stats.get("predicted_energy_j", 0.0),
            ]
            for stats in per_rank
        ]
        point = sweep_execution_point(info)
        footer = (
            f"{line} ranks={point['ranks']} "
            f"predicted makespan = {point['predicted_makespan_s']:.3g} s "
            f"(observed {point['observed_makespan_s']:.3g} s), "
            f"predicted energy = {point['predicted_energy_j']:.3g} J, "
            f"sweep traffic = {point['comm_bytes']} B in {point['comm_seconds']:.3g} s"
        )
        return f"{format_table(headers, rows)}\n{footer}"

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    @staticmethod
    def _point_values(result: JobResult, axes: list[str]) -> list[str]:
        """``result``'s value on each of ``axes``, as table cells."""
        values = []
        for axis in axes:
            value = result.point.get(axis, "-")
            if isinstance(value, dict):
                value = ",".join(f"{k}={v}" for k, v in value.items())
            values.append(str(value))
        return values

    def _comparable(self) -> tuple[list[str], dict[tuple, list[JobResult]]]:
        """The completed runs in groups of mutually comparable ones.

        Two runs are comparable when they agree on every sweep axis except
        the propagator axes (``propagator``, ``propagator.*``) and the step
        axes (``run``, ``run.time_step_as``, ``run.n_steps``): a Fig. 6 grid
        or a dt-vs-accuracy comparison varies those and holds the rest — a
        cutoff, a system size, a pulse — fixed. Returns ``(fixed_axes,
        {values on fixed_axes: runs})``, groups and runs in job order.
        """
        fixed = [
            axis for axis in self.axes
            if axis not in _VARIED_AXES and not axis.startswith("propagator.")
        ]
        groups: dict[tuple, list[JobResult]] = {}
        for r in self.completed:
            groups.setdefault(tuple(self._point_values(r, fixed)), []).append(r)
        return fixed, groups

    def to_table(self) -> str:
        """One row per job: axis values, status and the core cost metrics."""
        headers = (
            ["job"]
            + self.axes
            + ["status", "steps", "dt [as]", "Fock applies", "avg SCF/step", "unconverged",
               "energy drift [Ha]", "wall [s]"]
        )
        rows = []
        for r in self.results:
            s = r.summary
            rows.append(
                [r.job_id]
                + self._point_values(r, self.axes)
                + [
                    r.status if r.error is None else f"{r.status}: {r.error}",
                    s.get("n_steps", "-"),
                    s.get("time_step_as", "-"),
                    s.get("hamiltonian_applications", "-"),
                    s.get("average_scf_iterations", "-"),
                    s.get("unconverged_steps", "-"),
                    s.get("energy_drift", "-"),
                    self._job_record(r).get("observed_seconds", "-"),
                ]
            )
        return format_table(headers, rows)

    def pivot(self, value: str) -> str:
        """A summary metric over propagator x time step, completed jobs only.

        ``value`` addresses a :attr:`JobResult.summary` key, e.g.
        ``pivot("hamiltonian_applications")`` for the Fig. 6 Fock-cost grid.
        A row is one propagator at one value of every other sweep axis
        (:meth:`_comparable`), a column one time step; a missing run shows
        ``-``. Two jobs that would share a cell raise :class:`ValueError`
        naming both.
        """
        fixed, groups = self._comparable()
        time_steps: list = []
        cells: dict[tuple, dict] = {}
        for values, runs in groups.items():
            for r in runs:
                dt = r.summary["time_step_as"]
                if dt not in time_steps:
                    time_steps.append(dt)
                row = cells.setdefault((r.summary["propagator"], *values), {})
                if dt in row:
                    raise ValueError(
                        f"jobs {row[dt].job_id} and {r.job_id} both land in the pivot cell "
                        f"propagator={r.summary['propagator']}, dt={dt} as; sweep the "
                        "parameter that tells them apart on its own axis"
                    )
                row[dt] = r
        headers = ["propagator", *fixed] + [f"dt={dt:.3g} as" for dt in time_steps]
        rows = [
            [*key] + [row[dt].summary.get(value, "-") if dt in row else "-" for dt in time_steps]
            for key, row in cells.items()
        ]
        return format_table(headers, rows)

    # ------------------------------------------------------------------
    # Accuracy vs the smallest-step comparable run
    # ------------------------------------------------------------------
    def accuracy_errors(self) -> dict[str, dict]:
        """Max |energy| and |dipole| deviation of every completed job from
        its reference, the smallest-dt run among the runs comparable to it
        (:meth:`_comparable`), on the overlapping time window (the reference
        series is linearly interpolated onto each job's time grid).

        Returns ``{job_id: {"reference": job_id, "energy_error": float,
        "dipole_error": float}}``.
        """
        _, groups = self._comparable()
        if not groups:
            raise ValueError("no completed jobs to compare")
        errors: dict[str, dict] = {}
        for runs in groups.values():
            reference = min(runs, key=lambda r: (r.summary["time_step_as"], r.index))
            t_ref = np.asarray(reference.trajectory.times, dtype=float)
            ref_series = _series(reference.trajectory)
            for r in runs:
                t = np.asarray(r.trajectory.times, dtype=float)
                t = t[t <= t_ref[-1] + 1e-12]
                on_t = np.column_stack([np.interp(t, t_ref, column) for column in ref_series.T])
                deviation = np.abs(_series(r.trajectory)[: len(t)] - on_t)
                errors[r.job_id] = {
                    "reference": reference.job_id,
                    "energy_error": float(np.max(deviation[:, 0])),
                    "dipole_error": float(np.max(deviation[:, 1:])),
                }
        return errors

    def accuracy_table(self) -> str:
        """The dt-vs-accuracy table: each run's deviation from its reference
        (:meth:`accuracy_errors`), next to the values of the axes that
        reference holds fixed; reference rows are marked."""
        fixed, _ = self._comparable()
        errors = self.accuracy_errors()
        headers = ["integrator", *fixed, "dt [as]", "steps", "max |dE| [Ha]", "max |dD| [a.u.]", "note"]
        rows = [
            [r.summary.get("integrator", r.summary.get("propagator", "?"))]
            + self._point_values(r, fixed)
            + [
                r.summary.get("time_step_as", "-"),
                r.summary.get("n_steps", "-"),
                errors[r.job_id]["energy_error"],
                errors[r.job_id]["dipole_error"],
                "(reference)" if errors[r.job_id]["reference"] == r.job_id else "",
            ]
            for r in self.completed
        ]
        return format_table(headers, rows)

    # ------------------------------------------------------------------
    # Absorption spectra (delta-kick sweeps)
    # ------------------------------------------------------------------
    def _delta_kick_results(self) -> list[tuple[JobResult, dict]]:
        """Completed jobs whose configured pulse resolves to a delta kick."""
        from ..api.registry import PULSES, UnknownNameError  # deferred: avoids a batch -> api import cycle
        from ..pw.laser import DeltaKick

        kicked: list[tuple[JobResult, dict]] = []
        for r in self.completed:
            if r.trajectory is None:
                continue
            laser = (r.config or {}).get("laser", {})
            try:
                factory = PULSES.get(laser.get("pulse", "none"))
            except UnknownNameError:  # a pulse this process does not register: not a kick
                continue
            if factory is DeltaKick:
                kicked.append((r, dict(laser.get("params", {}))))
        return kicked

    def spectra(
        self,
        damping: float = 0.01,
        max_energy: float = 1.5,
    ) -> dict[str, AbsorptionSpectrum]:
        """Absorption spectra of every completed delta-kick job.

        Each job's recorded dipole (projected on its kick polarization) is
        Fourier transformed by
        :func:`repro.core.observables.absorption_spectrum`, normalised by its
        configured kick strength. Returns ``{job_id: AbsorptionSpectrum}``;
        jobs whose pulse is not a delta kick are skipped, so a mixed sweep
        yields spectra for exactly its kicked runs.
        """
        spectra: dict[str, AbsorptionSpectrum] = {}
        for r, params in self._delta_kick_results():
            trajectory = r.trajectory
            polarization = params.get("polarization")
            if polarization is None:
                polarization = [0.0, 0.0, 1.0]  # the DeltaKick default
            dipole = trajectory.dipole_along(polarization)
            spectra[r.job_id] = absorption_spectrum(
                np.asarray(trajectory.times, dtype=float),
                dipole,
                kick_strength=float(params.get("strength", 1.0)),
                damping=damping,
                max_energy=max_energy,
            )
        return spectra

    def spectrum_table(
        self,
        damping: float = 0.01,
        max_energy: float = 1.5,
    ) -> str:
        """The absorption-spectrum sweep view: one row per delta-kick run.

        Aggregates the per-job spectra of :meth:`spectra` across the sweep
        axes (e.g. supercell sizes), reporting each run's strongest feature —
        the peak position in eV and its dipole strength — next to the axis
        values that produced it. Raises with an actionable message when the
        sweep contains no completed delta-kick runs.
        """
        spectra = self.spectra(damping=damping, max_energy=max_energy)
        if not spectra:
            raise ValueError(
                "no completed delta-kick jobs to build spectra from; sweep a config "
                "with laser.pulse='delta_kick' (and laser.params.strength) to use "
                "the absorption-spectrum view"
            )
        headers = ["job"] + self.axes + ["samples", "peak [eV]", "peak strength [arb]"]
        rows = []
        for r in self.completed:
            spectrum = spectra.get(r.job_id)
            if spectrum is None:
                continue
            peak = int(np.argmax(np.abs(spectrum.strength)))
            rows.append(
                [r.job_id]
                + self._point_values(r, self.axes)
                + [
                    int(r.trajectory.n_steps) + 1,
                    float(spectrum.frequencies[peak]) * HARTREE_TO_EV,
                    float(spectrum.strength[peak]),
                ]
            )
        return format_table(headers, rows)
