"""Sweep results: the per-job record and the aggregated report.

:class:`JobResult` is the JSON-round-trippable outcome of one sweep job
(summary metrics plus the recorded trajectory observables);
:class:`SweepReport` aggregates them into the tables the paper's comparisons
are made of — a flat per-job table, a propagator-x-dt pivot, the Fig. 6-style
cost comparison, and a dt-vs-accuracy table against a reference job.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from ..analysis import format_table, pivot_table
from ..constants import HARTREE_TO_EV
from ..core.dynamics import Trajectory, json_default
from ..core.observables import AbsorptionSpectrum, absorption_spectrum

__all__ = ["JobResult", "SweepReport"]

#: statuses of jobs that produced a usable trajectory
_OK_STATUSES = ("completed", "cached")


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
        Scalar metrics of the run (Fock applications, SCF statistics, energy
        drift, final observables, wall time).
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
            "energy_drift": trajectory.energy_drift,
            "wall_time": trajectory.wall_time,
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
        The executing backend's placement/communication summary (see
        :meth:`repro.exec.ExecutionBackend.execution_summary`). Rendered by
        :meth:`execution_table`; **not** part of :meth:`to_dict`, so the
        physics export of a sweep is identical across backends.
    settings:
        The :meth:`repro.exec.ExecutionSettings.as_dict` record the sweep ran
        under (machine preset, schedule policy, backend, ranks). Exported by
        :meth:`to_dict` so a report on disk says how it was produced —
        *except* under ``exclude_timings``, which stays pure deterministic
        physics (bit-identical across backends and settings).
    """

    def __init__(
        self,
        results: list[JobResult],
        axes: list[str] | None = None,
        execution: dict | None = None,
        settings: dict | None = None,
    ):
        self.results = sorted(results, key=lambda r: r.index)
        self.axes = list(axes or [])
        self.execution = dict(execution or {})
        self.settings = dict(settings) if settings is not None else None

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

    def result_for(self, job_id: str) -> JobResult:
        """The result with the given ``job_id``."""
        for result in self.results:
            if result.job_id == job_id:
                return result
        known = [r.job_id for r in self.results]
        raise KeyError(f"unknown job_id {job_id!r}; known ids: {known}")

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self, exclude_timings: bool = False) -> dict:
        """A JSON-serializable summary of the whole sweep.

        With ``exclude_timings`` the measured wall-clock times are zeroed out
        and cache provenance is normalised (``"cached"`` reads as
        ``"completed"`` — whether a job was recomputed or served by a store
        is execution history, not physics), leaving only deterministic
        physics: that export is bit-identical across execution backends,
        across reruns, and across cold/warm stores, which is how the
        backend-equivalence and incremental-campaign tests compare runs.
        """
        jobs = [r.to_dict() for r in self.results]
        if exclude_timings:
            for job in jobs:
                if job.get("status") == "cached":
                    job["status"] = "completed"
                if isinstance(job.get("summary"), dict):
                    job["summary"].pop("wall_time", None)
                trajectory = job.get("trajectory")
                if isinstance(trajectory, dict):
                    trajectory.pop("wall_time", None)
        data = {
            "axes": list(self.axes),
            "n_jobs": len(self.results),
            "n_completed": len(self.completed),
            "n_failed": len(self.failed),
            "jobs": jobs,
        }
        if not exclude_timings:
            # cached-vs-computed provenance rides with the full export only;
            # the deterministic physics export must not depend on the store
            data["n_cached"] = self.n_cached
        if self.settings is not None and not exclude_timings:
            # how the sweep was produced (machine preset, schedule, backend);
            # left out of the deterministic physics export, which must stay
            # bit-identical across backends and settings
            data["settings"] = copy.deepcopy(self.settings)
        return data

    def to_json(
        self,
        indent: int | None = 2,
        include_execution: bool = False,
        exclude_timings: bool = False,
    ) -> str:
        """JSON text of :meth:`to_dict` (numpy axis values coerced).

        The default export contains the physics only; with ``exclude_timings``
        it is bit-identical across execution backends.
        ``include_execution=True`` appends the backend's placement /
        communication summary under an ``"execution"`` key.
        """
        data = self.to_dict(exclude_timings=exclude_timings)
        if include_execution:
            data["execution"] = copy.deepcopy(self.execution)
        return json.dumps(data, indent=indent, default=json_default)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepReport":
        """Rebuild a report from its :meth:`to_dict` / :meth:`to_json` form.

        Restores the per-job results (trajectories included when exported),
        the axes, and — when present — the execution summary and the
        :class:`~repro.exec.ExecutionSettings` record the sweep ran under, so
        an exported report round-trips: ``SweepReport.from_json(r.to_json(
        include_execution=True)).to_json(include_execution=True)`` is
        identical to the original.
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
        return cls(
            [JobResult.from_dict(job) for job in jobs],
            axes=data.get("axes"),
            execution=data.get("execution"),
            settings=data.get("settings"),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        """Inverse of :meth:`to_json` (see :meth:`from_dict`)."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Execution placement / communication accounting
    # ------------------------------------------------------------------
    def execution_table(self) -> str:
        """Per-rank placement and communication accounting of the backend.

        Meaningful for the distributed backend (one row per simulated rank:
        node placement, the modeled link to the root rank, groups, jobs,
        predicted seconds, dispatch/result bytes and their predicted wall
        cost); other backends produce a one-line summary.
        """
        info = self.execution
        if not info:
            return "(no execution summary recorded)"
        per_rank = info.get("per_rank")
        if not per_rank:
            line = (
                f"backend={info.get('backend', '?')} "
                f"schedule={info.get('schedule', '?')} "
                f"groups={info.get('n_groups', '?')} jobs={info.get('n_jobs', '?')}"
            )
            if info.get("used_fallback"):
                line += " (fell back to serial)"
            return line
        headers = [
            "rank", "node", "link", "groups", "jobs",
            "predicted [s]", "dispatch [B]", "result [B]", "comm [s]",
        ]
        rows = [
            [
                stats.get("rank", "-"),
                stats.get("node", "-"),
                stats.get("link", "-"),
                stats.get("groups", 0),
                stats.get("jobs", 0),
                stats.get("predicted_seconds", stats.get("predicted_cost", 0.0)),
                stats.get("dispatch_bytes", 0),
                stats.get("result_bytes", 0),
                stats.get("comm_seconds", 0.0),
            ]
            for stats in per_rank
        ]
        table = format_table(headers, rows)
        comm = info.get("comm", {})
        footer = (
            f"backend={info.get('backend', '?')} schedule={info.get('schedule', '?')} "
            f"ranks={info.get('ranks', len(per_rank))} "
            f"total comm = {comm.get('total_bytes', 0)} B"
        )
        return f"{table}\n{footer}"

    def scaling_table(self) -> str:
        """Predicted vs observed wall time and energy, per simulated rank.

        The sweep-level analogue of the paper's Fig. 7/8 scaling tables: each
        row is one modeled rank with its node, the link its traffic crossed,
        its predicted makespan share (seconds on the modeled machine slice,
        from :class:`repro.cost.MachineCostModel`), the wall time its jobs
        actually took in-process, the predicted transfer cost of its sweep
        traffic, and the predicted energy of its node-seconds. The footer
        reduces the table to the scaling-curve point the ``bench_fig7/8``
        benchmarks consume (:func:`repro.cost.sweep_execution_point`).
        """
        per_rank = self.execution.get("per_rank")
        if not per_rank:
            return (
                "(no per-rank execution accounting; run the sweep with "
                "backend='distributed' to model placement and wall costs)"
            )
        from ..cost import sweep_execution_point  # deferred: keeps report import light

        headers = [
            "rank", "node", "link", "jobs",
            "predicted [s]", "observed [s]", "comm [s]", "energy [J]",
        ]
        rows = [
            [
                stats.get("rank", "-"),
                stats.get("node", "-"),
                stats.get("link", "-"),
                stats.get("jobs", 0),
                stats.get("predicted_seconds", 0.0),
                stats.get("observed_seconds", 0.0),
                stats.get("comm_seconds", 0.0),
                stats.get("predicted_energy_j", 0.0),
            ]
            for stats in per_rank
        ]
        point = sweep_execution_point(self.execution)
        footer = (
            f"ranks={point['ranks']} predicted makespan = {point['predicted_makespan_s']:.3g} s "
            f"(observed {point['observed_makespan_s']:.3g} s), "
            f"predicted energy = {point['predicted_energy_j']:.3g} J, "
            f"sweep traffic = {point['comm_bytes']} B in {point['comm_seconds']:.3g} s"
        )
        return f"{format_table(headers, rows)}\n{footer}"

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    @staticmethod
    def _format_point_value(value) -> str:
        if isinstance(value, dict):
            return ",".join(f"{k}={v}" for k, v in value.items())
        return str(value)

    def to_table(self) -> str:
        """One row per job: axis values, status and the core cost metrics."""
        headers = (
            ["job"]
            + self.axes
            + ["status", "steps", "dt [as]", "Fock applies", "avg SCF/step", "energy drift [Ha]", "wall [s]"]
        )
        rows = []
        for r in self.results:
            s = r.summary
            rows.append(
                [r.job_id]
                + [self._format_point_value(r.point.get(axis, "-")) for axis in self.axes]
                + [
                    r.status if r.error is None else f"{r.status}: {r.error}",
                    s.get("n_steps", "-"),
                    s.get("time_step_as", "-"),
                    s.get("hamiltonian_applications", "-"),
                    s.get("average_scf_iterations", "-"),
                    s.get("energy_drift", "-"),
                    s.get("wall_time", "-"),
                ]
            )
        return format_table(headers, rows)

    def fig6_table(self, include_wall: bool = True) -> str:
        """The Fig. 6-style cost comparison: one row per completed run.

        Matches the shape of the measured ``bench_fig6`` table — integrator
        vs time step vs Fock-application count — plus the energy drift and
        wall time the accuracy discussion needs. ``include_wall=False`` drops
        the (run-to-run noisy) wall-clock column, making the table
        deterministic across backends and reruns.
        """
        headers = ["integrator", "time step [as]", "steps", "Fock applications", "energy drift [Ha]"]
        if include_wall:
            headers.append("wall [s]")
        rows = []
        for r in self.completed:
            row = [
                r.summary.get("integrator", r.summary.get("propagator", "?")),
                r.summary.get("time_step_as", "-"),
                r.summary.get("n_steps", "-"),
                r.summary.get("hamiltonian_applications", "-"),
                r.summary.get("energy_drift", "-"),
            ]
            if include_wall:
                row.append(r.summary.get("wall_time", "-"))
            rows.append(row)
        return format_table(headers, rows)

    def pivot(self, value: str, index: str = "propagator", columns: str = "time_step_as") -> str:
        """Pivot a summary metric over two summary keys (completed jobs only).

        ``value``/``index``/``columns`` address :attr:`JobResult.summary`
        keys, e.g. ``pivot("hamiltonian_applications")`` for the
        propagator-x-dt Fock-cost grid.
        """
        records = [r.summary for r in self.completed]
        return pivot_table(records, index=index, columns=columns, value=value)

    # ------------------------------------------------------------------
    # Accuracy vs a reference job
    # ------------------------------------------------------------------
    def reference_result(self, reference_job_id: str | None = None) -> JobResult:
        """The accuracy reference: an explicit job id, or the smallest-dt run."""
        if reference_job_id is not None:
            result = self.result_for(reference_job_id)
            if not result.ok:
                raise ValueError(f"reference job {reference_job_id!r} did not complete")
            return result
        completed = self.completed
        if not completed:
            raise ValueError("no completed jobs to choose a reference from")
        return min(completed, key=lambda r: (r.summary.get("time_step_as", np.inf), r.index))

    def accuracy_errors(self, reference_job_id: str | None = None) -> dict[str, dict]:
        """Max |energy| and |dipole| deviation of every completed job from the
        reference, evaluated on the overlapping time window (the reference
        series is linearly interpolated onto each job's time grid).

        Returns ``{job_id: {"energy_error": float, "dipole_error": float}}``.
        """
        reference = self.reference_result(reference_job_id)
        ref_traj = reference.trajectory
        if ref_traj is None:
            raise ValueError(f"reference job {reference.job_id!r} carries no trajectory")
        t_ref = np.asarray(ref_traj.times, dtype=float)
        errors: dict[str, dict] = {}
        for r in self.completed:
            traj = r.trajectory
            if traj is None:
                continue
            t = np.asarray(traj.times, dtype=float)
            mask = t <= t_ref[-1] + 1e-12
            if not np.any(mask):
                errors[r.job_id] = {"energy_error": float("nan"), "dipole_error": float("nan")}
                continue
            t_common = t[mask]
            e_interp = np.interp(t_common, t_ref, np.asarray(ref_traj.energies, dtype=float))
            energy_error = float(np.max(np.abs(np.asarray(traj.energies)[mask] - e_interp)))
            dipoles = np.asarray(traj.dipoles, dtype=float)
            ref_dipoles = np.asarray(ref_traj.dipoles, dtype=float)
            dipole_error = max(
                float(
                    np.max(np.abs(dipoles[mask, axis] - np.interp(t_common, t_ref, ref_dipoles[:, axis])))
                )
                for axis in range(dipoles.shape[1])
            )
            errors[r.job_id] = {"energy_error": energy_error, "dipole_error": dipole_error}
        return errors

    def accuracy_table(self, reference_job_id: str | None = None) -> str:
        """The dt-vs-accuracy table: deviation of each run from the reference."""
        reference = self.reference_result(reference_job_id)
        errors = self.accuracy_errors(reference.job_id)
        headers = ["integrator", "dt [as]", "steps", "max |dE| [Ha]", "max |dD| [a.u.]", "note"]
        rows = []
        for r in self.completed:
            if r.job_id not in errors:
                continue
            err = errors[r.job_id]
            rows.append(
                [
                    r.summary.get("integrator", r.summary.get("propagator", "?")),
                    r.summary.get("time_step_as", "-"),
                    r.summary.get("n_steps", "-"),
                    err["energy_error"],
                    err["dipole_error"],
                    "(reference)" if r.job_id == reference.job_id else "",
                ]
            )
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
        n_frequencies: int = 400,
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
                n_frequencies=n_frequencies,
            )
        return spectra

    def spectrum_table(
        self,
        damping: float = 0.01,
        max_energy: float = 1.5,
        n_frequencies: int = 400,
    ) -> str:
        """The absorption-spectrum sweep view: one row per delta-kick run.

        Aggregates the per-job spectra of :meth:`spectra` across the sweep
        axes (e.g. supercell sizes), reporting each run's strongest feature —
        the peak position in eV and its dipole strength — next to the axis
        values that produced it. Raises with an actionable message when the
        sweep contains no completed delta-kick runs.
        """
        spectra = self.spectra(damping=damping, max_energy=max_energy, n_frequencies=n_frequencies)
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
                + [self._format_point_value(r.point.get(axis, "-")) for axis in self.axes]
                + [
                    int(r.trajectory.n_steps) + 1,
                    float(spectrum.frequencies[peak]) * HARTREE_TO_EV,
                    float(spectrum.strength[peak]),
                ]
            )
        return format_table(headers, rows)
