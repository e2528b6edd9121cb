"""Execution backends: where and how the groups of a sweep actually run.

Execution policy used to live inline in :class:`repro.batch.BatchRunner`;
this module extracts it behind one small surface, the
:class:`ExecutionBackend` protocol — ``submit_group`` accepts scheduled
ground-state groups, ``run_group`` turns one of them into
:class:`~repro.batch.JobResult`\\ s (the one place that happens:
:func:`execute_group`, the observed-seconds stamp, the poll bookkeeping),
``drain`` is the cancel-aware loop over ``run_group``, ``execution_summary``
reports how the work was placed. :meth:`repro.batch.BatchRunner.run` drains a
backend; :func:`repro.service.run_sweep` steps the same backend group by
group between its ``await``\\ s. Three implementations:

* :class:`SerialBackend` — in-process, in submission order; the only backend
  that reuses the runner's warm sessions (``prepare_ground_states``).
* :class:`ProcessPoolBackend` — one worker task per group on a
  :class:`~concurrent.futures.ProcessPoolExecutor`; falls back to serial
  execution (with a warning naming the original error and the fallback) when
  no pool can be created.
* :class:`DistributedBackend` — places groups onto the virtual ranks of a
  :class:`~repro.parallel.SimCommunicator`. Group dispatch and result
  collection really move serialized payloads through the communicator's
  point-to-point channel, so the per-rank communication volume of a sweep is
  logged the same way the distributed kernels log theirs — and a
  :class:`~repro.cost.NodePlacement` maps ranks onto modeled Summit nodes so
  every transfer is attributed to NVLink, X-Bus or InfiniBand with a
  predicted wall cost; the ``bench_fig7/8``-style scaling analyses extend to
  sweep traffic.

All backends run whole groups, so the one-SCF-per-group property survives any
placement, and all of them share the store-backed resume and ground-state
sharing machinery of :func:`execute_group`. Persistence is one argument
everywhere: ``store=``, a :class:`~repro.store.ResultStore`.
"""

from __future__ import annotations

import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..api.session import Session
from ..batch.report import JobResult, SweepReport
from ..core.dynamics import json_default
from ..core.precision import resolve_precision
from ..cost.placement import NodePlacement
from ..parallel.comm import SimCommunicator
from ..pw.fft import configure_for_pool_worker
from ..store.store import _as_store
from .scheduler import ScheduledGroup

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "DistributedBackend",
    "execute_group",
]


def execute_group(
    jobs: list,
    store,
    raise_on_error: bool,
    session: Session | None = None,
    share_ground_states: bool = False,
    precision: str = "complex128",
    notes: list | None = None,
) -> list[JobResult]:
    """Run one ground-state group of jobs through a shared session.

    One pass: every job is read from the store once; the misses are advanced
    together, in lockstep, through one
    :meth:`~repro.api.Session.propagate_many` (stacked FFTs across jobs);
    then results are built and saved job by job. The session is built lazily
    from the first job's config, so a fully stored group never touches the
    physics stack at all. The jobs of a group share structure, basis, XC
    and SCF parameters only — each brings its own ``config.laser`` (the
    ground state is field-free), propagator and time step to the request.

    Failure semantics: a group's jobs are all computed before the first
    result of that group is written, so a hard kill mid-group redoes the
    group on resume, not one job. An *exception* anywhere in the lockstep
    pass instead falls through to per-job width-1 runs: the failure is
    attributed to (and recorded for) the job that raised, and with
    ``raise_on_error`` the first failing job aborts the group *after* the
    results of the jobs before it were written — which is what makes a
    crashed sweep resumable. That degraded path is never silent: the
    exception is warned about with the group's job ids and appended to
    ``notes`` (the backends' channel into the report's execution section).

    ``store`` (a :class:`~repro.store.ResultStore` or its root directory;
    ``None`` for no persistence) serves and receives the results — this is
    how sweeps, campaigns and service tenants share one content-addressed
    store. With ``share_ground_states`` the group's converged SCF is adopted
    from / persisted to it too (before any propagation, so even a group
    whose propagation fails leaves its SCF behind), and a resumed sweep
    skips even the first group SCF.

    ``precision="complex64"`` selects the screening tier: those results are
    stamped in their summaries and **never** loaded from or saved to the
    result store (ground-state sharing still works — the SCF is double
    precision either way).
    """
    store = _as_store(store)
    gs_store = store if share_ground_states else None
    # the store only ever holds/serves double-precision physics
    job_store = store if precision == "complex128" else None
    cached = [None if job_store is None else job_store.load(job) for job in jobs]
    requests = {
        index: {
            "propagator": job.config.propagator.name,
            "time_step_as": job.config.run.time_step_as,
            "n_steps": job.config.run.n_steps,
            "params": dict(job.config.propagator.params),
            "laser": job.config.laser,
        }
        for index, job in enumerate(jobs)
        if cached[index] is None
    }
    if requests:
        if session is None:
            session = Session(jobs[0].config)
        try:
            if gs_store is not None:
                _ground_state_through_store(session, gs_store, jobs[0].group_key)
            if len(requests) > 1:
                session.propagate_many(list(requests.values()), precision=precision)
        except Exception as exc:
            # fall through: the loop below re-runs job by job (width 1), so
            # a failure (of the SCF or of one job's propagation) is attributed
            # to (and recorded for) the right job
            note = (
                f"lockstep pass of jobs {[jobs[index].job_id for index in requests]} "
                f"fell back to width-1 runs: {type(exc).__name__}: {exc}"
            )
            warnings.warn(note)
            if notes is not None:
                notes.append(note)
    results: list[JobResult] = []
    for index, job in enumerate(jobs):
        if cached[index] is not None:
            results.append(cached[index])
            continue
        try:
            # served from the session's trajectory cache after the lockstep pass
            (trajectory,) = session.propagate_many([requests[index]], precision=precision)
        except Exception as exc:
            if raise_on_error:
                raise
            results.append(JobResult.from_failure(job, exc))
            continue
        result = JobResult.from_trajectory(job, trajectory)
        if job_store is not None:
            try:
                job_store.save(result)
            except Exception as exc:
                # a persistence failure (full disk, unwritable dir) must not
                # discard finished physics or abort the sweep: the job stays
                # completed but unsaved, and a rerun recomputes it
                result.error = f"checkpoint write failed: {type(exc).__name__}: {exc}"
                warnings.warn(f"job {job.job_id}: {result.error}")
        results.append(result)
    return results


def _ground_state_through_store(session: Session, gs_store, group_key: str) -> bool:
    """Adopt the group's stored SCF, or converge it here and persist it.

    The one spelling of ground-state sharing, used by :func:`execute_group`
    and :meth:`repro.batch.BatchRunner.prepare_ground_states`; ``gs_store``
    may be ``None`` (converge only). Returns ``True`` when an SCF ran. The
    write is best-effort — it never aborts the sweep — and is skipped when
    the store already holds the group's SCF (the orbital archive is the
    largest file in the store).
    """
    converged_here = False
    if not session.ground_state_ready:
        shared = None if gs_store is None else gs_store.load_ground_state(group_key, basis=session.basis)
        if shared is not None:
            session.adopt_ground_state(shared)
            return False
        session.ground_state()
        converged_here = True
    if gs_store is not None:
        try:
            if not gs_store.has_ground_state(group_key):
                gs_store.save_ground_state(group_key, session.ground_state())
        except Exception as exc:
            warnings.warn(f"ground-state checkpoint write failed: {type(exc).__name__}: {exc}")
    return converged_here


def _group_wall_seconds(results) -> float:
    """Summed job wall seconds of one executed group — the ``observed_seconds``
    every backend stamps on its :class:`~repro.exec.ScheduledGroup`\\ s, which
    is what calibration observations (:mod:`repro.calib`) pair against the
    predicted seconds. Cached hits report ~0 and failures carry no wall time,
    so fully served groups observe nothing (and are skipped by the fit)."""
    return sum(float(r.summary.get("wall_time") or 0.0) for r in results)


def _finite(value) -> float | None:
    """NaN (the scheduler's cost-model-failure sentinel) is not valid strict
    JSON — export it as null instead."""
    return float(value) if np.isfinite(value) else None


def _run_group_worker(payload) -> tuple[list[dict], list[str]]:
    """Process-pool entry point: run a group, return JSON-able result dicts
    and the group's degraded-path notes (a worker's warnings never reach the
    parent's stderr).

    Results cross the process boundary in dict form (observables only) to
    avoid pickling wavefunctions and grids; results stored inside the worker
    keep the full trajectories on disk. FFT threading is capped to one
    worker first — the pool already owns the cores, and oversubscribing
    ``workers * fft_threads`` ways degrades every group.
    """
    configure_for_pool_worker()
    jobs, store, raise_on_error, share_ground_states, precision = payload
    notes: list[str] = []
    results = execute_group(
        jobs, store, raise_on_error, share_ground_states=share_ground_states,
        precision=precision, notes=notes,
    )
    return [result.to_dict() for result in results], notes


def _sweep_report(backend, results, spec, settings, schedule: str, record=()) -> SweepReport:
    """The :class:`~repro.batch.SweepReport` of a finished sweep — the one
    builder behind :meth:`repro.batch.BatchRunner.run` and
    :func:`repro.service.run_sweep`: the backend's execution summary, the
    scheduling policy, the caller's own ``record`` keys (the service's
    lease/adaptive accounting) and the store provenance."""
    execution = backend.execution_summary()
    execution["schedule"] = schedule
    execution.update(record)
    if backend.store is not None:
        # cached-vs-computed provenance; execution summaries are already
        # excluded from the deterministic physics export
        execution["store"] = {
            "root": str(backend.store.root),
            "hits": sum(1 for r in results if r.status == "cached"),
            "computed": sum(1 for r in results if r.status == "completed"),
            "failed": sum(1 for r in results if r.status == "failed"),
        }
    return SweepReport(
        results, axes=spec.axis_paths, execution=execution, settings=settings.as_dict()
    )


# ---------------------------------------------------------------------------
# The backend protocol
# ---------------------------------------------------------------------------


class ExecutionBackend:
    """Where the groups of a sweep run: ``submit_group``, then ``drain`` (or
    ``run_group`` one at a time).

    Parameters
    ----------
    store:
        The :class:`~repro.store.ResultStore` (or its root directory)
        serving/receiving results and, with ``share_ground_states``,
        converged SCFs; ``None`` disables persistence.
    raise_on_error:
        Propagate the first job failure instead of recording it.
    share_ground_states:
        Persist/adopt converged SCFs through the store (no effect without
        one).
    sessions:
        Warm :class:`~repro.api.Session`\\ s keyed by group key (from
        :meth:`repro.batch.BatchRunner.prepare_ground_states`), reused by
        the groups that run in-process.
    precision:
        Propagation precision tier (``"complex128"`` or ``"complex64"``,
        see :mod:`repro.core.precision`).
    """

    #: registry name of the backend (the ``ExecutionSettings(backend=...)`` string)
    name = "backend"

    def __init__(self, *, store=None, raise_on_error: bool = False,
                 share_ground_states: bool = False, sessions: dict | None = None,
                 precision: str = "complex128"):
        self.store = _as_store(store)
        self.precision = resolve_precision(precision)
        self.raise_on_error = bool(raise_on_error)
        self.share_ground_states = bool(share_ground_states)
        self.sessions = {} if sessions is None else sessions
        self.groups: list[ScheduledGroup] = []
        self._drained_groups = 0
        self._drained_jobs = 0
        self._done = False
        self._cancelled = False

    # ------------------------------------------------------------------
    def submit_group(self, group: ScheduledGroup) -> None:
        """Enqueue one scheduled ground-state group for execution."""
        self.groups.append(group)

    def run_group(self, group: ScheduledGroup) -> list[JobResult]:
        """Execute one submitted group, in-process, and return its results.

        The one place a scheduled group turns into results — ``drain`` loops
        over it, the service calls it between its ``await``\\ s.
        """
        results = execute_group(
            group.jobs,
            self.store,
            self.raise_on_error,
            session=self.sessions.get(group.key),
            share_ground_states=self.share_ground_states,
            precision=self.precision,
            notes=group.notes,
        )
        return self._record_group(group, results)

    def _record_group(self, group: ScheduledGroup, results: list[JobResult]) -> list[JobResult]:
        """Stamp a finished group's observed wall and count it as drained."""
        group.observed_seconds = _group_wall_seconds(results)
        self._drained_groups += 1
        self._drained_jobs += group.n_jobs
        return results

    def drain(self) -> list[JobResult]:
        """Run every submitted group (until cancelled) and return all job results."""
        results: list[JobResult] = []
        for group in self.groups:
            if self._cancelled:
                break
            results.extend(self.run_group(group))
        self._done = True
        return results

    # ------------------------------------------------------------------
    # Non-blocking observation: poll/cancel beside drain
    # ------------------------------------------------------------------
    def poll(self) -> dict:
        """Non-blocking progress snapshot of the drain, JSON-serializable.

        Meaningful mid-drain when the backend is driven from another thread
        or between a service's group boundaries; before ``drain`` it reports
        zero progress, after it ``done`` is ``True``.
        """
        return {
            "backend": self.name,
            "n_groups": len(self.groups),
            "n_jobs": sum(g.n_jobs for g in self.groups),
            "groups_done": self._drained_groups,
            "jobs_done": self._drained_jobs,
            "cancelled": self._cancelled,
            "done": self._done,
        }

    def cancel(self) -> int:
        """Ask the drain to stop at the next group boundary.

        Groups already executed keep their results (stored ones included — a
        cancelled sweep resumes like a crashed one); returns the number of
        submitted groups that had not finished when cancellation was
        requested.
        """
        self._cancelled = True
        return max(0, len(self.groups) - self._drained_groups)

    # ------------------------------------------------------------------
    def execution_summary(self) -> dict:
        """How the submitted work was (or will be) placed, JSON-serializable."""
        return {
            "backend": self.name,
            "n_groups": len(self.groups),
            "n_jobs": sum(g.n_jobs for g in self.groups),
            "groups": [
                {
                    "index": g.index,
                    "n_jobs": g.n_jobs,
                    "predicted_cost": _finite(g.predicted_cost),
                    "predicted_seconds": _finite(g.predicted_seconds),
                    "predicted_energy_j": _finite(g.predicted_energy_j),
                    "n_gpus": g.n_gpus,
                    "rank": g.rank,
                    # self-describing calibration identity (repro.calib):
                    # machine preset, propagator, workload sizes, the observed
                    # wall run_group stamped and the service's adaptive re-price
                    "machine": g.machine,
                    "propagator": g.propagator,
                    "n_bands": g.n_bands,
                    "n_grid": g.n_grid,
                    "observed_seconds": _finite(g.observed_seconds),
                    "repriced_seconds": _finite(g.repriced_seconds),
                    # degraded paths only: a healthy group's record has no such key
                    **({"notes": list(g.notes)} if g.notes else {}),
                }
                for g in self.groups
            ],
        }


class SerialBackend(ExecutionBackend):
    """In-process execution in submission order — the base loop, named.

    The backend that reuses warm :class:`~repro.api.Session`\\ s (from
    :meth:`repro.batch.BatchRunner.prepare_ground_states`): pass them as
    ``sessions``, keyed by group key.
    """

    name = "serial"


class ProcessPoolBackend(ExecutionBackend):
    """One worker task per group on a process pool.

    Whole groups ship to workers, so the one-SCF-per-group property survives
    the pool; custom components registered at runtime are only visible to
    workers on fork-based platforms. A single-group sweep has nothing to
    parallelise and runs in-process; if no pool can be created the backend
    warns — naming the original error and the fallback — and runs serially.
    Both fallbacks are the base class's loop itself.
    """

    name = "process"

    def __init__(self, *, max_workers: int | None = None, **common):
        super().__init__(**common)
        self.max_workers = max_workers
        self.used_fallback = False

    def drain(self) -> list[JobResult]:
        if len(self.groups) <= 1:
            return super().drain()
        workers = min(self.max_workers or os.cpu_count() or 1, len(self.groups))
        try:
            executor = ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError, ImportError) as exc:
            self.used_fallback = True
            warnings.warn(
                f"process pool unavailable ({type(exc).__name__}: {exc}); "
                f"falling back to the '{SerialBackend.name}' execution backend"
            )
            return super().drain()
        results: list[JobResult] = []
        with executor:
            futures = []
            for group in self.groups:
                if self._cancelled:
                    break
                payload = (group.jobs, self.store, self.raise_on_error,
                           self.share_ground_states, self.precision)
                futures.append((group, executor.submit(_run_group_worker, payload)))
            for group, future in futures:
                if self._cancelled and future.cancel():
                    continue  # never started; its jobs simply don't report
                dicts, notes = future.result()
                group.notes.extend(notes)
                group_results = [JobResult.from_dict(d) for d in dicts]
                results.extend(self._record_group(group, group_results))
        self._done = True
        return results

    def execution_summary(self) -> dict:
        summary = super().execution_summary()
        summary["max_workers"] = self.max_workers
        summary["used_fallback"] = self.used_fallback
        return summary


class DistributedBackend(ExecutionBackend):
    """Execution over the virtual ranks of a simulated MPI communicator.

    Groups are placed onto ranks by the scheduler (least-loaded packing,
    weighted by predicted seconds/joules for the machine-aware policies);
    dispatch and result traffic really flow through
    :meth:`~repro.parallel.SimCommunicator.sendrecv` as serialized payloads,
    so ``comm.stats`` / the per-rank accounting of :meth:`execution_summary`
    measure a sweep the way the distributed kernels measure an SCF. A
    :class:`~repro.cost.NodePlacement` maps the virtual ranks onto modeled
    Summit nodes (6 ranks per node, 3 per socket), so every transfer is
    additionally attributed to the wire it crosses — NVLink within a socket,
    X-Bus across sockets, InfiniBand across nodes — with a predicted wall
    cost. Results come back in dict form (observables only), exactly like
    process-pool workers — the report JSON is bit-identical to the serial
    backend's.

    Parameters
    ----------
    ranks:
        Number of virtual ranks (ignored when ``comm`` is given).
    comm:
        An existing :class:`~repro.parallel.SimCommunicator` to dispatch over
        (shares its event log / statistics with the caller).
    placement:
        The rank → node mapping used to cost transfers; defaults to a dense
        :class:`~repro.cost.NodePlacement` of the backend's ranks on Summit.
        Must cover at least as many ranks as the communicator has.
    """

    name = "distributed"

    def __init__(self, *, ranks: int = 4, store=None, raise_on_error: bool = False,
                 share_ground_states: bool = False, comm: SimCommunicator | None = None,
                 placement: NodePlacement | None = None, precision: str = "complex128"):
        super().__init__(
            store=store,
            raise_on_error=raise_on_error,
            share_ground_states=share_ground_states,
            precision=precision,
        )
        if comm is None and ranks < 1:
            raise ValueError(
                f"DistributedBackend needs ranks >= 1, got {ranks}; "
                "pass the number of virtual MPI ranks to dispatch over"
            )
        self.comm = SimCommunicator(int(ranks), keep_event_log=True) if comm is None else comm
        if placement is None:
            placement = NodePlacement(n_ranks=self.comm.size)
        if placement.n_ranks < self.comm.size:
            raise ValueError(
                f"placement models {placement.n_ranks} rank(s) but the backend "
                f"dispatches over {self.comm.size}; build NodePlacement(n_ranks="
                f"{self.comm.size}) (or larger)"
            )
        self.placement = placement
        self.rank_stats = [
            {
                "rank": rank,
                "node": placement.node_of(rank),
                "socket": placement.socket_of(rank),
                "link": placement.link_between(0, rank).value,
                "groups": 0,
                "jobs": 0,
                "predicted_cost": 0.0,
                "predicted_seconds": 0.0,
                "predicted_energy_j": 0.0,
                "observed_seconds": 0.0,
                "dispatch_bytes": 0,
                "result_bytes": 0,
                "comm_seconds": 0.0,
            }
            for rank in range(self.comm.size)
        ]

    # ------------------------------------------------------------------
    @property
    def ranks(self) -> int:
        """Number of virtual ranks groups are placed onto."""
        return self.comm.size

    @staticmethod
    def _wire(payload) -> np.ndarray:
        """Serialize a JSON-able payload into a byte array for the communicator."""
        # insertion order is preserved through dumps/loads, keeping the wire
        # round-trip invisible in the report export (key order included)
        text = json.dumps(payload, default=json_default)
        return np.frombuffer(text.encode(), dtype=np.uint8)

    def run_group(self, group: ScheduledGroup) -> list[JobResult]:
        """The base execution, wrapped in the dispatch/result traffic of the
        group's rank (scheduler-assigned, or round-robin when unplaced)."""
        rank = group.rank
        if rank is None or not 0 <= rank < self.comm.size:
            rank = self._drained_groups % self.comm.size
        group.rank = rank
        stats = self.rank_stats[rank]

        # dispatch: the expanded group spec travels root -> rank
        dispatch = self._wire(
            {
                "group_index": group.index,
                "job_ids": [job.job_id for job in group.jobs],
                "configs": [job.config.to_dict() for job in group.jobs],
            }
        )
        self.comm.sendrecv(dispatch, description=f"dispatch group {group.index} -> rank {rank}")
        stats["dispatch_bytes"] += int(dispatch.nbytes)
        stats["comm_seconds"] += self.placement.transfer_seconds(dispatch.nbytes, 0, rank)

        # "remote" execution on the rank (in-process, bit-identical physics)
        group_results = super().run_group(group)

        # results travel rank -> root as observables-only dicts
        wire = self._wire([result.to_dict() for result in group_results])
        received = self.comm.sendrecv(wire, description=f"results group {group.index} <- rank {rank}")
        stats["result_bytes"] += int(wire.nbytes)
        stats["comm_seconds"] += self.placement.transfer_seconds(wire.nbytes, rank, 0)
        stats["groups"] += 1
        stats["jobs"] += group.n_jobs
        if np.isfinite(group.predicted_cost):
            stats["predicted_cost"] += float(group.predicted_cost)
        if np.isfinite(group.predicted_seconds):
            stats["predicted_seconds"] += float(group.predicted_seconds)
        if np.isfinite(group.predicted_energy_j):
            stats["predicted_energy_j"] += float(group.predicted_energy_j)
        stats["observed_seconds"] += group.observed_seconds

        decoded = json.loads(bytes(bytearray(received)).decode())
        return [JobResult.from_dict(d) for d in decoded]

    def execution_summary(self) -> dict:
        summary = super().execution_summary()
        summary["ranks"] = self.comm.size
        summary["placement"] = {
            "ranks_per_node": self.placement.ranks_per_node,
            "n_nodes": self.placement.n_nodes,
        }
        summary["per_rank"] = [dict(stats) for stats in self.rank_stats]
        summary["comm"] = {
            "calls": dict(self.comm.stats.calls),
            "bytes": dict(self.comm.stats.bytes),
            "total_bytes": self.comm.stats.total_bytes(),
        }
        return summary
