"""Execution backends: where and how the groups of a sweep actually run.

Execution policy used to live inline in :class:`repro.batch.BatchRunner`;
this module extracts it behind one small surface, :class:`SerialBackend` and
its subclasses — ``run(groups)`` runs a list of scheduled ground-state groups
and returns their :class:`~repro.batch.JobResult`\\ s, ``run_group`` turns
one group into results (the one place that happens: :func:`execute_group`
and the observed-seconds stamp), ``groups`` lists the groups the backend ran,
in run order, and ``execution_summary`` reports how the work was placed —
one :meth:`~repro.exec.ScheduledGroup.as_dict` record per group.
:meth:`repro.batch.BatchRunner.run` calls ``run``;
:func:`repro.service.run_sweep` steps the same backend group by group between
its ``await``\\ s, and its progress and cancellation are the service's
(:class:`~repro.service.SweepProgress`, the campaign task). Three
implementations:

* :class:`SerialBackend` — in-process, in the given order; the only backend
  that reuses the runner's warm sessions (``prepare_ground_states``).
* :class:`ProcessPoolBackend` — one worker task per group on a
  :class:`~concurrent.futures.ProcessPoolExecutor`; falls back to serial
  execution (with a warning naming the original error and the fallback) when
  no pool can be created, and names the job ids that did not come back when
  a worker dies.
* :class:`DistributedBackend` — places groups onto the virtual ranks of a
  :class:`~repro.parallel.SimCommunicator`. Group dispatch and result
  collection really move serialized payloads through the communicator's
  point-to-point channel, so the per-rank communication volume of a sweep is
  logged the same way the distributed kernels log theirs — and a
  :class:`~repro.cost.NodePlacement` maps ranks onto modeled Summit nodes so
  every transfer is attributed to NVLink, X-Bus or InfiniBand with a
  predicted wall cost; the Fig. 7/8-style scaling analyses extend to sweep
  traffic (``tests/exec/test_backends.py::TestSweepDispatch``).

All backends run whole groups, so the one-SCF-per-group property survives any
placement, and all of them share the store-backed resume and ground-state
sharing machinery of :func:`execute_group`. Persistence is one argument
everywhere: ``store=``, a :class:`~repro.store.ResultStore`, which serves and
receives both job results and converged SCFs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from ..api.session import Session
from ..batch.report import JobResult, SweepReport
from ..core.dynamics import json_default
from ..core.precision import resolve_precision
from ..cost.placement import NodePlacement
from ..parallel.comm import SimCommunicator
from ..store.store import _as_store
from .scheduler import ScheduledGroup, _finite, _rank_loads

__all__ = [
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
    store. The group's converged SCF is adopted from / persisted to it too
    (before any propagation, so even a group whose propagation fails leaves
    its SCF behind), and a resumed sweep skips even the first group SCF. A
    failed SCF falls through to the width-1 runs like a failed propagation;
    a failed SCF *write* is a note when it is an ``OSError`` and propagates
    otherwise.

    ``precision="complex64"`` selects the screening tier: those results are
    stamped in their summaries and **never** loaded from or saved to the
    result store (ground-state sharing still works — the SCF is double
    precision either way).
    """
    store = _as_store(store)
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
        # fall through on an exception: the loop below re-runs job by job
        # (width 1), so a failure (of the SCF or of one job's propagation) is
        # attributed to (and recorded for) the right job
        job_ids = [jobs[index].job_id for index in requests]
        fallback = f"lockstep pass of jobs {job_ids} fell back to width-1 runs"
        try:
            source = None if store is None else _adopt_or_converge(session, store, jobs[0].group_key)
        except Exception as exc:
            _degraded(f"{fallback}: {type(exc).__name__}: {exc}", notes)
        else:
            # outside the fall-through: only an OSError of the write is a note
            if source in ("held", "converged"):
                _persist_ground_state(session, store, jobs[0].group_key, notes)
            if len(requests) > 1:
                try:
                    session.propagate_many(list(requests.values()), precision=precision)
                except Exception as exc:
                    _degraded(f"{fallback}: {type(exc).__name__}: {exc}", notes)
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
        result = JobResult.from_trajectory(job, _with_own_config(trajectory, job.config))
        if job_store is not None:
            try:
                job_store.save(result)
            except OSError as exc:
                # a persistence failure (full disk, unwritable dir) must not
                # discard finished physics or abort the sweep: the job stays
                # completed but unsaved, and a rerun recomputes it
                result.error = f"checkpoint write failed: {type(exc).__name__}: {exc}"
                _degraded(f"job {job.job_id}: {result.error}", notes)
        results.append(result)
    return results


def _with_own_config(trajectory, config):
    """``trajectory`` with ``config`` as its provenance.

    A group's session is built from its first job's config, and jobs whose
    spelled cutoffs differ but select the same plane waves share its
    trajectories (one computation per equal request), so a job's result is
    stamped with its own config here: a copy of the trajectory, arrays
    shared, when the session's stamp differs, else the trajectory itself.
    """
    if trajectory.metadata.get("config") == config._plain():
        return trajectory
    return dataclasses.replace(trajectory, metadata={**trajectory.metadata, "config": config.to_dict()})


def _degraded(note: str, notes: list | None) -> None:
    """Warn about a degraded path and append it to ``notes`` (the report's
    execution section; a pool worker's warnings never reach the parent)."""
    warnings.warn(note)
    if notes is not None:
        notes.append(note)


def _adopt_or_converge(session: Session, gs_store, group_key: str) -> str:
    """Give ``session`` the group's SCF: its own (``"held"``), the one
    ``gs_store`` holds (``"adopted"``; ``gs_store`` may be ``None``), or one
    converged here (``"converged"``). Returns where it came from.

    With :func:`_persist_ground_state`, the one spelling of ground-state
    sharing, used by :func:`execute_group` and
    :meth:`repro.batch.BatchRunner.prepare_ground_states`.
    """
    if session.ground_state_ready:
        return "held"
    shared = None if gs_store is None else gs_store.load_ground_state(group_key, basis=session.basis)
    if shared is not None:
        session.adopt_ground_state(shared)
        return "adopted"
    session.ground_state()
    return "converged"


def _persist_ground_state(session: Session, gs_store, group_key: str, notes: list | None = None) -> None:
    """Write the session's SCF to ``gs_store`` unless it already holds the
    group's (the orbital archive is the largest file in the store).

    The write is best-effort against the filesystem: an ``OSError`` never
    aborts the sweep and is warned about and noted in ``notes``; any other
    exception is a bug and propagates.
    """
    try:
        if not gs_store.has_ground_state(group_key):
            gs_store.save_ground_state(group_key, session.ground_state())
    except OSError as exc:
        _degraded(f"ground-state checkpoint write failed: {type(exc).__name__}: {exc}", notes)


def _run_group_worker(payload) -> tuple[list[dict], list[str], float]:
    """Process-pool entry point: run a group, return JSON-able result dicts,
    the group's degraded-path notes (a worker's warnings never reach the
    parent's stderr) and its wall seconds.

    Results cross the process boundary in dict form (observables only) to
    avoid pickling wavefunctions and grids; results stored inside the worker
    keep the full trajectories on disk.
    """
    jobs, store, raise_on_error, precision = payload
    notes: list[str] = []
    start = time.perf_counter()
    results = execute_group(jobs, store, raise_on_error, precision=precision, notes=notes)
    return [result.to_dict() for result in results], notes, time.perf_counter() - start


def _sweep_report(backend, results, spec, settings, schedule: str, record=()) -> SweepReport:
    """The :class:`~repro.batch.SweepReport` of a finished sweep — the one
    builder behind :meth:`repro.batch.BatchRunner.run` and
    :func:`repro.service.run_sweep`: the backend's execution summary, the
    scheduling policy, the caller's own ``record`` keys (the service's
    lease/adaptive accounting), the settings and, per job, whether it was
    served and its share of its group's observed wall."""
    execution = backend.execution_summary()
    execution["schedule"] = schedule
    execution.update(record)
    execution["settings"] = settings.as_dict()
    execution["n_cached"] = sum(1 for r in results if r.status == "cached")
    status = {r.job_id: r.status for r in results}
    execution["jobs"] = jobs = {}
    for group in backend.groups:
        computed = [job.job_id for job in group.jobs if status.get(job.job_id) == "completed"]
        for job in group.jobs:
            share = group.observed_seconds / len(computed) if job.job_id in computed else 0.0
            jobs[job.job_id] = {"status": status.get(job.job_id), "observed_seconds": share}
    if backend.store is not None:
        execution["store"] = {
            "root": str(backend.store.root),
            "hits": execution["n_cached"],
            "computed": sum(1 for r in results if r.status == "completed"),
            "failed": sum(1 for r in results if r.status == "failed"),
        }
    return SweepReport(results, axes=spec.axis_paths, execution=execution)


# ---------------------------------------------------------------------------
# The backends
# ---------------------------------------------------------------------------


class SerialBackend:
    """Where the groups of a sweep run: in-process, in the given order — the
    base loop the other backends specialise.

    ``run(groups)`` is the one entry point (a loop over :meth:`run_group`);
    :func:`repro.service.run_sweep` calls :meth:`run_group` itself, one group
    between each of its ``await``\\ s.

    Parameters
    ----------
    store:
        The :class:`~repro.store.ResultStore` (or its root directory)
        serving/receiving results and converged SCFs; ``None`` disables
        persistence.
    raise_on_error:
        Propagate the first job failure instead of recording it.
    sessions:
        Warm :class:`~repro.api.Session`\\ s keyed by group key (from
        :meth:`repro.batch.BatchRunner.prepare_ground_states`), reused by
        the groups that run in-process.
    precision:
        Propagation precision tier (``"complex128"`` or ``"complex64"``,
        see :mod:`repro.core.precision`).
    """

    #: registry name of the backend (the ``ExecutionSettings(backend=...)`` string)
    name = "serial"

    def __init__(self, *, store=None, raise_on_error: bool = False,
                 sessions: dict | None = None, precision: str = "complex128"):
        self.store = _as_store(store)
        self.precision = resolve_precision(precision)
        self.raise_on_error = bool(raise_on_error)
        self.sessions = {} if sessions is None else sessions
        #: the groups this backend ran, in run order
        self.groups: list[ScheduledGroup] = []

    # ------------------------------------------------------------------
    def run(self, groups: list[ScheduledGroup]) -> list[JobResult]:
        """Run ``groups`` in order and return all job results."""
        results: list[JobResult] = []
        for group in groups:
            results.extend(self.run_group(group))
        return results

    def run_group(self, group: ScheduledGroup) -> list[JobResult]:
        """Execute one group, in-process, and return its results.

        The one place a scheduled group turns into results — :meth:`run`
        loops over it, the service calls it between its ``await``\\ s.
        """
        start = time.perf_counter()  # the group's wall: the one clock of a pass
        results = execute_group(
            group.jobs,
            self.store,
            self.raise_on_error,
            session=self.sessions.get(group.key),
            precision=self.precision,
            notes=group.notes,
        )
        return self._record_group(group, results, time.perf_counter() - start)

    def _record_group(self, group: ScheduledGroup, results: list[JobResult],
                      seconds: float) -> list[JobResult]:
        """Stamp a finished group's wall ``seconds`` (0 if it computed no job)
        and the jobs it did not compute, and append it to :attr:`groups`."""
        group.n_served = sum(1 for r in results if r.status == "cached")
        group.n_failed = sum(1 for r in results if r.status == "failed")
        group.observed_seconds = seconds if group.n_served + group.n_failed < len(results) else 0.0
        self.groups.append(group)
        return results

    # ------------------------------------------------------------------
    def execution_summary(self) -> dict:
        """How the work was placed, JSON-serializable."""
        return {
            "backend": self.name,
            "n_groups": len(self.groups),
            "n_jobs": sum(g.n_jobs for g in self.groups),
            "groups": [group.as_dict() for group in self.groups],
        }


class ProcessPoolBackend(SerialBackend):
    """One worker task per group on a process pool.

    Whole groups ship to workers, so the one-SCF-per-group property survives
    the pool; custom components registered at runtime are only visible to
    workers on fork-based platforms. A single-group sweep has nothing to
    parallelise and runs in-process; if no pool can be created the backend
    warns — naming the original error and the fallback — and runs serially.
    Both fallbacks are the base class's loop itself. A worker that dies
    breaks the pool: :meth:`run` raises
    :class:`~concurrent.futures.process.BrokenProcessPool` naming the job ids
    of the groups that did not come back (the groups before them are
    recorded, and their results stored).
    """

    name = "process"

    def __init__(self, *, max_workers: int | None = None, **common):
        super().__init__(**common)
        self.max_workers = max_workers
        self.used_fallback = False

    def run(self, groups: list[ScheduledGroup]) -> list[JobResult]:
        if len(groups) <= 1:
            return super().run(groups)
        workers = min(self.max_workers or os.cpu_count() or 1, len(groups))
        try:
            executor = ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError, ImportError) as exc:
            self.used_fallback = True
            warnings.warn(
                f"process pool unavailable ({type(exc).__name__}: {exc}); "
                f"falling back to the '{SerialBackend.name}' execution backend"
            )
            return super().run(groups)
        results: list[JobResult] = []
        with executor:
            futures = [
                (group, executor.submit(
                    _run_group_worker, (group.jobs, self.store, self.raise_on_error, self.precision)
                ))
                for group in groups
            ]
            for position, (group, future) in enumerate(futures):
                try:
                    dicts, notes, seconds = future.result()
                except BrokenProcessPool as exc:
                    lost = [
                        job.job_id
                        for lost_group, lost_future in futures[position:]
                        if lost_future.exception() is not None
                        for job in lost_group.jobs
                    ]
                    raise BrokenProcessPool(
                        f"a process-pool worker died; these jobs did not come back: {lost}"
                    ) from exc
                group.notes.extend(notes)
                group_results = [JobResult.from_dict(d) for d in dicts]
                results.extend(self._record_group(group, group_results, seconds))
        return results

    def execution_summary(self) -> dict:
        summary = super().execution_summary()
        summary["max_workers"] = self.max_workers
        summary["used_fallback"] = self.used_fallback
        return summary


class DistributedBackend(SerialBackend):
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

    The backend counts only the traffic of each rank (bytes each way and
    their predicted wall); what a rank ran is summed from the group ledger
    (:attr:`groups`) when the summary is built.

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
                 comm: SimCommunicator | None = None,
                 placement: NodePlacement | None = None, precision: str = "complex128"):
        super().__init__(store=store, raise_on_error=raise_on_error, precision=precision)
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
        self._traffic = [
            {"dispatch_bytes": 0, "result_bytes": 0, "comm_seconds": 0.0}
            for _ in range(self.comm.size)
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
            rank = len(self.groups) % self.comm.size
        group.rank = rank
        traffic = self._traffic[rank]

        # dispatch: the expanded group spec travels root -> rank
        dispatch = self._wire(
            {
                "group_index": group.index,
                "job_ids": [job.job_id for job in group.jobs],
                "configs": [job.config.to_dict() for job in group.jobs],
            }
        )
        self.comm.sendrecv(dispatch, description=f"dispatch group {group.index} -> rank {rank}")
        traffic["dispatch_bytes"] += int(dispatch.nbytes)
        traffic["comm_seconds"] += self.placement.transfer_seconds(dispatch.nbytes, 0, rank)

        # "remote" execution on the rank (in-process, bit-identical physics)
        group_results = super().run_group(group)

        # results travel rank -> root as observables-only dicts
        wire = self._wire([result.to_dict() for result in group_results])
        received = self.comm.sendrecv(wire, description=f"results group {group.index} <- rank {rank}")
        traffic["result_bytes"] += int(wire.nbytes)
        traffic["comm_seconds"] += self.placement.transfer_seconds(wire.nbytes, rank, 0)

        decoded = json.loads(bytes(bytearray(received)).decode())
        return [JobResult.from_dict(d) for d in decoded]

    def _per_rank(self) -> list[dict]:
        """One record per rank: where the placement puts it, the sums of the
        groups it ran (the scheduler's :func:`_rank_loads` over
        :attr:`groups`, in run order) and the traffic it logged."""

        def loads(weight) -> list[float]:
            return _rank_loads(self.groups, self.comm.size, weight)

        groups = loads(lambda g: 1)
        jobs = loads(lambda g: g.n_jobs)
        # an unpriced group (nan prediction) adds nothing
        cost = loads(lambda g: _finite(g.predicted_cost) or 0.0)
        seconds = loads(lambda g: _finite(g.predicted_seconds) or 0.0)
        energy = loads(lambda g: _finite(g.predicted_energy_j) or 0.0)
        observed = loads(lambda g: g.observed_seconds)
        return [
            {
                "rank": rank,
                "node": self.placement.node_of(rank),
                "socket": self.placement.socket_of(rank),
                "link": self.placement.link_between(0, rank).value,
                "groups": int(groups[rank]),
                "jobs": int(jobs[rank]),
                "predicted_cost": cost[rank],
                "predicted_seconds": seconds[rank],
                "predicted_energy_j": energy[rank],
                "observed_seconds": observed[rank],
                **self._traffic[rank],
            }
            for rank in range(self.comm.size)
        ]

    def execution_summary(self) -> dict:
        summary = super().execution_summary()
        summary["ranks"] = self.comm.size
        summary["placement"] = {
            "ranks_per_node": self.placement.ranks_per_node,
            "n_nodes": self.placement.n_nodes,
        }
        summary["per_rank"] = self._per_rank()
        summary["comm"] = {
            "calls": dict(self.comm.stats.calls),
            "bytes": dict(self.comm.stats.bytes),
            "total_bytes": self.comm.stats.total_bytes(),
        }
        return summary
