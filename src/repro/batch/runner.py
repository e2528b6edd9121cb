"""The sweep orchestrator: spec → scheduler → backend → report.

:class:`BatchRunner` executes the jobs of a :class:`~repro.batch.SweepSpec`
and aggregates them into a :class:`~repro.batch.SweepReport`. Execution
policy lives in :mod:`repro.exec`; the runner only wires the pieces:

* **Settings.** Everything about *where and how* the sweep runs — backend,
  virtual rank count, scheduling policy, machine preset, GPUs per group — is
  one frozen :class:`~repro.exec.ExecutionSettings` value, resolved from the
  base config's ``run.schedule`` / ``run.machine`` sections unless an explicit
  ``settings=`` object (e.g. from a :class:`~repro.campaign.CampaignPlanner`
  plan) is passed. The legacy ``backend=`` / ``ranks=`` / ``schedule=`` /
  ``max_workers=`` keywords still work as thin deprecation shims.
* **Ground-state sharing.** Jobs are grouped by
  :func:`~repro.batch.sweep.ground_state_group_key`; each group runs through
  one caching :class:`~repro.api.Session`, so a {propagator} x {dt} sweep
  converges its SCF exactly once no matter how many propagations fan out.
  With a checkpoint directory the converged SCFs are persisted too, so a
  *resumed* sweep skips even the first group SCF.
* **Scheduling.** A :class:`~repro.exec.Scheduler` orders (and, for the
  distributed backend, packs) the groups by predicted wall seconds / joules —
  :mod:`repro.perf.sweep_cost` workload predictions turned machine-aware by a
  :class:`repro.cost.MachineCostModel` built from the settings — under
  ``fifo`` (default), ``cheapest_first``, ``makespan_balanced`` or
  ``energy_aware``.
* **Backends.** ``"serial"`` runs in-process; ``"process"`` dispatches one
  group per worker task to a process pool (falling back to serial with a
  warning naming the original error); ``"distributed"`` places groups onto
  virtual ranks of the simulated MPI runtime and logs per-rank
  dispatch/result communication volume into the report's execution summary.
* **Checkpointing.** With a ``checkpoint_dir``, every completed job is
  persisted via :class:`~repro.batch.CheckpointStore`; a rerun of the same
  sweep loads finished jobs (status ``"cached"``) instead of recomputing
  them — resume-after-crash is just "run it again". Settings never touch job
  identity, so rerunning under different settings reuses every checkpoint.

.. code-block:: python

    from repro.exec import ExecutionSettings

    report = BatchRunner(
        SweepSpec(base, {"propagator.name": ["ptcn", "rk4"],
                         "run.time_step_as": [10.0, 50.0]}),
        checkpoint_dir="sweep-ckpt",
        settings=ExecutionSettings(backend="distributed", ranks=4,
                                   schedule="makespan_balanced"),
    ).run()
    print(report.fig6_table())
    print(report.execution_table())
"""

from __future__ import annotations

import warnings

from ..api.session import Session
from ..exec.settings import BACKEND_NAMES, ExecutionSettings
from ..store.store import ResultStore
from .checkpoint import CheckpointStore
from .report import SweepReport
from .sweep import SweepJob, SweepSpec, group_jobs

__all__ = ["BACKEND_NAMES", "BatchRunner"]


class BatchRunner:
    """Execute a sweep: expand, group, schedule, run, checkpoint, aggregate.

    Parameters
    ----------
    spec:
        The :class:`~repro.batch.SweepSpec` to execute.
    settings:
        The :class:`~repro.exec.ExecutionSettings` (or its ``as_dict`` form)
        describing where and how the sweep runs. ``None`` (default) resolves
        the settings from the base config's ``run.schedule`` / ``run.machine``
        sections. Mutually exclusive with the deprecated per-field keywords
        below.
    checkpoint_dir:
        Directory for per-job and shared ground-state checkpoints; ``None``
        disables checkpointing.
    store:
        A content-addressed :class:`~repro.store.ResultStore` (or its root
        directory) serving and receiving results. Unlike ``checkpoint_dir``
        — which scopes resume to one directory — a store may be shared by
        any number of sweeps and campaigns, and any of them serves a hit
        for an already-computed config. Takes precedence over
        ``checkpoint_dir`` when both are given.
    machine:
        Expert override: a concrete :class:`repro.cost.MachineCostModel`
        predicting wall seconds and joules for the scheduler and the report
        (defaults to the model the settings describe). Pass ``None``
        explicitly to schedule on relative FLOPs only.
    placement:
        Expert override: a :class:`repro.cost.NodePlacement` mapping the
        distributed backend's virtual ranks onto modeled nodes; defaults to a
        dense placement of ``settings.ranks`` ranks on the settings' machine.
    raise_on_error:
        If ``True``, the first failing job re-raises (completed jobs keep
        their checkpoints, so the sweep is resumable). If ``False`` (default)
        failures are recorded as ``"failed"`` results and the sweep continues.
    share_ground_states:
        Persist converged SCFs in the checkpoint store and adopt them on
        resume (default ``True``; no effect without ``checkpoint_dir``).
    backend, max_workers, ranks, schedule:
        **Deprecated** — the pre-settings keyword plumbing, kept as thin
        shims: each non-``None`` value is layered over the config-resolved
        settings exactly as before, with a :class:`DeprecationWarning`
        pointing at ``settings=`` / :meth:`from_plan`.
    """

    _DEFAULT_MACHINE = object()  # distinguishes "from the settings" from an explicit None

    def __init__(
        self,
        spec: SweepSpec,
        *,
        settings: ExecutionSettings | dict | None = None,
        checkpoint_dir=None,
        store=None,
        backend: str | None = None,
        max_workers: int | None = None,
        ranks: int | None = None,
        schedule: str | None = None,
        machine=_DEFAULT_MACHINE,
        placement=None,
        raise_on_error: bool = False,
        share_ground_states: bool = True,
    ):
        from ..exec import Scheduler  # deferred: repro.exec imports repro.batch

        legacy = {"backend": backend, "ranks": ranks, "schedule": schedule, "max_workers": max_workers}
        given = sorted(name for name, value in legacy.items() if value is not None)
        if settings is not None:
            if given:
                raise ValueError(
                    f"pass either settings= or the deprecated keyword(s) {given}, not both"
                )
            if isinstance(settings, dict):
                settings = ExecutionSettings.from_dict(settings)
        else:
            if given:
                warnings.warn(
                    f"BatchRunner keyword(s) {given} are deprecated; pass "
                    "settings=repro.exec.ExecutionSettings(...) instead (or build the "
                    "runner from a campaign plan via BatchRunner.from_plan / "
                    "repro.api.plan)",
                    DeprecationWarning,
                    stacklevel=2,
                )
            settings = ExecutionSettings.resolve(
                spec.base, backend=backend, ranks=ranks, schedule=schedule, max_workers=max_workers
            )
        self.spec = spec
        self.settings = settings
        self.checkpoint_dir = checkpoint_dir
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self._machine_overridden = machine is not self._DEFAULT_MACHINE
        self.machine = settings.machine_model() if not self._machine_overridden else machine
        self.placement = placement
        self.scheduler = Scheduler(settings.schedule, machine=self.machine)
        self.raise_on_error = bool(raise_on_error)
        self.share_ground_states = bool(share_ground_states)
        self._sessions: dict[str, Session] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_plan(
        cls,
        plan,
        name: str | None = None,
        *,
        checkpoint_dir=None,
        store=None,
        raise_on_error: bool = False,
        share_ground_states: bool = True,
    ) -> "BatchRunner":
        """The runner executing one sweep of a campaign :class:`~repro.campaign.ExecutionPlan`.

        ``name`` selects the sweep (optional when the plan holds exactly one);
        the runner gets the plan's chosen :class:`~repro.exec.ExecutionSettings`,
        so its report records the provenance the planner decided on while the
        physics export stays bit-identical to a hand-configured run.
        """
        names = list(plan.sweep_names)
        if name is None:
            if len(names) != 1:
                raise ValueError(
                    f"the plan holds {len(names)} sweeps {names}; "
                    "pass name= to pick the one to run"
                )
            name = names[0]
        return cls(
            plan.sweep_spec(name),
            settings=plan.settings,
            checkpoint_dir=checkpoint_dir,
            store=store,
            raise_on_error=raise_on_error,
            share_ground_states=share_ground_states,
        )

    # ------------------------------------------------------------------
    # Back-compat views onto the settings
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """The settings' backend name."""
        return self.settings.backend

    @property
    def ranks(self) -> int:
        """The settings' virtual rank count (distributed backend)."""
        return self.settings.ranks

    @property
    def schedule(self) -> str:
        """The settings' scheduling policy."""
        return self.settings.schedule

    @property
    def max_workers(self) -> int | None:
        """The settings' process-pool size (process backend)."""
        return self.settings.max_workers

    # ------------------------------------------------------------------
    def groups(self) -> dict[str, list[SweepJob]]:
        """Expanded jobs grouped by ground-state key, in expansion order
        (see :func:`repro.batch.sweep.group_jobs`)."""
        return group_jobs(self.spec)

    def _result_store(self) -> ResultStore | None:
        """The store serving this sweep: ``store=`` if given, else a
        per-directory :class:`CheckpointStore` over ``checkpoint_dir``."""
        if self.store is not None:
            return self.store
        if self.checkpoint_dir is not None:
            return CheckpointStore(self.checkpoint_dir)
        return None

    def _ground_state_store(self) -> ResultStore | None:
        if not self.share_ground_states:
            return None
        return self._result_store()

    def prepare_ground_states(self) -> int:
        """Converge (in-process) the shared ground state of every group that
        still has uncheckpointed jobs; returns the number of SCFs run.

        Separates the expensive warm-up from :meth:`run` — benchmarks time the
        sweep without the SCF, services can prepare caches ahead of traffic.
        Groups whose SCF is already persisted in the checkpoint store adopt it
        instead of reconverging (and count as zero SCFs); freshly converged
        ones are persisted for future sweeps. Only the serial backend reuses
        these warm sessions (process/distributed workers rebuild their own);
        the one-SCF-per-group property holds either way.
        """
        store = self._result_store()
        gs_store = self._ground_state_store()
        count = 0
        for key, jobs in self.groups().items():
            if store is not None and all(store.has(job) for job in jobs):
                continue
            session = self._sessions.get(key)
            if session is None:
                session = Session(jobs[0].config)
                self._sessions[key] = session
            if not session.ground_state_ready and gs_store is not None:
                shared = gs_store.load_ground_state(key, basis=session.basis)
                if shared is not None:
                    session.adopt_ground_state(shared)
                    continue
            converged_here = not session.ground_state_ready
            session.ground_state()
            if converged_here:
                count += 1
                if gs_store is not None:
                    gs_store.save_ground_state(key, session.ground_state())
        return count

    # ------------------------------------------------------------------
    def _make_backend(self):
        from ..exec import DistributedBackend, ProcessPoolBackend, SerialBackend

        common = dict(
            checkpoint_dir=self.checkpoint_dir,
            raise_on_error=self.raise_on_error,
            share_ground_states=self.share_ground_states,
            store=self.store,
            precision=self.settings.precision,
        )
        if self.backend == "process":
            return ProcessPoolBackend(max_workers=self.max_workers, sessions=self._sessions, **common)
        if self.backend == "distributed":
            placement = self.placement
            if placement is None:
                if self._machine_overridden:
                    # expert path: a machine model object that has no preset
                    # name, so the settings cannot describe its placement
                    if self.machine is not None:
                        from ..cost import NodePlacement

                        placement = NodePlacement(n_ranks=self.ranks, system=self.machine.system)
                else:
                    placement = self.settings.placement()
            return DistributedBackend(ranks=self.ranks, placement=placement, **common)
        return SerialBackend(sessions=self._sessions, **common)

    def run(self) -> SweepReport:
        """Schedule and execute every job; return the aggregated report."""
        scheduled = self.scheduler.schedule(self.groups())
        backend = self._make_backend()
        if self.backend == "distributed":
            self.scheduler.pack(scheduled, backend.ranks)
        for group in scheduled:
            backend.submit_group(group)
        results = backend.drain()
        execution = backend.execution_summary()
        execution["schedule"] = self.scheduler.policy
        store = self._result_store()
        if store is not None:
            # cached-vs-computed provenance; execution summaries are already
            # excluded from the deterministic physics export
            execution["store"] = {
                "root": str(store.root),
                "hits": sum(1 for r in results if r.status == "cached"),
                "computed": sum(1 for r in results if r.status == "completed"),
                "failed": sum(1 for r in results if r.status == "failed"),
            }
        return SweepReport(
            results,
            axes=self.spec.axis_paths,
            execution=execution,
            settings=self.settings.as_dict(),
        )
