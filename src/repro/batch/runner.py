"""The sweep orchestrator: spec → scheduler → backend → report.

:class:`BatchRunner` executes the jobs of a :class:`~repro.batch.SweepSpec`
and aggregates them into a :class:`~repro.batch.SweepReport`. Execution
policy lives in :mod:`repro.exec`; the runner only wires the pieces:

* **Settings.** Everything about *where and how* the sweep runs — backend,
  virtual rank count, scheduling policy, machine preset, GPUs per group — is
  one frozen :class:`~repro.exec.ExecutionSettings` value, resolved from the
  base config's ``run.schedule`` / ``run.machine`` sections unless an explicit
  ``settings=`` object (e.g. from a :class:`~repro.campaign.CampaignPlanner`
  plan) is passed.
* **Ground-state sharing.** Jobs are grouped by
  :func:`~repro.batch.sweep.ground_state_group_key`; each group runs through
  one caching :class:`~repro.api.Session`, so a {propagator} x {dt} sweep
  converges its SCF exactly once no matter how many propagations fan out.
  With a store the converged SCFs are always persisted too, so a *resumed*
  sweep skips even the first group SCF.
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
* **Persistence.** With a ``store`` (a :class:`~repro.store.ResultStore` or
  its root directory — the one persistence argument of every layer), every
  completed job is saved; a rerun of the same sweep, or any other sweep
  sharing the store, loads finished jobs (status ``"cached"``) instead of
  recomputing them — resume-after-crash is just "run it again". Settings
  never touch job identity, so rerunning under different settings reuses
  every stored result.

.. code-block:: python

    from repro.exec import ExecutionSettings

    report = BatchRunner(
        SweepSpec(base, {"propagator.name": ["ptcn", "rk4"],
                         "run.time_step_as": [10.0, 50.0]}),
        store="sweep-store",
        settings=ExecutionSettings(backend="distributed", ranks=4,
                                   schedule="makespan_balanced"),
    ).run()
    print(report.pivot("hamiltonian_applications"))
    print(report.execution_table())
"""

from __future__ import annotations

from ..api.session import Session
from ..exec.settings import BACKEND_NAMES, ExecutionSettings
from ..store.store import _as_store
from .report import SweepReport
from .sweep import SweepJob, SweepSpec

__all__ = ["BACKEND_NAMES", "BatchRunner"]


class BatchRunner:
    """Execute a sweep: expand, group, schedule, run, store, aggregate.

    Parameters
    ----------
    spec:
        The :class:`~repro.batch.SweepSpec` to execute.
    settings:
        The :class:`~repro.exec.ExecutionSettings` describing where and how
        the sweep runs. ``None`` (default) resolves
        the settings from the base config's ``run.schedule`` / ``run.machine``
        sections.
    store:
        A content-addressed :class:`~repro.store.ResultStore` (or its root
        directory) serving and receiving results and shared ground states;
        ``None`` disables persistence. A store may be shared by any number
        of sweeps and campaigns, and any of them serves a hit for an
        already-computed config.

    A failing job is recorded as a ``"failed"`` result and the sweep
    continues; completed jobs stay stored, so the sweep is resumable.

    Everything about where and how the sweep runs is read from
    :attr:`settings` (``runner.settings.backend``, ``.ranks``, ``.schedule``,
    ``.max_workers``).
    """

    def __init__(
        self,
        spec: SweepSpec,
        *,
        settings: ExecutionSettings | None = None,
        store=None,
    ):
        from ..exec import Scheduler  # deferred: repro.exec imports repro.batch

        if settings is None:
            settings = ExecutionSettings.from_config(spec.base)
        self.spec = spec
        self.settings = settings
        self.store = _as_store(store)
        self.machine = settings.machine_model()
        self.scheduler = Scheduler(settings.schedule, machine=self.machine)
        self._sessions: dict[str, Session] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_plan(cls, plan) -> "BatchRunner":
        """The runner executing the one sweep of a campaign :class:`~repro.campaign.ExecutionPlan`.

        The runner gets the plan's chosen :class:`~repro.exec.ExecutionSettings`,
        so its report records the provenance the planner decided on while the
        physics export stays bit-identical to a hand-configured run.
        """
        names = list(plan.sweep_names)
        if len(names) != 1:
            raise ValueError(f"the plan holds {len(names)} sweeps {names}; a runner runs one")
        return cls(plan.sweep_spec(names[0]), settings=plan.settings)

    # ------------------------------------------------------------------
    def groups(self) -> dict[str, list[SweepJob]]:
        """Expanded jobs grouped by ground-state key, in expansion order
        (:meth:`repro.batch.SweepSpec.groups`)."""
        return self.spec.groups()

    def prepare_ground_states(self) -> int:
        """Converge (in-process) the shared ground state of every group that
        still has unstored jobs; returns the number of SCFs run.

        Separates the expensive warm-up from :meth:`run` — benchmarks time the
        sweep without the SCF, services can prepare caches ahead of traffic.
        Groups whose SCF is already persisted in the store adopt it instead
        of reconverging (and count as zero SCFs); freshly converged ones are
        persisted for future sweeps. Only the in-process backends reuse these
        warm sessions (process/distributed workers rebuild their own); the
        one-SCF-per-group property holds either way.
        """
        from ..exec.backends import _adopt_or_converge, _persist_ground_state

        count = 0
        for key, jobs in self.groups().items():
            if self.store is not None and all(self.store.has(job) for job in jobs):
                continue
            session = self._sessions.get(key)
            if session is None:
                session = self._sessions[key] = Session(jobs[0].config)
            source = _adopt_or_converge(session, self.store, key)
            count += source == "converged"
            if self.store is not None and source != "adopted":
                _persist_ground_state(session, self.store, key)
        return count

    # ------------------------------------------------------------------
    def _make_backend(self):
        from ..exec import DistributedBackend, ProcessPoolBackend, SerialBackend

        settings = self.settings
        common = dict(store=self.store, precision=settings.precision)
        if settings.backend == "process":
            return ProcessPoolBackend(
                max_workers=settings.max_workers, sessions=self._sessions, **common
            )
        if settings.backend == "distributed":
            return DistributedBackend(ranks=settings.ranks, placement=settings.placement(), **common)
        return SerialBackend(sessions=self._sessions, **common)

    def run(self) -> SweepReport:
        """Schedule and execute every job; return the aggregated report."""
        from ..exec.backends import _sweep_report

        scheduled = self.scheduler.schedule(self.groups())
        backend = self._make_backend()
        if self.settings.backend == "distributed":
            self.scheduler.pack(scheduled, backend.ranks)
        return _sweep_report(
            backend, backend.run(scheduled), self.spec, self.settings, self.scheduler.policy
        )
