"""The multi-tenant campaign service: submit many budgeted campaigns, share
one modeled cluster.

:class:`CampaignService` is the always-on shape of the campaign layer —
ROADMAP's "millions of users" step. Every submission is *admitted* through
the :class:`~repro.campaign.CampaignPlanner` before anything runs: a campaign
whose budget cannot be met (on the service's pool — the pool's node count
caps ``max_nodes``) is rejected synchronously with the planner's own
:class:`~repro.campaign.InfeasibleBudgetError`, naming the binding constraint.
Admitted campaigns run concurrently as :mod:`asyncio` tasks; their sweeps
lease disjoint nodes from the shared :class:`~repro.service.NodePool`, so
independent campaigns co-schedule side by side and the pool's modeled
makespan beats the serial sum of their plans whenever capacity allows.
Priorities are enforced by the pool: a higher-priority arrival reclaims
leases at group boundaries, and the preempted sweeps resume with their next
unstarted group.

The service is also where the **calibration loop** closes (see
:mod:`repro.calib`): when it holds a store, every finished sweep's execution
record is distilled into observations appended to the store's
``calibration/observations.jsonl``, and ``calibration="store"`` fits a
:class:`~repro.calib.CalibrationModel` from that log at admission time, so
each new campaign is planned, priced and leased with observed-corrected
seconds. Mid-flight re-packing on observed drift is
:func:`repro.service.run_sweep`'s ``adaptive=True``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import warnings

from ..calib import CalibrationModel, ObservationLog, extract_observations
from ..campaign.planner import CampaignPlanner, ExecutionPlan
from ..campaign.report import CampaignReport
from ..campaign.spec import Budget, CampaignSpec, InfeasibleBudgetError
from ..store.store import _as_store
from .handle import CampaignHandle
from .pool import NodePool
from .runner import run_sweep

__all__ = ["CampaignService"]


class CampaignService:
    """Admit, schedule and run many campaigns over one shared node pool.

    Parameters
    ----------
    pool:
        The shared :class:`~repro.service.NodePool` (default: a whole modeled
        Summit).
    store:
        Service-level :class:`~repro.store.ResultStore` (or its root
        directory) shared by *every* submission — one content-addressed root,
        no per-campaign or per-sweep directories: any tenant's sweep serves a
        hit for a config any other tenant already computed, which is what
        makes re-submitted (or crashed) campaigns incremental. A
        per-submission ``store`` overrides this.
    calibration:
        ``None`` (plan with the pristine cost model), a fitted
        :class:`~repro.calib.CalibrationModel`, or the string ``"store"`` —
        fit from the service store's observation log at each admission, so
        the service prices new campaigns with everything it has observed so
        far. ``"store"`` without a store (or with an empty log) degrades to
        uncalibrated.
    """

    def __init__(
        self,
        pool: NodePool | None = None,
        *,
        store=None,
        calibration=None,
    ):
        self.pool = NodePool() if pool is None else pool
        self.store = _as_store(store)
        if calibration == "store":
            pass  # resolved lazily at each admission, from the live log
        elif calibration is not None and not isinstance(calibration, CalibrationModel):
            raise ValueError(
                "calibration must be None, a CalibrationModel, or the string "
                f"'store', got {calibration!r}"
            )
        self.calibration = calibration
        self.handles: list[CampaignHandle] = []
        self._names = itertools.count(1)

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def _resolve_calibration(self) -> CalibrationModel | None:
        """The calibration to admit the next campaign under: the configured
        model, or — for ``"store"`` — a fresh fit from the store's observation
        log (``None`` when there is nothing to fit yet)."""
        if self.calibration != "store":
            return self.calibration
        if self.store is None:
            return None
        observations = ObservationLog(self.store.root).load()
        if not observations:
            return None
        fitted = CalibrationModel.fit(observations)
        return None if fitted.is_empty else fitted

    def _record_observations(self, report, sweep_name: str, store) -> None:
        """Append the finished sweep's observations to the store's log.

        Best-effort by design: the calibration loop must never fail a
        campaign whose physics succeeded. An append the filesystem refuses is
        warned about and named in the report's execution ``notes``."""
        if store is None:
            return
        observations = extract_observations(report, sweep=sweep_name)
        if not observations:
            return
        try:
            ObservationLog(store.root).append(observations)
        except OSError as exc:
            note = f"calibration append skipped: {type(exc).__name__}: {exc}"
            report.execution.setdefault("notes", []).append(note)
            warnings.warn(f"sweep {sweep_name!r}: {note}", RuntimeWarning, stacklevel=2)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self, campaign, budget, planner_options, calibration=None) -> ExecutionPlan:
        """Turn any accepted campaign form into an admitted ExecutionPlan,
        rejecting infeasible ones before a single group runs. ``calibration``
        re-prices the planner's cost models (already-planned ExecutionPlans
        are submitted as priced — their plan, and its calibration or lack
        thereof, is the caller's)."""
        if isinstance(campaign, ExecutionPlan):
            if budget is not None or planner_options:
                raise ValueError(
                    "the campaign is already planned; submit the raw CampaignSpec "
                    "to re-plan it under a different budget or planner options"
                )
            machine = campaign.settings.machine
            if machine is not None and machine != self.pool.machine:
                raise ValueError(
                    f"the plan targets machine {machine!r} but this service's pool "
                    f"models {self.pool.machine!r}; re-plan with "
                    f"machines=[{self.pool.machine!r}] or submit to a matching service"
                )
            if campaign.predicted_nodes > self.pool.n_nodes:
                raise InfeasibleBudgetError(
                    f"the plan occupies {campaign.predicted_nodes} node(s) but the "
                    f"service's pool holds only {self.pool.n_nodes}; re-plan under "
                    f"Budget(max_nodes={self.pool.n_nodes}) or grow the pool",
                    binding="max_nodes",
                    limit=self.pool.n_nodes,
                    required=campaign.predicted_nodes,
                )
            return campaign
        if isinstance(campaign, CampaignSpec):
            spec = campaign if budget is None else campaign.with_budget(budget)
        else:
            # a single SweepSpec or a name -> SweepSpec mapping
            spec = CampaignSpec(campaign, budget=budget)
        # plan *for this pool*: search only its machine, and never admit a
        # plan occupying more nodes than the pool can lease out
        planner_options.setdefault("machines", [self.pool.machine])
        if calibration is not None:
            planner_options.setdefault("calibration", calibration)
        capped = spec.budget
        if capped.max_nodes is None or capped.max_nodes > self.pool.n_nodes:
            capped = dataclasses.replace(capped, max_nodes=self.pool.n_nodes)
        return CampaignPlanner(spec, **planner_options).plan(capped)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        campaign,
        budget: Budget | None = None,
        *,
        priority: int = 0,
        name: str | None = None,
        store=None,
        on_sweep_complete=None,
        **planner_options,
    ) -> CampaignHandle:
        """Admit a campaign and start it; returns its handle immediately.

        ``campaign`` is an :class:`~repro.campaign.ExecutionPlan` (already
        planned — submitted as-is after a pool-compatibility check), a
        :class:`~repro.campaign.CampaignSpec`, a single
        :class:`~repro.batch.SweepSpec`, or a name → spec mapping; the last
        three are planned here, against this pool, under ``budget`` (extra
        keywords parameterise the planner search like
        :func:`repro.campaign.plan`). Infeasible campaigns raise
        :class:`~repro.campaign.InfeasibleBudgetError` *synchronously* —
        nothing is enqueued.

        ``priority`` orders lease grants (higher first) and arms preemption:
        a submission outranking running work reclaims nodes at the next group
        boundary. ``on_sweep_complete(name, report)`` is called after each
        sweep finishes. Must be called from a running event loop (the campaign runs
        as a task on it).

        ``store`` (a :class:`~repro.store.ResultStore` or its root directory)
        makes the submission incremental: each sweep is diffed against the
        store and only new/changed configs execute, with the hits stamped as
        ``"cached"`` provenance in the reports. It overrides the service-level
        store for this submission. A failing job is recorded as a failed
        result; the campaign goes on.
        """
        loop = asyncio.get_running_loop()  # raises RuntimeError outside a loop
        calibration = self._resolve_calibration()
        plan = self._admit(campaign, budget, planner_options, calibration)
        if name is None:
            name = f"campaign-{next(self._names)}"
        store = self.store if store is None else _as_store(store)
        handle = CampaignHandle(name, plan, priority=priority)
        handle._task = loop.create_task(
            self._run_campaign(
                handle,
                store=store,
                on_sweep_complete=on_sweep_complete,
            ),
            name=f"repro.service:{name}",
        )
        self.handles.append(handle)
        return handle

    # ------------------------------------------------------------------
    async def _run_campaign(
        self,
        handle: CampaignHandle,
        *,
        store,
        on_sweep_complete,
    ) -> CampaignReport:
        plan = handle.plan
        handle._state = "running"
        cursor = 0.0
        try:
            for sweep_name in plan.sweep_names:
                outcome = await run_sweep(
                    plan.sweep_spec(sweep_name),
                    plan.settings,
                    self.pool,
                    tenant=handle.name,
                    name=sweep_name,
                    priority=handle.priority,
                    arrival=cursor,  # a campaign's own sweeps still serialise
                    store=store,
                    progress=handle._progress[sweep_name],
                    calibration=getattr(plan, "calibration", None),
                )
                handle._reports[sweep_name] = outcome.report
                self._record_observations(outcome.report, sweep_name, store)
                cursor = outcome.modeled_end
                if on_sweep_complete is not None:
                    on_sweep_complete(sweep_name, outcome.report)
        except asyncio.CancelledError:
            handle._state = "cancelled"
            raise
        except BaseException as exc:
            handle._state = "failed"
            # completed sweeps stay inspectable on the error itself
            exc.partial_report = handle.partial_report()
            raise
        handle._state = "done"
        return CampaignReport(plan.as_dict(), dict(handle._reports))
