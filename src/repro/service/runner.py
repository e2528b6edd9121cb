"""Running one planned sweep under leases from a shared :class:`NodePool`.

:func:`run_sweep` is the service-side counterpart of
:meth:`repro.batch.BatchRunner.run`: the service steps the same backend
``BatchRunner`` runs — the same :class:`~repro.exec.Scheduler`, a
:class:`~repro.exec.SerialBackend` built from the settings, its
:meth:`~repro.exec.SerialBackend.run_group` per group and the same report
builder, so the physics export stays bit-identical — but split at every
ground-state group boundary by an ``await`` — which is where co-scheduling,
preemption and cancellation all happen:

* before each group the coroutine yields, letting other campaigns' sweeps
  interleave on the same event loop;
* at each yield it checks the current lease's
  :attr:`~repro.service.Lease.preempt_requested` flag; when set, the segment
  executed so far is released (its *modeled* duration charged to the pool's
  calendar), the sweep re-queues at its priority and resumes with the next
  unstarted group — no finished work is redone;
* at least one group runs per lease, so mutual preemption can never livelock.

Modeled time is strictly accounting: groups really run in-process, one after
another, deterministic; their predicted seconds (the same numbers the
:class:`~repro.campaign.CampaignPlanner` forecast) drive the pool calendar,
so an un-preempted sweep occupies the pool for exactly its planned wall and
the co-scheduled makespan of a set of campaigns is a prediction comparable
against the serial sum of their plans. The arithmetic is the scheduler's own
group ledger (:mod:`repro.exec.scheduler`): a lease lasts the ``max`` of its
segment's per-rank loads, a re-pack is its greedy least-loaded placement, and
calibration fits read the groups' ``as_dict`` records through
:func:`repro.calib.extract_observations`.

**Adaptive re-planning** (``adaptive=True``) closes the calibration loop
mid-sweep, at the same group boundaries preemption already uses: each
executed group's observed wall is compared against its prediction, and when
the *spread* of observed/predicted ratios across completed groups exceeds
``drift_threshold`` (some buckets mispredicted relative to others — a
uniform bias cannot change any packing), a
:class:`~repro.calib.CalibrationModel` is fitted from the completed groups,
the remaining **unstarted** groups are re-priced and re-packed LPT onto the
ranks (work stealing from over-predicted ranks), and the re-priced seconds
flow into the lease's modeled duration — remaining leases shrink or grow
accordingly. Completed groups are never reordered or re-run, and the
re-pack touches only modeled accounting: group keys, ``config_hash`` and
the physics export are untouched by construction.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, replace

import numpy as np

from ..batch.report import SweepReport
from ..batch.sweep import SweepSpec
from ..calib import CalibrationModel, extract_observations
from ..exec.backends import SerialBackend, _sweep_report
from ..exec.scheduler import Scheduler, _least_loaded, _rank_loads
from ..exec.settings import ExecutionSettings
from .pool import Lease, NodePool

__all__ = ["SweepOutcome", "run_sweep"]

#: default observed/predicted ratio spread (max/min over completed groups)
#: beyond which the adaptive runner re-packs the remaining groups
DEFAULT_DRIFT_THRESHOLD = 1.5


def _observations(groups) -> list:
    """The executed groups' observations, extracted exactly as for the
    store's log: a group this pass did not compute in full, or that observed
    nothing, is left out of every fit and drift test."""
    return extract_observations({"groups": [g.as_dict() for g in groups]})


def _elapsed_seconds(group) -> float:
    """What an executed group really cost its rank: observed seconds when
    stamped, else its planned seconds."""
    elapsed = group.observed_seconds
    return float(elapsed) if np.isfinite(elapsed) and elapsed > 0 else group.planned_seconds


def _drift_spread(groups) -> float | None:
    """Spread (max/min) of observed/predicted ratios over executed groups.

    ``None`` with fewer than two usable ratios — one observation cannot
    witness *relative* misprediction, and a uniform bias (every ratio equal)
    yields spread 1.0, which never crosses any threshold > 1: re-packing
    only triggers when it could actually move the makespan.
    """
    ratios = [obs.ratio for obs in _observations(groups)]
    if len(ratios) < 2:
        return None
    return max(ratios) / min(ratios)


def _repack(completed, remaining, segment, n_ranks: int) -> CalibrationModel:
    """Re-price and re-pack the remaining (unstarted) groups — work stealing.

    Fits a :class:`~repro.calib.CalibrationModel` from the completed groups,
    stamps each remaining group's :attr:`~repro.exec.ScheduledGroup.repriced_seconds`
    (the model's prediction is left untouched — observations must keep
    pairing it with reality), then re-packs LPT: remaining groups sorted by
    descending corrected seconds, greedily placed on the least-loaded rank.
    Starting loads are the current segment's executed groups at their
    *observed* seconds — the time their ranks really spent, which is exactly
    the imbalance work stealing corrects. Completed groups keep their ranks
    and their order.
    """
    fit = CalibrationModel.fit(_observations(completed))
    for group in remaining:
        group.repriced_seconds = group.repriced(fit)
    remaining.sort(key=lambda g: (-g.planned_seconds, g.index))
    loads = _rank_loads(segment, n_ranks, _elapsed_seconds)
    _least_loaded(remaining, loads, lambda g: g.planned_seconds)
    return fit


@dataclass
class SweepOutcome:
    """What :func:`run_sweep` returns: the report plus the pool accounting.

    Attributes
    ----------
    report:
        The :class:`~repro.batch.SweepReport` — physics bit-identical to a
        :class:`~repro.batch.BatchRunner` run of the same spec.
    modeled_start, modeled_end:
        The sweep's span on the pool calendar (first lease start, last lease
        end).
    leases:
        Every lease the sweep held, in order (more than one ⇔ preempted).
    preemptions:
        How many times the sweep yielded its nodes to higher-priority work.
    repacks:
        How many times the adaptive runner re-packed the remaining groups
        (0 without ``adaptive=True``).
    """

    report: SweepReport
    modeled_start: float
    modeled_end: float
    leases: list[Lease] = field(default_factory=list)
    preemptions: int = 0
    repacks: int = 0


async def run_sweep(
    spec: SweepSpec,
    settings: ExecutionSettings,
    pool: NodePool,
    *,
    tenant: str = "campaign",
    name: str = "sweep",
    priority: int = 0,
    arrival: float | None = None,
    store=None,
    raise_on_error: bool = False,
    progress=None,
    calibration=None,
    adaptive: bool = False,
    drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
    observe=None,
) -> SweepOutcome:
    """Execute one sweep under leases from ``pool``; see the module docstring.

    ``arrival`` is the modeled time the sweep becomes eligible (a campaign
    chains its sweeps by passing each one the previous outcome's
    ``modeled_end``, so sweeps of one campaign still serialise — exactly the
    additive wall the planner predicted). ``progress``, when given, is a
    :class:`~repro.service.SweepProgress` updated in place at every group
    boundary, which is what makes :meth:`CampaignHandle.progress` live.

    ``store`` is a shared :class:`~repro.store.ResultStore`: every job whose
    config is already stored is served as a hit (status ``"cached"``) instead
    of recomputed, no matter which sweep, campaign or tenant computed it —
    the incremental-campaign path.

    ``calibration`` (a fitted :class:`~repro.calib.CalibrationModel`)
    re-prices the scheduler's machine model up front, so packing and pool
    accounting use observed-corrected seconds — the same numbers a
    ``CampaignPlanner(calibration=...)`` plan predicts. ``adaptive=True``
    additionally re-fits *during* the sweep and re-packs the remaining
    groups whenever drift on completed groups exceeds ``drift_threshold``
    (see the module docstring). ``observe`` is a deterministic observation
    hook for tests and benchmarks — called with each executed
    :class:`~repro.exec.ScheduledGroup`, it returns the group's observed
    seconds; by default the real summed job wall times are used.
    """
    scheduler = Scheduler(
        settings.schedule, machine=settings.machine_model(), calibration=calibration
    )
    scheduled = scheduler.schedule(spec.groups())
    scheduler.pack(scheduled, settings.ranks)
    # the static packing, frozen before anything runs — what the adaptive
    # accounting compares its re-packed makespan against
    static = [replace(group) for group in scheduled] if adaptive else []
    # the slice size the *pricing* actually used (per-config overrides win in
    # the cost model), mirroring CampaignPlanner._occupied_nodes
    priced_gpus = max((g.n_gpus for g in scheduled), default=settings.gpus_per_group)
    # the backend BatchRunner runs, stepped here one group at a time
    backend = SerialBackend(
        store=store, raise_on_error=raise_on_error, precision=settings.precision
    )

    results = []
    leases: list[Lease] = []
    completed = []
    repack_events: list[dict] = []
    preemptions = 0
    cursor = pool.start_time if arrival is None else float(arrival)
    remaining = list(scheduled)
    while remaining:
        if progress is not None:
            progress.state = "waiting"
        lease = await pool.acquire(
            settings.ranks,
            priced_gpus,
            priority=priority,
            arrival=cursor,
            tenant=tenant,
            sweep=name,
        )
        if progress is not None:
            progress.state = "running"
        segment = []
        try:
            while remaining:
                await asyncio.sleep(0)  # group boundary: let other sweeps interleave
                if segment and lease.preempt_requested:
                    break  # yield the nodes; ≥1 group per lease prevents livelock
                group = remaining.pop(0)
                results.extend(backend.run_group(group))
                if observe is not None:
                    group.observed_seconds = float(observe(group))
                segment.append(group)
                completed.append(group)
                if progress is not None:
                    progress.groups_done += 1
                    progress.jobs_done += group.n_jobs
                if adaptive and remaining:
                    drift = _drift_spread(completed)
                    if drift is not None and drift > drift_threshold:
                        fit = _repack(completed, remaining, segment, settings.ranks)
                        repack_events.append(
                            {
                                "after_groups": len(completed),
                                "drift": drift,
                                "scales": {
                                    f"{f.machine or '?'}/{f.propagator or '*'}": f.scale
                                    for f in fit.factors
                                },
                            }
                        )
                        if progress is not None:
                            progress.repacks = len(repack_events)
        finally:
            # the lease's modeled duration: the segment's packed makespan
            pool.release(lease, max(_rank_loads(segment, settings.ranks, lambda g: g.planned_seconds)))
            leases.append(lease)
        cursor = lease.end
        if remaining:
            preemptions += 1
            if progress is not None:
                progress.state = "preempted"
                progress.preemptions = preemptions

    modeled_start = leases[0].start if leases else cursor
    modeled_end = leases[-1].end if leases else cursor
    if progress is not None:
        progress.state = "done"
        progress.modeled_start = modeled_start
        progress.modeled_end = modeled_end
    # the service's own keys on top of the backend's execution summary
    execution = {
        "backend": "service",
        "pool": {"machine": pool.machine, "n_nodes": pool.n_nodes},
        "leases": [lease.as_dict() for lease in leases],
        "preemptions": preemptions,
        "modeled_start": modeled_start,
        "modeled_end": modeled_end,
    }
    if calibration is not None and not getattr(calibration, "is_empty", False):
        execution["calibration"] = calibration.as_dict()
    if adaptive:
        record = {
            "enabled": True,
            "drift_threshold": float(drift_threshold),
            "repacks": len(repack_events),
            "events": repack_events,
        }
        final_fit = CalibrationModel.fit(_observations(completed))
        if repack_events and not final_fit.is_empty:
            # the what-if the re-pack is judged by: both packings priced with
            # the final fitted (observed-corrected) seconds
            def corrected(group) -> float:
                seconds = group.repriced(final_fit)
                return seconds if np.isfinite(seconds) else group.planned_seconds

            record["static_modeled_makespan_s"] = max(
                _rank_loads(static, settings.ranks, corrected)
            )
            record["adaptive_modeled_makespan_s"] = max(
                _rank_loads(scheduled, settings.ranks, corrected)
            )
        execution["adaptive"] = record
    report = _sweep_report(backend, results, spec, settings, scheduler.policy, execution)
    return SweepOutcome(
        report=report,
        modeled_start=modeled_start,
        modeled_end=modeled_end,
        leases=leases,
        preemptions=preemptions,
        repacks=len(repack_events),
    )
