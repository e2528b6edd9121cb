"""Machine-aware ordering and packing of sweep ground-state groups.

The unit of scheduling is the *ground-state group* (all jobs sharing one
field-free SCF, see :func:`repro.batch.sweep.ground_state_group_key` — a
propagator, time-step or laser-axis sweep of one material is one group):
groups are what the backends dispatch, so they are what the scheduler orders
and places. Costs are
layered the way the paper planned its campaigns: relative FLOPs from
:mod:`repro.perf.sweep_cost` (the cheap config layers only), turned into
predicted wall seconds and joules on a parameterised Summit by a
:class:`repro.cost.MachineCostModel` — so the scheduler packs by *time on the
machine*, not by unitless work. :meth:`Scheduler.schedule` is those two layers
in sequence — :meth:`Scheduler.price` (workload model, reads no setting) then
:meth:`Scheduler.order` (machine model and policy) — so a caller weighing many
settings for the same groups prices them once.

Policies (``run.schedule.policy`` in :class:`~repro.api.SimulationConfig`, or
``ExecutionSettings(schedule=...)``):

* ``"fifo"`` — expansion order, cost-blind (the pre-existing behaviour);
  packing onto ranks is round-robin.
* ``"cheapest_first"`` — ascending predicted wall time: short jobs surface
  early, a sweep with a wall-time budget gets the most results per hour.
* ``"makespan_balanced"`` — descending predicted wall time (LPT), so greedy
  least-loaded packing bounds the distributed makespan at ``(4/3 - 1/3m)`` of
  the optimum; packing weighs groups by predicted *seconds*.
* ``"energy_aware"`` — descending predicted energy to solution; ordering and
  packing weigh groups by predicted *joules* (watts of the occupied nodes
  times seconds), which differs from time whenever groups occupy differently
  sized machine slices (``run.machine.gpus_per_group``).

This module owns the group ledger. :class:`ScheduledGroup` is the one record
of a group (:meth:`ScheduledGroup.as_dict` is what execution summaries export
and calibration reads), :func:`_least_loaded` the one greedy placement and
:func:`_rank_loads` the one per-rank sum: :meth:`Scheduler.pack`, the
planner's forecast and the service runner's lease length, adaptive re-pack
and what-if all go through them. A calibration
re-prices a group in one place, :meth:`ScheduledGroup.repriced`, stamped as
its ``repriced_seconds``; every weight above reads that planned number, while
the predicted fields stay the uncalibrated machine model's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..api.config import SCHEDULE_POLICIES
from ..cost.model import MachineCostModel, machine_name
from ..perf.sweep_cost import predict_group_cost, workload_sizes

__all__ = ["SCHEDULE_POLICIES", "ScheduledGroup", "Scheduler"]

#: what a workload or machine model — and the registry and asset lookups
#: behind them — raise for a group they cannot price: ``KeyError`` covers
#: ``UnknownNameError`` / ``UnknownAssetError``, ``ValueError`` covers
#: ``ConfigError`` / ``AssetError``. These degrade the group (see
#: :meth:`Scheduler.price`); any other exception propagates.
_PRICING_ERRORS = (KeyError, ValueError, TypeError, ArithmeticError)

#: sentinel distinguishing "build the default machine model" from an explicit
#: ``machine=None`` (pure relative-FLOP scheduling, no wall-clock predictions)
_DEFAULT_MACHINE = object()


def _finite(value) -> float | None:
    """NaN (the scheduler's cost-model-failure sentinel) is not valid strict
    JSON — export it as null instead."""
    return float(value) if math.isfinite(value) else None


def _least_loaded(groups, loads: list[float], weight) -> None:
    """Greedy least-loaded placement, in the given order: each group goes to
    the rank with the smallest load so far (the lowest rank on ties), whose
    load then grows by ``weight(group)``. Sets each group's ``rank`` and
    updates ``loads`` (one entry per rank) in place."""
    for group in groups:
        rank = min(range(len(loads)), key=lambda r: (loads[r], r))
        group.rank = rank
        loads[rank] += weight(group)


def _rank_loads(groups, n_ranks: int, weight) -> list[float]:
    """Per-rank sums of ``weight(group)``, each rank summed in the given
    order; a group without a rank in ``range(n_ranks)`` counts on rank 0.
    The makespan of a packing is the ``max`` of this."""
    loads = [0.0] * n_ranks
    for group in groups:
        rank = group.rank if group.rank is not None and 0 <= group.rank < n_ranks else 0
        loads[rank] += weight(group)
    return loads


@dataclass
class ScheduledGroup:
    """One ground-state group as placed by the :class:`Scheduler`.

    Attributes
    ----------
    key:
        The :func:`~repro.batch.sweep.ground_state_group_key` of the group.
    index:
        Position in expansion order (stable tiebreaker across policies).
    jobs:
        The group's :class:`~repro.batch.SweepJob`\\ s, in expansion order.
    predicted_cost:
        Relative cost from :func:`~repro.perf.sweep_cost.predict_group_cost`
        (``nan`` when prediction failed, e.g. an exotic custom structure).
    predicted_seconds:
        Predicted wall-clock seconds on the modeled machine slice (``nan``
        without a machine model or when prediction failed). Always the
        uncalibrated cost model's number, calibrated or not: it is what
        :meth:`as_dict` exports and what observations pair with reality.
    predicted_energy_j:
        Predicted energy to solution in Joules (``nan`` as above; never
        calibrated either).
    n_gpus:
        Modeled GPUs the group occupies (``run.machine.gpus_per_group``).
    rank:
        Assigned virtual rank (set by :meth:`Scheduler.pack`; ``None`` for
        purely local backends).
    machine, propagator, n_bands, n_grid:
        Self-describing identity for calibration observations
        (:mod:`repro.calib`): the machine preset the prediction was priced
        on, the group's propagator (``None`` when its jobs mix propagators —
        the group key excludes them, as it does the laser), and the workload
        sizes from
        :func:`~repro.perf.sweep_cost.workload_sizes`.
    observed_seconds:
        The group's wall seconds in this pass, measured around
        :func:`~repro.exec.execute_group` by the backends (``nan`` until
        then; 0 when the pass computed none of its jobs).
    n_served, n_failed:
        How many of the group's jobs the store served and how many failed,
        stamped with :attr:`observed_seconds`. A group with either is not an
        observation: its predicted seconds priced work that did not run
        (:func:`repro.calib.extract_observations` skips it).
    repriced_seconds:
        The planned seconds: :meth:`repriced` by the calibration in force,
        stamped by :meth:`Scheduler.order` under ``calibration=`` and
        re-stamped by an adaptive re-pack (:func:`repro.service.run_sweep`);
        ``nan`` otherwise. Ordering, packing, leases and plans read it (see
        :meth:`metric_value`), and it is kept apart from
        :attr:`predicted_seconds` so observations always pair the *model's*
        prediction with reality — re-priced accounting never feeds back into
        the next fit.
    notes:
        Degraded paths the group took, each ending in ``"<ExceptionClass>:
        <message>"``: a workload or machine model that could not price it
        (appended by the :class:`Scheduler`; the group then shows ``nan``
        predictions and keeps its expansion position) and the lockstep pass
        falling back to width-1 runs (appended by the backends). Exported in
        the report's execution section only when non-empty.
    """

    key: str
    index: int
    jobs: list = field(repr=False)
    predicted_cost: float = float("nan")
    predicted_seconds: float = float("nan")
    predicted_energy_j: float = float("nan")
    n_gpus: int = 1
    rank: int | None = None
    machine: str | None = None
    propagator: str | None = None
    n_bands: int | None = None
    n_grid: int | None = None
    observed_seconds: float = float("nan")
    n_served: int = 0
    n_failed: int = 0
    repriced_seconds: float = float("nan")
    notes: list = field(default_factory=list, repr=False)

    @property
    def n_jobs(self) -> int:
        """Number of jobs in the group."""
        return len(self.jobs)

    @property
    def weight(self) -> float:
        """Best-effort load of this group alone: predicted seconds on the
        machine, falling back to the relative FLOPs, then to 1.0. Packing
        never mixes these units across groups — see
        :meth:`Scheduler._weight_metric`."""
        for value in (self.predicted_seconds, self.predicted_cost):
            if math.isfinite(value) and value > 0:
                return float(value)
        return 1.0

    @property
    def planned_seconds(self) -> float:
        """The group's best current time estimate for pool/segment accounting:
        :attr:`repriced_seconds` when a calibration stamped them, else the
        model's prediction (:meth:`metric_value`), else the generic
        :attr:`weight`."""
        seconds = self.metric_value("seconds")
        return seconds if math.isfinite(seconds) and seconds > 0 else self.weight

    def repriced(self, fit) -> float:
        """The model's prediction re-priced by a fitted
        :class:`~repro.calib.CalibrationModel`: :attr:`predicted_seconds` ×
        ``fit.scale_for(machine, propagator)``; ``nan`` without a finite
        positive prediction."""
        if math.isfinite(self.predicted_seconds) and self.predicted_seconds > 0:
            return float(self.predicted_seconds) * fit.scale_for(self.machine, self.propagator)
        return float("nan")

    def degraded(self, what: str, exc: BaseException) -> None:
        """Record a degraded path in :attr:`notes`: ``"<what>: <ExceptionClass>: <message>"``."""
        self.notes.append(f"{what}: {type(exc).__name__}: {exc}")

    def as_dict(self) -> dict:
        """The group's JSON-able record: what execution summaries export and
        :func:`repro.calib.extract_observations` reads back."""
        return {
            "index": self.index,
            "n_jobs": self.n_jobs,
            "predicted_cost": _finite(self.predicted_cost),
            "predicted_seconds": _finite(self.predicted_seconds),
            "predicted_energy_j": _finite(self.predicted_energy_j),
            "n_gpus": self.n_gpus,
            "rank": self.rank,
            # self-describing calibration identity (repro.calib): machine
            # preset, propagator, workload sizes, the observed wall run_group
            # stamped (with the jobs it did not compute) and the service's
            # adaptive re-price
            "machine": self.machine,
            "propagator": self.propagator,
            "n_bands": self.n_bands,
            "n_grid": self.n_grid,
            "observed_seconds": _finite(self.observed_seconds),
            "n_served": self.n_served,
            "n_failed": self.n_failed,
            "repriced_seconds": _finite(self.repriced_seconds),
            # degraded paths only: a healthy group's record has no such key
            **({"notes": list(self.notes)} if self.notes else {}),
        }

    def metric_value(self, metric: str) -> float:
        """The group's planned load in one named unit
        (``Scheduler._weight_metric``): a stamped :attr:`repriced_seconds`
        replaces the predicted seconds and scales the predicted joules by
        the same factor (modeled power does not change)."""
        if metric == "energy":
            repriced = self.repriced_seconds
            if math.isfinite(repriced):
                return float(self.predicted_energy_j) * (repriced / self.predicted_seconds)
            return float(self.predicted_energy_j)
        if metric == "seconds":
            repriced = self.repriced_seconds
            return float(repriced if math.isfinite(repriced) else self.predicted_seconds)
        if metric == "cost":
            return float(self.predicted_cost)
        return 1.0


class Scheduler:
    """Order and pack ground-state groups by predicted time and energy.

    Parameters
    ----------
    policy:
        One of :data:`SCHEDULE_POLICIES`.
    machine:
        The :class:`repro.cost.MachineCostModel` turning relative costs into
        predicted seconds and joules. Defaults to the Summit model; pass
        ``None`` to schedule on relative FLOPs only (no wall-clock
        predictions).
    calibration:
        A fitted :class:`~repro.calib.CalibrationModel`: :meth:`order` stamps
        each group's :attr:`~ScheduledGroup.repriced_seconds` with
        :meth:`~ScheduledGroup.repriced`, so every ordering and packing
        weighs observed-corrected seconds while the predicted fields stay
        the machine model's. ``None`` or an empty fit stamps nothing.
    """

    def __init__(
        self, policy: str = "fifo", machine=_DEFAULT_MACHINE, calibration=None,
    ):
        if policy not in SCHEDULE_POLICIES:
            raise ValueError(
                f"schedule policy must be one of {list(SCHEDULE_POLICIES)}, got {policy!r}"
            )
        self.policy = policy
        self.machine = MachineCostModel() if machine is _DEFAULT_MACHINE else machine
        # the identity calibration stamps nothing
        self.calibration = None if getattr(calibration, "is_empty", False) else calibration

    # ------------------------------------------------------------------
    def predict_cost(self, jobs) -> float:
        """Predicted relative cost of one group, from the workload model alone
        (:func:`repro.perf.sweep_cost.predict_group_cost`; the machine model
        turns it into seconds)."""
        return float(predict_group_cost([job.config for job in jobs]))

    def price(self, grouped: dict[str, list]) -> list[ScheduledGroup]:
        """The settings-independent half of :meth:`schedule`: one
        :class:`ScheduledGroup` per group, in expansion order, carrying what
        the *workload* model says — relative FLOPs, propagator, workload sizes.

        Nothing here reads the policy or the machine, so a caller weighing
        many settings for the same groups (the
        :class:`~repro.campaign.CampaignPlanner`'s candidate grid) prices them
        once and gives :meth:`order` a copy per candidate.

        A workload the model cannot price must never fail the sweep: the
        group keeps ``nan`` / ``None``, scheduling degrades to expansion
        order, the physics still runs — and the failure is appended to
        :attr:`ScheduledGroup.notes`, which the report's execution section
        exports. Only :data:`_PRICING_ERRORS` degrade; anything else is a bug
        and propagates. A group whose jobs mix propagators (the group key
        excludes them, as it does the laser) is stamped ``propagator=None``
        and only informs the machine-wide calibration bucket.
        """
        groups = []
        for index, (key, jobs) in enumerate(grouped.items()):
            group = ScheduledGroup(key=key, index=index, jobs=list(jobs))
            try:
                group.predicted_cost = self.predict_cost(group.jobs)
            except _PRICING_ERRORS as exc:
                group.degraded("no cost prediction, scheduled in expansion order", exc)
            if group.jobs:
                names = {job.config.propagator.name for job in group.jobs}
                group.propagator = names.pop() if len(names) == 1 else None
                try:
                    n_bands, n_grid = workload_sizes(group.jobs[0].config)
                    group.n_bands, group.n_grid = int(n_bands), int(n_grid)
                except _PRICING_ERRORS as exc:
                    group.degraded("no workload sizes for calibration", exc)
            groups.append(group)
        return groups

    def _annotate(self, group: ScheduledGroup) -> None:
        """Convert one priced group through the machine model (best-effort).

        The machine only converts the workload prediction already on the
        group; when that prediction failed (``nan``) the wall-clock fields
        stay ``nan`` too, so a deliberately disabled cost model degrades every
        policy to expansion order instead of resurrecting a default.
        """
        if self.machine is None:
            return
        group.machine = machine_name(self.machine.system)
        if not math.isfinite(group.predicted_cost):
            return
        try:
            estimate = self.machine.group_estimate(
                [job.config for job in group.jobs], flops=group.predicted_cost
            )
        except _PRICING_ERRORS as exc:
            group.degraded("no machine estimate, packed by relative cost", exc)
            return
        group.predicted_seconds = float(estimate.seconds)
        group.predicted_energy_j = float(estimate.energy_joules)
        group.n_gpus = int(estimate.n_gpus)
        if self.calibration is not None:
            group.repriced_seconds = group.repriced(self.calibration)

    def _order_metric(self, group: ScheduledGroup) -> float:
        """What the cost-ordered policies sort by (planned energy for
        energy-aware, else planned seconds, falling back to relative FLOPs)."""
        metrics = ("energy", "seconds", "cost") if self.policy == "energy_aware" else ("seconds", "cost")
        for metric in metrics:
            value = group.metric_value(metric)
            if math.isfinite(value):
                return value
        return float("nan")

    def order(self, groups: list[ScheduledGroup]) -> list[ScheduledGroup]:
        """The settings-dependent half of :meth:`schedule`: convert priced
        groups through this scheduler's machine model (predicted seconds,
        joules, GPU slice — one ``group_estimate`` each; under a calibration,
        the re-priced seconds too) and sort them by the policy. Unpredictable
        (``nan``-cost) groups keep their expansion position at the end of
        cost-ordered policies. Annotates ``groups`` in place and returns them
        in submission order."""
        for group in groups:
            self._annotate(group)
        if self.policy == "cheapest_first":
            groups.sort(key=lambda g: (not math.isfinite(self._order_metric(g)), self._order_metric(g), g.index))
        elif self.policy in ("makespan_balanced", "energy_aware"):
            groups.sort(key=lambda g: (not math.isfinite(self._order_metric(g)), -self._order_metric(g), g.index))
        return groups

    def schedule(self, grouped: dict[str, list]) -> list[ScheduledGroup]:
        """Price, annotate and order the groups of a sweep: :meth:`order` of
        :meth:`price`.

        ``grouped`` maps group key to job list in expansion order (the shape
        :meth:`repro.batch.SweepSpec.groups` returns; each job already carries
        its key and hash). Each group is priced once by the workload model
        and converted once by the machine model; the returned order is the
        submission order.
        """
        return self.order(self.price(grouped))

    def _weight_metric(self, groups: list[ScheduledGroup]) -> str:
        """The one unit every group of a packing is weighed in.

        The richest metric *available on every group* wins: joules (energy
        policy only), then seconds, then relative FLOPs, then uniform 1.0.
        Choosing per packing rather than per group means a single failed
        machine estimate degrades the whole packing one level instead of
        mixing seconds with FLOPs (units ~15 orders of magnitude apart, which
        would pin one rank); all-unknown costs degrade to round-robin.
        """
        if self.policy == "fifo":
            return "uniform"
        candidates = (("energy",) if self.policy == "energy_aware" else ()) + ("seconds", "cost")
        for metric in candidates:
            values = [group.metric_value(metric) for group in groups]
            if all(math.isfinite(v) and v > 0 for v in values):
                return metric
        return "uniform"

    def pack(self, groups: list[ScheduledGroup], n_ranks: int) -> list[list[ScheduledGroup]]:
        """Place ordered groups onto ``n_ranks`` virtual ranks.

        Greedy least-loaded assignment in the given order. The load unit
        matches the policy (see :meth:`_weight_metric`): planned seconds
        for the time-aware policies, planned joules for ``"energy_aware"``;
        under ``"fifo"`` every group weighs 1, which makes the greedy
        equivalent to round-robin. Sets each group's
        :attr:`~ScheduledGroup.rank` and returns the per-rank lists.
        """
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        metric = self._weight_metric(groups)
        _least_loaded(groups, [0.0] * n_ranks, lambda g: g.metric_value(metric))
        bins: list[list[ScheduledGroup]] = [[] for _ in range(n_ranks)]
        for group in groups:
            bins[group.rank].append(group)
        return bins
