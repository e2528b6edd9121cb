"""Inverting the cost stack: budget → execution settings, before anything runs.

:class:`repro.exec.Scheduler` answers "given these settings, how long will the
sweep take?"; the :class:`CampaignPlanner` answers the production question the
ROADMAP calls its inverse: "given a wall-clock / energy / allocation budget,
*which* settings should the campaign run under?" It enumerates a deterministic
candidate grid — machine preset x GPUs per group x virtual rank count x
scheduling policy — prices every candidate with the exact same
:class:`~repro.cost.MachineCostModel` + :class:`~repro.exec.Scheduler` pipeline
the runner will use at execution time (so plans are predictions of the real
schedule, not a separate model), and keeps the fastest plan that fits the
:class:`~repro.campaign.Budget`:

* objective: lexicographic ``(total wall, total energy, ranks, gpus/group)`` —
  the fastest feasible plan, ties broken toward the cheaper and smaller one;
* feasibility: campaign totals (sweep makespans add, sweeps run in sequence)
  against ``max_wall_seconds`` / ``max_energy_joules``, concurrent occupancy
  against ``max_ranks`` / ``max_nodes``;
* determinism: the candidate grid is enumerated in a fixed order and the
  objective is a total order over it, so the same spec and budget always
  yield the same :class:`ExecutionPlan`;
* monotonicity: loosening any budget only grows the feasible set, so the
  chosen plan's predicted wall time never increases (pinned by the
  hypothesis properties in ``tests/campaign/``).

When nothing fits, :class:`~repro.campaign.InfeasibleBudgetError` names the
binding constraint and the cheapest relaxation that would unblock it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace

import numpy as np

from ..cost.model import MACHINES, resolve_machine
from ..exec.scheduler import Scheduler, _rank_loads
from ..exec.settings import ExecutionSettings
from .spec import Budget, CampaignSpec, InfeasibleBudgetError

__all__ = ["CampaignPlanner", "ExecutionPlan", "SweepPlan"]

#: budget dimensions in the order infeasibility diagnoses them
_CONSTRAINT_ORDER = ("max_wall_seconds", "max_energy_joules", "max_ranks", "max_nodes")


@dataclass(frozen=True)
class SweepPlan:
    """The planner's prediction for one named sweep under the chosen settings.

    Attributes
    ----------
    name:
        The sweep's name in the campaign.
    n_groups, n_jobs:
        Ground-state groups and expanded jobs of the sweep.
    predicted_wall_seconds:
        Predicted makespan on the modeled machine: the busiest virtual rank's
        total predicted seconds under the chosen policy's packing (every
        group's seconds for a serial plan).
    predicted_energy_joules:
        Predicted energy to solution of all groups (whole-node watts x
        predicted seconds, summed — energy is additive however groups pack).
    max_gpus_per_group:
        The largest GPU slice any group of the sweep was *priced* on. Usually
        the candidate settings' ``gpus_per_group``, but a per-config
        ``run.machine.gpus_per_group`` override wins in the cost model, and
        the node-budget accounting must follow what the pricing actually used.
    """

    name: str
    n_groups: int
    n_jobs: int
    predicted_wall_seconds: float
    predicted_energy_joules: float
    max_gpus_per_group: int = 1

    def as_dict(self) -> dict:
        """JSON-able record (campaign plans and reports embed it)."""
        return {
            "name": self.name,
            "n_groups": self.n_groups,
            "n_jobs": self.n_jobs,
            "predicted_wall_seconds": self.predicted_wall_seconds,
            "predicted_energy_joules": self.predicted_energy_joules,
            "max_gpus_per_group": self.max_gpus_per_group,
        }


class ExecutionPlan:
    """A deterministic, budget-satisfying way to run a campaign.

    Produced by :meth:`CampaignPlanner.plan`; holds the chosen
    :class:`~repro.exec.ExecutionSettings`, the per-sweep predictions, and the
    budget it was planned against. :meth:`execute` submits the plan as the
    sole tenant of a private :class:`~repro.service.CampaignService` (sweeps
    in campaign order, blocking until done) and returns a
    :class:`~repro.campaign.CampaignReport` comparing predictions with what
    actually happened.
    """

    def __init__(
        self,
        campaign: CampaignSpec,
        settings: ExecutionSettings,
        sweeps: dict[str, SweepPlan],
        budget: Budget,
        predicted_nodes: int,
        calibration=None,
    ):
        self.campaign = campaign
        self.settings = settings
        self.sweeps = dict(sweeps)
        self.budget = budget
        self.predicted_nodes = int(predicted_nodes)
        #: the :class:`~repro.calib.CalibrationModel` the predictions were
        #: priced under (``None`` = the static hand-pinned cost model)
        self.calibration = calibration

    # ------------------------------------------------------------------
    @property
    def sweep_names(self) -> list[str]:
        """The planned sweeps, in execution order."""
        return list(self.sweeps)

    @property
    def predicted_wall_seconds(self) -> float:
        """Campaign total predicted wall time (sweeps run back to back)."""
        return sum(plan.predicted_wall_seconds for plan in self.sweeps.values())

    @property
    def predicted_energy_joules(self) -> float:
        """Campaign total predicted energy to solution."""
        return sum(plan.predicted_energy_joules for plan in self.sweeps.values())

    def sweep_spec(self, name: str):
        """The named sweep's spec, exactly as the campaign declared it.

        The chosen settings are *not* stamped into the configs: the physics
        export of a planned run must stay bit-identical to a hand-configured
        run of the same sweeps (provenance travels in
        :attr:`repro.batch.SweepReport.settings` instead; use
        :meth:`repro.exec.ExecutionSettings.apply_to` explicitly if you want
        self-describing configs — it provably leaves job identity untouched).
        """
        try:
            return self.campaign.sweeps[name]
        except KeyError:
            raise KeyError(
                f"unknown sweep {name!r}; planned sweeps: {self.sweep_names}"
            ) from None

    # ------------------------------------------------------------------
    def execute(
        self,
        store=None,
        *,
        raise_on_error: bool = False,
        on_sweep_complete=None,
    ):
        """Run every planned sweep (in campaign order, blocking) and return
        the aggregated :class:`~repro.campaign.CampaignReport`.

        A thin synchronous shim over :class:`repro.service.CampaignService`:
        the plan is submitted as the sole tenant of a private service whose
        :class:`~repro.service.NodePool` spans the whole planned machine, so
        single-campaign execution and service execution are one code path
        (and bit-identical in their physics exports).

        ``store`` (a :class:`~repro.store.ResultStore` or its root directory)
        makes campaigns resumable exactly like single sweeps: every sweep of
        the campaign — and any other campaign sharing the store — is diffed
        against one content-addressed index, so re-executing a crashed or
        finished plan runs only new/changed configs (zero SCFs, zero
        propagation steps for a fully warm store) and the hits are stamped
        as ``"cached"`` provenance in the reports.
        ``on_sweep_complete(name, report)``, when given, is called after each
        sweep finishes — mid-campaign feedback without the service API. With
        ``raise_on_error`` the raised exception carries a ``partial_report``
        attribute (the :class:`~repro.campaign.CampaignReport` of the sweeps
        that did finish, per-sweep elapsed timings included).

        Must be called without a running event loop (it blocks); from async
        code, submit the plan to a :class:`repro.service.CampaignService`
        instead.
        """
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            raise RuntimeError(
                "ExecutionPlan.execute() blocks and cannot run inside an event "
                "loop; submit the plan to a repro.service.CampaignService and "
                "await handle.report() instead"
            )
        from ..service import CampaignService, NodePool  # deferred: service imports campaign

        async def _run():
            pool = NodePool(self.settings.machine or "summit")
            service = CampaignService(pool)
            handle = service.submit(
                self,
                name="campaign",
                store=store,
                raise_on_error=raise_on_error,
                on_sweep_complete=on_sweep_complete,
            )
            return await handle.report()

        return asyncio.run(_run())

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-able record of the whole plan (settings, budget, predictions)."""
        record = {
            "settings": self.settings.as_dict(),
            "budget": self.budget.as_dict(),
            "predicted_wall_seconds": self.predicted_wall_seconds,
            "predicted_energy_joules": self.predicted_energy_joules,
            "predicted_nodes": self.predicted_nodes,
            "sweeps": {name: plan.as_dict() for name, plan in self.sweeps.items()},
        }
        if self.calibration is not None and not getattr(self.calibration, "is_empty", False):
            # provenance only when actually calibrated: uncalibrated plans
            # keep the exact record surface of earlier versions
            record["calibration"] = self.calibration.as_dict()
        return record

    def plan_table(self) -> str:
        """The pre-flight view: one row per sweep with its predictions."""
        from ..analysis import format_table  # deferred: keeps import cheap

        headers = ["sweep", "groups", "jobs", "predicted wall [s]", "predicted energy [J]"]
        rows = [
            [plan.name, plan.n_groups, plan.n_jobs, plan.predicted_wall_seconds, plan.predicted_energy_joules]
            for plan in self.sweeps.values()
        ]
        s = self.settings
        provenance = "uncalibrated"
        if self.calibration is not None and hasattr(self.calibration, "describe"):
            provenance = self.calibration.describe()
        footer = (
            f"machine={s.machine} gpus_per_group={s.gpus_per_group} backend={s.backend} "
            f"ranks={s.ranks} schedule={s.schedule} | campaign totals: "
            f"wall {self.predicted_wall_seconds:.3g} s, "
            f"energy {self.predicted_energy_joules:.3g} J, nodes {self.predicted_nodes}"
            f" | {provenance}"
        )
        return f"{format_table(headers, rows)}\n{footer}"


class CampaignPlanner:
    """Search execution settings that fit a campaign's budget.

    Parameters
    ----------
    spec:
        The :class:`~repro.campaign.CampaignSpec` to plan.
    machines:
        Machine preset names to search (default: every
        :data:`repro.cost.MACHINES` preset, sorted — deterministic).
    rank_options:
        Candidate virtual rank counts (default ``(1, 2, 4, 8)``); a rank
        count of 1 plans the serial backend, larger counts the distributed
        one.
    gpus_per_group_options:
        Candidate ``gpus_per_group`` values; default ``(1, <node GPU count>)``
        per machine — one GPU per group, or a whole node per group.
    policies:
        Scheduling policies to search (default ``("makespan_balanced",
        "energy_aware")`` — the two packing-aware policies).
    calibration:
        A fitted :class:`~repro.calib.CalibrationModel`: every candidate is
        priced with the :meth:`~repro.cost.MachineCostModel.calibrated` copy
        of its machine model, so plans tighten as observations accumulate.
        The chosen plan records the calibration as provenance (``as_dict()``
        / ``plan_table()``), and the service runner re-prices its pool
        accounting with the same model. Calibration never touches group keys
        or ``config_hash`` — re-planning reuses every existing checkpoint.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        machines=None,
        rank_options=(1, 2, 4, 8),
        gpus_per_group_options=None,
        policies=("makespan_balanced", "energy_aware"),
        calibration=None,
    ):
        if not isinstance(spec, CampaignSpec):
            raise ValueError(f"spec must be a CampaignSpec, got {type(spec).__name__}")
        self.spec = spec
        self.calibration = calibration
        self.machines = sorted(MACHINES) if machines is None else list(machines)
        for name in self.machines:
            resolve_machine(name)  # raises listing the presets
        self.rank_options = self._positive_ints("rank_options", rank_options)
        self.gpus_per_group_options = (
            None
            if gpus_per_group_options is None
            else self._positive_ints("gpus_per_group_options", gpus_per_group_options)
        )
        self.policies = tuple(policies)
        if not self.policies:
            raise ValueError("policies must name at least one scheduling policy")
        # grouping and the workload model are settings-independent: each
        # sweep is grouped, and each group priced in relative FLOPs, exactly
        # once; the candidate grid only converts those through machine models
        self._grouped = {name: sweep_spec.groups() for name, sweep_spec in spec.sweeps.items()}
        pricer = Scheduler(machine=None)
        self._priced = {name: pricer.price(grouped) for name, grouped in self._grouped.items()}
        # candidate pricing is *budget*-independent too: cache it, so
        # re-planning the same campaign under many budgets (what-ifs, the
        # hypothesis properties) prices the grid exactly once
        self._evaluated: list | None = None

    @staticmethod
    def _positive_ints(name: str, values) -> tuple[int, ...]:
        values = sorted({int(v) for v in values})
        if not values or values[0] < 1:
            raise ValueError(f"{name} must be a non-empty collection of integers >= 1, got {values}")
        return tuple(values)

    # ------------------------------------------------------------------
    # Candidate enumeration and pricing
    # ------------------------------------------------------------------
    def candidates(self) -> list[ExecutionSettings]:
        """The deterministic settings grid the planner searches, in order."""
        out = []
        for machine_name in self.machines:
            system = resolve_machine(machine_name)
            gpu_options = self.gpus_per_group_options or (1, system.node.gpus)
            for gpus in sorted(set(gpu_options)):
                for ranks in self.rank_options:
                    if ranks * gpus > system.n_nodes * system.node.gpus:
                        continue  # the machine cannot host this occupancy
                    for policy in self.policies:
                        out.append(
                            ExecutionSettings(
                                backend="serial" if ranks == 1 else "distributed",
                                ranks=ranks,
                                schedule=policy,
                                machine=machine_name,
                                gpus_per_group=gpus,
                            )
                        )
        return out

    def forecast(self, settings: ExecutionSettings) -> dict[str, SweepPlan]:
        """Price every sweep under ``settings`` with the execution-time
        pipeline itself (same scheduler, same machine model, same packing).

        The relative FLOPs of every group were priced once, at construction
        (the workload model reads no setting); a forecast hands copies of
        those priced groups to the settings' own
        :meth:`~repro.exec.Scheduler.order` and
        :meth:`~repro.exec.Scheduler.pack`, so what differs between
        candidates — machine, GPU slice, policy, ranks — is all that is
        recomputed, and the numbers are the ones
        :meth:`~repro.exec.Scheduler.schedule` gives at execution time.

        Raises :class:`ValueError` when a group's workload cannot be
        predicted (exotic custom structures) — the planner needs real
        numbers, unlike the scheduler, which degrades to expansion order.
        """
        scheduler = Scheduler(
            settings.schedule, machine=settings.machine_model(), calibration=self.calibration
        )
        forecasts: dict[str, SweepPlan] = {}
        for name, priced in self._priced.items():
            scheduled = scheduler.order([replace(group, notes=list(group.notes)) for group in priced])
            bad = [group.key for group in scheduled if not np.isfinite(group.predicted_seconds)]
            if bad:
                raise ValueError(
                    f"cannot plan sweep {name!r}: the cost model has no prediction for "
                    f"{len(bad)} of its {len(scheduled)} ground-state groups (custom "
                    "structure or disabled machine model?); campaigns need predictable "
                    "workloads"
                )
            scheduler.pack(scheduled, settings.ranks)
            wall = max(_rank_loads(scheduled, settings.ranks, lambda g: g.predicted_seconds))
            energy = sum(g.predicted_energy_j for g in scheduled)
            forecasts[name] = SweepPlan(
                name=name,
                n_groups=len(scheduled),
                n_jobs=sum(g.n_jobs for g in scheduled),
                predicted_wall_seconds=float(wall),
                predicted_energy_joules=float(energy),
                max_gpus_per_group=max(int(g.n_gpus) for g in scheduled),
            )
        return forecasts

    def _occupied_nodes(self, settings: ExecutionSettings, forecasts: dict[str, SweepPlan]) -> int:
        """Modeled nodes the plan occupies at any moment: each rank drives one
        group on its own GPU slice, whole nodes. The slice size is what the
        pricing actually used (a per-config ``run.machine.gpus_per_group``
        override wins over the candidate settings in the cost model, so the
        node accounting must follow it, not the candidate)."""
        system = resolve_machine(settings.machine)
        priced_gpus = max(p.max_gpus_per_group for p in forecasts.values())
        return system.nodes_for_gpus(settings.ranks * priced_gpus)

    def _totals(self, settings: ExecutionSettings, forecasts: dict[str, SweepPlan]) -> dict[str, float]:
        """The campaign-level metrics the budget constrains, per candidate."""
        return {
            "max_wall_seconds": sum(p.predicted_wall_seconds for p in forecasts.values()),
            "max_energy_joules": sum(p.predicted_energy_joules for p in forecasts.values()),
            "max_ranks": settings.ranks,
            "max_nodes": self._occupied_nodes(settings, forecasts),
        }

    # ------------------------------------------------------------------
    # The search
    # ------------------------------------------------------------------
    def _evaluate(self) -> list:
        """Price the whole candidate grid once (cached; budget-independent)."""
        if self._evaluated is None:
            self._evaluated = [
                (settings, forecasts, self._totals(settings, forecasts))
                for settings, forecasts in (
                    (settings, self.forecast(settings)) for settings in self.candidates()
                )
            ]
            if not self._evaluated:
                raise ValueError(
                    "the candidate grid is empty: no searched (machine, ranks, "
                    "gpus_per_group) combination fits on the modeled machines — widen "
                    "machines/rank_options"
                )
        return self._evaluated

    def plan(self, budget: Budget | dict | None = None) -> ExecutionPlan:
        """The fastest deterministic plan that fits the budget.

        ``budget`` overrides the spec's own budget when given (the candidate
        pricing is cached, so what-if re-planning under many budgets is
        cheap).

        Raises
        ------
        InfeasibleBudgetError
            When no candidate fits — naming the binding budget dimension and
            the cheapest value of it any candidate satisfying the remaining
            constraints can reach.
        """
        if budget is None:
            budget = self.spec.budget
        elif isinstance(budget, dict):
            budget = Budget.from_dict(budget)
        limits = budget.limits()
        evaluated = self._evaluate()
        feasible = [
            entry for entry in evaluated
            if all(entry[2][name] <= limit for name, limit in limits.items())
        ]
        if not feasible:
            raise self._infeasible(evaluated, limits)
        settings, forecasts, totals = min(
            feasible,
            key=lambda entry: (
                entry[2]["max_wall_seconds"],
                entry[2]["max_energy_joules"],
                entry[2]["max_ranks"],
                entry[0].gpus_per_group,
                entry[0].machine,
                entry[0].schedule,
            ),
        )
        return ExecutionPlan(
            self.spec,
            settings,
            forecasts,
            budget,
            predicted_nodes=int(totals["max_nodes"]),
            calibration=self.calibration,
        )

    def _infeasible(self, evaluated, limits: dict[str, float]) -> InfeasibleBudgetError:
        """Diagnose which budget dimension is binding and how far to relax it.

        For each constrained dimension (in a fixed order): among the
        candidates that satisfy every *other* limit, find the cheapest value
        of this dimension. If even that exceeds the stated limit, the
        dimension is binding and the cheapest value is the actionable
        relaxation. When the limits are mutually infeasible (no candidate
        satisfies any n-1 subset), fall back to the most-violated dimension
        against the unconstrained optimum.
        """
        units = {
            "max_wall_seconds": "s",
            "max_energy_joules": "J",
            "max_ranks": " ranks",
            "max_nodes": " nodes",
        }
        for name in _CONSTRAINT_ORDER:
            if name not in limits:
                continue
            others = {k: v for k, v in limits.items() if k != name}
            satisfying = [
                entry for entry in evaluated
                if all(entry[2][k] <= v for k, v in others.items())
            ]
            if not satisfying:
                continue
            required = min(entry[2][name] for entry in satisfying)
            if required > limits[name]:
                return InfeasibleBudgetError(
                    f"no execution plan fits the budget: {name}={limits[name]:g} is the "
                    f"binding constraint — the cheapest candidate satisfying the other "
                    f"limits still needs {required:g}{units[name]}; raise {name} to at "
                    f"least {required:g} (or widen the planner's machines/rank_options "
                    "search grid)",
                    binding=name,
                    limit=limits[name],
                    required=required,
                )
        # mutually infeasible limits: report the dimension that is furthest
        # from reachable, against the unconstrained best
        worst_name, worst_required, worst_ratio = None, None, 0.0
        for name, limit in limits.items():
            required = min(entry[2][name] for entry in evaluated)
            ratio = required / limit
            if ratio > worst_ratio:
                worst_name, worst_required, worst_ratio = name, required, ratio
        return InfeasibleBudgetError(
            f"no execution plan fits the budget and its limits are mutually "
            f"infeasible; the furthest-out dimension is {worst_name}={limits[worst_name]:g} "
            f"(no candidate gets below {worst_required:g}{units[worst_name]}) — relax "
            f"{worst_name} first, then re-plan",
            binding=worst_name,
            limit=limits[worst_name],
            required=worst_required,
        )
