"""Budget-driven campaigns: plan → execute → report, in one declarative API.

The paper's whole point is running *many* large propagations under hard
machine budgets (Summit wall-clock and power envelopes, Figs. 7/8 and
Table 1). This package is that workflow for our sweeps, and the single entry
point that unifies the scattered ``repro.batch`` / ``repro.exec`` /
``repro.cost`` knobs:

1. a :class:`CampaignSpec` names one or more :class:`~repro.batch.SweepSpec`\\ s
   and states a :class:`Budget` (max wall seconds, max joules, max ranks,
   max nodes — any subset);
2. a :class:`CampaignPlanner` *inverts* the cost stack — it searches machine
   preset x GPUs per group x rank count x scheduling policy with the same
   :class:`~repro.cost.MachineCostModel` + :class:`~repro.exec.Scheduler`
   pipeline execution uses, and returns the fastest deterministic
   :class:`ExecutionPlan` that fits (or raises :class:`InfeasibleBudgetError`
   naming the binding constraint and its cheapest relaxation);
3. :meth:`ExecutionPlan.execute` drives a :class:`~repro.batch.BatchRunner`
   per sweep with the chosen frozen :class:`~repro.exec.ExecutionSettings`,
   returning a :class:`CampaignReport` whose :meth:`~CampaignReport.plan_table`
   compares predicted and observed wall time per sweep.

The one-call facade (also re-exported as ``repro.api.plan`` / ``repro.api.run``):

.. code-block:: python

    from repro.campaign import Budget, plan

    execution_plan = plan(
        {"dt-scan": dt_spec, "cutoff-scan": ecut_spec},
        budget=Budget(max_wall_seconds=3600.0, max_nodes=16),
    )
    print(execution_plan.plan_table())       # settings + predictions, pre-flight
    report = execution_plan.execute("store")  # resumable, like any sweep
    print(report.plan_table())               # predicted vs observed

Settings never touch job identity: planning, re-planning, or switching
machines reuses every stored result bit-for-bit.
"""

from .planner import CampaignPlanner, ExecutionPlan, SweepPlan
from .report import CampaignReport
from .spec import Budget, CampaignSpec, InfeasibleBudgetError

__all__ = [
    "Budget",
    "CampaignPlanner",
    "CampaignReport",
    "CampaignSpec",
    "ExecutionPlan",
    "InfeasibleBudgetError",
    "SweepPlan",
    "plan",
    "run",
]


def plan(sweeps, budget: Budget | dict | None = None, **planner_options) -> ExecutionPlan:
    """Plan a campaign in one call: sweeps + budget → :class:`ExecutionPlan`.

    ``sweeps`` is a :class:`CampaignSpec`, a single
    :class:`~repro.batch.SweepSpec`, or a mapping of name →
    :class:`~repro.batch.SweepSpec`; ``budget`` (a :class:`Budget` or its
    dict form) overrides the spec's own budget when given. Extra keyword
    arguments parameterise the :class:`CampaignPlanner` search grid
    (``machines=``, ``rank_options=``, ``gpus_per_group_options=``,
    ``policies=``).
    """
    if isinstance(sweeps, CampaignSpec):
        spec = sweeps if budget is None else sweeps.with_budget(budget)
    else:
        spec = CampaignSpec(sweeps, budget=budget)
    return CampaignPlanner(spec, **planner_options).plan()


def run(
    sweeps,
    budget: Budget | dict | None = None,
    *,
    store=None,
    raise_on_error: bool = False,
    on_sweep_complete=None,
    **planner_options,
) -> CampaignReport:
    """Plan and execute a campaign in one call; returns the
    :class:`CampaignReport` (see :func:`plan` for the arguments; ``store`` —
    a :class:`~repro.store.ResultStore` or its root directory — makes the run
    incremental; ``on_sweep_complete(name, report)`` is called after each
    sweep)."""
    return plan(sweeps, budget, **planner_options).execute(
        store,
        raise_on_error=raise_on_error,
        on_sweep_complete=on_sweep_complete,
    )
