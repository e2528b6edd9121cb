#!/usr/bin/env python
"""Budget-driven campaigns: plan → execute → report in three calls.

The paper planned its production PT-CN runs against hard Summit budgets —
wall-clock hours and a power envelope (Section 6). ``repro.campaign`` states
that workflow declaratively: name your sweeps, state a budget, and let the
planner invert the cost model — it searches machine preset x GPUs per group x
rank count x scheduling policy and returns the fastest plan that fits, or an
:class:`~repro.campaign.InfeasibleBudgetError` naming the binding constraint
and the cheapest relaxation.

The smoke mode is also the acceptance harness of the campaign layer: it
checks that every emitted plan is budget-sound under the cost model, that
infeasible budgets fail actionably, and that planner-driven execution is
bit-identical (physics export) to a hand-configured ``BatchRunner``.

Usage:
    python examples/campaign.py                      # full walkthrough
    python examples/campaign.py --smoke              # CI smoke, all presets searched
    python examples/campaign.py --smoke --machine frontier
    python examples/campaign.py --machine summit --budget-wall 7200
"""

from __future__ import annotations

import argparse
import sys

from repro.api import Budget, InfeasibleBudgetError, SimulationConfig, plan
from repro.batch import BatchRunner, SweepSpec

#: the tiny semi-local H2 base every sweep of the demo campaign starts from
BASE = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}


def build_campaign(smoke: bool) -> dict[str, SweepSpec]:
    """Two named sweeps: a cutoff scan (4 ground-state groups — something to
    pack) and a dt scan (1 group, 2 propagations — something cheap)."""
    base = SimulationConfig.from_dict(BASE)
    cutoffs = [1.5, 1.7, 2.0, 2.2] if smoke else [1.5, 1.7, 2.0, 2.2, 2.5, 3.0]
    return {
        "cutoff-scan": SweepSpec(base, {"basis.ecut": cutoffs}),
        "dt-scan": SweepSpec(base, {"run.time_step_as": [1.0, 2.0]}),
    }


def run_campaign(machine: str | None, budget: Budget, *, verbose: bool = True):
    """Plan and execute the demo campaign; returns (plan, report)."""
    sweeps = build_campaign(smoke=True)
    machines = None if machine is None else [machine]
    execution_plan = plan(sweeps, budget, machines=machines)
    if verbose:
        print("Execution plan (pre-flight):\n")
        print(execution_plan.plan_table())
        print()
    report = execution_plan.execute()
    if verbose:
        print("Campaign report (predicted vs observed):\n")
        print(report.plan_table())
        print()
    return execution_plan, report


def smoke(machine: str | None) -> int:
    """CI smoke: budget soundness, actionable infeasibility, bit-identical
    physics, JSON round-trips; exits nonzero on any failure."""
    budget = Budget(max_wall_seconds=60.0, max_energy_joules=1.0e6, max_ranks=4)
    execution_plan, report = run_campaign(machine, budget)

    # 1. budget soundness under the cost model
    if execution_plan.predicted_wall_seconds > budget.max_wall_seconds:
        print("smoke FAILED: plan exceeds the wall budget", file=sys.stderr)
        return 1
    if execution_plan.predicted_energy_joules > budget.max_energy_joules:
        print("smoke FAILED: plan exceeds the energy budget", file=sys.stderr)
        return 1
    if execution_plan.settings.ranks > budget.max_ranks:
        print("smoke FAILED: plan exceeds the rank budget", file=sys.stderr)
        return 1

    # 2. an impossible budget must fail with the binding constraint named
    try:
        plan(build_campaign(smoke=True), Budget(max_wall_seconds=1e-15),
             machines=None if machine is None else [machine])
    except InfeasibleBudgetError as exc:
        if exc.binding != "max_wall_seconds" or not exc.required > exc.limit:
            print(f"smoke FAILED: unhelpful infeasibility diagnosis: {exc}", file=sys.stderr)
            return 1
        print(f"infeasible budget diagnosed as expected:\n  {exc}\n")
    else:
        print("smoke FAILED: impossible budget did not raise", file=sys.stderr)
        return 1

    # 3. every job completed
    if not report.ok:
        print(f"smoke FAILED: {report.n_failed} job(s) failed", file=sys.stderr)
        return 1

    # 4. physics is bit-identical to a hand-configured BatchRunner
    for name, spec in build_campaign(smoke=True).items():
        hand = BatchRunner(spec).run()
        if report[name].to_json() != hand.to_json():
            print(
                f"smoke FAILED: sweep {name!r}: planned execution differs from a "
                "hand-configured BatchRunner",
                file=sys.stderr,
            )
            return 1
    print("physics export is bit-identical to hand-configured BatchRunner runs")

    # 5. the campaign report round-trips through JSON
    rebuilt = type(report).from_json(report.to_json())
    if rebuilt.to_json() != report.to_json():
        print("smoke FAILED: CampaignReport JSON round-trip drifted", file=sys.stderr)
        return 1

    chosen = execution_plan.settings
    print(
        f"smoke ok: campaign of {report.n_jobs} jobs planned onto "
        f"machine={chosen.machine} ranks={chosen.ranks} "
        f"gpus_per_group={chosen.gpus_per_group} schedule={chosen.schedule} "
        "within budget"
    )
    return 0


def main(machine: str | None, budget_wall: float | None) -> int:
    budget = Budget(max_wall_seconds=budget_wall, max_ranks=8)
    try:
        _, report = run_campaign(machine, budget)
    except InfeasibleBudgetError as exc:
        print(f"campaign is infeasible under this budget:\n  {exc}", file=sys.stderr)
        return 2
    for name in report.sweep_names:
        print(f"[{name}]")
        print(report[name].to_table())
        print()
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="run the CI acceptance smoke")
    parser.add_argument(
        "--machine",
        choices=["summit", "frontier"],
        default=None,
        help="restrict the planner to one machine preset (default: search all)",
    )
    parser.add_argument(
        "--budget-wall",
        type=float,
        default=None,
        help="campaign wall-clock budget in modeled seconds (full mode)",
    )
    args = parser.parse_args()
    if args.smoke:
        sys.exit(smoke(args.machine))
    sys.exit(main(args.machine, args.budget_wall))
