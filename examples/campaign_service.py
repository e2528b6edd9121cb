#!/usr/bin/env python
"""Async multi-tenant campaigns over one shared node pool.

The paper ran its PT-CN production sweeps on Summit as one tenant among many:
jobs queue against a shared machine, the scheduler leases disjoint node sets,
and higher-priority work preempts at safe boundaries. ``repro.service``
reproduces that workflow one level down — a :class:`~repro.service.NodePool`
models the machine's calendar in predicted wall-clock, and an asyncio
:class:`~repro.service.CampaignService` admits many campaigns concurrently,
leasing disjoint rank sets to their sweeps and preempting at ground-state
group boundaries (checkpoints make preemption free: no finished work reruns).

The smoke mode is also the acceptance harness of the service layer: two
campaigns submitted to a 2-node pool must finish in strictly less modeled
makespan than running their plans serially, with a physics export
bit-identical to hand-configured ``BatchRunner`` runs.

Usage:
    python examples/campaign_service.py            # full walkthrough + preemption demo
    python examples/campaign_service.py --smoke    # CI acceptance smoke
    python examples/campaign_service.py --machine frontier
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.api import SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.campaign import Budget, CampaignSpec
from repro.service import CampaignService, NodePool

#: the tiny semi-local H2 base config shared by both tenants' sweeps
BASE = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}


def build_tenants() -> dict[str, CampaignSpec]:
    """Two single-sweep campaigns, each sized to one modeled node, so a
    2-node pool can run them truly side by side."""
    base = SimulationConfig.from_dict(BASE)
    return {
        "tenant-a": CampaignSpec(
            {"cutoff-scan": SweepSpec(base, {"basis.ecut": [1.5, 1.7, 2.0, 2.2]})},
            budget=Budget(max_nodes=1),
        ),
        "tenant-b": CampaignSpec(
            {"dt-scan": SweepSpec(base, {"run.time_step_as": [1.0, 2.0]})},
            budget=Budget(max_nodes=1),
        ),
    }


async def co_schedule(machine: str, *, verbose: bool = True):
    """Submit both tenants to one shared pool; returns (pool, handles, reports)."""
    pool = NodePool(machine, n_nodes=2)
    service = CampaignService(pool)
    handles = {
        name: service.submit(spec, name=name)
        for name, spec in build_tenants().items()
    }
    if verbose:
        for name, handle in handles.items():
            print(f"[{name}] admitted: predicted wall "
                  f"{handle.plan.predicted_wall_seconds:.3g} s on {machine}")
        # the handles stream progress while the campaigns run
        await asyncio.sleep(0)
        for name, handle in handles.items():
            progress = handle.progress()
            print(f"[{name}] mid-flight: state={progress['state']} "
                  f"jobs {progress['jobs_done']}/{progress['n_jobs']}")
    reports = dict(
        zip(handles, await asyncio.gather(*(h.report() for h in handles.values())))
    )
    return pool, handles, reports


async def preemption_demo(machine: str) -> None:
    """A priority-5 tenant arrives mid-campaign and preempts a priority-0 one
    at a ground-state group boundary; both still finish with full physics."""
    pool = NodePool(machine, n_nodes=1)
    service = CampaignService(pool)
    tenants = build_tenants()
    low = service.submit(tenants["tenant-a"], priority=0, name="low")
    await asyncio.sleep(0)  # let the low campaign take the node
    high = service.submit(tenants["tenant-b"], priority=5, name="high")
    await asyncio.gather(low.report(), high.report())
    print("\nPreemption on a 1-node pool (priority 5 arrives mid-campaign):")
    for lease in pool.history:
        print(f"  {lease.tenant:<18} modeled [{lease.start:8.3g} s, {lease.end:8.3g} s)")
    print(f"  low-priority campaign preempted {low.progress()['preemptions']} time(s); "
          "checkpoints meant zero redone groups")


def smoke(machine: str) -> int:
    """CI smoke: co-scheduling beats serial on modeled makespan and the
    physics export is bit-identical to hand-configured runs."""
    pool, handles, reports = asyncio.run(co_schedule(machine))

    serial = sum(h.plan.predicted_wall_seconds for h in handles.values())
    co_scheduled = pool.makespan()
    if not co_scheduled < serial:
        print(
            f"smoke FAILED: co-scheduled makespan {co_scheduled:.6g} s is not "
            f"strictly below the serial sum {serial:.6g} s",
            file=sys.stderr,
        )
        return 1
    print(f"co-scheduled makespan {co_scheduled:.3g} s < serial sum {serial:.3g} s "
          f"(speedup {serial / co_scheduled:.2f}x on {pool.n_nodes} nodes)")

    if not all(report.ok for report in reports.values()):
        print("smoke FAILED: a campaign reported failed jobs", file=sys.stderr)
        return 1

    for name, spec in build_tenants().items():
        for sweep_name, sweep in spec.sweeps.items():
            hand = BatchRunner(sweep).run()
            ours = reports[name][sweep_name]
            if ours.to_json() != hand.to_json():
                print(
                    f"smoke FAILED: {name}/{sweep_name}: service execution differs "
                    "from a hand-configured BatchRunner",
                    file=sys.stderr,
                )
                return 1
    print("physics export is bit-identical to hand-configured BatchRunner runs")

    print(f"smoke ok: {len(handles)} campaigns co-scheduled on a shared "
          f"{pool.n_nodes}-node {machine} pool")
    return 0


def main(machine: str) -> int:
    pool, handles, reports = asyncio.run(co_schedule(machine))
    print(f"\nShared {machine} pool, {pool.n_nodes} nodes:")
    print(f"  serial sum of plans : {sum(h.plan.predicted_wall_seconds for h in handles.values()):.3g} s")
    print(f"  co-scheduled        : {pool.makespan():.3g} s")
    print(f"  pool utilisation    : {pool.utilisation():.0%}")
    for name, report in reports.items():
        print(f"\n[{name}]")
        print(report.plan_table())
    asyncio.run(preemption_demo(machine))
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="run the CI acceptance smoke")
    parser.add_argument(
        "--machine",
        choices=["summit", "frontier"],
        default="summit",
        help="machine preset the shared pool models (default: summit)",
    )
    args = parser.parse_args()
    if args.smoke:
        sys.exit(smoke(args.machine))
    sys.exit(main(args.machine))
