"""Multi-tenant campaign service: co-scheduling on a shared modeled pool.

The paper's production campaigns shared Summit with other tenants; the
:mod:`repro.service` layer reproduces that contention in predicted wall-clock.
This benchmark submits two single-node campaigns to a 2-node
:class:`~repro.service.NodePool`, measures the real async-dispatch overhead
under ``pytest-benchmark``, and checks the layer's acceptance property: the
co-scheduled modeled makespan is strictly below the serial sum of the two
plans while the physics export stays backend-invariant.
"""

import asyncio

from repro.analysis import format_table
from repro.api import SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.campaign import Budget, CampaignSpec
from repro.service import CampaignService, NodePool

#: the tiny semi-local H2 base config shared by both tenant campaigns
_BASE = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}


def _tenants() -> dict[str, CampaignSpec]:
    base = SimulationConfig.from_dict(_BASE)
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


def _co_schedule():
    """One smoke round: two campaigns through a shared 2-node summit pool."""
    pool = NodePool("summit", n_nodes=2)
    service = CampaignService(pool)

    async def body():
        handles = {name: service.submit(spec, name=name) for name, spec in _tenants().items()}
        reports = await asyncio.gather(*(h.report() for h in handles.values()))
        return handles, dict(zip(handles, reports))

    handles, reports = asyncio.run(body())
    return pool, handles, reports


def test_bench_service_co_scheduling(benchmark, report_writer):
    """Two campaigns sharing a 2-node pool finish in less modeled makespan than
    their plans run serially, with physics bit-identical to hand-configured runs."""
    pool, handles, reports = benchmark(_co_schedule)

    serial = sum(h.plan.predicted_wall_seconds for h in handles.values())
    co_scheduled = pool.makespan()
    # the acceptance property: sharing the pool strictly beats running serially
    assert co_scheduled < serial
    assert all(report.ok for report in reports.values())

    # physics through the service is bit-identical to hand-configured runs
    for name, spec in _tenants().items():
        for sweep_name, sweep in spec.sweeps.items():
            hand = BatchRunner(sweep).run()
            assert reports[name][sweep_name].to_json(exclude_timings=True) == hand.to_json(
                exclude_timings=True
            )

    report_writer(
        "service_co_scheduling",
        format_table(
            ["tenant", "jobs", "predicted wall [s]", "lease windows (modeled)"],
            [
                [
                    name,
                    reports[name].n_jobs,
                    f"{handle.plan.predicted_wall_seconds:.3g}",
                    " ".join(
                        f"[{lease.start:.3g}, {lease.end:.3g})"
                        for lease in pool.history
                        if lease.tenant.split("/")[0] == name
                    ),
                ]
                for name, handle in handles.items()
            ],
        )
        + f"\nserial sum {serial:.3g} s -> co-scheduled {co_scheduled:.3g} s "
        f"({serial / co_scheduled:.2f}x on {pool.n_nodes} nodes, "
        f"utilisation {pool.utilisation():.0%})",
    )


def test_bench_service_preemption(benchmark, report_writer):
    """Priority arrival preempts at a group boundary; both campaigns finish
    with full physics and the preempted one never redoes a finished group."""

    def contended_round():
        pool = NodePool("summit", n_nodes=1)
        service = CampaignService(pool)
        tenants = _tenants()

        async def body():
            low = service.submit(tenants["tenant-a"], priority=0, name="low")
            await asyncio.sleep(0)
            high = service.submit(tenants["tenant-b"], priority=5, name="high")
            return (low, high), await asyncio.gather(low.report(), high.report())

        handles, reports = asyncio.run(body())
        return pool, handles, reports

    pool, (low, high), (low_report, high_report) = benchmark(contended_round)

    assert low.progress()["preemptions"] >= 1
    assert low_report.ok and high_report.ok
    tenants = [lease.tenant for lease in pool.history]
    assert tenants.count("low") >= 2 and "high" in tenants

    report_writer(
        "service_preemption",
        format_table(
            ["lease", "priority", "modeled start [s]", "modeled end [s]"],
            [
                [lease.tenant, lease.priority, f"{lease.start:.3g}", f"{lease.end:.3g}"]
                for lease in pool.history
            ],
        )
        + f"\nlow-priority campaign preempted {low.progress()['preemptions']} time(s)",
    )
