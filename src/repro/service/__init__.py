"""Async multi-tenant campaign service over a shared node pool.

The campaign layer (:mod:`repro.campaign`) plans and runs one campaign for
one blocking caller; this package is its always-on, many-tenant shape — the
paper's production reality of a fixed machine shared by many budgeted runs:

1. a :class:`NodePool` models one shared cluster (machine preset × node
   count) whose nodes are *leased* to sweeps under the exact capacity rule
   the cost stack prices (``ranks × gpus_per_group`` GPUs, whole nodes), on
   a deterministic modeled-time calendar;
2. a :class:`CampaignService` admits campaigns concurrently —
   ``submit(spec, budget, priority=...)`` plans each one against the pool
   through the :class:`~repro.campaign.CampaignPlanner` and rejects
   infeasible submissions synchronously — then runs them as :mod:`asyncio`
   tasks whose sweeps interleave at ground-state-group boundaries;
3. priorities preempt: a higher-priority arrival reclaims leases at group
   boundaries, and preempted sweeps resume with their next unstarted group
   without redoing finished work;
4. every submission returns a streaming :class:`CampaignHandle` —
   ``status()`` / ``progress()`` / ``partial_report()`` mid-flight,
   ``await handle.report()`` for the final
   :class:`~repro.campaign.CampaignReport`.

Physics stays bit-identical to the blocking path: the service steps, one
``run_group`` at a time, the same :class:`~repro.exec.SerialBackend` whose
``run(groups)`` a :class:`~repro.batch.BatchRunner` calls, so a campaign's
physics export (``to_json()``) matches
:meth:`~repro.campaign.ExecutionPlan.execute` exactly; concurrency lives
only in the *modeled* calendar, where co-scheduled campaigns finish in the
pool's makespan instead of the serial sum of their plans.

.. code-block:: python

    import asyncio
    from repro.service import CampaignService, NodePool

    async def main():
        service = CampaignService(NodePool("summit", n_nodes=2))
        a = service.submit(spec_a, budget_a)                 # tenant A
        b = service.submit(spec_b, budget_b, priority=1)     # tenant B, urgent
        print(a.progress())                                  # live, JSON-able
        return await asyncio.gather(a.report(), b.report())

    report_a, report_b = asyncio.run(main())
"""

from .handle import CampaignHandle, SweepProgress
from .pool import Lease, NodePool, PoolCapacityError
from .runner import SweepOutcome, run_sweep
from .service import CampaignService

__all__ = [
    "CampaignHandle",
    "CampaignService",
    "Lease",
    "NodePool",
    "PoolCapacityError",
    "SweepOutcome",
    "SweepProgress",
    "run_sweep",
]
