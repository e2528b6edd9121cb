"""One shared modeled cluster, leased out to many concurrent sweeps.

The campaign planner already *prices* occupancy — ``ranks x gpus_per_group``
GPUs, whole nodes, via :meth:`~repro.machine.summit.SummitSystem.nodes_for_gpus`
(see ``CampaignPlanner._occupied_nodes``). The :class:`NodePool` *enforces*
the same rule at run time: every executing sweep holds a :class:`Lease` on a
disjoint set of node ids, so independent sweeps from different campaigns
co-schedule side by side instead of serialising, and the pool can never be
oversubscribed beyond what the cost stack priced.

Time in the pool is **modeled time**, the same clock the cost stack predicts
in: each node remembers the modeled instant it becomes free, a lease starts at
the latest of its request's arrival time and its nodes' free times, and ends
``start + modeled_duration`` when released (the duration being the predicted
seconds of the groups that actually ran under it). Real in-process execution
only decides the *order* of grants; the calendar itself is deterministic, so
the co-scheduled makespan of a set of campaigns is a reproducible prediction,
comparable against the serial sum of their planned walls.

Waiters queue by ``(priority desc, submission order)`` with head-of-line
blocking — a big request is never starved by smaller ones slipping past it.
When the head waiter outranks running work, the pool flags the cheapest
reclaimable lower-priority leases (:attr:`Lease.preempt_requested`); the
owning sweep observes the flag at its next group boundary, releases, and
re-queues — checkpointed groups are never redone.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field

from ..cost.model import resolve_machine

__all__ = ["Lease", "NodePool", "PoolCapacityError"]


class PoolCapacityError(ValueError):
    """A lease request can never fit the pool, even when it is idle."""


@dataclass
class Lease:
    """A grant of disjoint nodes (and the rank slots on them) to one sweep.

    Attributes
    ----------
    tenant, sweep:
        Who holds the lease (campaign name, sweep name) — accounting only.
    ranks, gpus_per_group:
        The occupancy the lease was sized for: ``ranks`` virtual ranks, each
        driving a ``gpus_per_group``-GPU slice.
    nodes:
        The node ids granted — disjoint from every other active lease.
    gpus_per_node:
        The modeled node's GPU count (fixed by the pool's machine preset).
    priority:
        The holder's campaign priority; lower-priority leases are the ones a
        higher-priority arrival may reclaim.
    arrival:
        Modeled time the request was eligible to start (a preempted sweep
        re-queues with the modeled end of its released segment).
    start:
        Modeled grant time: ``max(arrival, nodes' free times)``.
    end:
        Modeled release time (``start + duration``); ``None`` while active.
    """

    tenant: str
    sweep: str
    ranks: int
    gpus_per_group: int
    nodes: tuple[int, ...]
    gpus_per_node: int
    priority: int
    arrival: float
    start: float
    end: float | None = None
    _preempt: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    @property
    def n_nodes(self) -> int:
        """Nodes held by the lease."""
        return len(self.nodes)

    @property
    def preempt_requested(self) -> bool:
        """Whether the pool asked the holder to yield at a group boundary."""
        return self._preempt.is_set()

    @property
    def duration(self) -> float | None:
        """Modeled seconds the lease held its nodes (``None`` while active).
        Under adaptive re-planning this is where leases visibly shrink or
        grow: the released segment is charged its re-priced seconds."""
        return None if self.end is None else self.end - self.start

    def as_dict(self) -> dict:
        """JSON-able accounting record (progress views and benchmarks)."""
        return {
            "tenant": self.tenant,
            "sweep": self.sweep,
            "ranks": self.ranks,
            "gpus_per_group": self.gpus_per_group,
            "nodes": list(self.nodes),
            "priority": self.priority,
            "arrival": self.arrival,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }


@dataclass
class _Waiter:
    """One queued lease request: granted (future resolved) in priority order."""

    needed: int
    ranks: int
    gpus_per_group: int
    priority: int
    arrival: float
    tenant: str
    sweep: str
    seq: int
    future: asyncio.Future = field(repr=False, default=None)

    @property
    def order(self) -> tuple[int, int]:
        """Queue position: priority first (descending), then submission."""
        return (-self.priority, self.seq)


class NodePool:
    """A shared modeled cluster: one machine preset x a node count.

    Parameters
    ----------
    machine:
        A :data:`repro.cost.MACHINES` preset name; fixes the node geometry
        (GPUs per node) and therefore the capacity rule.
    n_nodes:
        Nodes in the pool (default: the whole modeled machine). Must not
        exceed the preset's node count — the pool is a partition of the
        machine the cost stack priced, not a bigger one.

    The pool's modeled calendar starts at 0.
    """

    def __init__(self, machine: str = "summit", n_nodes: int | None = None):
        self.machine = machine
        self.system = resolve_machine(machine)
        total = self.system.n_nodes if n_nodes is None else int(n_nodes)
        if not 1 <= total <= self.system.n_nodes:
            raise ValueError(
                f"n_nodes must be between 1 and the {self.machine!r} preset's "
                f"{self.system.n_nodes} nodes, got {total}"
            )
        self.n_nodes = total
        self._free: set[int] = set(range(total))
        self._free_time: list[float] = [0.0] * total
        self._waiters: list[_Waiter] = []
        self._seq = itertools.count()
        self.active: list[Lease] = []
        self.history: list[Lease] = []

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def nodes_needed(self, ranks: int, gpus_per_group: int = 1) -> int:
        """Whole nodes a ``ranks x gpus_per_group`` occupancy holds — the
        exact rule the planner prices (``system.nodes_for_gpus``)."""
        return self.system.nodes_for_gpus(int(ranks) * int(gpus_per_group))

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------
    async def acquire(
        self,
        ranks: int,
        gpus_per_group: int = 1,
        *,
        priority: int = 0,
        arrival: float | None = None,
        tenant: str = "campaign",
        sweep: str = "sweep",
    ) -> Lease:
        """Wait for (and return) a lease hosting the requested occupancy.

        Grants are strictly ordered by ``(priority desc, submission order)``;
        a request that can never fit an idle pool raises
        :class:`PoolCapacityError` immediately. Cancelling the awaiting task
        removes the request from the queue.
        """
        needed = self.nodes_needed(ranks, gpus_per_group)
        if needed > self.n_nodes:
            raise PoolCapacityError(
                f"lease of {ranks} rank(s) x {gpus_per_group} GPU(s) needs {needed} "
                f"{self.machine!r} node(s) but the pool holds only {self.n_nodes}; "
                "shrink the plan's occupancy or build a larger NodePool"
            )
        waiter = _Waiter(
            needed=needed,
            ranks=int(ranks),
            gpus_per_group=int(gpus_per_group),
            priority=int(priority),
            arrival=0.0 if arrival is None else float(arrival),
            tenant=tenant,
            sweep=sweep,
            seq=next(self._seq),
            future=asyncio.get_running_loop().create_future(),
        )
        self._waiters.append(waiter)
        self._waiters.sort(key=lambda w: w.order)
        self._dispatch()
        try:
            return await waiter.future
        except asyncio.CancelledError:
            if waiter in self._waiters:
                self._waiters.remove(waiter)
                self._dispatch()  # the head may have been blocked behind us
            raise

    def release(self, lease: Lease, modeled_seconds: float) -> None:
        """Return a lease's nodes, stamping its modeled end time.

        ``modeled_seconds`` is the predicted duration of the work that
        actually ran under the lease (the packed makespan of its executed
        groups); the freed nodes become available — in modeled time — at
        ``lease.start + modeled_seconds``.
        """
        if lease not in self.active:
            raise ValueError(
                f"lease of {lease.tenant}/{lease.sweep} is not active in this pool "
                "(released twice, or released to the wrong pool?)"
            )
        lease.end = lease.start + max(0.0, float(modeled_seconds))
        for node in lease.nodes:
            self._free_time[node] = lease.end
            self._free.add(node)
        self.active.remove(lease)
        self.history.append(lease)
        self._dispatch()

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Grant queued waiters in order while capacity lasts; when the head
        cannot be served, ask lower-priority active leases to yield."""
        while self._waiters and self._waiters[0].needed <= len(self._free):
            self._grant(self._waiters.pop(0))
        if self._waiters:
            self._request_preemption(self._waiters[0])

    def _grant(self, waiter: _Waiter) -> None:
        take = sorted(self._free, key=lambda n: (self._free_time[n], n))[: waiter.needed]
        start = max([waiter.arrival] + [self._free_time[n] for n in take])
        lease = Lease(
            tenant=waiter.tenant,
            sweep=waiter.sweep,
            ranks=waiter.ranks,
            gpus_per_group=waiter.gpus_per_group,
            nodes=tuple(sorted(take)),
            gpus_per_node=self.system.node.gpus,
            priority=waiter.priority,
            arrival=waiter.arrival,
            start=start,
        )
        self._free.difference_update(take)
        self.active.append(lease)
        if not waiter.future.done():  # the awaiting task may have been cancelled
            waiter.future.set_result(lease)
        else:  # pragma: no cover - cancel raced the grant; don't leak the nodes
            self.release(lease, 0.0)

    def _request_preemption(self, waiter: _Waiter) -> None:
        """Flag just enough strictly-lower-priority leases to free the head
        waiter's nodes; holders yield at their next group boundary."""
        reclaimable = len(self._free) + sum(
            lease.n_nodes for lease in self.active if lease.preempt_requested
        )
        if reclaimable >= waiter.needed:
            return  # enough already freed or on the way out
        victims = sorted(
            (lease for lease in self.active
             if lease.priority < waiter.priority and not lease.preempt_requested),
            key=lambda lease: (lease.priority, -lease.start),
        )
        for lease in victims:
            if reclaimable >= waiter.needed:
                break
            lease._preempt.set()
            reclaimable += lease.n_nodes

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def makespan(self) -> float:
        """Modeled makespan of everything the pool has completed so far: the
        latest lease end (the calendar starts at 0)."""
        return max((lease.end for lease in self.history), default=0.0)

    def busy_node_seconds(self) -> float:
        """Total modeled node-seconds of released leases (utilisation numerator)."""
        return sum(lease.n_nodes * (lease.end - lease.start) for lease in self.history)

    def utilisation(self) -> float:
        """Fraction of the pool's node-time the completed leases occupied."""
        span = self.makespan()
        if span <= 0.0:
            return 0.0
        return self.busy_node_seconds() / (span * self.n_nodes)
