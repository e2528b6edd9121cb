"""NodePool unit tests: capacity rules, the modeled-time calendar, priority
ordering, preemption flagging — all pure accounting, no physics.
"""

import asyncio
import json

import pytest

from repro.cost import MACHINES
from repro.service import NodePool, PoolCapacityError


def run(coro):
    """Drive one async test body (the suite avoids an asyncio pytest plugin)."""
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Capacity: the pool enforces what the cost stack prices
# ---------------------------------------------------------------------------


class TestCapacity:
    def test_nodes_needed_matches_the_machine_rule(self):
        pool = NodePool("summit", n_nodes=8)
        system = MACHINES["summit"]
        for ranks, gpus in [(1, 1), (4, 1), (6, 1), (7, 1), (4, 6), (2, 3)]:
            assert pool.nodes_needed(ranks, gpus) == system.nodes_for_gpus(ranks * gpus)
        assert pool.nodes_needed(4, 1) == 1   # 4 GPUs fit one 6-GPU node
        assert pool.nodes_needed(7, 1) == 2
        assert pool.nodes_needed(4, 6) == 4   # whole-node groups

    def test_pool_size_is_bounded_by_the_machine_preset(self):
        summit_nodes = MACHINES["summit"].n_nodes
        assert NodePool("summit").n_nodes == summit_nodes
        with pytest.raises(ValueError, match="between 1 and"):
            NodePool("summit", n_nodes=0)
        with pytest.raises(ValueError, match="between 1 and"):
            NodePool("summit", n_nodes=summit_nodes + 1)

    def test_oversized_lease_is_rejected_immediately(self):
        async def body():
            pool = NodePool("summit", n_nodes=1)
            with pytest.raises(PoolCapacityError, match="holds only 1"):
                await pool.acquire(4, 6)  # 24 GPUs = 4 nodes > the pool

        run(body())

    def test_double_release_is_an_error(self):
        async def body():
            pool = NodePool("summit", n_nodes=1)
            lease = await pool.acquire(4, 1)
            pool.release(lease, 1.0)
            with pytest.raises(ValueError, match="not active"):
                pool.release(lease, 1.0)

        run(body())


# ---------------------------------------------------------------------------
# The modeled-time calendar
# ---------------------------------------------------------------------------


class TestCalendar:
    def test_disjoint_leases_overlap_and_makespan_is_the_max(self):
        async def body():
            pool = NodePool("summit", n_nodes=2)
            a = await pool.acquire(4, 1, tenant="A")
            b = await pool.acquire(4, 1, tenant="B")
            assert set(a.nodes).isdisjoint(b.nodes)
            assert a.start == 0.0 and b.start == 0.0  # truly side by side
            pool.release(a, 10.0)
            pool.release(b, 4.0)
            assert pool.makespan() == pytest.approx(10.0)  # max, not 14
            assert pool.busy_node_seconds() == pytest.approx(14.0)
            assert 0.0 < pool.utilisation() <= 1.0

        run(body())

    def test_contention_serialises_on_the_calendar(self):
        async def body():
            pool = NodePool("summit", n_nodes=1)
            a = await pool.acquire(4, 1, tenant="A")
            waiter = asyncio.ensure_future(pool.acquire(4, 1, tenant="B"))
            await asyncio.sleep(0)
            assert not waiter.done()  # no free node yet
            pool.release(a, 10.0)
            b = await waiter
            assert b.start == pytest.approx(10.0)  # starts when the node frees
            pool.release(b, 5.0)
            assert pool.makespan() == pytest.approx(15.0)  # serialised: 10 + 5

        run(body())

    def test_arrival_later_than_the_free_time_delays_the_start(self):
        async def body():
            pool = NodePool("summit", n_nodes=1)
            lease = await pool.acquire(4, 1, arrival=7.5)
            assert lease.start == pytest.approx(7.5)
            pool.release(lease, 2.0)
            assert lease.end == pytest.approx(9.5)

        run(body())

    def test_snapshot_is_json_serialisable(self):
        async def body():
            pool = NodePool("summit", n_nodes=2)
            lease = await pool.acquire(2, 1, tenant="A", sweep="s")
            pool.release(lease, 3.0)
            record = pool.history[0].as_dict()
            json.dumps(record)
            assert record["tenant"] == "A" and record["ranks"] == 2
            assert pool.makespan() == pytest.approx(3.0)

        run(body())


# ---------------------------------------------------------------------------
# Priorities and preemption flags
# ---------------------------------------------------------------------------


class TestPriority:
    def test_grants_follow_priority_then_submission_order(self):
        async def body():
            pool = NodePool("summit", n_nodes=1)
            first = await pool.acquire(4, 1, tenant="A")
            low = asyncio.ensure_future(pool.acquire(4, 1, priority=0, tenant="low"))
            await asyncio.sleep(0)
            high = asyncio.ensure_future(pool.acquire(4, 1, priority=5, tenant="high"))
            await asyncio.sleep(0)
            pool.release(first, 1.0)
            granted = await high  # outranks the earlier-submitted low waiter
            assert not low.done()
            pool.release(granted, 1.0)
            lease = await low
            pool.release(lease, 1.0)
            assert [entry.tenant for entry in pool.history] == ["A", "high", "low"]

        run(body())

    def test_higher_priority_waiter_flags_lower_priority_leases(self):
        async def body():
            pool = NodePool("summit", n_nodes=1)
            lease = await pool.acquire(4, 1, priority=0, tenant="low")
            assert not lease.preempt_requested
            waiter = asyncio.ensure_future(pool.acquire(4, 1, priority=5, tenant="high"))
            await asyncio.sleep(0)
            assert lease.preempt_requested  # asked to yield at a group boundary
            pool.release(lease, 1.0)
            granted = await waiter
            assert granted.tenant == "high"
            pool.release(granted, 1.0)

        run(body())

    def test_equal_priority_never_preempts(self):
        async def body():
            pool = NodePool("summit", n_nodes=1)
            lease = await pool.acquire(4, 1, priority=3, tenant="A")
            waiter = asyncio.ensure_future(pool.acquire(4, 1, priority=3, tenant="B"))
            await asyncio.sleep(0)
            assert not lease.preempt_requested  # only *strictly* higher reclaims
            pool.release(lease, 1.0)
            pool.release(await waiter, 1.0)

        run(body())

    def test_cancelled_waiter_leaves_the_queue(self):
        async def body():
            pool = NodePool("summit", n_nodes=1)
            lease = await pool.acquire(4, 1, tenant="A")
            waiter = asyncio.ensure_future(pool.acquire(4, 1, tenant="B"))
            await asyncio.sleep(0)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            pool.release(lease, 1.0)
            assert len(pool._free) == 1  # nothing granted to the dead waiter
            assert [entry.tenant for entry in pool.history] == ["A"]

        run(body())
