"""NodePlacement: rank → node/socket geometry, link classification, costing."""

import dataclasses

import pytest

from repro.cost import Link, NodePlacement
from repro.machine import SUMMIT, SummitSystem


@pytest.fixture()
def twelve_ranks() -> NodePlacement:
    """Two full Summit nodes: 6 ranks per node, 3 per socket."""
    return NodePlacement(n_ranks=12)


class TestGeometry:
    def test_summit_defaults_six_ranks_per_node(self, twelve_ranks):
        assert twelve_ranks.ranks_per_node == 6
        assert twelve_ranks.n_nodes == 2
        assert [twelve_ranks.node_of(r) for r in range(12)] == [0] * 6 + [1] * 6

    def test_sockets_split_three_three(self, twelve_ranks):
        assert [twelve_ranks.socket_of(r) for r in range(6)] == [0, 0, 0, 1, 1, 1]
        # the second node repeats the same socket pattern
        assert [twelve_ranks.socket_of(r) for r in range(6, 12)] == [0, 0, 0, 1, 1, 1]

    def test_partial_node_rounds_up(self):
        assert NodePlacement(n_ranks=7).n_nodes == 2

    def test_out_of_range_rank_rejected(self, twelve_ranks):
        with pytest.raises(ValueError, match="rank"):
            twelve_ranks.node_of(12)
        with pytest.raises(ValueError, match="rank"):
            twelve_ranks.link_between(0, -1)


class TestLinks:
    def test_same_socket_is_nvlink(self, twelve_ranks):
        assert twelve_ranks.link_between(0, 0) is Link.NVLINK
        assert twelve_ranks.link_between(0, 2) is Link.NVLINK

    def test_cross_socket_same_node_is_xbus(self, twelve_ranks):
        assert twelve_ranks.link_between(0, 3) is Link.XBUS
        assert twelve_ranks.link_between(2, 5) is Link.XBUS

    def test_cross_node_is_infiniband(self, twelve_ranks):
        assert twelve_ranks.link_between(0, 6) is Link.INFINIBAND
        assert twelve_ranks.link_between(5, 11) is Link.INFINIBAND

    def test_bandwidths_come_from_the_machine(self, twelve_ranks):
        node = SUMMIT.node
        assert twelve_ranks.link_bandwidth_gbs(Link.NVLINK) == node.gpu.nvlink_bandwidth_gbs
        assert twelve_ranks.link_bandwidth_gbs(Link.XBUS) == node.xbus_bandwidth_gbs
        assert twelve_ranks.link_bandwidth_gbs(Link.INFINIBAND) == node.nic_bandwidth_gbs

    def test_rank_seven_sits_on_the_second_node(self, twelve_ranks):
        assert (twelve_ranks.node_of(7), twelve_ranks.socket_of(7)) == (1, 0)
        assert twelve_ranks.link_between(0, 7).value == "ib"


class TestTransferCost:
    def test_every_transfer_has_nonzero_wall_cost(self, twelve_ranks):
        for rank in range(12):
            assert twelve_ranks.transfer_seconds(0, 0, rank) > 0
            assert twelve_ranks.transfer_seconds(1024, 0, rank) > 0

    def test_cost_orders_by_link_speed(self, twelve_ranks):
        """The same payload is cheapest over X-Bus (64 GB/s), then NVLink
        (50 GB/s), then InfiniBand (12.5 GB/s)."""
        payload = 1e9
        nvlink = twelve_ranks.transfer_seconds(payload, 0, 1)
        xbus = twelve_ranks.transfer_seconds(payload, 0, 4)
        ib = twelve_ranks.transfer_seconds(payload, 0, 6)
        assert xbus < nvlink < ib

    def test_cost_monotone_in_payload(self, twelve_ranks):
        sizes = [0, 1, 1024, 1e6, 1e9]
        times = [twelve_ranks.transfer_seconds(s, 0, 6) for s in sizes]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_cost_monotone_in_network_bandwidth(self):
        """Doubling the NIC bandwidth strictly cuts the cross-node cost."""
        slow = NodePlacement(n_ranks=12)
        node = dataclasses.replace(SUMMIT.node, nic_bandwidth_gbs=2 * SUMMIT.node.nic_bandwidth_gbs)
        fast = NodePlacement(n_ranks=12, system=dataclasses.replace(SUMMIT, node=node))
        assert fast.transfer_seconds(1e9, 0, 6) < slow.transfer_seconds(1e9, 0, 6)

    def test_negative_payload_rejected(self, twelve_ranks):
        with pytest.raises(ValueError, match="n_bytes"):
            twelve_ranks.transfer_seconds(-1, 0, 1)


class TestValidation:
    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError, match="n_ranks >= 1"):
            NodePlacement(n_ranks=0)

    def test_ranks_per_node_capped_at_gpus(self):
        with pytest.raises(ValueError, match="GPUs"):
            NodePlacement(n_ranks=8, ranks_per_node=7)
        with pytest.raises(ValueError, match="GPUs"):
            NodePlacement(n_ranks=8, ranks_per_node=0)

    def test_capacity_overflow_names_the_fix(self):
        tiny = SummitSystem(n_nodes=2)
        with pytest.raises(ValueError, match="raise ranks_per_node"):
            NodePlacement(n_ranks=13, system=tiny)
        # 12 ranks on 2 nodes is exactly full and fine
        assert NodePlacement(n_ranks=12, system=tiny).n_nodes == 2

    def test_sparse_placement_occupies_more_nodes(self):
        sparse = NodePlacement(n_ranks=4, ranks_per_node=2)
        assert sparse.n_nodes == 2
        assert sparse.link_between(0, 2) is Link.INFINIBAND
