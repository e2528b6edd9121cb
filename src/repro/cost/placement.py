"""Mapping virtual ranks onto modeled Summit nodes and costing their links.

The paper runs 6 MPI ranks per node, one per V100, 3 per POWER9 socket
(Section 5). Where two ranks live relative to each other decides which wire a
message between them crosses, and therefore what it costs:

* same socket — the CPU–GPU **NVLink** (50 GB/s on Summit; host memory and
  the three GPUs of a socket hang off the same NVLink fabric, so even a
  message to a co-located rank is a real transfer, never free);
* same node, other socket — the **X-Bus** between the two POWER9 sockets
  (64 GB/s);
* different nodes — one EDR **InfiniBand** NIC (12.5 GB/s injection).

:class:`NodePlacement` owns that geometry for a set of virtual ranks: which
node/socket/GPU a rank maps to, which :class:`Link` connects two ranks, and
the predicted wall seconds of moving a payload between them. The
:class:`~repro.exec.DistributedBackend` uses it to attribute every logged
dispatch/result transfer of a sweep to a modeled link with a nonzero wall
cost, the same way :mod:`repro.machine.network` costs the collectives of one
distributed SCF.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..machine.summit import SUMMIT, SummitSystem

__all__ = ["Link", "NodePlacement"]


class Link(str, Enum):
    """The three wires of the modeled Summit topology (paper Section 5)."""

    NVLINK = "nvlink"
    XBUS = "xbus"
    INFINIBAND = "ib"


@dataclass(frozen=True)
class NodePlacement:
    """Placement of ``n_ranks`` virtual ranks onto modeled Summit nodes.

    Ranks fill nodes densely in rank order: rank ``r`` lives on node
    ``r // ranks_per_node``, and within a node the first half of the ranks sit
    on socket 0, the second half on socket 1 (3 + 3 on Summit).

    Parameters
    ----------
    n_ranks:
        Number of virtual ranks to place.
    system:
        The machine the ranks are placed on.
    ranks_per_node:
        Ranks sharing one node; defaults to the machine's
        ``mpi_ranks_per_node`` (6 on Summit, one per GPU). May not exceed the
        node's GPU count.
    message_latency_s:
        Fixed per-message overhead added to every transfer (software stack +
        link latency); keeps even zero-byte messages at a nonzero wall cost.
    """

    n_ranks: int
    system: SummitSystem = SUMMIT
    ranks_per_node: int | None = None
    message_latency_s: float = 2.0e-6

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError(f"NodePlacement needs n_ranks >= 1, got {self.n_ranks}")
        per_node = self.system.node.mpi_ranks_per_node if self.ranks_per_node is None else self.ranks_per_node
        if not 1 <= per_node <= self.system.node.gpus:
            raise ValueError(
                f"ranks_per_node must be between 1 and the node's {self.system.node.gpus} "
                f"GPUs (one rank per GPU), got {per_node}"
            )
        object.__setattr__(self, "ranks_per_node", int(per_node))
        if self.n_nodes > self.system.n_nodes:
            raise ValueError(
                f"placement of {self.n_ranks} ranks at {per_node} per node needs "
                f"{self.n_nodes} nodes but the modeled machine has only "
                f"{self.system.n_nodes}; lower the rank count or raise ranks_per_node"
            )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Nodes occupied by the placement (rounded up)."""
        return -(-self.n_ranks // self.ranks_per_node)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank must be in [0, {self.n_ranks}), got {rank}")

    def node_of(self, rank: int) -> int:
        """The node hosting ``rank``."""
        self._check_rank(rank)
        return rank // self.ranks_per_node

    def socket_of(self, rank: int) -> int:
        """The CPU socket (0 or 1) hosting ``rank`` within its node."""
        self._check_rank(rank)
        slot = rank % self.ranks_per_node
        per_socket = -(-self.ranks_per_node // self.system.node.sockets)
        return min(slot // per_socket, self.system.node.sockets - 1)

    def link_between(self, rank_a: int, rank_b: int) -> Link:
        """The wire a message between two ranks crosses (see module docstring)."""
        if self.node_of(rank_a) != self.node_of(rank_b):
            return Link.INFINIBAND
        if self.socket_of(rank_a) != self.socket_of(rank_b):
            return Link.XBUS
        return Link.NVLINK

    # ------------------------------------------------------------------
    # Costing
    # ------------------------------------------------------------------
    def link_bandwidth_gbs(self, link: Link) -> float:
        """Point-to-point bandwidth (GB/s) of one link class on this machine."""
        node = self.system.node
        if link is Link.NVLINK:
            return node.gpu.nvlink_bandwidth_gbs
        if link is Link.XBUS:
            return node.xbus_bandwidth_gbs
        return node.nic_bandwidth_gbs

    def transfer_seconds(self, n_bytes: float, rank_a: int, rank_b: int) -> float:
        """Predicted wall seconds of moving ``n_bytes`` between two ranks.

        Latency plus bandwidth term of the connecting link — strictly positive
        even for empty payloads, so every logged transfer carries a wall cost.
        """
        if n_bytes < 0:
            raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
        link = self.link_between(rank_a, rank_b)
        return self.message_latency_s + float(n_bytes) / (self.link_bandwidth_gbs(link) * 1e9)
