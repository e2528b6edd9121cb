"""A simulated MPI communicator with communication-volume accounting.

The paper's implementation relies on five MPI operations (Section 3 and
Table 2): ``MPI_Bcast`` (Fock exchange wavefunction broadcast),
``MPI_Alltoallv`` (band-index <-> G-space transposes), ``MPI_Allreduce``
(overlap matrices and charge density), ``MPI_AllGatherv`` (exchange-correlation
potential assembly) and point-to-point ``MPI_Send/Recv`` (the paper's
round-robin alternative to the broadcast; here the distributed sweep
backend's group dispatch and results). No kernel here assembles the
exchange-correlation potential, so ``MPI_AllGatherv`` exists only as the
performance model's Table 2 term (:mod:`repro.perf.components`), and the
communicator implements the other four. Because this reproduction runs on one
machine, we provide an in-process *simulated* communicator: the collectives really move
NumPy data between per-rank buffers (so every distributed kernel can be checked
bit-for-bit against its serial reference), and every operation is logged with
its byte volume so the machine model can attach wall-clock costs and the
benchmarks can reproduce the paper's communication analysis.

The communicator also implements the paper's *single-precision MPI*
optimization: when enabled, complex128 payloads are down-converted to
complex64 for the "transfer" and back on receipt, halving the logged volume and
introducing exactly the rounding the real code incurs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = ["CollectiveKind", "CommEvent", "CommStats", "SimCommunicator"]


class CollectiveKind(str, Enum):
    """The MPI operations tracked by the simulator (paper Table 2 rows)."""

    BCAST = "bcast"
    ALLTOALLV = "alltoallv"
    ALLREDUCE = "allreduce"
    SENDRECV = "sendrecv"


@dataclass
class CommEvent:
    """One logged communication operation."""

    kind: CollectiveKind
    bytes_total: int
    bytes_per_rank_max: int
    description: str = ""


@dataclass
class CommStats:
    """Aggregated communication statistics."""

    calls: dict = field(default_factory=dict)
    bytes: dict = field(default_factory=dict)

    def record(self, event: CommEvent) -> None:
        """Accumulate an event."""
        key = event.kind.value
        self.calls[key] = self.calls.get(key, 0) + 1
        self.bytes[key] = self.bytes.get(key, 0) + event.bytes_total

    def total_bytes(self) -> int:
        """Total bytes moved across all operations."""
        return int(sum(self.bytes.values()))


class SimCommunicator:
    """In-process stand-in for an MPI communicator over ``size`` virtual ranks.

    All collectives take and return *lists indexed by rank* so the distributed
    kernels are written in an SPMD-like style: element ``r`` of an argument is
    what rank ``r`` would pass to the MPI call.

    Parameters
    ----------
    size:
        Number of virtual ranks.
    single_precision:
        Transfer complex128 payloads as complex64 (the paper's single-precision
        MPI optimization); volumes are logged at the reduced width and the
        received data carries the corresponding rounding.
    keep_event_log:
        Whether to retain the full per-operation event list (the aggregated
        :class:`CommStats` is always maintained).
    """

    def __init__(self, size: int, single_precision: bool = False, keep_event_log: bool = True):
        if size < 1:
            raise ValueError("communicator size must be >= 1")
        self.size = int(size)
        self.single_precision = bool(single_precision)
        self.keep_event_log = bool(keep_event_log)
        self.stats = CommStats()
        self.events: list[CommEvent] = []

    # ------------------------------------------------------------------
    def _log(self, kind: CollectiveKind, bytes_total: int, bytes_per_rank_max: int, description: str) -> None:
        event = CommEvent(kind, int(bytes_total), int(bytes_per_rank_max), description)
        self.stats.record(event)
        if self.keep_event_log:
            self.events.append(event)

    def _transfer(self, array: np.ndarray) -> tuple[np.ndarray, int]:
        """Return the array as received on the wire and its wire size in bytes."""
        array = np.asarray(array)
        if self.single_precision and array.dtype == np.complex128:
            wire = array.astype(np.complex64)
            return wire.astype(np.complex128), wire.nbytes
        if self.single_precision and array.dtype == np.float64:
            wire = array.astype(np.float32)
            return wire.astype(np.float64), wire.nbytes
        return array.copy(), array.nbytes

    def _check_rank_list(self, data_by_rank: list, name: str) -> None:
        if len(data_by_rank) != self.size:
            raise ValueError(
                f"{name} must have one entry per rank ({self.size}), got {len(data_by_rank)}"
            )

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def bcast(self, data_by_rank: list, root: int = 0, description: str = "") -> list:
        """``MPI_Bcast``: every rank receives a copy of the root's payload."""
        self._check_rank_list(data_by_rank, "data_by_rank")
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} out of range for size {self.size}")
        payload = np.asarray(data_by_rank[root])
        received = []
        wire_bytes = 0
        for rank in range(self.size):
            if rank == root:
                received.append(payload.copy())
            else:
                data, nbytes = self._transfer(payload)
                received.append(data)
                wire_bytes = nbytes
        total = wire_bytes * (self.size - 1)
        self._log(CollectiveKind.BCAST, total, wire_bytes, description)
        return received

    def allreduce(self, data_by_rank: list, description: str = "") -> list:
        """``MPI_Allreduce`` with a sum reduction."""
        self._check_rank_list(data_by_rank, "data_by_rank")
        arrays = [np.asarray(d) for d in data_by_rank]
        shape = arrays[0].shape
        for a in arrays:
            if a.shape != shape:
                raise ValueError("allreduce requires identical shapes on all ranks")
        total_array = np.sum(np.stack(arrays, axis=0), axis=0)
        # communication volume: each rank contributes and receives the payload
        # (ring/recursive-doubling algorithms move ~2x the payload per rank;
        # we log the payload itself, the machine model applies the algorithm factor)
        per_rank = arrays[0].nbytes if not self.single_precision else self._transfer(arrays[0])[1]
        total = per_rank * self.size
        self._log(CollectiveKind.ALLREDUCE, total, per_rank, description)
        return [total_array.copy() for _ in range(self.size)]

    def alltoallv(self, send_blocks: list, description: str = "") -> list:
        """``MPI_Alltoallv``: ``send_blocks[i][j]`` goes from rank ``i`` to rank ``j``.

        Returns ``recv_blocks`` with ``recv_blocks[j][i] = send_blocks[i][j]``
        (after wire-precision conversion for off-rank messages).
        """
        self._check_rank_list(send_blocks, "send_blocks")
        for i, row in enumerate(send_blocks):
            if len(row) != self.size:
                raise ValueError(
                    f"send_blocks[{i}] must have {self.size} destination entries, got {len(row)}"
                )
        recv: list[list] = [[None] * self.size for _ in range(self.size)]
        total_bytes = 0
        max_per_rank = 0
        for i in range(self.size):
            sent_by_i = 0
            for j in range(self.size):
                block = np.asarray(send_blocks[i][j])
                if i == j:
                    recv[j][i] = block.copy()
                else:
                    data, nbytes = self._transfer(block)
                    recv[j][i] = data
                    total_bytes += nbytes
                    sent_by_i += nbytes
            max_per_rank = max(max_per_rank, sent_by_i)
        self._log(CollectiveKind.ALLTOALLV, total_bytes, max_per_rank, description)
        return recv

    def sendrecv(self, payload: np.ndarray, description: str = "") -> np.ndarray:
        """One point-to-point message (the distributed backend's group dispatch and results)."""
        data, nbytes = self._transfer(np.asarray(payload))
        self._log(CollectiveKind.SENDRECV, nbytes, nbytes, description)
        return data

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimCommunicator(size={self.size}, single_precision={self.single_precision}, "
            f"total_bytes={self.stats.total_bytes()})"
        )
