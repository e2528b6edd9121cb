"""Hardware description of the Summit supercomputer (Section 5 of the paper).

All numbers are taken from the paper's machine-configuration section: each of
the 4608 nodes carries two IBM POWER9 sockets (22 physical cores, 256 GB DDR4,
135 GB/s each, 190 W) and six NVIDIA V100 GPUs (16 GB HBM2 at 900 GB/s,
7.8 TFLOPS double precision, 300 W) connected by 50 GB/s NVLink; the two
halves of a node talk over a 64 GB/s X-Bus, and every node has two EDR
InfiniBand NICs at 12.5 GB/s each feeding a non-blocking fat tree. The paper
runs 6 MPI ranks per node, one per GPU, 3 per socket.

These dataclasses parameterise the performance model; changing them lets the
benchmarks answer the paper's closing question ("we expect the parallel
performance could scale further with improved network bandwidth").
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["GPUSpec", "CPUSocketSpec", "NodeSpec", "SummitSystem", "SUMMIT"]


@dataclass(frozen=True)
class GPUSpec:
    """One accelerator (NVIDIA V100 by default)."""

    name: str = "V100"
    peak_tflops: float = 7.8
    memory_gb: float = 16.0
    memory_bandwidth_gbs: float = 900.0
    nvlink_bandwidth_gbs: float = 50.0
    power_watts: float = 300.0

    @property
    def peak_flops(self) -> float:
        """Peak double-precision FLOP/s."""
        return self.peak_tflops * 1e12


@dataclass(frozen=True)
class CPUSocketSpec:
    """One host CPU socket (IBM POWER9 by default)."""

    name: str = "POWER9"
    cores: int = 22
    memory_gb: float = 256.0
    memory_bandwidth_gbs: float = 135.0
    power_watts: float = 190.0
    #: double-precision GFLOP/s per core actually achievable by the plane-wave
    #: Fock-exchange kernels (memory-bound FFTs; calibrated so 3072 cores
    #: reproduce the paper's 8874 s per-step CPU measurement).
    sustained_gflops_per_core: float = 1.13


@dataclass(frozen=True)
class NodeSpec:
    """One Summit node: 2 sockets + 6 GPUs + 2 NICs."""

    gpu: GPUSpec = field(default_factory=GPUSpec)
    cpu_socket: CPUSocketSpec = field(default_factory=CPUSocketSpec)
    sockets: int = 2
    gpus: int = 6
    xbus_bandwidth_gbs: float = 64.0
    nics: int = 2
    nic_bandwidth_gbs: float = 12.5
    mpi_ranks_per_node: int = 6
    #: cores per node actually usable by application MPI ranks in CPU-only
    #: runs (the paper places 3072 ranks on 73 nodes, i.e. ~42 per node).
    usable_cpu_cores_per_node: int = 42

    @property
    def injection_bandwidth_gbs(self) -> float:
        """Total NIC bandwidth per node (25 GB/s on Summit)."""
        return self.nics * self.nic_bandwidth_gbs

    @property
    def power_cpu_only_watts(self) -> float:
        """Node power when only the CPUs are used (the paper's 380 W)."""
        return self.sockets * self.cpu_socket.power_watts

    @property
    def power_full_watts(self) -> float:
        """Node power with all GPUs active (the paper's 2180 W)."""
        return self.power_cpu_only_watts + self.gpus * self.gpu.power_watts


@dataclass(frozen=True)
class SummitSystem:
    """The full machine: a number of identical nodes."""

    node: NodeSpec = field(default_factory=NodeSpec)
    n_nodes: int = 4608
    #: measured per-rank MPI_Bcast receive bandwidth from the paper's analysis
    #: (2.2 GB/s per rank, i.e. ~52.7 % NIC utilisation with 3 ranks/socket).
    bcast_rank_bandwidth_gbs: float = 2.2
    #: effective per-rank bandwidth of large MPI_Allreduce operations across
    #: many nodes (substantially below the Bcast rate; calibrated against the
    #: paper's ~0.35-0.67 s overlap-matrix Allreduce times).
    allreduce_rank_bandwidth_gbs: float = 0.85
    #: effective per-node bandwidth achieved by large MPI_Allreduce /
    #: MPI_Alltoallv operations (fraction of injection bandwidth).
    collective_efficiency: float = 0.5
    #: latency per software collective stage (seconds); multiplied by
    #: log2(#nodes) in the collective models.
    collective_latency_s: float = 2.0e-3

    # ------------------------------------------------------------------
    def nodes_for_gpus(self, n_gpus: int) -> int:
        """Number of nodes needed to host ``n_gpus`` (6 per node, rounded up)."""
        if n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")
        return -(-n_gpus // self.node.gpus)

    def nodes_for_cpu_cores(self, n_cores: int) -> int:
        """Number of nodes needed to host ``n_cores`` CPU-only MPI ranks."""
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        return -(-n_cores // self.node.usable_cpu_cores_per_node)

    def gpu_run_power_watts(self, n_gpus: int) -> float:
        """Total power of a GPU run occupying whole nodes (paper Section 6)."""
        return self.nodes_for_gpus(n_gpus) * self.node.power_full_watts

    def cpu_run_power_watts(self, n_cores: int) -> float:
        """Total power of a CPU-only run occupying whole nodes."""
        return self.nodes_for_cpu_cores(n_cores) * self.node.power_cpu_only_watts

    def validate_gpu_count(self, n_gpus: int) -> None:
        """Raise if the machine cannot provide ``n_gpus``."""
        if n_gpus > self.n_nodes * self.node.gpus:
            raise ValueError(
                f"Summit has only {self.n_nodes * self.node.gpus} GPUs, requested {n_gpus}"
            )


#: The default Summit instance used throughout the performance model.
SUMMIT = SummitSystem()
