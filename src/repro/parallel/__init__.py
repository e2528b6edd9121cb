"""Simulated distributed-memory runtime.

Implements the paper's parallelization scheme on an in-process simulated MPI
communicator: band-index and G-space wavefunction distributions with
``MPI_Alltoallv`` transposes (Fig. 1), the broadcast-based distributed Fock
exchange operator (Alg. 2), the distributed
PT-CN residual (Alg. 3), distributed density/overlap/orthogonalization, and
byte-accurate communication accounting that feeds the Summit network model.
"""

from .comm import CollectiveKind, CommEvent, CommStats, SimCommunicator
from .decomposition import (
    BlockDistribution,
    band_distribution,
    band_to_gspace,
    gspace_distribution,
    gspace_to_band,
)
from .distributed_wavefunction import (
    DistributedWavefunction,
    distributed_density,
    distributed_overlap,
)
from .exchange_parallel import DistributedExchangeOperator
from .orthogonalization_parallel import distributed_cholesky_orthonormalize
from .residual_parallel import distributed_initial_residual, distributed_pt_residual

__all__ = [
    "CollectiveKind",
    "CommEvent",
    "CommStats",
    "SimCommunicator",
    "BlockDistribution",
    "band_distribution",
    "band_to_gspace",
    "gspace_distribution",
    "gspace_to_band",
    "DistributedWavefunction",
    "distributed_density",
    "distributed_overlap",
    "DistributedExchangeOperator",
    "distributed_cholesky_orthonormalize",
    "distributed_initial_residual",
    "distributed_pt_residual",
]
