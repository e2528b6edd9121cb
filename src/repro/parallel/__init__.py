"""Simulated distributed-memory runtime.

The system runs :mod:`repro.parallel.comm` only: an in-process simulated MPI
communicator with byte-accurate communication accounting, over which
:class:`~repro.exec.DistributedBackend` dispatches groups and returns their
results.

:mod:`repro.parallel.paper_kernels` holds the reference kernels of the
paper's parallel algorithms: the band-index / G-space distributions and
their ``MPI_Alltoallv`` transposes (Fig. 1), the broadcast-based distributed
Fock exchange (Alg. 2), the distributed PT-CN residual (Alg. 3) and the
distributed density, overlap and orthogonalization. They run the serial
bodies on their blocks, and ``tests/parallel`` checks them against those
bodies. Their names are exported here lazily (PEP 562): the module is
imported on first access to one of them, so importing the system does not
load it.
"""

from __future__ import annotations

import importlib

from .comm import CollectiveKind, CommEvent, CommStats, SimCommunicator

#: Names resolved lazily from :mod:`repro.parallel.paper_kernels`.
_PAPER_KERNELS = (
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
)

__all__ = ["CollectiveKind", "CommEvent", "CommStats", "SimCommunicator", *_PAPER_KERNELS]


def __getattr__(name: str):
    if name in _PAPER_KERNELS:
        value = getattr(importlib.import_module(".paper_kernels", __name__), name)
        globals()[name] = value  # cache so __getattr__ runs once per name
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
