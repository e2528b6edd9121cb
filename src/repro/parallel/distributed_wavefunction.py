"""Distributed wavefunctions over the simulated communicator.

Combines the band-index and G-space distributions of
:mod:`repro.parallel.decomposition` into a convenience container used by the
distributed kernels (Alg. 2 exchange, Alg. 3 residual, density, overlap and
orthogonalization), all of which are validated against their serial
counterparts in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pw.basis import Wavefunction
from ..pw.grid import PlaneWaveBasis
from .comm import SimCommunicator
from .decomposition import (
    BlockDistribution,
    band_distribution,
    band_to_gspace,
    gspace_distribution,
    gspace_to_band,
)

__all__ = ["DistributedWavefunction", "distributed_overlap", "distributed_density"]


@dataclass
class DistributedWavefunction:
    """A wavefunction stored in the band-index distribution across virtual ranks.

    Attributes
    ----------
    basis:
        The plane-wave basis.
    comm:
        Simulated communicator.
    band_blocks:
        Per-rank coefficient blocks of shape ``(local_bands, npw)``.
    bands, gspace:
        The two block distributions used for transposes.
    occupations:
        Global occupation vector.
    """

    basis: PlaneWaveBasis
    comm: SimCommunicator
    band_blocks: list[np.ndarray]
    bands: BlockDistribution
    gspace: BlockDistribution
    occupations: np.ndarray

    # ------------------------------------------------------------------
    @classmethod
    def from_wavefunction(cls, wavefunction: Wavefunction, comm: SimCommunicator) -> "DistributedWavefunction":
        """Scatter a serial wavefunction into the band-index distribution."""
        bands = band_distribution(wavefunction.nbands, comm.size)
        gspace = gspace_distribution(wavefunction.npw, comm.size)
        blocks = bands.split(wavefunction.coefficients, axis=0)
        return cls(
            basis=wavefunction.basis,
            comm=comm,
            band_blocks=blocks,
            bands=bands,
            gspace=gspace,
            occupations=wavefunction.occupations.copy(),
        )

    def to_wavefunction(self) -> Wavefunction:
        """Gather the distributed blocks back into a serial wavefunction."""
        coefficients = self.bands.join(self.band_blocks, axis=0)
        return Wavefunction(self.basis, coefficients, self.occupations)

    # ------------------------------------------------------------------
    @property
    def nbands(self) -> int:
        """Total number of bands."""
        return self.bands.total

    @property
    def npw(self) -> int:
        """Number of plane waves per band."""
        return self.gspace.total

    def local_band_indices(self, rank: int) -> range:
        """Global indices of the bands owned by ``rank``."""
        sl = self.bands.local_slice(rank)
        return range(sl.start, sl.stop)

    # ------------------------------------------------------------------
    def to_gspace_blocks(self, description: str = "band->G transpose") -> list[np.ndarray]:
        """Transpose to the G-space distribution (one ``MPI_Alltoallv``)."""
        return band_to_gspace(self.comm, self.band_blocks, self.bands, self.gspace, description)

    @classmethod
    def from_gspace_blocks(
        cls,
        template: "DistributedWavefunction",
        gspace_blocks: list[np.ndarray],
        description: str = "G->band transpose",
    ) -> "DistributedWavefunction":
        """Build a distributed wavefunction from G-space blocks (one ``MPI_Alltoallv``)."""
        band_blocks = gspace_to_band(
            template.comm, gspace_blocks, template.bands, template.gspace, description
        )
        return cls(
            basis=template.basis,
            comm=template.comm,
            band_blocks=band_blocks,
            bands=template.bands,
            gspace=template.gspace,
            occupations=template.occupations.copy(),
        )

    def copy(self) -> "DistributedWavefunction":
        """Deep copy of the coefficient blocks."""
        return DistributedWavefunction(
            basis=self.basis,
            comm=self.comm,
            band_blocks=[b.copy() for b in self.band_blocks],
            bands=self.bands,
            gspace=self.gspace,
            occupations=self.occupations.copy(),
        )


# ---------------------------------------------------------------------------
# Distributed linear algebra helpers
# ---------------------------------------------------------------------------


def distributed_overlap(left: DistributedWavefunction, right: DistributedWavefunction) -> np.ndarray:
    """Overlap matrix ``S = Psi_left^* Psi_right`` via the G-space distribution.

    This is the paper's pattern for all ``N_e x N_e`` matrix products: transpose
    both operands to the G-space layout (``MPI_Alltoallv``), form the local
    partial product on each rank, and combine with an ``MPI_Allreduce``.
    Returns the replicated global matrix.
    """
    if left.comm is not right.comm:
        raise ValueError("operands must share a communicator")
    left_g = left.to_gspace_blocks()
    right_g = right.to_gspace_blocks()
    partials = [lg.conj() @ rg.T for lg, rg in zip(left_g, right_g)]
    reduced = left.comm.allreduce(partials, description="overlap allreduce")
    return reduced[0]


def distributed_density(wavefunction: DistributedWavefunction) -> np.ndarray:
    """Electron density via per-rank partial sums and an ``MPI_Allreduce``.

    Each rank transforms its own bands to the real-space grid (band-index
    layout makes the FFTs embarrassingly parallel, Section 3.4) and the partial
    densities are summed across ranks.
    """
    basis = wavefunction.basis
    partials = []
    for rank in range(wavefunction.comm.size):
        block = wavefunction.band_blocks[rank]
        if block.shape[0] == 0:
            partials.append(np.zeros(basis.grid.shape))
            continue
        psi_r = basis.to_real_space(block)
        occ = wavefunction.occupations[list(wavefunction.local_band_indices(rank))]
        partials.append(np.sum(occ[:, None, None, None] * np.abs(psi_r) ** 2, axis=0))
    reduced = wavefunction.comm.allreduce(partials, description="density allreduce")
    return reduced[0]
