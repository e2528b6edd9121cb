"""Band-index and G-space data distributions (Fig. 1 of the paper).

PWDFT keeps the wavefunctions in the **band-index** ("column") distribution —
each MPI task owns a contiguous block of whole bands, which is ideal for the
FFT-heavy ``H Psi`` kernel — and transposes to the **G-space** ("row")
distribution via ``MPI_Alltoallv`` whenever an ``N_e x N_e`` matrix product is
needed (overlap matrices, rotations, Anderson mixing, orthogonalization). This
module defines the two layouts and the transposes between them, with the same
blocking rules as the paper (the maximum number of ranks is bounded by ``N_e``
in the band layout, Fig. 1 caption).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comm import SimCommunicator

__all__ = [
    "BlockDistribution",
    "band_distribution",
    "gspace_distribution",
    "band_to_gspace",
    "gspace_to_band",
]


@dataclass(frozen=True)
class BlockDistribution:
    """A contiguous 1-D block distribution of ``total`` items over ``ranks``.

    Attributes
    ----------
    total:
        Number of distributed items (bands or plane waves).
    ranks:
        Number of ranks.
    counts:
        Items owned by each rank.
    offsets:
        Starting index of each rank's block.
    """

    total: int
    ranks: int
    counts: tuple[int, ...]
    offsets: tuple[int, ...]

    def owner_of(self, index: int) -> int:
        """Rank owning global item ``index``."""
        if not 0 <= index < self.total:
            raise IndexError(f"index {index} out of range [0, {self.total})")
        for rank, (offset, count) in enumerate(zip(self.offsets, self.counts)):
            if offset <= index < offset + count:
                return rank
        raise RuntimeError("unreachable")  # pragma: no cover

    def local_slice(self, rank: int) -> slice:
        """Slice of the global array owned by ``rank``."""
        if not 0 <= rank < self.ranks:
            raise IndexError(f"rank {rank} out of range")
        return slice(self.offsets[rank], self.offsets[rank] + self.counts[rank])

    def split(self, array: np.ndarray, axis: int = 0) -> list[np.ndarray]:
        """Split a global array into per-rank blocks along ``axis``."""
        array = np.asarray(array)
        if array.shape[axis] != self.total:
            raise ValueError(
                f"array axis {axis} has length {array.shape[axis]}, expected {self.total}"
            )
        return [
            np.ascontiguousarray(np.take(array, range(o, o + c), axis=axis))
            for o, c in zip(self.offsets, self.counts)
        ]

    def join(self, blocks: list[np.ndarray], axis: int = 0) -> np.ndarray:
        """Concatenate per-rank blocks back into the global array."""
        if len(blocks) != self.ranks:
            raise ValueError(f"expected {self.ranks} blocks, got {len(blocks)}")
        return np.concatenate(blocks, axis=axis)


def _block_distribution(total: int, ranks: int) -> BlockDistribution:
    if ranks < 1:
        raise ValueError("ranks must be >= 1")
    if total < 0:
        raise ValueError("total must be >= 0")
    base = total // ranks
    remainder = total % ranks
    counts = [base + (1 if r < remainder else 0) for r in range(ranks)]
    offsets = list(np.cumsum([0] + counts[:-1]))
    return BlockDistribution(total, ranks, tuple(counts), tuple(int(o) for o in offsets))


def band_distribution(n_bands: int, ranks: int) -> BlockDistribution:
    """Band-index distribution of ``n_bands`` over ``ranks``.

    As in the paper, the number of ranks cannot exceed the number of bands
    (each rank must own at least one band for the Fock exchange loop to have
    work); this is the scaling limit of the CPU code noted in Section 5.
    """
    if ranks > n_bands:
        raise ValueError(
            f"band-index parallelization cannot use more ranks ({ranks}) than bands ({n_bands})"
        )
    return _block_distribution(n_bands, ranks)


def gspace_distribution(n_planewaves: int, ranks: int) -> BlockDistribution:
    """G-space distribution of ``n_planewaves`` coefficients over ``ranks``."""
    if ranks > n_planewaves:
        raise ValueError(
            f"G-space parallelization cannot use more ranks ({ranks}) than plane waves ({n_planewaves})"
        )
    return _block_distribution(n_planewaves, ranks)


# ---------------------------------------------------------------------------
# Layout transposes (the MPI_Alltoallv conversions of Fig. 1)
# ---------------------------------------------------------------------------


def band_to_gspace(
    comm: SimCommunicator,
    band_blocks: list[np.ndarray],
    bands: BlockDistribution,
    gspace: BlockDistribution,
    description: str = "band->G transpose",
) -> list[np.ndarray]:
    """Convert a band-distributed wavefunction to the G-space distribution.

    Parameters
    ----------
    comm:
        The simulated communicator.
    band_blocks:
        Per-rank arrays of shape ``(local_bands, npw)``.
    bands, gspace:
        The two distributions.

    Returns
    -------
    list of ndarray
        Per-rank arrays of shape ``(n_bands, local_npw)``.
    """
    if len(band_blocks) != comm.size:
        raise ValueError("band_blocks must have one entry per rank")
    send = []
    for rank in range(comm.size):
        block = np.asarray(band_blocks[rank])
        if block.shape != (bands.counts[rank], gspace.total):
            raise ValueError(
                f"rank {rank} band block has shape {block.shape}, expected "
                f"({bands.counts[rank]}, {gspace.total})"
            )
        send.append([np.ascontiguousarray(block[:, gspace.local_slice(dest)]) for dest in range(comm.size)])
    recv = comm.alltoallv(send, description=description)
    out = []
    for rank in range(comm.size):
        # stack the band blocks received from every source rank along the band axis
        out.append(np.concatenate(recv[rank], axis=0))
    return out


def gspace_to_band(
    comm: SimCommunicator,
    gspace_blocks: list[np.ndarray],
    bands: BlockDistribution,
    gspace: BlockDistribution,
    description: str = "G->band transpose",
) -> list[np.ndarray]:
    """Inverse of :func:`band_to_gspace`."""
    if len(gspace_blocks) != comm.size:
        raise ValueError("gspace_blocks must have one entry per rank")
    send = []
    for rank in range(comm.size):
        block = np.asarray(gspace_blocks[rank])
        if block.shape != (bands.total, gspace.counts[rank]):
            raise ValueError(
                f"rank {rank} G-space block has shape {block.shape}, expected "
                f"({bands.total}, {gspace.counts[rank]})"
            )
        send.append([np.ascontiguousarray(block[bands.local_slice(dest), :]) for dest in range(comm.size)])
    recv = comm.alltoallv(send, description=description)
    out = []
    for rank in range(comm.size):
        # concatenate along the G axis, in source-rank order
        out.append(np.concatenate(recv[rank], axis=1))
    return out
