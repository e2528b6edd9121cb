"""Reference kernels of the paper's distributed algorithms.

PWDFT keeps the wavefunctions in the **band-index** ("column") distribution —
each MPI task owns a contiguous block of whole bands, which is ideal for the
FFT-heavy ``H Psi`` kernel — and transposes to the **G-space** ("row")
distribution via ``MPI_Alltoallv`` whenever an ``N_e x N_e`` matrix product is
needed (overlap matrices, rotations, Anderson mixing, orthogonalization). This
module holds the two layouts and their transposes (Fig. 1), the broadcast Fock
exchange (Alg. 2), the PT-CN residual (Alg. 3) and the distributed density,
overlap and Cholesky orthogonalization (Section 3.4), all over a
:class:`~repro.parallel.comm.SimCommunicator`.

Each kernel moves its data as the paper does and runs the serial body on its
blocks: Alg. 2 pairs through :meth:`~repro.pw.exchange.ExchangeOperator._pair_sum`,
every partial product and rotation is
:func:`~repro.core.gauge.subspace_hamiltonian` /
:func:`~repro.core.gauge.apply_subspace_projection`, the orthonormalizing
rotation is :func:`~repro.pw.orthogonalization.cholesky_rotation`, and each
rank's partial density is :func:`~repro.pw.density.compute_density_many` of
its bands. The system runs none of them (it runs :mod:`repro.parallel.comm`
only); ``tests/parallel`` checks each against the serial result and its
communication ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.gauge import apply_subspace_projection, subspace_hamiltonian
from ..pw.density import compute_density_many
from ..pw.exchange import ExchangeOperator, _OrbitalSet
from ..pw.grid import PlaneWaveBasis
from ..pw.orthogonalization import cholesky_rotation
from .comm import SimCommunicator

__all__ = [
    "BlockDistribution",
    "band_distribution",
    "gspace_distribution",
    "band_to_gspace",
    "gspace_to_band",
    "DistributedWavefunction",
    "distributed_overlap",
    "distributed_density",
    "DistributedExchangeOperator",
    "distributed_cholesky_orthonormalize",
    "distributed_pt_residual",
    "distributed_initial_residual",
]


# ---------------------------------------------------------------------------
# Band-index and G-space distributions (Fig. 1)
# ---------------------------------------------------------------------------


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
        send.append(gspace.split(block, axis=1))
    recv = comm.alltoallv(send, description=description)
    # stack the band blocks received from every source rank along the band axis
    return [bands.join(recv[rank]) for rank in range(comm.size)]


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
        send.append(bands.split(block))
    recv = comm.alltoallv(send, description=description)
    # concatenate along the G axis, in source-rank order
    return [gspace.join(recv[rank], axis=1) for rank in range(comm.size)]


# ---------------------------------------------------------------------------
# Band-distributed wavefunctions
# ---------------------------------------------------------------------------


@dataclass
class DistributedWavefunction:
    """A wavefunction stored in the band-index distribution across virtual ranks.

    Every rank owns at least one band (:func:`band_distribution` refuses
    more ranks than bands).

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

    @property
    def nbands(self) -> int:
        """Total number of bands."""
        return self.bands.total

    def local_band_indices(self, rank: int) -> range:
        """Global indices of the bands owned by ``rank``."""
        sl = self.bands.local_slice(rank)
        return range(sl.start, sl.stop)

    def _with_blocks(self, band_blocks: list[np.ndarray]) -> "DistributedWavefunction":
        """The same layout holding ``band_blocks`` (and its own occupations)."""
        return replace(self, band_blocks=band_blocks, occupations=self.occupations.copy())

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
        return template._with_blocks(
            gspace_to_band(template.comm, gspace_blocks, template.bands, template.gspace, description)
        )


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
    partials = [subspace_hamiltonian(lg, rg) for lg, rg in zip(left_g, right_g)]
    return left.comm.allreduce(partials, description="overlap allreduce")[0]


def distributed_density(wavefunction: DistributedWavefunction) -> np.ndarray:
    """Electron density via per-rank partial sums and an ``MPI_Allreduce``.

    Each rank transforms its own bands to the real-space grid (band-index
    layout makes the FFTs embarrassingly parallel, Section 3.4) and the partial
    densities are summed across ranks.
    """
    partials = []
    for rank, block in enumerate(wavefunction.band_blocks):
        occupations = wavefunction.occupations[list(wavefunction.local_band_indices(rank))]
        partials.append(compute_density_many(wavefunction.basis, block[None], occupations[None])[0])
    return wavefunction.comm.allreduce(partials, description="density allreduce")[0]


def distributed_cholesky_orthonormalize(wavefunction: DistributedWavefunction) -> DistributedWavefunction:
    """Cholesky orthonormalization of a band-distributed wavefunction set.

    The overlap ``Psi^* Psi`` is assembled in the G-space distribution
    (``MPI_Alltoallv`` + local GEMM + ``MPI_Allreduce``), the rotation of
    :func:`~repro.pw.orthogonalization.cholesky_orthonormalize` is computed
    redundantly on every rank (the paper factors the ``N_e x N_e`` matrix on
    one GPU with cuSOLVER) and applied to each rank's G slice before the
    transpose back to the band-index layout.
    """
    psi_g = wavefunction.to_gspace_blocks("orthogonalization transpose")
    partials = [subspace_hamiltonian(pg, pg) for pg in psi_g]
    overlap = wavefunction.comm.allreduce(partials, description="orthogonalization allreduce")[0]
    rotation = cholesky_rotation(overlap)
    return DistributedWavefunction.from_gspace_blocks(
        wavefunction, [rotation @ block for block in psi_g], description="orthogonalization back-transpose"
    )


# ---------------------------------------------------------------------------
# Alg. 2: broadcast-based distributed Fock exchange
# ---------------------------------------------------------------------------


@dataclass
class _ExchangeWorkCounters:
    """Per-application work counters (used by the scaling analysis)."""

    poisson_solves: int = 0
    broadcasts: int = 0


class DistributedExchangeOperator:
    """Alg. 2: broadcast-based distributed Fock exchange.

    For every band ``i`` of the full set, the owning rank broadcasts ``psi_i``
    to all ranks (``MPI_Bcast``, the paper's choice); every rank then solves
    the Poisson-like equations pairing the orbitals it received with each of
    its local bands. That pair work is the serial operator's own loop: each
    rank's share is one rectangle-path
    :meth:`~repro.pw.exchange.ExchangeOperator._pair_sum` of the orbitals it
    holds against its local target bands, so empty orbitals are skipped here
    as they are there. The received volume is ``N_p x N_G x N_e`` complex
    numbers (Section 3.2), or half that with single-precision MPI.

    Parameters
    ----------
    basis:
        Plane-wave basis.
    comm:
        Simulated communicator whose size plays the role of the GPU/MPI count.

    The exchange is the unscreened hybrid one with ``alpha = 0.25``. The
    kernel choice, the pair-density scratch, the operation counters and
    the pair loop itself belong to the one serial
    :class:`~repro.pw.exchange.ExchangeOperator` held as :attr:`exchange`.
    """

    def __init__(
        self,
        basis: PlaneWaveBasis,
        comm: SimCommunicator,
    ):
        self.basis = basis
        self.comm = comm
        self.exchange = ExchangeOperator(basis)
        self.work = _ExchangeWorkCounters()

    def apply(
        self,
        target: DistributedWavefunction,
        exchange_orbitals: DistributedWavefunction | None = None,
    ) -> DistributedWavefunction:
        """Apply ``V_X`` to ``target``; both stay in the band-index distribution.

        Parameters
        ----------
        target:
            The wavefunction block ``Psi`` being multiplied by ``V_X``.
        exchange_orbitals:
            The orbitals defining the density matrix ``P``; defaults to
            ``target`` itself (the PT-CN inner iteration uses the current
            iterate for both).
        """
        exchange_orbitals = target if exchange_orbitals is None else exchange_orbitals
        if exchange_orbitals.comm is not self.comm or target.comm is not self.comm:
            raise ValueError("wavefunctions must live on the operator's communicator")
        # every rank transforms its *local* target bands to real space once
        target_real = [self.basis.to_real_space(block) for block in target.band_blocks]
        solves = self.exchange.counters.poisson_solves
        out_blocks = self._apply_bcast(exchange_orbitals, target_real)
        self.work.poisson_solves += self.exchange.counters.poisson_solves - solves
        return target._with_blocks(out_blocks)

    def _apply_bcast(
        self, exchange_orbitals: DistributedWavefunction, target_real: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Alg. 2 with a band-by-band ``MPI_Bcast`` from the owning rank; each
        rank then pairs all ``N_e`` orbitals it received with its bands
        (lines 6-10), returning its ``(local bands, npw)`` block."""
        comm = self.comm
        received: list[list[np.ndarray]] = [[] for _ in range(comm.size)]
        for i in range(exchange_orbitals.nbands):
            owner = exchange_orbitals.bands.owner_of(i)
            local_index = i - exchange_orbitals.bands.offsets[owner]
            payload_by_rank = [
                exchange_orbitals.band_blocks[owner][local_index]
                if rank == owner
                else np.empty(0, dtype=np.complex128)
                for rank in range(comm.size)
            ]
            rows = comm.bcast(payload_by_rank, root=owner, description=f"exchange psi_{i}")
            for rank, row in enumerate(rows):
                received[rank].append(row)
            self.work.broadcasts += 1
        occupations = exchange_orbitals.occupations
        held = [np.stack(rows) for rows in received]
        return [
            self.exchange._pair_sum(_OrbitalSet(c, occupations, self.basis.to_real_space(c)), local)
            for c, local in zip(held, target_real)
        ]


# ---------------------------------------------------------------------------
# Alg. 3: the PT-CN residual in the G-space distribution
# ---------------------------------------------------------------------------


def distributed_pt_residual(
    psi_f: DistributedWavefunction,
    h_psi_f: DistributedWavefunction,
    psi_half: DistributedWavefunction,
    dt: float,
) -> DistributedWavefunction:
    """Alg. 3: ``R_f = Psi_f + (i dt / 2) (H_f Psi_f - Psi_f (Psi_f^* H_f Psi_f)) - Psi_{n+1/2}``.

    The residual mixes all bands through the ``N_e x N_e`` overlap matrix, so
    it is evaluated in the G-space distribution and returned band-distributed.
    The paper sends the transposes in single precision; enable it on the
    communicator to model that optimization.

    Parameters
    ----------
    psi_f:
        Current fixed-point iterate (band distribution).
    h_psi_f:
        ``H_f Psi_f`` (band distribution).
    psi_half:
        The fixed right-hand side ``Psi_{n+1/2}`` (band distribution).
    dt:
        Time step.
    """
    comm = psi_f.comm
    if h_psi_f.comm is not comm or psi_half.comm is not comm:
        raise ValueError("all operands must share a communicator")

    # Line 1: convert the three inputs to the G-space distribution
    psi_g = psi_f.to_gspace_blocks("residual psi_f transpose")
    hpsi_g = h_psi_f.to_gspace_blocks("residual H psi_f transpose")
    half_g = psi_half.to_gspace_blocks("residual psi_half transpose")

    # Lines 2-3: local partial overlaps S_temp = Psi_f^* H Psi_f, MPI_Allreduce
    partials = [subspace_hamiltonian(pg, hg) for pg, hg in zip(psi_g, hpsi_g)]
    overlap = comm.allreduce(partials, description="residual overlap allreduce")[0]

    # Lines 4-5: local rotation Psi_f S, BLAS-1 assembly per G slice
    residual_g = [
        pg + 0.5j * dt * (hg - apply_subspace_projection(pg, overlap)) - hf
        for pg, hg, hf in zip(psi_g, hpsi_g, half_g)
    ]

    # Line 6: transpose back to the band-index distribution
    return DistributedWavefunction.from_gspace_blocks(
        psi_f, residual_g, description="residual back-transpose"
    )


def distributed_initial_residual(
    psi_n: DistributedWavefunction,
    h_psi_n: DistributedWavefunction,
) -> DistributedWavefunction:
    """The step-initial residual ``R_n = H_n Psi_n - Psi_n (Psi_n^* H_n Psi_n)``.

    Same communication pattern as :func:`distributed_pt_residual` (Alg. 1,
    line 1 of the paper).
    """
    comm = psi_n.comm
    if h_psi_n.comm is not comm:
        raise ValueError("operands must share a communicator")
    psi_g = psi_n.to_gspace_blocks("initial residual psi transpose")
    hpsi_g = h_psi_n.to_gspace_blocks("initial residual H psi transpose")
    partials = [subspace_hamiltonian(pg, hg) for pg, hg in zip(psi_g, hpsi_g)]
    overlap = comm.allreduce(partials, description="initial residual allreduce")[0]
    residual_g = [hg - apply_subspace_projection(pg, overlap) for pg, hg in zip(psi_g, hpsi_g)]
    return DistributedWavefunction.from_gspace_blocks(
        psi_n, residual_g, description="initial residual back-transpose"
    )
