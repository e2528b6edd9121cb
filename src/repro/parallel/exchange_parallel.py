"""Distributed application of the Fock exchange operator (Alg. 2 of the paper).

The wavefunctions are stored in the band-index distribution. For every band
``i`` of the full set, the owning rank broadcasts ``psi_i`` to all ranks
(``MPI_Bcast`` in the paper; a round-robin ``MPI_Send/Recv`` ring is provided
as the alternative the paper also measured); every rank then solves the
Poisson-like equations pairing the orbitals it received with each of its local
bands and accumulates into its local block of ``V_X Psi``.

That pair work is the serial operator's own loop: each rank's share is one
rectangle-path :meth:`~repro.pw.exchange.ExchangeOperator._pair_sum` of the
orbitals it holds against its local target bands (once per rank after the
broadcasts, once per shift and rank on the ring), so empty orbitals are
skipped here as they are there.

The total received communication volume is ``N_p x N_G x N_e`` complex numbers
(Section 3.2), or half that with single-precision MPI — both facts are checked
against the event log in the tests, and the byte counts feed the Summit network
model that regenerates the paper's Fig. 10/Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pw.exchange import ExchangeOperator, _OrbitalSet
from ..pw.grid import PlaneWaveBasis
from ..pw.poisson import CoulombKernel
from .comm import SimCommunicator
from .distributed_wavefunction import DistributedWavefunction

__all__ = ["DistributedExchangeOperator"]


@dataclass
class _ExchangeWorkCounters:
    """Per-application work counters (used by the scaling analysis)."""

    poisson_solves: int = 0
    broadcasts: int = 0
    point_to_point_messages: int = 0


class DistributedExchangeOperator:
    """Alg. 2: broadcast-based distributed Fock exchange.

    Parameters
    ----------
    basis:
        Plane-wave basis.
    comm:
        Simulated communicator whose size plays the role of the GPU/MPI count.
    mixing_fraction:
        Hybrid mixing fraction ``alpha``.
    screening_length:
        erfc screening parameter ``mu`` (``None`` for the bare kernel).
    strategy:
        ``"bcast"`` (paper default, Alg. 2 line 4) or ``"round_robin"`` (the
        ``MPI_Send/Recv`` ring of Ratcliff et al. that the paper also
        implemented and found to perform equivalently on Summit).
    kernel:
        Optional explicit :class:`~repro.pw.poisson.CoulombKernel`.

    The kernel choice, the pair-density scratch, the operation counters and
    the pair loop itself belong to the one serial
    :class:`~repro.pw.exchange.ExchangeOperator` held as :attr:`exchange`.
    """

    def __init__(
        self,
        basis: PlaneWaveBasis,
        comm: SimCommunicator,
        mixing_fraction: float = 0.25,
        screening_length: float | None = None,
        strategy: str = "bcast",
        kernel: CoulombKernel | None = None,
    ):
        if strategy not in ("bcast", "round_robin"):
            raise ValueError(f"unknown strategy {strategy!r}; use 'bcast' or 'round_robin'")
        self.basis = basis
        self.comm = comm
        self.strategy = strategy
        self.exchange = ExchangeOperator(basis, mixing_fraction, screening_length, kernel)
        self.work = _ExchangeWorkCounters()

    # ------------------------------------------------------------------
    def expected_bcast_volume_bytes(self, exchange: DistributedWavefunction) -> int:
        """The paper's communication-volume formula for one application.

        Every rank must receive all ``N_e`` wavefunctions except the ones it
        already owns; with the broadcast implementation the wire carries each
        wavefunction once per non-owning rank, i.e.
        ``(N_p - 1) * N_e * N_G`` complex numbers in the transfer precision.
        (The paper quotes the receiving-side total ``N_p * N_G * N_e`` which
        counts the owner's copy as well.)
        """
        itemsize = 8 if self.comm.single_precision else 16
        return (self.comm.size - 1) * exchange.nbands * exchange.npw * itemsize

    # ------------------------------------------------------------------
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
        if self.exchange.mixing_fraction == 0.0:
            out_blocks = [np.zeros_like(b) for b in target.band_blocks]
        else:
            exchange_orbitals = target if exchange_orbitals is None else exchange_orbitals
            if exchange_orbitals.comm is not self.comm or target.comm is not self.comm:
                raise ValueError("wavefunctions must live on the operator's communicator")
            # every rank transforms its *local* target bands to real space once
            target_real = [
                self.basis.to_real_space(block) if len(block) else block for block in target.band_blocks
            ]
            solves = self.exchange.counters.poisson_solves
            if self.strategy == "bcast":
                out_blocks = self._apply_bcast(exchange_orbitals, target_real)
            else:
                out_blocks = self._apply_round_robin(exchange_orbitals, target_real)
            self.work.poisson_solves += self.exchange.counters.poisson_solves - solves
        return DistributedWavefunction(
            basis=target.basis,
            comm=target.comm,
            band_blocks=out_blocks,
            bands=target.bands,
            gspace=target.gspace,
            occupations=target.occupations.copy(),
        )

    # ------------------------------------------------------------------
    def _pair_sum(
        self, coefficients: np.ndarray, occupations: np.ndarray, target_real: np.ndarray
    ) -> np.ndarray:
        """One rank's pair work (Alg. 2 lines 6-10): ``V_X`` of the orbitals it
        holds on its local target bands, through the serial operator's
        rectangle path; returns the rank's ``(local bands, npw)`` block."""
        if not (len(coefficients) and len(target_real)):
            return np.zeros((len(target_real), self.basis.npw), dtype=np.complex128)
        held = _OrbitalSet(coefficients, occupations, self.basis.to_real_space(coefficients))
        return self.exchange._pair_sum(held, target_real)

    def _apply_bcast(
        self, exchange_orbitals: DistributedWavefunction, target_real: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Alg. 2 with a band-by-band ``MPI_Bcast`` from the owning rank; each
        rank then pairs all ``N_e`` orbitals it received with its bands."""
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
        return [
            self._pair_sum(np.stack(rows), occupations, local) for rows, local in zip(received, target_real)
        ]

    def _apply_round_robin(
        self, exchange_orbitals: DistributedWavefunction, target_real: list[np.ndarray]
    ) -> list[np.ndarray]:
        """The ring (``MPI_Send``/``MPI_Recv``) alternative to the broadcast.

        Each rank's block of exchange orbitals circulates around a ring of the
        ``N_p`` ranks; after ``N_p - 1`` shifts every rank has seen every
        wavefunction exactly once. The data volume on the wire is the same as
        for the broadcast, but it is carried by point-to-point messages.
        """
        comm = self.comm
        occupations = exchange_orbitals.occupations
        out_blocks = [np.zeros((len(local), self.basis.npw), dtype=np.complex128) for local in target_real]
        circulating = [block.copy() for block in exchange_orbitals.band_blocks]
        circulating_indices = [list(exchange_orbitals.local_band_indices(r)) for r in range(comm.size)]
        for shift in range(comm.size):
            # every rank pairs the block it currently holds with its own targets
            for rank in range(comm.size):
                held = occupations[circulating_indices[rank]]
                out_blocks[rank] += self._pair_sum(circulating[rank], held, target_real[rank])
            if shift == comm.size - 1:
                break
            # shift the blocks one step around the ring
            new_circulating = [None] * comm.size
            new_indices = [None] * comm.size
            for rank in range(comm.size):
                dest = (rank + 1) % comm.size
                new_circulating[dest] = comm.sendrecv(
                    circulating[rank], description=f"round-robin shift {shift}"
                )
                new_indices[dest] = circulating_indices[rank]
                self.work.point_to_point_messages += 1
            circulating = new_circulating  # type: ignore[assignment]
            circulating_indices = new_indices  # type: ignore[assignment]
        return out_blocks
