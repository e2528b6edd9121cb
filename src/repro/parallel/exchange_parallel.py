"""Distributed application of the Fock exchange operator (Alg. 2 of the paper).

The wavefunctions are stored in the band-index distribution. For every band
``i`` of the full set, the owning rank broadcasts ``psi_i`` to all ranks
(``MPI_Bcast``, the paper's choice); every rank then solves the
Poisson-like equations pairing the orbitals it received with each of its local
bands and accumulates into its local block of ``V_X Psi``.

That pair work is the serial operator's own loop: each rank's share is one
rectangle-path :meth:`~repro.pw.exchange.ExchangeOperator._pair_sum` of the
orbitals it holds against its local target bands (once per rank after the
broadcasts), so empty orbitals are skipped here as they are there.

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
from .comm import SimCommunicator
from .distributed_wavefunction import DistributedWavefunction

__all__ = ["DistributedExchangeOperator"]


@dataclass
class _ExchangeWorkCounters:
    """Per-application work counters (used by the scaling analysis)."""

    poisson_solves: int = 0
    broadcasts: int = 0


class DistributedExchangeOperator:
    """Alg. 2: broadcast-based distributed Fock exchange.

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
        exchange_orbitals = target if exchange_orbitals is None else exchange_orbitals
        if exchange_orbitals.comm is not self.comm or target.comm is not self.comm:
            raise ValueError("wavefunctions must live on the operator's communicator")
        # every rank transforms its *local* target bands to real space once
        target_real = [
            self.basis.to_real_space(block) if len(block) else block for block in target.band_blocks
        ]
        solves = self.exchange.counters.poisson_solves
        out_blocks = self._apply_bcast(exchange_orbitals, target_real)
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
