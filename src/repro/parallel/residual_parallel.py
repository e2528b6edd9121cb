"""Distributed evaluation of the PT-CN residual (Alg. 3 of the paper).

The fixed-point residual

``R_f = Psi_f + (i dt / 2) (H_f Psi_f - Psi_f (Psi_f^* H_f Psi_f)) - Psi_{n+1/2}``

mixes all bands through the ``N_e x N_e`` overlap matrix, so it is evaluated in
the G-space distribution: the three input wavefunction sets are transposed with
``MPI_Alltoallv``, the local partial overlap is formed and summed with
``MPI_Allreduce``, the rotation ``Psi_f S`` is applied locally, the residual is
assembled with BLAS-1 operations, and the result is transposed back to the
band-index distribution. The paper sends the transposes in single precision —
enable it on the communicator to model that optimization.
"""

from __future__ import annotations

import numpy as np

from .distributed_wavefunction import DistributedWavefunction

__all__ = ["distributed_pt_residual", "distributed_initial_residual"]


def _rotate_gspace_blocks(gspace_blocks: list[np.ndarray], matrix: np.ndarray) -> list[np.ndarray]:
    """Apply the column-convention rotation ``Psi S`` to G-space blocks.

    Each block holds all bands for a slice of G, so the rotation is purely
    local (``matrix.T @ block`` in the row-storage convention).
    """
    return [matrix.T @ block for block in gspace_blocks]


def distributed_pt_residual(
    psi_f: DistributedWavefunction,
    h_psi_f: DistributedWavefunction,
    psi_half: DistributedWavefunction,
    dt: float,
) -> DistributedWavefunction:
    """Alg. 3: compute ``R_f`` in the G-space distribution and return it band-distributed.

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

    # Line 2: local partial overlap S_temp = Psi_f^* H Psi_f
    partials = [pg.conj() @ hg.T for pg, hg in zip(psi_g, hpsi_g)]

    # Line 3: MPI_Allreduce to the full overlap matrix
    overlap = comm.allreduce(partials, description="residual overlap allreduce")[0]

    # Line 4: local rotation Psi_temp = Psi_f S
    rotated = _rotate_gspace_blocks(psi_g, overlap)

    # Line 5: BLAS-1 assembly of the residual per G slice
    residual_g = [
        pg + 0.5j * dt * (hg - rot) - hf
        for pg, hg, rot, hf in zip(psi_g, hpsi_g, rotated, half_g)
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
    partials = [pg.conj() @ hg.T for pg, hg in zip(psi_g, hpsi_g)]
    overlap = comm.allreduce(partials, description="initial residual allreduce")[0]
    rotated = _rotate_gspace_blocks(psi_g, overlap)
    residual_g = [hg - rot for hg, rot in zip(hpsi_g, rotated)]
    return DistributedWavefunction.from_gspace_blocks(
        psi_n, residual_g, description="initial residual back-transpose"
    )
