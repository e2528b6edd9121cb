"""Tests for the distributed PT-CN residual evaluation (Alg. 3)."""

import numpy as np
import pytest
from band_layout import gather, scatter

from repro.core.gauge import pt_residual
from repro.parallel import (
    SimCommunicator,
    distributed_initial_residual,
    distributed_pt_residual,
)
from repro.parallel.comm import CollectiveKind, CommStats
from repro.pw import Hamiltonian, Wavefunction


@pytest.fixture()
def residual_inputs(chain_basis, chain_structure, rng):
    """Serial Psi_f, H Psi_f and Psi_{n+1/2} for a random state."""
    ham = Hamiltonian(chain_basis, chain_structure, hybrid_mixing=0.0)
    wf = Wavefunction.random(chain_basis, 4, rng=rng)
    ham.update_potential(wf)
    h_wf = ham.apply(wf.coefficients)
    half = wf.coefficients - 0.1j * h_wf
    return wf, h_wf, half


def distribute(basis, coeffs, occupations, comm):
    return scatter(Wavefunction(basis, coeffs, occupations), comm)


@pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
class TestAgainstSerial:
    def test_fixed_point_residual(self, chain_basis, residual_inputs, n_ranks):
        wf, h_wf, half = residual_inputs
        dt = 2.0
        serial = wf.coefficients + 0.5j * dt * pt_residual(wf.coefficients, h_wf) - half
        comm = SimCommunicator(n_ranks)
        d_psi = scatter(wf, comm)
        d_hpsi = distribute(chain_basis, h_wf, wf.occupations, comm)
        d_half = distribute(chain_basis, half, wf.occupations, comm)
        result = gather(distributed_pt_residual(d_psi, d_hpsi, d_half, dt)).coefficients
        assert np.max(np.abs(result - serial)) < 1e-10

    def test_initial_residual(self, chain_basis, residual_inputs, n_ranks):
        wf, h_wf, _ = residual_inputs
        serial = pt_residual(wf.coefficients, h_wf)
        comm = SimCommunicator(n_ranks)
        d_psi = scatter(wf, comm)
        d_hpsi = distribute(chain_basis, h_wf, wf.occupations, comm)
        result = gather(distributed_initial_residual(d_psi, d_hpsi)).coefficients
        assert np.allclose(result, serial, atol=1e-10)


class TestCommunicationPattern:
    def test_operations_used(self, chain_basis, residual_inputs):
        """Alg. 3 uses exactly 4 Alltoallv transposes and 1 Allreduce."""
        wf, h_wf, half = residual_inputs
        comm = SimCommunicator(4)
        d_psi = scatter(wf, comm)
        d_hpsi = distribute(chain_basis, h_wf, wf.occupations, comm)
        d_half = distribute(chain_basis, half, wf.occupations, comm)
        comm.stats = CommStats()
        distributed_pt_residual(d_psi, d_hpsi, d_half, 1.0)
        assert comm.stats.calls[CollectiveKind.ALLTOALLV] == 4
        assert comm.stats.calls[CollectiveKind.ALLREDUCE] == 1
        assert CollectiveKind.BCAST not in comm.stats.calls

    def test_allreduce_payload_is_overlap_matrix(self, chain_basis, residual_inputs):
        wf, h_wf, half = residual_inputs
        comm = SimCommunicator(3)
        d_psi = scatter(wf, comm)
        d_hpsi = distribute(chain_basis, h_wf, wf.occupations, comm)
        d_half = distribute(chain_basis, half, wf.occupations, comm)
        comm.stats = CommStats()
        distributed_pt_residual(d_psi, d_hpsi, d_half, 1.0)
        overlap_bytes = wf.nbands * wf.nbands * 16
        assert comm.stats.bytes[CollectiveKind.ALLREDUCE] == 3 * overlap_bytes

    def test_mismatched_communicators_rejected(self, chain_basis, residual_inputs):
        wf, h_wf, half = residual_inputs
        d_psi = scatter(wf, SimCommunicator(2))
        d_hpsi = distribute(chain_basis, h_wf, wf.occupations, SimCommunicator(2))
        d_half = distribute(chain_basis, half, wf.occupations, SimCommunicator(2))
        with pytest.raises(ValueError):
            distributed_pt_residual(d_psi, d_hpsi, d_half, 1.0)
