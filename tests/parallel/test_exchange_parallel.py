"""Tests for the distributed Fock exchange operator (Alg. 2)."""

import numpy as np
import pytest
from band_layout import gather, scatter

from repro.parallel import DistributedExchangeOperator, SimCommunicator
from repro.parallel.comm import CollectiveKind
from repro.pw import ExchangeOperator, Wavefunction


@pytest.fixture()
def orbitals(chain_basis, rng):
    return Wavefunction.random(chain_basis, 4, rng=rng)


@pytest.fixture()
def serial_reference(chain_basis, orbitals):
    op = ExchangeOperator(chain_basis, mixing_fraction=0.25, screening_length=None)
    op.set_orbitals(orbitals)
    return op.apply(orbitals.coefficients)


@pytest.mark.parametrize("n_ranks", [1, 2, 4])
class TestCorrectness:
    def test_matches_serial(self, chain_basis, orbitals, serial_reference, n_ranks):
        comm = SimCommunicator(n_ranks)
        dwf = scatter(orbitals, comm)
        op = DistributedExchangeOperator(chain_basis, comm)
        result = gather(op.apply(dwf)).coefficients
        assert np.max(np.abs(result - serial_reference)) < 1e-10


class TestCommunicationAccounting:
    def test_bcast_volume_formula(self, chain_basis, orbitals):
        """Wire volume equals (N_p - 1) * N_e * N_G * 16 bytes in double precision."""
        n_ranks = 4
        comm = SimCommunicator(n_ranks)
        dwf = scatter(orbitals, comm)
        op = DistributedExchangeOperator(chain_basis, comm)
        op.apply(dwf)
        expected = (n_ranks - 1) * orbitals.nbands * orbitals.npw * 16
        assert comm.stats.bytes[CollectiveKind.BCAST] == expected

    def test_single_precision_halves_bcast_volume(self, chain_basis, orbitals):
        double = SimCommunicator(4)
        single = SimCommunicator(4, single_precision=True)
        for comm in (double, single):
            dwf = scatter(orbitals, comm)
            DistributedExchangeOperator(chain_basis, comm).apply(dwf)
        assert single.stats.bytes[CollectiveKind.BCAST] == double.stats.bytes[CollectiveKind.BCAST] // 2

    def test_single_precision_accuracy(self, chain_basis, orbitals, serial_reference):
        """The paper's single-precision MPI changes the result only at the 1e-7 level."""
        comm = SimCommunicator(4, single_precision=True)
        dwf = scatter(orbitals, comm)
        op = DistributedExchangeOperator(chain_basis, comm)
        result = gather(op.apply(dwf)).coefficients
        err = np.max(np.abs(result - serial_reference))
        assert err < 1e-5
        assert err > 0.0

    def test_number_of_broadcasts(self, chain_basis, orbitals):
        """Alg. 2 broadcasts every one of the N_e wavefunctions exactly once."""
        comm = SimCommunicator(2)
        dwf = scatter(orbitals, comm)
        op = DistributedExchangeOperator(chain_basis, comm)
        op.apply(dwf)
        assert comm.stats.calls[CollectiveKind.BCAST] == orbitals.nbands
        assert op.work.broadcasts == orbitals.nbands

    def test_poisson_solve_count(self, chain_basis, orbitals):
        """Total Poisson solves across all ranks is N_e^2 regardless of N_p."""
        for n_ranks in (1, 2, 4):
            comm = SimCommunicator(n_ranks)
            dwf = scatter(orbitals, comm)
            op = DistributedExchangeOperator(chain_basis, comm)
            op.apply(dwf)
            assert op.work.poisson_solves == orbitals.nbands**2


class TestEdgeCases:
    def test_separate_exchange_orbitals(self, chain_basis, orbitals, rng):
        """V_X[P] applied to a different target block matches the serial operator."""
        target = Wavefunction.random(chain_basis, 4, rng=rng)
        serial_op = ExchangeOperator(chain_basis, mixing_fraction=0.25)
        serial_op.set_orbitals(orbitals)
        expected = serial_op.apply(target.coefficients)

        comm = SimCommunicator(2)
        d_target = scatter(target, comm)
        d_orbitals = scatter(orbitals, comm)
        op = DistributedExchangeOperator(chain_basis, comm)
        result = gather(op.apply(d_target, exchange_orbitals=d_orbitals)).coefficients
        assert np.allclose(result, expected, atol=1e-10)
