"""Alg. 2 runs on the serial operator's pair kernel: empty orbitals are skipped
on every rank exactly as the serial rectangle path skips them."""

import numpy as np
import pytest

from repro.parallel import DistributedExchangeOperator, DistributedWavefunction, SimCommunicator
from repro.pw import ExchangeOperator, Wavefunction


@pytest.mark.parametrize("n_ranks", [1, 2, 4])
@pytest.mark.parametrize("strategy", ["bcast", "round_robin"])
def test_partially_occupied_exchange_set(chain_basis, rng, n_ranks, strategy):
    orbitals = Wavefunction.random(chain_basis, 4, rng=rng, occupations=np.array([2.0, 0.0, 1.0, 0.0]))
    target = Wavefunction.random(chain_basis, 4, rng=rng)
    serial = ExchangeOperator(chain_basis, mixing_fraction=0.25)
    serial.set_orbitals(orbitals)
    expected = serial.apply(target.coefficients)

    comm = SimCommunicator(n_ranks)
    op = DistributedExchangeOperator(chain_basis, comm, mixing_fraction=0.25, strategy=strategy)
    result = op.apply(
        DistributedWavefunction.from_wavefunction(target, comm),
        exchange_orbitals=DistributedWavefunction.from_wavefunction(orbitals, comm),
    )
    assert np.allclose(result.to_wavefunction().coefficients, expected, atol=1e-10)
    # two occupied orbitals against four targets, on every rank count
    assert op.work.poisson_solves == serial.counters.poisson_solves == 2 * 4
    assert op.work.poisson_solves == serial.expected_poisson_solves(target.nbands)
