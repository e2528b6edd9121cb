"""Alg. 2 runs on the serial operator's pair kernel: empty orbitals are skipped
on every rank exactly as the serial rectangle path skips them."""

import numpy as np
import pytest
from band_layout import gather, scatter

from repro.parallel import DistributedExchangeOperator, SimCommunicator
from repro.pw import ExchangeOperator, Wavefunction


@pytest.mark.parametrize("n_ranks", [1, 2, 4])
def test_partially_occupied_exchange_set(chain_basis, rng, n_ranks):
    orbitals = Wavefunction(chain_basis, Wavefunction.random(chain_basis, 4, rng=rng).coefficients, np.array([2.0, 0.0, 1.0, 0.0]))
    target = Wavefunction.random(chain_basis, 4, rng=rng)
    serial = ExchangeOperator(chain_basis, mixing_fraction=0.25)
    serial.set_orbitals(orbitals)
    expected = serial.apply(target.coefficients)

    comm = SimCommunicator(n_ranks)
    op = DistributedExchangeOperator(chain_basis, comm)
    result = op.apply(
        scatter(target, comm),
        exchange_orbitals=scatter(orbitals, comm),
    )
    assert np.allclose(gather(result).coefficients, expected, atol=1e-10)
    # two occupied orbitals against four targets, on every rank count
    assert op.work.poisson_solves == serial.counters.poisson_solves == 2 * 4
