"""Time reversal: n steps forward at ``dt`` then n steps back at ``-dt``.

CN, PT-CN and ETRS are symmetric (self-adjoint) integrators, so a kicked state
propagated out and back must return to itself up to what the scheme does not
make symmetric; RK4 is not symmetric but is accurate to ``dt^4``. This is a
check on the physics of the step, not a pin of its bits: an off-centre
implicit step (``0.5j`` written ``0.45j``) or a lopsided ETRS half step still
conserves the norm and still runs, but it does not come back.

Bounds are per propagator and ``dt`` (measured residual, then the margin):

* PT-CN, 50 as x 4: 1.1e-4 (the Cholesky orthonormalisation's floor, which
  does not vanish with ``dt``); bound 1e-3, 9x margin, an off-centre line 2
  reads 1.5e-2;
* CN, 50 as x 4: 3.9e-4; bound 2e-3, 5x margin, off-centre 1.7e-2;
* ETRS, 10 as x 4: 2.4e-5; bound 1e-4, 4x margin, off-centre 2.7e-4;
* RK4, 2 as x 4: 3.3e-8; bound 1e-6, 30x margin.

The forward leg alone moves the state by 1.6e-2 to 1.2e-1, so every bound is
well below "did not move".
"""

import numpy as np
import pytest

from repro.constants import attoseconds_to_au
from repro.core import (
    CrankNicolsonPropagator,
    ETRSPropagator,
    PTCNPropagator,
    RK4Propagator,
)
from repro.pw import GroundStateSolver, Hamiltonian, Wavefunction
from repro.pw.laser import DeltaKick
from support import density_matrix_distance


@pytest.fixture(scope="module")
def kicked_lda_state():
    """The conftest H2 basis (box 10, ecut 3) at LDA, its ground state to 1e-9
    and kicked by 0.05 a.u. along z."""
    from repro.pw import FFTGrid, PlaneWaveBasis, choose_grid_shape, hydrogen_molecule

    structure = hydrogen_molecule(box=10.0, bond_length=1.4)
    grid = FFTGrid(structure.cell, choose_grid_shape(structure.cell, 3.0, factor=1.0))
    basis = PlaneWaveBasis(grid, 3.0)
    ham = Hamiltonian(basis, structure, hybrid_mixing=0.0)
    ground = GroundStateSolver(ham, scf_tolerance=1e-9, max_scf_iterations=80).solve().wavefunction
    kicked = DeltaKick(strength=0.05).apply(grid, ground.to_real_space())
    return basis, structure, Wavefunction.from_real_space(basis, kicked, ground.occupations)


def _out_and_back(propagator_cls, setup, dt_as, n):
    basis, structure, start = setup
    propagator = propagator_cls(Hamiltonian(basis, structure, hybrid_mixing=0.0))
    dt = attoseconds_to_au(dt_as)
    propagator.prepare(start, 0.0)
    wavefunction, time = start, 0.0
    for sign in (1.0, -1.0):
        for _ in range(n):
            wavefunction, _ = propagator.step(wavefunction, time, sign * dt)
            time += sign * dt
        if sign > 0:
            moved = density_matrix_distance(wavefunction.coefficients, start.coefficients)
    return moved, density_matrix_distance(wavefunction.coefficients, start.coefficients)


@pytest.mark.parametrize(
    "propagator_cls,dt_as,bound",
    [
        (PTCNPropagator, 50.0, 1e-3),
        (CrankNicolsonPropagator, 50.0, 2e-3),
        (ETRSPropagator, 10.0, 1e-4),
        (RK4Propagator, 2.0, 1e-6),
    ],
    ids=["ptcn", "cn", "etrs", "rk4"],
)
def test_out_and_back_returns_to_the_start(kicked_lda_state, propagator_cls, dt_as, bound):
    moved, residual = _out_and_back(propagator_cls, kicked_lda_state, dt_as, 4)
    assert moved > 1e-2
    assert residual < bound, (moved, residual)
