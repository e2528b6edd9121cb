"""Shared fixtures for the test suite.

All physics fixtures are deliberately tiny (small boxes, low cutoffs, few
bands) so the whole suite runs in a couple of minutes on a laptop; the
algorithms under test are size-independent. Expensive fixtures are
session-scoped and treated as read-only by the tests that use them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pw import (
    FFTGrid,
    GroundStateSolver,
    Hamiltonian,
    PlaneWaveBasis,
    Wavefunction,
    choose_grid_shape,
    hydrogen_chain,
    hydrogen_molecule,
)


@pytest.fixture(scope="session")
def h2_structure():
    """An H2 molecule in a 10 Bohr box."""
    return hydrogen_molecule(box=10.0, bond_length=1.4)


@pytest.fixture(scope="session")
def h2_basis(h2_structure):
    """A small plane-wave basis for the H2 box (a few hundred plane waves)."""
    ecut = 3.0
    grid = FFTGrid(h2_structure.cell, choose_grid_shape(h2_structure.cell, ecut, factor=1.0))
    return PlaneWaveBasis(grid, ecut)


@pytest.fixture(scope="session")
def chain_structure():
    """A 4-atom periodic hydrogen chain (4 electrons, 2 occupied bands)."""
    return hydrogen_chain(n_atoms=4, spacing=2.0, box=7.0)


@pytest.fixture(scope="session")
def chain_basis(chain_structure):
    """Plane-wave basis for the hydrogen chain."""
    ecut = 2.5
    grid = FFTGrid(chain_structure.cell, choose_grid_shape(chain_structure.cell, ecut, factor=1.0))
    return PlaneWaveBasis(grid, ecut)


@pytest.fixture()
def lda_hamiltonian(h2_basis, h2_structure):
    """Semi-local (LDA) Hamiltonian for H2 — cheap, no Fock exchange."""
    return Hamiltonian(h2_basis, h2_structure, hybrid_mixing=0.0)


@pytest.fixture()
def hybrid_hamiltonian(h2_basis, h2_structure):
    """Hybrid (25 % bare Fock exchange) Hamiltonian for H2."""
    return Hamiltonian(h2_basis, h2_structure, hybrid_mixing=0.25, screening_length=None)


@pytest.fixture()
def screened_hybrid_hamiltonian(h2_basis, h2_structure):
    """HSE-style screened hybrid Hamiltonian for H2."""
    return Hamiltonian(h2_basis, h2_structure, hybrid_mixing=0.25, screening_length=0.3)


@pytest.fixture()
def chain_hybrid_hamiltonian(chain_basis, chain_structure):
    """Hybrid Hamiltonian for the 4-atom hydrogen chain (2 occupied bands)."""
    return Hamiltonian(chain_basis, chain_structure, hybrid_mixing=0.25, screening_length=None)


@pytest.fixture(scope="session")
def h2_ground_state(h2_basis, h2_structure):
    """Converged hybrid ground state of H2 (session scoped — treat as read-only)."""
    ham = Hamiltonian(h2_basis, h2_structure, hybrid_mixing=0.25, screening_length=None)
    solver = GroundStateSolver(ham, scf_tolerance=1e-7, max_scf_iterations=50)
    result = solver.solve()
    return ham, result


@pytest.fixture(scope="session")
def chain_ground_state(chain_basis, chain_structure):
    """Converged LDA ground state of the hydrogen chain (2 bands)."""
    ham = Hamiltonian(chain_basis, chain_structure, hybrid_mixing=0.0)
    solver = GroundStateSolver(ham, scf_tolerance=1e-7, max_scf_iterations=60)
    result = solver.solve()
    return ham, result


#: tiny semi-local H2 base config for api/batch driver tests: cheap enough
#: that a whole sweep, including its SCF, runs in well under a second
TINY_API_DICT = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}


@pytest.fixture()
def tiny_config():
    """A cheap semi-local H2 :class:`~repro.api.SimulationConfig`."""
    from repro.api import SimulationConfig

    return SimulationConfig.from_dict(TINY_API_DICT)


@pytest.fixture()
def count_scf_solves(monkeypatch):
    """Count every ``GroundStateSolver.solve`` call made while active."""
    calls = []
    original = GroundStateSolver.solve

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(GroundStateSolver, "solve", counting)
    return calls


@pytest.fixture()
def count_propagation_steps(monkeypatch):
    """Record the step count of every job handed to ``run_batched`` — the one
    propagation driver — while active (``sum(...)`` is the total number of
    propagation steps)."""
    import repro.api.session
    import repro.core.dynamics

    calls = []
    original = repro.core.dynamics.run_batched

    def counting(runs):
        calls.extend(int(run.n_steps) for run in runs)
        return original(runs)

    # the driver module's own binding (TDDFTSimulation.run resolves it there)
    # and the session's from-import of it
    monkeypatch.setattr(repro.core.dynamics, "run_batched", counting)
    monkeypatch.setattr(repro.api.session, "run_batched", counting)
    return calls


@pytest.fixture()
def rng():
    """A deterministic random generator."""
    return np.random.default_rng(20260615)


@pytest.fixture()
def random_wavefunction(h2_basis, rng):
    """Three random orthonormal bands on the H2 basis."""
    return Wavefunction.random(h2_basis, 3, rng=rng)
