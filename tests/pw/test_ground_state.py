"""Tests for the ground-state SCF solver."""

import numpy as np
import pytest

from repro.pw import GroundStateSolver, Hamiltonian, Wavefunction, compute_density


class TestLDAGroundState:
    def test_h2_converges(self, h2_basis, h2_structure):
        ham = Hamiltonian(h2_basis, h2_structure, hybrid_mixing=0.0)
        solver = GroundStateSolver(ham, scf_tolerance=1e-6, max_scf_iterations=40)
        result = solver.solve()
        assert result.converged
        assert result.scf_iterations < 40

    def test_h2_energy_reasonable(self, h2_basis, h2_structure):
        """H2 total energy should be around -1 Ha (coarse basis, model psp)."""
        ham = Hamiltonian(h2_basis, h2_structure, hybrid_mixing=0.0)
        result = GroundStateSolver(ham, scf_tolerance=1e-6).solve()
        assert -1.6 < result.total_energy < -0.6

    def test_occupied_eigenvalue_negative(self, h2_basis, h2_structure):
        ham = Hamiltonian(h2_basis, h2_structure, hybrid_mixing=0.0)
        result = GroundStateSolver(ham, scf_tolerance=1e-6).solve()
        assert result.eigenvalues[0] < 0.0

    def test_orbitals_orthonormal(self, chain_ground_state):
        _, result = chain_ground_state
        assert result.wavefunction.is_orthonormal(tol=1e-6)

    def test_density_integrates_to_electrons(self, chain_ground_state, chain_basis):
        ham, result = chain_ground_state
        rho = compute_density(result.wavefunction)
        n = np.sum(rho) * chain_basis.grid.volume_element
        assert n == pytest.approx(ham.n_electrons, rel=1e-8)

    def test_density_errors_decrease(self, chain_ground_state):
        _, result = chain_ground_state
        errors = result.density_errors
        assert errors[-1] < errors[0]

    def test_aufbau_ordering(self, chain_ground_state):
        _, result = chain_ground_state
        eig = result.eigenvalues
        assert np.all(np.diff(eig) >= -1e-8)


class TestHybridGroundState:
    def test_h2_hybrid_converges(self, h2_ground_state):
        _, result = h2_ground_state
        assert result.converged

    def test_hybrid_stationarity(self, h2_ground_state):
        """At the hybrid ground state the PT residual H psi - psi (psi* H psi) is small."""
        from repro.core.gauge import pt_residual

        ham, result = h2_ground_state
        ham.update_potential(result.wavefunction)
        c = result.wavefunction.coefficients
        hc = ham.apply(c)
        residual = pt_residual(c, hc)
        assert np.max(np.abs(residual)) < 5e-4

    def test_exact_exchange_energy_negative(self, h2_ground_state):
        ham, result = h2_ground_state
        breakdown = ham.energy(result.wavefunction)
        assert breakdown.exact_exchange < 0.0

    def test_nbands_override(self, h2_basis, h2_structure):
        ham = Hamiltonian(h2_basis, h2_structure, hybrid_mixing=0.0)
        solver = GroundStateSolver(ham, nbands=3, scf_tolerance=1e-5, max_scf_iterations=30)
        result = solver.solve()
        assert result.wavefunction.nbands == 3

    def test_invalid_nbands(self, h2_basis, h2_structure):
        ham = Hamiltonian(h2_basis, h2_structure, hybrid_mixing=0.0)
        with pytest.raises(ValueError):
            GroundStateSolver(ham, nbands=0)

    def test_initial_guess_used(self, h2_basis, h2_structure, rng):
        ham = Hamiltonian(h2_basis, h2_structure, hybrid_mixing=0.0)
        solver = GroundStateSolver(ham, scf_tolerance=1e-6, max_scf_iterations=40)
        initial = Wavefunction.random(h2_basis, 1, rng=rng)
        result = solver.solve(initial=initial)
        assert result.converged


@pytest.fixture()
def recorded_davidson_calls(monkeypatch):
    """Every ``block_davidson`` call the SCF makes: the tolerance it asked for
    and the residual of what came back, recomputed with a fresh application."""
    import repro.pw.ground_state as ground_state

    calls = []
    original = ground_state.block_davidson

    def recording(apply_h, guess, nbands, **keywords):
        result = original(apply_h, guess, nbands, **keywords)
        vectors = result.eigenvectors
        residual = apply_h(vectors) - result.eigenvalues[:, None] * vectors
        calls.append((keywords["tolerance"], float(np.max(np.linalg.norm(residual, axis=1)))))
        return result

    monkeypatch.setattr(ground_state, "block_davidson", recording)
    return calls


class TestDavidsonToleranceSchedule:
    """Each SCF iteration is diagonalised two orders below the previous
    iteration's density error — no looser than 1e-3, no tighter than
    ``davidson_tolerance`` — instead of to 1e-7 from the first iteration on."""

    def test_tolerances_as_called(self, h2_basis, h2_structure, recorded_davidson_calls):
        ham = Hamiltonian(h2_basis, h2_structure, hybrid_mixing=0.0)
        result = GroundStateSolver(ham, scf_tolerance=1e-7, davidson_tolerance=1e-8).solve()
        assert result.converged
        tolerances = [tolerance for tolerance, _ in recorded_davidson_calls]
        assert len(tolerances) == result.scf_iterations
        expected = [1e-3] + [max(1e-8, min(1e-3, 1e-2 * err)) for err in result.density_errors[:-1]]
        assert tolerances == expected
        # the first on the cap, the last on the floor, the error followed in between
        assert tolerances[-1] == 1e-8
        assert any(1e-8 < tolerance < 1e-3 for tolerance in tolerances)
        assert all(residual < tolerance for tolerance, residual in recorded_davidson_calls)
        assert GroundStateSolver(ham).davidson_tolerance == 1e-7  # the floor is still the argument

    def test_schedule_spans_the_exchange_rounds(self, h2_basis, h2_structure, recorded_davidson_calls):
        """A hybrid round starts from the previous round's last error, not from the cap."""
        ham = Hamiltonian(h2_basis, h2_structure, hybrid_mixing=0.25, screening_length=None)
        result = GroundStateSolver(ham, scf_tolerance=1e-5, exchange_outer_iterations=2).solve()
        tolerances = [tolerance for tolerance, _ in recorded_davidson_calls]
        expected = [1e-3] + [max(1e-7, min(1e-3, 1e-2 * err)) for err in result.density_errors[:-1]]
        assert tolerances == expected

    def test_returned_orbitals_meet_the_residual_bound(self, h2_basis, h2_structure, recorded_davidson_calls):
        """Residual of the returned orbitals in the Hamiltonian they were solved
        in: two orders below the last-but-one density error, and
        ``davidson_tolerance`` itself once that error is below 1e-5."""
        ham = Hamiltonian(h2_basis, h2_structure, hybrid_mixing=0.0)
        loose = GroundStateSolver(ham, scf_tolerance=1e-4).solve()
        tolerance, residual = recorded_davidson_calls[-1]
        assert tolerance == 1e-2 * loose.density_errors[-2] > 1e-7
        assert residual < tolerance

        del recorded_davidson_calls[:]
        tight = GroundStateSolver(ham, scf_tolerance=1e-6).solve()
        assert tight.density_errors[-2] < 1e-5
        tolerance, residual = recorded_davidson_calls[-1]
        assert tolerance == 1e-7 and residual < 1e-7

    def test_h2_energy_and_iteration_count_are_the_parents(self):
        """The benchmark's H2 (box 8, ecut 2, 1e-5): what every SCF iteration
        diagonalised to 1e-7 gave, -0.9794926545 Ha in 20 iterations."""
        from repro.pw import FFTGrid, PlaneWaveBasis, choose_grid_shape, hydrogen_molecule

        structure = hydrogen_molecule(box=8.0, bond_length=1.4)
        basis = PlaneWaveBasis(FFTGrid(structure.cell, choose_grid_shape(structure.cell, 2.0, factor=1.0)), 2.0)
        ham = Hamiltonian(basis, structure, hybrid_mixing=0.0)
        result = GroundStateSolver(ham, scf_tolerance=1e-5).solve()
        assert result.converged and result.scf_iterations == 20
        assert result.total_energy == pytest.approx(-0.9794926545, abs=1e-9)

    def test_si8_hybrid_ground_state_poisson_budget(self):
        """Si8 HSE06 at the benchmark's size and SCF tolerance: 54 408 Poisson
        solves with every iteration diagonalised to 1e-7, 5 816 with the
        schedule; the budget leaves the count room to move by a few
        Davidson iterations, not by a return to the old cost."""
        from repro.pw import FFTGrid, PlaneWaveBasis, choose_grid_shape, diamond_silicon

        structure = diamond_silicon()
        basis = PlaneWaveBasis(FFTGrid(structure.cell, choose_grid_shape(structure.cell, 2.5, factor=1.0)), 2.5)
        ham = Hamiltonian(basis, structure, hybrid_mixing=0.25, screening_length=0.106)
        result = GroundStateSolver(ham, scf_tolerance=1.5e-2, max_scf_iterations=40).solve()
        assert result.converged
        assert ham.exchange.counters.poisson_solves <= 8000
