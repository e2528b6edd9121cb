"""Tests for the full Kohn-Sham Hamiltonian."""

import numpy as np
import pytest

from repro.pw import Hamiltonian, Wavefunction, compute_density
from repro.pw.hamiltonian import HamiltonianCounters, apply_many
from repro.pw.laser import GaussianLaserPulse


def hermiticity_error(ham, basis, rng, include_exchange=True):
    a = Wavefunction.random(basis, 1, rng=rng).coefficients[0]
    b = Wavefunction.random(basis, 1, rng=rng).coefficients[0]
    lhs = np.vdot(a, ham.apply(b[None, :], include_exchange=include_exchange)[0])
    rhs = np.vdot(ham.apply(a[None, :], include_exchange=include_exchange)[0], b)
    return abs(lhs - rhs)


class TestAssembly:
    def test_n_electrons(self, lda_hamiltonian):
        assert lda_hamiltonian.n_electrons == pytest.approx(2.0)

    def test_exchange_present_only_for_hybrid(self, lda_hamiltonian, hybrid_hamiltonian):
        assert lda_hamiltonian.exchange is None
        assert hybrid_hamiltonian.exchange is not None

    def test_xc_exchange_scale_reduced_for_hybrid(self, hybrid_hamiltonian):
        assert hybrid_hamiltonian.xc.exchange_scale == pytest.approx(0.75)

    def test_local_potential_shape(self, lda_hamiltonian, random_wavefunction):
        lda_hamiltonian.update_potential(random_wavefunction)
        assert lda_hamiltonian.local_potential.shape == lda_hamiltonian.grid.shape


class TestHermiticity:
    def test_lda(self, lda_hamiltonian, h2_basis, rng, random_wavefunction):
        lda_hamiltonian.update_potential(random_wavefunction)
        assert hermiticity_error(lda_hamiltonian, h2_basis, rng) < 1e-10

    def test_hybrid(self, hybrid_hamiltonian, h2_basis, rng, random_wavefunction):
        hybrid_hamiltonian.update_potential(random_wavefunction)
        assert hermiticity_error(hybrid_hamiltonian, h2_basis, rng) < 1e-10

    def test_screened_hybrid(self, screened_hybrid_hamiltonian, h2_basis, rng, random_wavefunction):
        screened_hybrid_hamiltonian.update_potential(random_wavefunction)
        assert hermiticity_error(screened_hybrid_hamiltonian, h2_basis, rng) < 1e-10

    def test_with_laser_field(self, h2_basis, h2_structure, rng, random_wavefunction):
        pulse = GaussianLaserPulse(amplitude=0.02, omega=0.3, t0=2.0, sigma=1.0, polarization=[1, 0, 0])
        ham = Hamiltonian(
            h2_basis, h2_structure, hybrid_mixing=0.0, external_field=pulse.potential_factory(h2_basis.grid)
        )
        ham.update_potential(random_wavefunction)
        ham.set_time(2.0)
        assert hermiticity_error(ham, h2_basis, rng) < 1e-10


class TestApply:
    def test_kinetic_limit(self, lda_hamiltonian, h2_basis):
        """For a plane wave far above the potential scale, H psi ~ |G|^2/2 psi."""
        # pick the highest-kinetic-energy plane wave in the sphere
        idx = int(np.argmax(h2_basis.kinetic_energies))
        c = np.zeros((1, h2_basis.npw), dtype=complex)
        c[0, idx] = 1.0
        wf = Wavefunction(h2_basis, c)
        lda_hamiltonian.update_potential(wf)
        out = lda_hamiltonian.apply(c)
        diag = np.real(np.vdot(c[0], out[0]))
        assert diag == pytest.approx(h2_basis.kinetic_energies[idx], abs=0.6)

    def test_single_vector_shape(self, lda_hamiltonian, random_wavefunction):
        lda_hamiltonian.update_potential(random_wavefunction)
        out = lda_hamiltonian.apply(random_wavefunction.coefficients[0])
        assert out.shape == (random_wavefunction.npw,)

    def test_include_exchange_flag(self, hybrid_hamiltonian, random_wavefunction):
        hybrid_hamiltonian.update_potential(random_wavefunction)
        with_x = hybrid_hamiltonian.apply(random_wavefunction.coefficients)
        without_x = hybrid_hamiltonian.apply(random_wavefunction.coefficients, include_exchange=False)
        assert not np.allclose(with_x, without_x)

    def test_counter_increments(self, hybrid_hamiltonian, random_wavefunction):
        hybrid_hamiltonian.update_potential(random_wavefunction)
        hybrid_hamiltonian.counters = HamiltonianCounters()
        hybrid_hamiltonian.apply(random_wavefunction.coefficients)
        assert hybrid_hamiltonian.counters.apply_calls == 1
        assert hybrid_hamiltonian.counters.fock_applications == 1

    def test_complex64_block_is_row_0_of_a_wider_stack(self, hybrid_hamiltonian, random_wavefunction, rng):
        """The single-precision tier stays single precision through the
        width-1 call and gets the floats of the same job in a width-2 stack."""
        hybrid_hamiltonian.update_potential(random_wavefunction)
        neighbour = hybrid_hamiltonian.clone()
        neighbour.update_potential(Wavefunction.random(hybrid_hamiltonian.basis, 3, rng=rng))
        block = random_wavefunction.coefficients.astype(np.complex64)
        other = Wavefunction.random(hybrid_hamiltonian.basis, 3, rng=rng).coefficients.astype(np.complex64)
        single = hybrid_hamiltonian.apply(block)
        assert single.dtype == np.complex64
        stacked = apply_many([hybrid_hamiltonian, neighbour], np.stack([block, other]))
        assert stacked.dtype == np.complex64
        assert single.tobytes() == stacked[0].tobytes()


class TestExternalField:
    def test_set_time_without_field_is_zero(self, lda_hamiltonian):
        lda_hamiltonian.set_time(1.0)
        assert np.allclose(lda_hamiltonian._v_external_t, 0.0)

    def test_laser_changes_potential(self, h2_basis, h2_structure):
        pulse = GaussianLaserPulse(
            amplitude=0.05, omega=0.3, t0=2.0, sigma=1.0, polarization=[0, 0, 1], phase=np.pi / 2
        )
        ham = Hamiltonian(
            h2_basis, h2_structure, hybrid_mixing=0.0, external_field=pulse.potential_factory(h2_basis.grid)
        )
        ham.set_time(2.0)
        at_peak = ham._v_external_t.copy()
        ham.set_time(200.0)
        far_away = ham._v_external_t
        assert np.max(np.abs(at_peak)) > 10 * np.max(np.abs(far_away))

    def test_bad_field_shape_raises(self, h2_basis, h2_structure):
        ham = Hamiltonian(h2_basis, h2_structure, hybrid_mixing=0.0, external_field=lambda t: np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            ham.set_time(0.1)


class TestEnergy:
    def test_breakdown_sums_to_total(self, hybrid_hamiltonian, random_wavefunction):
        hybrid_hamiltonian.update_potential(random_wavefunction)
        breakdown = hybrid_hamiltonian.energy(random_wavefunction)
        assert breakdown.total == pytest.approx(
            breakdown.kinetic
            + breakdown.external
            + breakdown.nonlocal_psp
            + breakdown.hartree
            + breakdown.xc
            + breakdown.exact_exchange
            + breakdown.ewald
            + breakdown.laser
        )

    def test_kinetic_positive_hartree_positive_xc_negative(self, lda_hamiltonian, random_wavefunction):
        lda_hamiltonian.update_potential(random_wavefunction)
        b = lda_hamiltonian.energy(random_wavefunction)
        assert b.kinetic > 0.0
        assert b.hartree > 0.0
        assert b.xc < 0.0

    def test_energy_gauge_invariant(self, hybrid_hamiltonian, random_wavefunction, rng):
        hybrid_hamiltonian.update_potential(random_wavefunction)
        n = random_wavefunction.nbands
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        e1 = hybrid_hamiltonian.total_energy(random_wavefunction)
        e2 = hybrid_hamiltonian.total_energy(
            Wavefunction(random_wavefunction.basis, q.T @ random_wavefunction.coefficients,
                         random_wavefunction.occupations)
        )
        assert e1 == pytest.approx(e2, rel=1e-10)

    def test_preconditioner_positive(self, lda_hamiltonian):
        p = lda_hamiltonian.preconditioner()
        assert np.all(p > 0.0)
