"""Tests for the parallel transport gauge algebra."""

import numpy as np
import pytest

from repro.core.gauge import apply_subspace_projection, pt_residual, subspace_hamiltonian
from repro.pw import Wavefunction
from support import dense_eigensolve, density_matrix_distance, parallel_transport_align, unitary_defect


@pytest.fixture()
def coeffs(h2_basis, rng):
    return Wavefunction.random(h2_basis, 3, rng=rng).coefficients


def random_unitary(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


class TestSubspaceHamiltonian:
    def test_hermitian_for_hermitian_h(self, coeffs, lda_hamiltonian, h2_basis, rng):
        wf = Wavefunction(h2_basis, coeffs)
        lda_hamiltonian.update_potential(wf)
        hc = lda_hamiltonian.apply(coeffs)
        s = subspace_hamiltonian(coeffs, hc)
        assert np.allclose(s, s.conj().T, atol=1e-10)

    def test_shape_mismatch_raises(self, coeffs):
        with pytest.raises(ValueError):
            subspace_hamiltonian(coeffs, coeffs[:2])

    def test_projection_convention(self, coeffs, rng):
        """apply_subspace_projection implements the column-convention Psi M."""
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = apply_subspace_projection(coeffs, m)
        for j in range(3):
            expected = sum(coeffs[i] * m[i, j] for i in range(3))
            assert np.allclose(out[j], expected)


class TestPTResidual:
    def test_residual_orthogonal_to_occupied_space(self, coeffs, lda_hamiltonian, h2_basis):
        """R = (1 - P) H Psi is orthogonal to every occupied orbital."""
        wf = Wavefunction(h2_basis, coeffs)
        lda_hamiltonian.update_potential(wf)
        hc = lda_hamiltonian.apply(coeffs)
        r = pt_residual(coeffs, hc)
        overlaps = coeffs.conj() @ r.T
        assert np.max(np.abs(overlaps)) < 1e-10

    def test_residual_smaller_than_hpsi(self, h2_ground_state):
        """Near the ground state the PT residual is far smaller than H Psi itself —
        the whole reason the PT gauge admits large time steps."""
        ham, result = h2_ground_state
        c = result.wavefunction.coefficients
        ham.update_potential(result.wavefunction)
        hc = ham.apply(c)
        r = pt_residual(c, hc)
        assert np.linalg.norm(r) < 0.05 * np.linalg.norm(hc)

    def test_zero_for_eigenvectors(self, lda_hamiltonian, h2_basis, rng):

        wf = Wavefunction.random(h2_basis, 2, rng=rng)
        lda_hamiltonian.update_potential(wf)
        result = dense_eigensolve(lambda b: lda_hamiltonian.apply(b), h2_basis.npw, 2)
        c = result.eigenvectors
        hc = lda_hamiltonian.apply(c)
        assert np.max(np.abs(pt_residual(c, hc))) < 1e-8


class TestDensityMatrixDistance:
    def test_zero_for_gauge_equivalent_sets(self, coeffs, rng):
        u = random_unitary(3, rng)
        rotated = u.T @ coeffs
        assert density_matrix_distance(coeffs, rotated) < 1e-8

    def test_positive_for_different_spans(self, h2_basis, rng):
        a = Wavefunction.random(h2_basis, 2, rng=rng).coefficients
        b = Wavefunction.random(h2_basis, 2, rng=rng).coefficients
        assert density_matrix_distance(a, b) > 1e-3

    def test_symmetric(self, h2_basis, rng):
        a = Wavefunction.random(h2_basis, 2, rng=rng).coefficients
        b = Wavefunction.random(h2_basis, 2, rng=rng).coefficients
        assert density_matrix_distance(a, b) == pytest.approx(density_matrix_distance(b, a))


class TestParallelTransportAlign:
    def test_recovers_reference_gauge(self, coeffs, rng):
        """Aligning a rotated copy back to the original recovers it exactly."""
        u = random_unitary(3, rng)
        rotated = u.T @ coeffs
        aligned = parallel_transport_align(rotated, coeffs)
        assert np.allclose(aligned, coeffs, atol=1e-10)

    def test_alignment_reduces_distance(self, coeffs, rng):
        u = random_unitary(3, rng)
        rotated = u.T @ coeffs
        before = np.linalg.norm(rotated - coeffs)
        aligned = parallel_transport_align(rotated, coeffs)
        after = np.linalg.norm(aligned - coeffs)
        assert after <= before + 1e-12

    def test_span_preserved(self, coeffs, rng):
        u = random_unitary(3, rng)
        rotated = u.T @ coeffs
        aligned = parallel_transport_align(rotated, coeffs)
        assert density_matrix_distance(aligned, rotated) < 1e-8

    def test_unitary_defect(self, rng):
        u = random_unitary(4, rng)
        assert unitary_defect(u) < 1e-10
        assert unitary_defect(2.0 * u) > 1.0
