"""Tests for wavefunction orthonormalization."""

import numpy as np
import pytest

from repro.pw import PlaneWaveBasis, Wavefunction
from repro.pw.orthogonalization import cholesky_orthonormalize, lowdin_orthonormalize, orthonormality_error


def gram_schmidt_orthonormalize(wavefunction: Wavefunction) -> Wavefunction:
    """Modified Gram-Schmidt orthonormalization: the band-by-band reference
    the Cholesky and Löwdin schemes are checked against."""
    c = wavefunction.coefficients.copy()
    nbands = c.shape[0]
    for i in range(nbands):
        for j in range(i):
            c[i] -= (c[j].conj() @ c[i]) * c[j]
        norm = np.linalg.norm(c[i])
        if norm < 1e-14:
            raise np.linalg.LinAlgError(f"band {i} became numerically zero during Gram-Schmidt")
        c[i] /= norm
    return Wavefunction(wavefunction.basis, c, wavefunction.occupations)


@pytest.fixture()
def skewed_wavefunction(h2_basis, rng):
    """A deliberately non-orthonormal but full-rank wavefunction set."""
    wf = Wavefunction(h2_basis, h2_basis.random_coefficients(3, rng))
    coeffs = wf.coefficients
    coeffs[1] = 0.7 * coeffs[0] + 0.3 * coeffs[1]
    coeffs[2] = 0.2 * coeffs[0] + 1.5 * coeffs[2]
    return Wavefunction(h2_basis, coeffs, wf.occupations)


@pytest.mark.parametrize(
    "method", [cholesky_orthonormalize, lowdin_orthonormalize, gram_schmidt_orthonormalize]
)
class TestAllMethods:
    def test_result_orthonormal(self, method, skewed_wavefunction):
        result = method(skewed_wavefunction)
        assert orthonormality_error(result) < 1e-10

    def test_span_preserved(self, method, skewed_wavefunction):
        """Orthonormalization is a rotation within the span: P is unchanged up to projection."""
        result = method(skewed_wavefunction)
        # the occupied-subspace projector built from the orthonormalised set must
        # reproduce each original vector exactly (they live in the same span)
        c_new = result.coefficients
        projector = c_new.T @ np.linalg.solve(c_new.conj() @ c_new.T, c_new.conj())
        original = skewed_wavefunction.coefficients
        projected = (projector @ original.T).T
        assert np.allclose(projected, original, atol=1e-8)

    def test_idempotent(self, method, skewed_wavefunction):
        once = method(skewed_wavefunction)
        twice = method(once)
        assert orthonormality_error(twice) < 1e-10

    def test_already_orthonormal_unchanged_span(self, method, random_wavefunction):
        result = method(random_wavefunction)
        overlap = result.coefficients.conj() @ random_wavefunction.coefficients.T
        # |det| of the overlap between the two orthonormal sets must be 1
        assert abs(np.abs(np.linalg.det(overlap)) - 1.0) < 1e-8


class TestSpecifics:
    def test_orthonormality_error_zero_for_orthonormal(self, random_wavefunction):
        assert orthonormality_error(random_wavefunction) < 1e-10

    def test_lowdin_minimal_change(self, h2_basis, rng):
        """Löwdin produces the closest orthonormal set: for a tiny perturbation the
        change should be of the same order as the perturbation."""
        wf = Wavefunction.random(h2_basis, 3, rng=rng)
        eps = 1e-6
        perturbed = Wavefunction(h2_basis, wf.coefficients + eps * rng.standard_normal(wf.coefficients.shape), wf.occupations)
        fixed = lowdin_orthonormalize(perturbed)
        assert np.max(np.abs(fixed.coefficients - perturbed.coefficients)) < 10 * eps

    def test_linearly_dependent_raises(self, h2_basis):
        coeffs = np.zeros((2, h2_basis.npw), dtype=complex)
        coeffs[0, 0] = 1.0
        coeffs[1] = coeffs[0]
        wf = Wavefunction(h2_basis, coeffs)
        with pytest.raises(np.linalg.LinAlgError):
            lowdin_orthonormalize(wf)
        with pytest.raises(np.linalg.LinAlgError):
            gram_schmidt_orthonormalize(wf)

    def test_cholesky_matches_gram_schmidt_span(self, skewed_wavefunction):
        a = cholesky_orthonormalize(skewed_wavefunction)
        b = gram_schmidt_orthonormalize(skewed_wavefunction)
        overlap = a.coefficients.conj() @ b.coefficients.T
        assert np.allclose(np.abs(np.linalg.det(overlap)), 1.0, atol=1e-8)
