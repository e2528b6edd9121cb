"""Tests for the Wavefunction container."""

import numpy as np
import pytest

from repro.pw import PlaneWaveBasis, Wavefunction
from repro.pw.orthogonalization import orthonormality_error


class TestConstruction:
    def test_shapes(self, h2_basis):
        wf = Wavefunction.random(h2_basis, 3)
        assert wf.nbands == 3
        assert wf.npw == h2_basis.npw
        assert wf.coefficients.dtype == np.complex128

    def test_default_occupations(self, h2_basis):
        wf = Wavefunction.random(h2_basis, 2)
        assert np.allclose(wf.occupations, 2.0)

    def test_custom_occupations(self, h2_basis):
        wf = Wavefunction(h2_basis, np.zeros((2, h2_basis.npw), dtype=complex), occupations=[2.0, 1.0])
        assert np.allclose(wf.occupations, [2.0, 1.0])

    def test_wrong_npw_raises(self, h2_basis):
        with pytest.raises(ValueError, match="does not match"):
            Wavefunction(h2_basis, np.zeros((2, h2_basis.npw + 3), dtype=complex))

    def test_wrong_occupation_shape_raises(self, h2_basis):
        with pytest.raises(ValueError, match="occupations"):
            Wavefunction(h2_basis, np.zeros((2, h2_basis.npw), dtype=complex), occupations=[2.0])

    def test_1d_coefficients_rejected(self, h2_basis):
        with pytest.raises(ValueError, match="2D"):
            Wavefunction(h2_basis, np.zeros(h2_basis.npw, dtype=complex))


class TestLinearAlgebra:
    def test_random_is_orthonormal(self, random_wavefunction):
        assert orthonormality_error(random_wavefunction) < 1e-10

    def test_overlap_hermitian(self, random_wavefunction):
        s = random_wavefunction.overlap()
        assert np.allclose(s, s.conj().T)

    def test_overlap_with_other(self, h2_basis, rng):
        a = Wavefunction.random(h2_basis, 2, rng=rng)
        b = Wavefunction.random(h2_basis, 2, rng=rng)
        s = a.overlap(b)
        expected = a.coefficients.conj() @ b.coefficients.T
        assert np.allclose(s, expected)

    def test_norms(self, random_wavefunction):
        assert np.allclose(np.linalg.norm(random_wavefunction.coefficients, axis=1), 1.0)

    def test_copy_is_independent(self, random_wavefunction):
        copy = random_wavefunction.copy()
        copy.coefficients[0, 0] += 1.0
        assert random_wavefunction.coefficients[0, 0] != copy.coefficients[0, 0]


class TestRealSpace:
    def test_round_trip(self, h2_basis, rng):
        wf = Wavefunction.random(h2_basis, 2, rng=rng)
        psi_r = wf.to_real_space()
        back = Wavefunction.from_real_space(h2_basis, psi_r, wf.occupations)
        assert np.allclose(wf.coefficients, back.coefficients, atol=1e-12)

    def test_real_space_shape(self, h2_basis):
        wf = Wavefunction.random(h2_basis, 2)
        assert wf.to_real_space().shape == (2,) + h2_basis.grid.shape

    def test_normalisation_in_real_space(self, h2_basis, rng):
        wf = Wavefunction.random(h2_basis, 1, rng=rng)
        psi_r = wf.to_real_space()
        norm = np.sum(np.abs(psi_r[0]) ** 2) * h2_basis.grid.volume_element
        assert norm == pytest.approx(1.0)
