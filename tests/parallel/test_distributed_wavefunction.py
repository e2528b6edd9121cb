"""Tests for distributed wavefunctions, overlap, density and orthogonalization."""

import numpy as np
import pytest
from band_layout import gather, scatter

from repro.parallel import (
    DistributedWavefunction,
    SimCommunicator,
    distributed_cholesky_orthonormalize,
    distributed_density,
    distributed_overlap,
)
from repro.pw import Wavefunction, compute_density
from repro.pw.orthogonalization import cholesky_orthonormalize, orthonormality_error


@pytest.fixture()
def serial_wavefunction(chain_basis, rng):
    return Wavefunction.random(chain_basis, 4, rng=rng)


@pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
class TestScatterGather:
    def test_round_trip(self, serial_wavefunction, n_ranks):
        comm = SimCommunicator(n_ranks)
        dwf = scatter(serial_wavefunction, comm)
        back = gather(dwf)
        assert np.allclose(back.coefficients, serial_wavefunction.coefficients)
        assert np.allclose(back.occupations, serial_wavefunction.occupations)

    def test_block_shapes(self, serial_wavefunction, n_ranks):
        comm = SimCommunicator(n_ranks)
        dwf = scatter(serial_wavefunction, comm)
        assert len(dwf.band_blocks) == n_ranks
        assert sum(b.shape[0] for b in dwf.band_blocks) == serial_wavefunction.nbands

    def test_gspace_round_trip(self, serial_wavefunction, n_ranks):
        comm = SimCommunicator(n_ranks)
        dwf = scatter(serial_wavefunction, comm)
        g_blocks = dwf.to_gspace_blocks()
        rebuilt = DistributedWavefunction.from_gspace_blocks(dwf, g_blocks)
        assert np.allclose(gather(rebuilt).coefficients, serial_wavefunction.coefficients)


@pytest.mark.parametrize("n_ranks", [1, 2, 4])
class TestDistributedKernels:
    def test_overlap_matches_serial(self, serial_wavefunction, n_ranks):
        comm = SimCommunicator(n_ranks)
        dwf = scatter(serial_wavefunction, comm)
        s_dist = distributed_overlap(dwf, dwf)
        s_serial = serial_wavefunction.overlap()
        assert np.allclose(s_dist, s_serial, atol=1e-12)

    def test_density_matches_serial(self, serial_wavefunction, n_ranks):
        comm = SimCommunicator(n_ranks)
        dwf = scatter(serial_wavefunction, comm)
        rho_dist = distributed_density(dwf)
        rho_serial = compute_density(serial_wavefunction)
        assert np.allclose(rho_dist, rho_serial, atol=1e-12)

    def test_orthogonalization_matches_serial(self, chain_basis, rng, n_ranks):
        # build a deliberately non-orthonormal set
        wf = Wavefunction(chain_basis, chain_basis.random_coefficients(4, rng))
        comm = SimCommunicator(n_ranks)
        dwf = scatter(wf, comm)
        ortho_dist = gather(distributed_cholesky_orthonormalize(dwf))
        ortho_serial = cholesky_orthonormalize(wf)
        assert orthonormality_error(ortho_dist) < 1e-10
        assert np.allclose(ortho_dist.coefficients, ortho_serial.coefficients, atol=1e-10)


class TestSinglePrecisionComm:
    def test_single_precision_transposes_introduce_small_error_only(self, serial_wavefunction):
        comm = SimCommunicator(4, single_precision=True)
        dwf = scatter(serial_wavefunction, comm)
        g_blocks = dwf.to_gspace_blocks()
        rebuilt = gather(DistributedWavefunction.from_gspace_blocks(dwf, g_blocks))
        err = np.max(np.abs(rebuilt.coefficients - serial_wavefunction.coefficients))
        assert 0.0 < err < 1e-6  # single precision rounding, nothing worse

    def test_local_band_indices(self, serial_wavefunction):
        comm = SimCommunicator(3)
        dwf = scatter(serial_wavefunction, comm)
        all_indices = []
        for r in range(3):
            all_indices.extend(list(dwf.local_band_indices(r)))
        assert all_indices == list(range(serial_wavefunction.nbands))

