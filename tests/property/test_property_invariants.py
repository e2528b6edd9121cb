"""Property-based tests (hypothesis) on the core data structures and invariants.

These cover the pieces whose correctness is purely structural and therefore
amenable to randomised checking: block distributions, the simulated
communicator's collectives, the FFT normalisation conventions, gauge
invariance of the density, and the Anderson mixer's history bookkeeping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.anderson import AndersonMixer
from repro.parallel.comm import CollectiveKind, SimCommunicator
from repro.parallel.paper_kernels import (
    band_distribution,
    band_to_gspace,
    gspace_distribution,
    gspace_to_band,
)
from repro.pw.grid import FFTGrid, PlaneWaveBasis
from repro.pw.lattice import Cell
from support import density_matrix_distance

# keep hypothesis example counts small: every example builds real arrays
SETTINGS = dict(max_examples=25, deadline=None)


class TestBlockDistributionProperties:
    @given(total=st.integers(1, 200), ranks=st.integers(1, 32))
    @settings(**SETTINGS)
    def test_counts_partition_total(self, total, ranks):
        if ranks > total:
            with pytest.raises(ValueError):
                band_distribution(total, ranks)
            return
        dist = band_distribution(total, ranks)
        assert sum(dist.counts) == total
        assert max(dist.counts) - min(dist.counts) <= 1
        # offsets are the prefix sums of counts
        assert dist.offsets[0] == 0
        for r in range(1, ranks):
            assert dist.offsets[r] == dist.offsets[r - 1] + dist.counts[r - 1]

    @given(total=st.integers(1, 100), ranks=st.integers(1, 16), index=st.integers(0, 99))
    @settings(**SETTINGS)
    def test_owner_consistent_with_slice(self, total, ranks, index):
        if ranks > total or index >= total:
            return
        dist = band_distribution(total, ranks)
        owner = dist.owner_of(index)
        sl = dist.local_slice(owner)
        assert sl.start <= index < sl.stop


class TestTransposeProperties:
    @given(
        n_bands=st.integers(1, 12),
        npw=st.integers(1, 40),
        ranks=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(**SETTINGS)
    def test_band_gspace_round_trip(self, n_bands, npw, ranks, seed):
        if ranks > n_bands or ranks > npw:
            return
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n_bands, npw)) + 1j * rng.standard_normal((n_bands, npw))
        comm = SimCommunicator(ranks)
        bands = band_distribution(n_bands, ranks)
        gspace = gspace_distribution(npw, ranks)
        g_blocks = band_to_gspace(comm, bands.split(data, axis=0), bands, gspace)
        back = gspace_to_band(comm, g_blocks, bands, gspace)
        assert np.allclose(bands.join(back, axis=0), data)


class TestCommunicatorProperties:
    @given(ranks=st.integers(1, 8), length=st.integers(1, 64), seed=st.integers(0, 2**16))
    @settings(**SETTINGS)
    def test_allreduce_matches_numpy_sum(self, ranks, length, seed):
        rng = np.random.default_rng(seed)
        data = [rng.standard_normal(length) for _ in range(ranks)]
        comm = SimCommunicator(ranks)
        out = comm.allreduce(data)
        expected = np.sum(data, axis=0)
        for r in range(ranks):
            assert np.allclose(out[r], expected)

    @given(ranks=st.integers(2, 8), length=st.integers(1, 64), root=st.integers(0, 7), seed=st.integers(0, 2**16))
    @settings(**SETTINGS)
    def test_bcast_volume_proportional_to_nonroot_ranks(self, ranks, length, root, seed):
        if root >= ranks:
            return
        rng = np.random.default_rng(seed)
        payload = rng.standard_normal(length)
        comm = SimCommunicator(ranks)
        comm.bcast([payload if r == root else None for r in range(ranks)], root=root)
        assert comm.stats.bytes[CollectiveKind.BCAST] == (ranks - 1) * payload.nbytes


class TestFFTNormalisationProperties:
    @given(
        n=st.sampled_from([6, 8, 10]),
        box=st.floats(4.0, 20.0),
        seed=st.integers(0, 2**16),
    )
    @settings(**SETTINGS)
    def test_norm_preserved_by_transforms(self, n, box, seed):
        grid = FFTGrid(Cell.cubic(box), (n, n, n))
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        coeffs /= np.linalg.norm(coeffs)
        psi = grid.to_real(coeffs)
        norm = np.sum(np.abs(psi) ** 2) * grid.volume_element
        assert norm == pytest.approx(1.0, rel=1e-10)

    @given(ecut=st.floats(0.5, 4.0), seed=st.integers(0, 2**16))
    @settings(**SETTINGS)
    def test_sphere_round_trip(self, ecut, seed):
        grid = FFTGrid(Cell.cubic(9.0), (10, 10, 10))
        basis = PlaneWaveBasis(grid, ecut)
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((2, basis.npw)) + 1j * rng.standard_normal((2, basis.npw))
        back = basis.from_grid(basis.to_grid(coeffs))
        assert np.allclose(back, coeffs)


class TestGaugeInvarianceProperty:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_density_matrix_distance_zero_under_unitary(self, seed):
        rng = np.random.default_rng(seed)
        grid = FFTGrid(Cell.cubic(8.0), (8, 8, 8))
        basis = PlaneWaveBasis(grid, 2.0)
        c = rng.standard_normal((3, basis.npw)) + 1j * rng.standard_normal((3, basis.npw))
        q, _ = np.linalg.qr(c @ c.conj().T + np.eye(3))
        rotated = q.T @ c
        assert density_matrix_distance(c, rotated) < 1e-7


class TestAndersonProperties:
    @given(
        history=st.integers(1, 20),
        steps=st.integers(1, 30),
        shape=st.sampled_from([(4,), (2, 6), (3, 5)]),
        seed=st.integers(0, 2**16),
    )
    @settings(**SETTINGS)
    def test_history_never_exceeds_limit(self, history, steps, shape, seed):
        rng = np.random.default_rng(seed)
        mixer = AndersonMixer(history_size=history)
        x = np.zeros(shape, dtype=complex)
        for _ in range(steps):
            f = 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            x = mixer.update(x, f)
            assert len(mixer._iterates) <= history
            assert np.all(np.isfinite(x))

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_zero_residual_is_fixed_point(self, seed):
        rng = np.random.default_rng(seed)
        mixer = AndersonMixer()
        x = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        out = mixer.update(x, np.zeros_like(x))
        assert np.allclose(out, x)
