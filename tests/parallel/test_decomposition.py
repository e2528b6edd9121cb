"""Tests for the band-index / G-space distributions and their transposes (Fig. 1)."""

import numpy as np
import pytest

from repro.parallel.comm import SimCommunicator
from repro.parallel.paper_kernels import (
    band_distribution,
    band_to_gspace,
    gspace_distribution,
    gspace_to_band,
)


class TestBlockDistribution:
    def test_counts_sum_to_total(self):
        dist = band_distribution(10, 3)
        assert sum(dist.counts) == 10
        assert dist.offsets[0] == 0

    def test_balanced_when_divisible(self):
        dist = band_distribution(8, 4)
        assert dist.counts == (2, 2, 2, 2)

    def test_remainder_spread(self):
        dist = band_distribution(10, 4)
        assert dist.counts == (3, 3, 2, 2)

    def test_owner_of(self):
        dist = band_distribution(10, 4)
        assert dist.owner_of(0) == 0
        assert dist.owner_of(9) == 3
        with pytest.raises(IndexError):
            dist.owner_of(10)

    def test_local_slice(self):
        dist = band_distribution(10, 4)
        assert dist.local_slice(1) == slice(3, 6)
        with pytest.raises(IndexError):
            dist.local_slice(4)

    def test_split_join_round_trip(self):
        dist = gspace_distribution(11, 3)
        data = np.arange(11 * 2).reshape(2, 11)
        blocks = dist.split(data, axis=1)
        assert np.allclose(dist.join(blocks, axis=1), data)

    def test_split_wrong_length(self):
        dist = band_distribution(4, 2)
        with pytest.raises(ValueError):
            dist.split(np.zeros((5, 3)), axis=0)

    def test_more_ranks_than_bands_rejected(self):
        """The paper's band-index scheme cannot use more MPI tasks than bands."""
        with pytest.raises(ValueError):
            band_distribution(4, 5)
        with pytest.raises(ValueError):
            gspace_distribution(4, 5)


class TestTransposes:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
    def test_band_to_gspace_round_trip(self, n_ranks):
        rng = np.random.default_rng(n_ranks)
        n_bands, npw = 6, 23
        data = rng.standard_normal((n_bands, npw)) + 1j * rng.standard_normal((n_bands, npw))
        comm = SimCommunicator(n_ranks)
        bands = band_distribution(n_bands, n_ranks)
        gspace = gspace_distribution(npw, n_ranks)
        band_blocks = bands.split(data, axis=0)
        g_blocks = band_to_gspace(comm, band_blocks, bands, gspace)
        # every G block holds all bands for its G slice
        for r in range(n_ranks):
            assert g_blocks[r].shape == (n_bands, gspace.counts[r])
            assert np.allclose(g_blocks[r], data[:, gspace.local_slice(r)])
        back = gspace_to_band(comm, g_blocks, bands, gspace)
        for r in range(n_ranks):
            assert np.allclose(back[r], band_blocks[r])

    def test_alltoallv_volume_of_transpose(self):
        """The transpose moves everything except each rank's diagonal block."""
        from repro.parallel.comm import CollectiveKind

        n_ranks, n_bands, npw = 4, 8, 32
        rng = np.random.default_rng(0)
        data = rng.standard_normal((n_bands, npw)) + 1j * rng.standard_normal((n_bands, npw))
        comm = SimCommunicator(n_ranks)
        bands = band_distribution(n_bands, n_ranks)
        gspace = gspace_distribution(npw, n_ranks)
        band_to_gspace(comm, bands.split(data, axis=0), bands, gspace)
        itemsize = 16
        total = n_bands * npw * itemsize
        diagonal = sum(bands.counts[r] * gspace.counts[r] * itemsize for r in range(n_ranks))
        assert comm.stats.bytes[CollectiveKind.ALLTOALLV] == total - diagonal

    def test_shape_validation(self):
        comm = SimCommunicator(2)
        bands = band_distribution(4, 2)
        gspace = gspace_distribution(10, 2)
        with pytest.raises(ValueError):
            band_to_gspace(comm, [np.zeros((2, 9)), np.zeros((2, 10))], bands, gspace)
        with pytest.raises(ValueError):
            gspace_to_band(comm, [np.zeros((3, 5)), np.zeros((4, 5))], bands, gspace)
