"""Tests for the GPU roofline kernel model and the network collective model."""

import pytest

from repro.analysis import PAPER_SCALARS
from repro.machine import GPUKernelModel, NetworkModel, fft_flops


class TestFlopCounts:
    def test_fft_flops_formula(self):
        import numpy as np

        n = 1024
        assert fft_flops(n) == pytest.approx(5 * n * np.log2(n))
        assert fft_flops(n, batch=3) == pytest.approx(3 * 5 * n * np.log2(n))

    def test_invalid_fft_size(self):
        with pytest.raises(ValueError):
            fft_flops(0)


class TestGPUKernelModel:
    def test_fft_time_positive_and_monotone(self):
        model = GPUKernelModel()
        t1 = model.fft_time(648_000)
        t2 = model.fft_time(648_000, batch=10)
        assert 0 < t1 < t2

    def test_batched_faster_than_band_by_band(self):
        """The paper's stage-2 optimization: batching improves bandwidth utilisation."""
        model = GPUKernelModel()
        batched = model.fft_time(648_000, batch=64, batched=True)
        unbatched = model.fft_time(648_000, batch=64, batched=False)
        assert unbatched > 1.5 * batched

    def test_fft_bandwidth_bound_for_paper_size(self):
        """For the paper's N_G the FFT is bandwidth bound: time ~ passes * bytes
        / BW, at the paper's 90 % of the V100's 900 GB/s."""
        model = GPUKernelModel()
        ng = PAPER_SCALARS["si1536_ng"]
        t = model.fft_time(ng)
        bandwidth = PAPER_SCALARS["gpu_bandwidth_utilisation"] * 900e9
        assert t == pytest.approx(model.fft_bandwidth_passes * ng * 16 / bandwidth, rel=0.3)

    def test_pointwise_scaling(self):
        model = GPUKernelModel()
        assert model.pointwise_time(1000, reads_writes=6) > model.pointwise_time(1000, reads_writes=3)


class TestNetworkModel:
    def test_single_rank_free(self):
        net = NetworkModel()
        assert net.bcast_time(1e9, 1) == 0.0
        assert net.allreduce_time(1e9, 1) == 0.0
        assert net.alltoallv_time(1e9, 1) == 0.0

    def test_allreduce_roughly_constant_in_ranks(self):
        """The paper's Allreduce times barely change from 36 to 3072 GPUs."""
        net = NetworkModel()
        t_small = net.allreduce_time(151e6, 36)
        t_large = net.allreduce_time(151e6, 3072)
        assert t_large < 1.5 * t_small

    def test_alltoallv_scales_with_per_rank_volume(self):
        net = NetworkModel()
        assert net.alltoallv_time(2e9, 64) > net.alltoallv_time(1e9, 64)

    def test_overlap_hides_communication(self):
        net = NetworkModel()
        assert net.overlap(5.0, 100.0, 1.0) == pytest.approx(0.0)
        assert net.overlap(5.0, 100.0, 0.9) == pytest.approx(0.5)
        assert net.overlap(5.0, 2.0, 1.0) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            net.overlap(1.0, 1.0, 2.0)
