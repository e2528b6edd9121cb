"""Roofline-style kernel cost models for the V100 GPUs.

The paper's own analysis (Section 7) establishes that the GPU execution is
*memory-bandwidth bound*: the batched CUFFT + custom kernels sustain roughly
90 % of the 900 GB/s HBM bandwidth while reaching only ~11 % of peak FLOPS for
the FFTs and ~5.5 % overall. The models below therefore compute, for each
kernel, both a bandwidth-bound and a FLOP-bound estimate and take the larger
(classic roofline), with the sustained fractions taken from the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .summit import GPUSpec

__all__ = ["GPUKernelModel", "fft_flops"]


def fft_flops(n_points: int, batch: int = 1) -> float:
    """Floating point operations of ``batch`` complex 3-D FFTs of ``n_points``.

    The standard ``5 N log2 N`` estimate for a complex transform.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    return float(batch) * 5.0 * n_points * np.log2(n_points)


@dataclass(frozen=True)
class GPUKernelModel:
    """Cost model of the GPU kernels used by PWDFT.

    Parameters
    ----------
    gpu:
        Hardware description.
    fft_flop_efficiency:
        Fraction of peak FLOPS sustained by CUFFT (paper: ~11 %).
    fft_bandwidth_passes:
        Effective number of full read+write passes over the data per 3-D FFT
        (several 1-D sweeps plus transposes); together with the sustained
        bandwidth this sets the bandwidth-bound FFT time.
    sustained_bandwidth_fraction:
        Fraction of the HBM bandwidth sustained by the batched kernels
        (paper: ~90 %).
    kernel_launch_latency_s:
        Per-kernel-launch overhead; matters for the band-by-band (unbatched)
        variant of the Fock loop, which is exactly why the paper batches.
    pcie_bandwidth_gbs:
        Host-device copy bandwidth (NVLink-attached on Summit).
    """

    gpu: GPUSpec = GPUSpec()
    fft_flop_efficiency: float = 0.11
    fft_bandwidth_passes: float = 10.0
    sustained_bandwidth_fraction: float = 0.90
    kernel_launch_latency_s: float = 10e-6
    pcie_bandwidth_gbs: float = 50.0

    # ------------------------------------------------------------------
    def fft_time(self, n_points: int, batch: int = 1, batched: bool = True) -> float:
        """Wall time of ``batch`` complex-to-complex 3-D FFTs on one GPU."""
        flops = fft_flops(n_points, batch)
        flop_time = flops / (self.fft_flop_efficiency * self.gpu.peak_flops)
        bytes_moved = self.fft_bandwidth_passes * batch * n_points * 16.0
        effective_bw = self.sustained_bandwidth_fraction * self.gpu.memory_bandwidth_gbs * 1e9
        if not batched:
            # unbatched (band-by-band) execution does not saturate the memory
            # system; the paper's stage-1 implementation motivated batching.
            effective_bw *= 0.35
        bw_time = bytes_moved / effective_bw
        launches = batch if not batched else max(1, batch // 16)
        return max(flop_time, bw_time) + launches * self.kernel_launch_latency_s

    def pointwise_time(self, n_points: int, batch: int = 1, reads_writes: int = 3, batched: bool = True) -> float:
        """Element-wise custom kernels (pair-density products, accumulations)."""
        bytes_moved = reads_writes * batch * n_points * 16.0
        effective_bw = self.sustained_bandwidth_fraction * self.gpu.memory_bandwidth_gbs * 1e9
        if not batched:
            effective_bw *= 0.35
        launches = batch if not batched else max(1, batch // 16)
        return bytes_moved / effective_bw + launches * self.kernel_launch_latency_s

    def cholesky_time(self, n: int) -> float:
        """Dense Cholesky factorisation on a single GPU (cuSOLVER).

        The paper measures 0.017 s for ``n = 3072``; a third-of-GEMM-efficiency
        cubic model reproduces that order of magnitude.
        """
        flops = (1.0 / 3.0) * float(n) ** 3 * 4.0  # complex
        return flops / (0.15 * self.gpu.peak_flops) + 10 * self.kernel_launch_latency_s
