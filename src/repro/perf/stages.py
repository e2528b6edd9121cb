"""The five GPU optimization stages of the Fock exchange operator (Fig. 3).

Section 3.2 of the paper describes the successive optimizations of Alg. 2 and
Fig. 3 shows the wall time of one Fock exchange application for Si-1536 at each
stage (GPU runs on 72 GPUs, CPU baseline on 3072 cores):

1. CUFFT + custom CUDA kernels, band-by-band;
2. batched CUFFT / batched kernels;
3. GPUDirect / CUDA-aware MPI (no explicit host staging);
4. single-precision MPI (half the broadcast volume);
5. overlap of communication and computation (explicit async copy + host MPI).

Each stage is expressed as a configuration of the same component model, so the
relative gains follow from the machine parameters rather than from fitting the
figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .components import PWDFTPerformanceModel

__all__ = ["StageResult", "optimization_stage_times"]


@dataclass
class StageResult:
    """Wall time of one Fock exchange application at one optimization stage."""

    name: str
    description: str
    compute_time: float
    communication_time: float
    memcpy_time: float

    @property
    def total(self) -> float:
        """Total visible wall time of the stage."""
        return self.compute_time + self.communication_time + self.memcpy_time


def optimization_stage_times(model: PWDFTPerformanceModel, n_gpus: int = 72) -> list[StageResult]:
    """Fig. 3: Fock-application wall time for the CPU baseline (3072 cores)
    and the 5 GPU stages."""
    w = model.workload
    gpu = model.gpu
    cal = model.cal

    # host staging of the full broadcast payload (all Ne wavefunctions through
    # the host), used by the stages that do not have GPUDirect
    host_staging = (
        w.n_bands * w.n_planewaves * 16.0 / (cal.memcpy_efficiency * gpu.pcie_bandwidth_gbs * 1e9)
    )

    compute_batched = model.fock_compute_time(n_gpus, batched=True)
    compute_band_by_band = model.fock_compute_time(n_gpus, batched=False)
    bcast_double = model.fock_bcast_time(n_gpus, single_precision=False)
    bcast_single = model.fock_bcast_time(n_gpus, single_precision=True)

    stages = [
        StageResult(
            name="CPU (3072 cores)",
            description="best CPU-only PWDFT configuration",
            compute_time=model.cpu_fock_application_time(3072),
            communication_time=0.0,
            memcpy_time=0.0,
        ),
        StageResult(
            name="1. CUFFT band-by-band",
            description="CUFFT + custom kernels, one band at a time, host-staged MPI",
            compute_time=compute_band_by_band,
            communication_time=bcast_double,
            memcpy_time=2.0 * host_staging,
        ),
        StageResult(
            name="2. Batched CUFFT",
            description="batched FFTs and kernels, host-staged MPI",
            compute_time=compute_batched,
            communication_time=bcast_double,
            memcpy_time=2.0 * host_staging,
        ),
        StageResult(
            name="3. CUDA-aware MPI",
            description="GPUDirect broadcast, no explicit host staging",
            compute_time=compute_batched,
            communication_time=bcast_double,
            memcpy_time=0.0,
        ),
        StageResult(
            name="4. Single-precision MPI",
            description="wavefunctions broadcast in single precision",
            compute_time=compute_batched,
            communication_time=bcast_single,
            memcpy_time=0.0,
        ),
        StageResult(
            name="5. Overlap comm/compute",
            description="async host copy + CPU MPI_Bcast hidden behind GPU compute",
            compute_time=compute_batched,
            communication_time=model.network.overlap(
                bcast_single, compute_batched, cal.bcast_overlap_fraction
            ),
            memcpy_time=0.0,
        ),
    ]
    return stages
