"""Per-component time model of a hybrid-functional PT-CN step on Summit.

This is the model behind Table 1, Table 2, and Figs. 6, 7, 9, 10 of the paper.
For a given silicon workload and GPU count it predicts, per SCF iteration, the
time spent in every component the paper reports:

* ``HΨ`` — the Fock exchange operator (compute + visible ``MPI_Bcast``) plus
  the local/semi-local pseudopotential part;
* the residual-related part (``MPI_Alltoallv`` transposes, overlap
  ``MPI_Allreduce``, subspace GEMMs);
* Anderson mixing (host-device memory traffic for the 20-deep history, mixing
  arithmetic);
* density evaluation (per-band FFTs onto the dense grid, ``MPI_Allreduce``);
* "others" (the CPU-side density-related work that does not scale with GPUs).

The heavy components (Fock compute, broadcast volume, transposes, overlap
GEMMs) are derived mechanistically from the workload sizes and the roofline /
network models; the small host-side components use the same functional forms
with per-component calibration factors fitted once against the 36-GPU column
of the paper's Table 1 (the smallest configuration), so that every *scaling
trend* is produced by the model, not copied from the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.paper_data import CPU_BASELINE_CORES
from ..machine.gpu import GPUKernelModel
from ..machine.network import NetworkModel
from ..machine.summit import SUMMIT, SummitSystem
from .flops import EXTRA_FOCK_APPLICATIONS, SCF_ITERATIONS_PER_STEP, fock_pair_solves, pair_solve_flops
from .workload import SiliconWorkload

__all__ = ["ComponentCalibration", "SCFComponentTimes", "StepBreakdown", "CommunicationBreakdown", "PWDFTPerformanceModel"]


@dataclass(frozen=True)
class ComponentCalibration:
    """Calibration multipliers for the host-side / small components.

    All values are dimensionless multipliers on mechanistic estimates, fitted
    once against the 36-GPU column of the paper's Table 1 and then held fixed
    for every other GPU count, system size, and experiment.
    """

    #: multiplier on the per-solve Fock FFT/pointwise cost
    fock_compute: float = 1.056
    #: fraction of the wavefunction broadcast that can hide behind computation
    bcast_overlap_fraction: float = 0.92
    #: multiplier on the local + semi-local (pseudopotential) part of HΨ
    local_semilocal: float = 8.5
    #: efficiency of the tall-skinny subspace GEMMs (fraction of GPU peak)
    subspace_gemm_efficiency: float = 0.25
    #: effective host-device bandwidth fraction for the Anderson history copies
    memcpy_efficiency: float = 0.43
    #: efficiency of the 40-column history GEMMs of the Anderson mixing
    #: (narrow GEMMs are launch/bandwidth bound on the V100)
    anderson_gemm_efficiency: float = 0.04
    #: multiplier on the density-evaluation FFT work
    density_compute: float = 1.27
    #: "others": CPU-side work per density grid point per SCF (seconds)
    others_cpu_seconds_per_point: float = 9.6e-6
    #: "others": node-count-independent part per 5.184M density points (s)
    others_base_seconds: float = 1.2
    #: "others": growth per log2(node count) (seconds)
    others_log_seconds: float = 0.05
    #: extra per-RK4-stage overhead that does not shrink with GPUs (seconds);
    #: captures the per-step fixed costs that PT-CN amortises over a 100x
    #: larger time step (Fig. 6's increasing speedup with GPU count)
    rk4_stage_overhead: float = 8.0
    #: host-device staging passes over the local band block per Fock
    #: application (band-by-band staging of pair densities and results)
    fock_memcpy_passes: float = 24.0


@dataclass
class SCFComponentTimes:
    """Times (seconds) of one SCF iteration's components (Table 1 rows)."""

    fock_mpi: float
    fock_compute: float
    local_semilocal: float
    residual_alltoallv: float
    residual_allreduce: float
    residual_compute: float
    anderson_memcpy: float
    anderson_compute: float
    density_compute: float
    density_allreduce: float
    others: float

    @property
    def fock_total(self) -> float:
        """Fock exchange operator total (visible MPI + compute)."""
        return self.fock_mpi + self.fock_compute

    @property
    def hpsi_total(self) -> float:
        """Full ``H Psi`` time (Fock + local/semi-local)."""
        return self.fock_total + self.local_semilocal

    @property
    def residual_total(self) -> float:
        """Residual-related total."""
        return self.residual_alltoallv + self.residual_allreduce + self.residual_compute

    @property
    def anderson_total(self) -> float:
        """Anderson mixing total."""
        return self.anderson_memcpy + self.anderson_compute

    @property
    def density_total(self) -> float:
        """Density evaluation total."""
        return self.density_compute + self.density_allreduce

    @property
    def per_scf_total(self) -> float:
        """Total wall time of one SCF iteration."""
        return (
            self.hpsi_total
            + self.residual_total
            + self.anderson_total
            + self.density_total
            + self.others
        )

    def as_dict(self) -> dict[str, float]:
        """All rows, including the derived totals, keyed like the paper table."""
        return {
            "fock_mpi": self.fock_mpi,
            "fock_compute": self.fock_compute,
            "fock_total": self.fock_total,
            "local_semilocal": self.local_semilocal,
            "hpsi_total": self.hpsi_total,
            "residual_alltoallv": self.residual_alltoallv,
            "residual_allreduce": self.residual_allreduce,
            "residual_compute": self.residual_compute,
            "residual_total": self.residual_total,
            "anderson_memcpy": self.anderson_memcpy,
            "anderson_compute": self.anderson_compute,
            "anderson_total": self.anderson_total,
            "density_compute": self.density_compute,
            "density_allreduce": self.density_allreduce,
            "density_total": self.density_total,
            "others": self.others,
            "per_scf_total": self.per_scf_total,
        }


@dataclass
class StepBreakdown:
    """Per-TDDFT-step summary (Table 1 bottom rows)."""

    n_gpus: int
    scf_components: SCFComponentTimes
    n_scf_iterations: int
    extra_fock_applications: int
    cholesky_time: float
    total_step_time: float
    cpu_reference_time: float

    @property
    def per_scf_total(self) -> float:
        """Per-SCF wall time."""
        return self.scf_components.per_scf_total

    @property
    def speedup(self) -> float:
        """Speedup over the best CPU run (3072 cores)."""
        return self.cpu_reference_time / self.total_step_time

    @property
    def hpsi_percentage(self) -> float:
        """Fraction of the step spent in ``H Psi`` (percent)."""
        hpsi = self.scf_components.hpsi_total * (self.n_scf_iterations + self.extra_fock_applications)
        return 100.0 * hpsi / self.total_step_time

    @property
    def seconds_per_femtosecond(self) -> float:
        """Wall seconds per simulated femtosecond at a 50 as step."""
        return self.total_step_time * 20.0

    @property
    def hours_per_femtosecond(self) -> float:
        """Wall hours per simulated femtosecond at a 50 as step."""
        return self.seconds_per_femtosecond / 3600.0


@dataclass
class CommunicationBreakdown:
    """Per-step MPI / memcpy / compute split (Table 2 rows), in seconds."""

    memcpy: float
    alltoallv: float
    allreduce: float
    bcast: float
    allgatherv: float
    compute: float

    @property
    def mpi_total(self) -> float:
        """Total MPI time."""
        return self.alltoallv + self.allreduce + self.bcast + self.allgatherv

    def as_dict(self) -> dict[str, float]:
        """Rows keyed like the paper's Table 2."""
        return {
            "memcpy": self.memcpy,
            "alltoallv": self.alltoallv,
            "allreduce": self.allreduce,
            "bcast": self.bcast,
            "allgatherv": self.allgatherv,
            "mpi_total": self.mpi_total,
            "compute": self.compute,
        }


class PWDFTPerformanceModel:
    """Predict PWDFT rt-TDDFT component times on Summit for a silicon workload.

    Parameters
    ----------
    workload:
        Problem sizes (atom count, bands, grids).
    system:
        Machine description; its GPU and network give the kernel and
        collective models.

    The host-side components take the :class:`ComponentCalibration`
    multipliers, a step is the paper's schedule
    (:data:`~repro.perf.flops.SCF_ITERATIONS_PER_STEP` inner SCF iterations
    and :data:`~repro.perf.flops.EXTRA_FOCK_APPLICATIONS` Fock applications
    outside them), and wavefunctions travel in single precision (the paper's
    production configuration).
    """

    def __init__(self, workload: SiliconWorkload, system: SummitSystem = SUMMIT):
        self.workload = workload
        self.system = system
        self.gpu = GPUKernelModel(system.node.gpu)
        self.network = NetworkModel(system)
        self.cal = ComponentCalibration()

    # ------------------------------------------------------------------
    # Elementary quantities
    # ------------------------------------------------------------------

    def poisson_solve_time(self, batched: bool = True) -> float:
        """GPU time of one Poisson-like solve of Eq. 3 (two FFTs + pointwise)."""
        ng = self.workload.n_planewaves
        t_fft = self.gpu.fft_time(ng, batch=2, batched=batched)
        t_point = self.gpu.pointwise_time(ng, batch=1, reads_writes=4, batched=batched)
        return self.cal.fock_compute * (t_fft + t_point)

    def fock_compute_time(self, n_gpus: int, batched: bool = True) -> float:
        """GPU computation time of one Fock application (no communication)."""
        w = self.workload
        solves_per_gpu = w.n_bands * w.bands_per_rank(n_gpus)
        t = solves_per_gpu * self.poisson_solve_time(batched=batched)
        # every rank transforms each broadcast wavefunction to the real-space
        # grid once (this term does not shrink with the GPU count and is the
        # reason the Fock compute row in Table 1 is slightly super-1/N)
        t += self.gpu.fft_time(w.n_planewaves, batch=w.n_bands, batched=batched)
        # transform the local target bands to real space and back once
        t += self.gpu.fft_time(w.n_planewaves, batch=int(np.ceil(2 * w.bands_per_rank(n_gpus))), batched=batched)
        return t

    def fock_bcast_time(self, n_gpus: int, single_precision: bool = True) -> float:
        """Un-overlapped wall time of the wavefunction broadcast of one Fock application."""
        w = self.workload
        itemsize = 8 if single_precision else 16
        bytes_per_rank = w.n_bands * w.n_planewaves * itemsize
        return self.network.bcast_time(bytes_per_rank, n_gpus)

    def fock_mpi_visible_time(self, n_gpus: int) -> float:
        """Visible (non-overlapped) broadcast time of one Fock application."""
        return self.network.overlap(
            self.fock_bcast_time(n_gpus),
            self.fock_compute_time(n_gpus),
            self.cal.bcast_overlap_fraction,
        )

    def local_semilocal_time(self, n_gpus: int) -> float:
        """Local potential + nonlocal pseudopotential part of ``H Psi``."""
        w = self.workload
        bands = w.bands_per_rank(n_gpus)
        per_band = self.gpu.fft_time(w.n_planewaves, batch=2) + self.gpu.pointwise_time(
            w.n_planewaves, reads_writes=4
        )
        # sparse real-space nonlocal projectors (8 per silicon atom)
        nnz = w.nonlocal_projector_bytes() / 16.0
        nl_flops = 8.0 * nnz  # complex dot products, applied and accumulated
        per_band += nl_flops / (0.3 * self.gpu.gpu.peak_flops)
        return self.cal.local_semilocal * bands * per_band

    # ------------------------------------------------------------------
    # Residual, Anderson, density, others
    # ------------------------------------------------------------------
    def residual_alltoallv_time(self, n_gpus: int) -> float:
        """Four band<->G transposes of the local wavefunction block (Alg. 3)."""
        w = self.workload
        bytes_per_rank = 4.0 * w.bands_per_rank(n_gpus) * w.n_planewaves * 8
        return self.network.alltoallv_time(bytes_per_rank, n_gpus)

    def residual_allreduce_time(self, n_gpus: int) -> float:
        """Allreduce of the ``N_e x N_e`` overlap matrix."""
        return self.network.allreduce_time(self.workload.overlap_matrix_bytes(), n_gpus)

    def residual_compute_time(self, n_gpus: int) -> float:
        """Subspace GEMMs (overlap + rotation) and BLAS-1 assembly."""
        w = self.workload
        gemm_flops_total = 2.0 * 8.0 * w.n_bands * w.n_bands * w.n_planewaves
        per_gpu = gemm_flops_total / n_gpus
        t_gemm = per_gpu / (self.cal.subspace_gemm_efficiency * self.gpu.gpu.peak_flops)
        blas1_bytes = 5.0 * w.bands_per_rank(n_gpus) * w.n_planewaves * 16.0
        t_blas1 = blas1_bytes / (0.9 * self.gpu.gpu.memory_bandwidth_gbs * 1e9)
        return t_gemm + t_blas1

    def anderson_memcpy_time(self, n_gpus: int) -> float:
        """Host<->device traffic of the 20-deep wavefunction/residual history."""
        w = self.workload
        history = 20
        volume = 2.0 * history * w.bands_per_rank(n_gpus) * w.n_planewaves * 16.0
        bandwidth = self.cal.memcpy_efficiency * self.gpu.pcie_bandwidth_gbs * 1e9
        return volume / bandwidth

    def anderson_compute_time(self, n_gpus: int) -> float:
        """Overlap matrices against the history + per-band least squares.

        Per band, the mixer forms the Gram matrix of the ~2x20 history columns
        (a narrow ``(2m, N_G) x (N_G, 2m)`` GEMM) and assembles the mixed
        orbital; narrow GEMMs run at a few percent of peak on the V100.
        """
        w = self.workload
        history = 20
        per_band_flops = 8.0 * (2 * history) ** 2 * w.n_planewaves
        flops = per_band_flops * w.bands_per_rank(n_gpus)
        return flops / (self.cal.anderson_gemm_efficiency * self.gpu.gpu.peak_flops)

    def density_compute_time(self, n_gpus: int) -> float:
        """Per-band FFT onto the dense grid plus accumulation."""
        w = self.workload
        bands = w.bands_per_rank(n_gpus)
        per_band = self.gpu.fft_time(w.n_density_points, batch=1) + self.gpu.pointwise_time(
            w.n_density_points, reads_writes=2
        )
        return self.cal.density_compute * bands * per_band

    def density_allreduce_time(self, n_gpus: int) -> float:
        """Allreduce of the real-space charge density."""
        return self.network.allreduce_time(self.workload.density_bytes(), n_gpus)

    def others_time(self, n_gpus: int) -> float:
        """CPU-side density-related work ("others" in the paper).

        Modelled as a CPU-parallelised part (Hartree/XC/gradient FFTs on the
        dense grid, shrinking with the rank count), a part proportional to the
        density grid (broadcast and assembly of density-related arrays) and a
        slowly growing collective-latency part.
        """
        w = self.workload
        nodes = self.system.nodes_for_gpus(n_gpus)
        cpu_part = self.cal.others_cpu_seconds_per_point * w.n_density_points / n_gpus
        base = self.cal.others_base_seconds * (w.n_density_points / 5_184_000.0)
        log_part = self.cal.others_log_seconds * np.log2(nodes + 1)
        return cpu_part + base + log_part

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def scf_component_times(self, n_gpus: int) -> SCFComponentTimes:
        """All Table-1 per-SCF component times for ``n_gpus``."""
        self.system.validate_gpu_count(n_gpus)
        if n_gpus > self.workload.n_bands:
            raise ValueError(
                f"{n_gpus} GPUs exceed the band-parallel limit of {self.workload.n_bands}"
            )
        return SCFComponentTimes(
            fock_mpi=self.fock_mpi_visible_time(n_gpus),
            fock_compute=self.fock_compute_time(n_gpus),
            local_semilocal=self.local_semilocal_time(n_gpus),
            residual_alltoallv=self.residual_alltoallv_time(n_gpus),
            residual_allreduce=self.residual_allreduce_time(n_gpus),
            residual_compute=self.residual_compute_time(n_gpus),
            anderson_memcpy=self.anderson_memcpy_time(n_gpus),
            anderson_compute=self.anderson_compute_time(n_gpus),
            density_compute=self.density_compute_time(n_gpus),
            density_allreduce=self.density_allreduce_time(n_gpus),
            others=self.others_time(n_gpus),
        )

    def cholesky_time(self) -> float:
        """End-of-step Cholesky of the ``N_e x N_e`` overlap (single GPU)."""
        return self.gpu.cholesky_time(self.workload.n_bands)

    def step_breakdown(self, n_gpus: int) -> StepBreakdown:
        """Per-TDDFT-step totals (Table 1 bottom rows)."""
        scf = self.scf_component_times(n_gpus)
        total = (
            SCF_ITERATIONS_PER_STEP * scf.per_scf_total
            + EXTRA_FOCK_APPLICATIONS * scf.hpsi_total
            + self.cholesky_time()
        )
        return StepBreakdown(
            n_gpus=n_gpus,
            scf_components=scf,
            n_scf_iterations=SCF_ITERATIONS_PER_STEP,
            extra_fock_applications=EXTRA_FOCK_APPLICATIONS,
            cholesky_time=self.cholesky_time(),
            total_step_time=total,
            cpu_reference_time=self.cpu_step_time(CPU_BASELINE_CORES),
        )

    def communication_breakdown(self, n_gpus: int) -> CommunicationBreakdown:
        """Per-step MPI / memcpy / compute split (Table 2 rows)."""
        scf = self.scf_component_times(n_gpus)
        n_scf = SCF_ITERATIONS_PER_STEP
        n_fock = n_scf + EXTRA_FOCK_APPLICATIONS
        w = self.workload
        fock_memcpy = (
            self.cal.fock_memcpy_passes
            * w.bands_per_rank(n_gpus)
            * w.n_planewaves
            * 16.0
            / (self.cal.memcpy_efficiency * self.gpu.pcie_bandwidth_gbs * 1e9)
        )
        memcpy = n_scf * scf.anderson_memcpy + n_fock * fock_memcpy
        alltoallv = n_scf * scf.residual_alltoallv
        allreduce = n_scf * (scf.residual_allreduce + scf.density_allreduce)
        bcast = n_fock * scf.fock_mpi + n_scf * self.network.bcast_time(
            4 * w.density_bytes(), n_gpus
        )
        allgatherv = n_scf * self.network.allgatherv_time(w.density_bytes(), n_gpus)
        breakdown_total = self.step_breakdown(n_gpus).total_step_time
        compute = max(breakdown_total - (memcpy + alltoallv + allreduce + bcast + allgatherv), 0.0)
        return CommunicationBreakdown(
            memcpy=memcpy,
            alltoallv=alltoallv,
            allreduce=allreduce,
            bcast=bcast,
            allgatherv=allgatherv,
            compute=compute,
        )

    # ------------------------------------------------------------------
    # CPU baseline and explicit RK4 baseline
    # ------------------------------------------------------------------
    def cpu_fock_application_time(self, n_cores: int) -> float:
        """CPU time of one Fock exchange application on ``n_cores`` cores."""
        w = self.workload
        n_cores = min(n_cores, w.n_bands)  # band-parallel limit (Section 5)
        rate = self.system.node.cpu_socket.sustained_gflops_per_core * 1e9 * n_cores
        return fock_pair_solves(w.n_bands) * pair_solve_flops(w.n_planewaves) / rate

    def cpu_step_time(self, n_cores: int) -> float:
        """CPU-only time of one PT-CN step (Fock-dominated, paper: 8874 s)."""
        n_fock = SCF_ITERATIONS_PER_STEP + EXTRA_FOCK_APPLICATIONS
        fock = n_fock * self.cpu_fock_application_time(n_cores)
        # the paper states the Fock part is ~95% of the CPU runtime
        return fock / 0.95

    def rk4_stage_time(self, n_gpus: int) -> float:
        """Cost of one RK4 stage: a full ``H Psi`` plus a potential rebuild."""
        scf = self.scf_component_times(n_gpus)
        return scf.hpsi_total + scf.density_total + scf.others + self.cal.rk4_stage_overhead

    def rk4_time_per_window(self, n_gpus: int) -> float:
        """RK4 wall time to cover a 50 as window: 100 steps of 0.5 as (Fig. 6 bars)."""
        return 100 * 4.0 * self.rk4_stage_time(n_gpus)

    def ptcn_time_per_window(self, n_gpus: int) -> float:
        """PT-CN wall time to cover a 50 as window: one step of 50 as."""
        return self.step_breakdown(n_gpus).total_step_time
