"""The paper's numbers, each beside the budget it is checked to.

Tables 1 and 2 are reproduced verbatim from the text; the other values are the
quantities quoted in the prose and figures. Units are seconds unless stated
otherwise. Each paper value is written here once: the model reads the inputs
it is built on from here (GPU counts, SCF statistics, the CPU baseline), and
``tests/paper/`` holds one test per table or figure that checks every row's
modelled or executed counterpart against the value and budget beside it.
Values that the physics engine below this layer is built on (time steps,
laser wavelength, Anderson depth) keep their one literal in
:mod:`repro.constants` and are referred to here.

A check table maps a row to ``(paper value, budget)``. A :class:`Budget`
bounds the relative deviation ``value / paper - 1``; a :class:`Ceiling`
bounds an executed value for which the paper states a claim (two propagators
agree, energy is conserved) but no number, which is then ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import (
    PAPER_ANDERSON_HISTORY,
    PAPER_LASER_WAVELENGTH_NM,
    PAPER_PTCN_TIMESTEP_AS,
    PAPER_RK4_TIMESTEP_AS,
)

__all__ = [
    "Budget",
    "Ceiling",
    "within",
    "EXACT",
    "TABLE1_GPU_COUNTS",
    "TABLE1",
    "TABLE1_BUDGETS",
    "TABLE1_ANCHOR_BUDGETS",
    "TABLE1_CHECKS",
    "TABLE2",
    "TABLE2_BUDGETS",
    "CPU_BASELINE_TIME_S",
    "CPU_BASELINE_CORES",
    "PAPER_SCALARS",
    "WEAK_SCALING_ATOMS",
    "FIG6_GPU_COUNTS",
    "FIG1",
    "FIG3",
    "FIG4",
    "FIG6",
    "FIG7",
    "FIG8",
    "FIG9",
    "FIG10",
    "MEMORY",
    "POWER",
    "SECTION7",
    "WHATIF",
    "PTCN_ACCURACY",
]


@dataclass(frozen=True)
class Budget:
    """The relative deviation ``value / paper - 1`` a check admits: at least
    ``-under``, at most ``over``. ``Budget()`` admits the paper's value only
    (``tests/paper/conftest.py`` holds the check)."""

    under: float = 0.0
    over: float = 0.0


@dataclass(frozen=True)
class Ceiling:
    """An executed value held strictly below ``limit``, for a claim the paper
    makes without a number."""

    limit: float


def within(rel: float) -> Budget:
    """``|value / paper - 1| <= rel``."""
    return Budget(rel, rel)


EXACT = Budget()

# ---------------------------------------------------------------------------
# Tables 1 and 2: Si1536 strong scaling, one column per GPU count
# ---------------------------------------------------------------------------

#: GPU counts of the strong-scaling study (Table 1 / Table 2 columns).
TABLE1_GPU_COUNTS = (36, 72, 144, 288, 384, 768, 1536, 3072)

#: Table 1 — wall-clock time of the computationally intensive components for
#: the 1536-silicon-atom system (per-SCF rows and per-step totals), in seconds.
TABLE1: dict[str, tuple[float, ...]] = {
    "fock_mpi": (0.71, 0.89, 1.25, 1.83, 1.99, 3.72, 6.06, 8.074),
    "fock_compute": (90.99, 45.61, 27.05, 11.27, 8.31, 4.38, 2.44, 1.43),
    "fock_total": (91.7, 46.5, 28.3, 13.1, 10.3, 8.1, 8.5, 9.5),
    "local_semilocal": (0.337, 0.169, 0.087, 0.043, 0.0316, 0.0158, 0.00805, 0.00404),
    "hpsi_total": (92.04, 46.67, 28.39, 13.14, 10.33, 8.12, 8.51, 9.50),
    "residual_alltoallv": (0.884, 0.561, 0.313, 0.227, 0.212, 0.280, 0.095, 0.056),
    "residual_allreduce": (0.354, 0.593, 0.552, 0.676, 0.667, 0.523, 0.522, 0.5243),
    "residual_compute": (1.43, 0.72, 0.37, 0.19, 0.145, 0.078, 0.04, 0.023),
    "residual_total": (2.67, 1.87, 1.24, 1.09, 1.02, 0.88, 0.66, 0.60),
    "anderson_memcpy": (1.64235, 0.8004, 0.4094, 0.2018, 0.1477, 0.0746, 0.0395, 0.0202),
    "anderson_compute": (2.3, 1.16, 0.59, 0.31, 0.265, 0.142, 0.073, 0.04),
    "anderson_total": (3.94, 1.98, 1.00, 0.51, 0.387, 0.194, 0.102, 0.0553),
    "density_compute": (0.1349, 0.0672, 0.0341, 0.0170, 0.0124, 0.0062, 0.0032, 0.0016),
    "density_allreduce": (0.123, 0.176, 0.152, 0.224, 0.219, 0.160, 0.164, 0.171),
    "density_total": (0.258, 0.243, 0.186, 0.241, 0.232, 0.167, 0.167, 0.172),
    "others": (2.66, 1.98, 1.72, 1.54, 1.57, 1.73, 1.66, 1.85),
    "per_scf_total": (101.36, 52.4, 32.5, 16.4, 13.4, 10.9, 10.9, 12.1),
    "total_step_time": (2453.8, 1269.1, 783.0, 393.9, 323.2, 260.9, 262.5, 286.6),
    "speedup": (3.6, 7.0, 11.3, 22.5, 27.4, 34.0, 33.8, 30.9),
    "hpsi_percentage": (90.0, 88.3, 87.0, 80.0, 76.7, 74.6, 77.8, 79.6),
}

#: Table 1 row -> budget of the model at every GPU count: the measured worst
#: column, rounded up. The rows at 50 % and more are all communication: the
#: visible part of the Fock broadcast (71 % low at 384 GPUs, where the paper's
#: overlap stops hiding it earlier than the model's), the residual's
#: Alltoallv (81 % low at 768, a non-monotone column in the paper) and the
#: latency-bound Allreduces of residual and density (30-50 % low beyond 36
#: GPUs), with the two totals they dominate. None exceeds 1.2 s per SCF, so
#: per_scf_total and total_step_time stay within 25 %.
TABLE1_BUDGETS: dict[str, Budget] = {
    "fock_mpi": within(0.75),
    "fock_compute": within(0.2),
    "fock_total": within(0.3),
    "local_semilocal": within(0.15),
    "hpsi_total": within(0.3),
    "residual_alltoallv": within(0.85),
    "residual_allreduce": within(0.5),
    "residual_compute": within(0.3),
    "residual_total": within(0.5),
    "anderson_memcpy": within(0.1),
    "anderson_compute": within(0.35),
    "anderson_total": within(0.2),
    "density_compute": within(0.05),
    "density_allreduce": within(0.55),
    "density_total": within(0.5),
    "others": within(0.15),
    "per_scf_total": within(0.25),
    "total_step_time": within(0.25),
    "speedup": within(0.3),
    "hpsi_percentage": within(0.05),
}

#: The 36-GPU column is the model's calibration anchor: every row within 20 %
#: there, the per-SCF total within 15 %.
TABLE1_ANCHOR_BUDGETS: dict[str, Budget] = {
    **{row: within(0.2) for row in TABLE1},
    "per_scf_total": within(0.15),
}

#: The best CPU run the paper compares against: 3072 cores, 8874 s per step.
CPU_BASELINE_TIME_S = 8874.0
CPU_BASELINE_CORES = 3072

#: Table 1 beyond its cells: the CPU baseline, and the model unbiased over
#: the per-step totals (geometric mean of model / paper).
TABLE1_CHECKS: dict[str, tuple] = {
    "cpu_step_3072_cores": (CPU_BASELINE_TIME_S, within(0.05)),
    "total_step_time_geometric_mean_ratio": (1.0, within(0.15)),
}

#: Table 2 — breakdown of the total per-step time into MPI, CPU-GPU memory
#: copy and computation, in seconds, same GPU counts as Table 1.
TABLE2: dict[str, tuple[float, ...]] = {
    "memcpy": (60.80, 29.94, 16.04, 8.57, 6.79, 4.15, 2.82, 2.24),
    "alltoallv": (20.97, 13.34, 7.40, 5.38, 4.99, 6.64, 2.41, 0.68),
    "allreduce": (11.50, 18.39, 16.70, 21.27, 21.15, 16.19, 16.44, 16.62),
    "bcast": (18.78, 20.89, 31.06, 44.54, 48.13, 92.26, 146.15, 193.89),
    "allgatherv": (0.44, 1.12, 1.30, 1.35, 1.52, 1.38, 0.98, 1.24),
    "mpi_total": (51.69, 53.74, 56.45, 72.54, 75.79, 116.47, 165.97, 212.43),
    "compute": (2341.40, 1185.42, 710.54, 312.83, 240.60, 140.34, 93.73, 71.96),
}

#: Table 2 row -> budget of the model at every GPU count (measured worst
#: column, rounded up). Computation tracks the paper to 15 %; every MPI row
#: is loose, low by up to 82 %, for the reasons Table 1's communication rows
#: are, and memory copies fall faster than the paper's beyond 768 GPUs.
TABLE2_BUDGETS: dict[str, Budget] = {
    "memcpy": within(0.7),
    "alltoallv": within(0.85),
    "allreduce": within(0.55),
    "bcast": within(0.7),
    "allgatherv": within(0.55),
    "mpi_total": within(0.65),
    "compute": within(0.2),
}


def _at(table: dict, row: str, n_gpus: int) -> float:
    """One cell of Table 1 or 2."""
    return table[row][TABLE1_GPU_COUNTS.index(n_gpus)]


#: Atom counts of the weak-scaling study (Fig. 8); GPUs = atoms / 2.
WEAK_SCALING_ATOMS = (48, 96, 192, 384, 768, 1536)

#: GPU counts shown in Fig. 6 (PT-CN vs RK4).
FIG6_GPU_COUNTS = (36, 72, 144, 288, 384, 768)

#: Values quoted in the text that the model is built on or that no check
#: reads (the checked quotes sit in their figure's table below).
PAPER_SCALARS = {
    # Section 2 / 4: time steps
    "ptcn_time_step_as": PAPER_PTCN_TIMESTEP_AS,
    "rk4_time_step_as": PAPER_RK4_TIMESTEP_AS,
    # Section 4: SCF statistics
    "average_scf_per_step": 22,
    "fock_applications_per_step": 24,
    "anderson_history": PAPER_ANDERSON_HISTORY,
    # Section 4: Si1536 discretisation
    "si1536_wavefunctions": 3072,
    "si1536_ng": 648_000,
    "si1536_wavefunction_grid": (60, 90, 120),
    "si1536_density_grid": (120, 180, 240),
    # Section 7: kernel and network efficiency
    "cufft_peak_fraction": 0.11,
    "gpu_bandwidth_utilisation": 0.90,
    "bcast_rank_bandwidth_gbs": 2.2,
    "nic_utilisation": 0.527,
    "allreduce_volume_per_step_gb": 4.4,
}

# ---------------------------------------------------------------------------
# The figures and sections, row -> (paper value, budget)
# ---------------------------------------------------------------------------

#: Fig. 1 — the band-index distribution: each of n GPUs holds N_e / n of the
#: Si1536 wavefunctions.
FIG1: dict[str, tuple] = {
    f"bands_per_rank_{n}gpu": (PAPER_SCALARS["si1536_wavefunctions"] / n, EXACT)
    for n in TABLE1_GPU_COUNTS
}

#: Fig. 3 — one Fock application on 72 GPUs after the five optimisation
#: stages, against the 3072-core CPU run.
FIG3: dict[str, tuple] = {
    "fock_speedup_vs_cpu_72gpu": (7.0, within(0.25)),
}

#: Fig. 4 — the Si1536 system (4 x 6 x 8 diamond cells), its discretisation
#: (Section 4) and the 380 nm pulse over the 30 fs window.
FIG4: dict[str, tuple] = {
    "supercell": ((4, 6, 8), EXACT),
    "atoms": (WEAK_SCALING_ATOMS[-1], EXACT),
    "valence_electrons": (6144, EXACT),
    "occupied_bands": (PAPER_SCALARS["si1536_wavefunctions"], EXACT),
    "planewaves": (PAPER_SCALARS["si1536_ng"], EXACT),
    "wavefunction_grid": (PAPER_SCALARS["si1536_wavefunction_grid"], EXACT),
    "density_grid": (PAPER_SCALARS["si1536_density_grid"], EXACT),
    "laser_wavelength_nm": (PAPER_LASER_WAVELENGTH_NM, within(1e-6)),
    "photon_energy_ev": (3.26, within(0.015)),
    "window_fs": (30.0, within(1e-6)),
}

#: Fig. 6 — PT-CN (50 as) against RK4 (0.5 as) over one 50 as window, on the
#: model; and executed, the Fock applications of the two over one window of
#: the hybrid H2 molecule (RK4 at 2 as, a step it is stable at there).
FIG6: dict[str, tuple] = {
    "ptcn_vs_rk4_speedup_36gpu": (20.0, within(0.25)),
    "ptcn_vs_rk4_speedup_768gpu": (30.0, within(0.15)),
    "h2_ptcn_per_rk4_fock_applications": (None, Ceiling(1.0 / 3.0)),
}

#: Fig. 7 — strong scaling: near-ideal to 288 GPUs, the Fock computation 36 to
#: 768 GPUs, and the best speedup over the CPU run.
FIG7: dict[str, tuple] = {
    "parallel_efficiency_288gpu": (
        _at(TABLE1, "total_step_time", 36) / _at(TABLE1, "total_step_time", 288) * 36 / 288,
        within(0.1),
    ),
    "fock_compute_speedup_36_to_768gpu": (
        _at(TABLE1, "fock_compute", 36) / _at(TABLE1, "fock_compute", 768),
        within(0.2),
    ),
    "peak_speedup_vs_cpu": (max(TABLE1["speedup"]), within(0.2)),
}

#: Fig. 8 and the headline — weak scaling and time to solution: Si192 on 96
#: GPUs, Si1536 on 768.
FIG8: dict[str, tuple] = {
    "si192_seconds_per_50as_96gpu": (16.0, within(0.5)),
    "si192_minutes_per_fs_96gpu": (5.0, within(0.2)),
    "si1536_seconds_per_50as_768gpu": (260.0, within(0.2)),
    "si1536_hours_per_fs_768gpu": (1.5, within(0.25)),
}

#: Fig. 9 — one SCF iteration: HΨ's share of it at each GPU count shown, and
#: how much larger the non-scaling "others" share is at 768 GPUs than at 36.
FIG9: dict[str, tuple] = {
    **{
        f"hpsi_share_{n}gpu": (_at(TABLE1, "hpsi_total", n) / _at(TABLE1, "per_scf_total", n), within(0.05))
        for n in (36, 72, 144, 288, 768)
    },
    "others_share_growth_36_to_768gpu": (
        (_at(TABLE1, "others", 768) / _at(TABLE1, "per_scf_total", 768))
        / (_at(TABLE1, "others", 36) / _at(TABLE1, "per_scf_total", 36)),
        within(0.1),
    ),
}

#: Fig. 10 — Table 2 from 36 to 1536 GPUs: computation, memory copies and
#: Alltoallv fall, Allreduce stays level, the broadcast grows and overtakes
#: the computation.
FIG10: dict[str, tuple] = {
    **{
        f"{operation}_growth_36_to_1536gpu": (_at(TABLE2, operation, 1536) / _at(TABLE2, operation, 36), budget)
        for operation, budget in (
            ("compute", within(0.1)),
            ("memcpy", within(0.55)),
            ("alltoallv", within(0.7)),
            ("allreduce", within(0.3)),
            ("bcast", within(0.1)),
        )
    },
    "bcast_over_compute_1536gpu": (_at(TABLE2, "bcast", 1536) / _at(TABLE2, "compute", 1536), within(0.3)),
}

#: Section 7's memory analysis for Si1536, in MB and GB; the Anderson history
#: and a node's host memory at 36 GPUs fit under the paper's figures.
MEMORY: dict[str, tuple] = {
    "wavefunction_mb_double": (10.0, within(0.05)),
    "wavefunction_mb_single": (5.0, within(0.05)),
    "overlap_matrix_mb": (144.0, within(0.1)),
    "density_mb": (40.0, within(0.1)),
    "anderson_memory_per_rank_gb_36gpu": (20.0, Budget(under=0.15)),
    "host_memory_per_node_gb_36gpu": (120.0, Budget(under=0.15)),
    "summit_node_memory_gb": (512.0, EXACT),
    "nonlocal_projector_memory_mb": (432.0, within(0.1)),
    "bcast_volume_per_rank_gb": (15.36, within(0.05)),
}

#: Section 6's power comparison: 3072 CPU cores on 73 nodes against 72 GPUs
#: on 12, at nearly equal power, the GPUs 7x faster (Table 1's 72-GPU speedup);
#: one node draws the run's power over its nodes.
POWER: dict[str, tuple] = {
    "cpu_nodes_3072_cores": (73, within(0.014)),
    "cpu_power_watts": (27740.0, within(0.02)),
    "gpu_nodes_72_gpus": (12, EXACT),
    "gpu_power_watts": (26160.0, EXACT),
    "gpu_vs_cpu_step_speedup_72gpu": (_at(TABLE1, "speedup", 72), within(0.2)),
}
POWER.update({
    "cpu_over_gpu_power": (POWER["cpu_power_watts"][0] / POWER["gpu_power_watts"][0], within(0.05)),
    "node_power_cpu_only_watts": (POWER["cpu_power_watts"][0] / POWER["cpu_nodes_3072_cores"][0], EXACT),
    "node_power_full_watts": (POWER["gpu_power_watts"][0] / POWER["gpu_nodes_72_gpus"][0], EXACT),
})

#: Section 7's counts and kernel timings: FLOPs per step, the Fock share,
#: the sustained fraction of peak, one 3072 x 3072 Cholesky on a V100 (the
#: model prices it at twice the paper's; held within 2.5x either way), and the Fock broadcast's 15.36 GB
#: per rank at 768 GPUs.
SECTION7: dict[str, tuple] = {
    "flop_per_step": (3.87e16, within(0.3)),
    "fock_flop_fraction": (0.93, within(0.04)),
    "flops_efficiency_36gpu": (0.055, within(0.35)),
    "flops_efficiency_768gpu": (0.02, within(0.35)),
    "cholesky_time_s": (0.017, Budget(under=0.6, over=1.5)),
    "bcast_time_768gpu_s": (7.0, within(0.1)),
}

#: The machine what-ifs keep the Summit preset on the paper: its 36-GPU step.
WHATIF: dict[str, tuple] = {
    "summit_step_36gpu": (_at(TABLE1, "total_step_time", 36), within(0.05)),
}

#: Section 2's claim, executed: PT-CN at a step 20x RK4's follows the same
#: physics over a 40 as window of the hybrid H2 molecule after a 1e-2 delta
#: kick, in far fewer Fock applications, and both conserve energy. Each
#: ceiling sits at least 1.4x above the centred scheme's value; a half step
#: taken at 1.1 dt breaks the dipole and PT-CN drift rows.
PTCN_ACCURACY: dict[str, tuple] = {
    "relative_density_difference": (None, Ceiling(2e-3)),
    "dipole_difference": (None, Ceiling(1.3e-3)),
    "ptcn_per_rk4_fock_applications": (None, Ceiling(0.1)),
    "ptcn_energy_drift_ha": (None, Ceiling(2e-6)),
    "rk4_energy_drift_ha": (None, Ceiling(1e-8)),
}
