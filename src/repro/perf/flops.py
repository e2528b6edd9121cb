"""FLOP accounting and FLOPS-efficiency analysis (Section 7 of the paper).

The paper reports 3.87e16 double-precision operations per PT-CN step for the
1536-atom system (collected with NVPROF), 93 % of which come from the FFTs of
the Fock exchange operator, giving 5.5 % of aggregate peak on 36 GPUs and 2 %
on 768 GPUs. These functions reproduce that accounting from the workload sizes.

Each unit of work is counted here and nowhere else: the pair solve, the Fock
and ``H Psi`` applications, and the paper's step schedule. The component time
model (:mod:`repro.perf.components`) and the scheduler's relative cost
(:mod:`repro.perf.sweep_cost`) call these counts instead of restating them.
"""

from __future__ import annotations

from ..analysis.paper_data import PAPER_SCALARS
from ..machine.gpu import fft_flops
from ..machine.summit import SUMMIT
from .workload import SiliconWorkload

__all__ = [
    "SCF_ITERATIONS_PER_STEP",
    "FOCK_APPLICATIONS_PER_STEP",
    "EXTRA_FOCK_APPLICATIONS",
    "pair_solve_flops",
    "fock_pair_solves",
    "hamiltonian_application_flops",
    "fock_flops_per_application",
    "step_flops",
    "fock_flop_fraction",
    "flops_efficiency",
]

#: the paper's PT-CN step schedule (Section 4): 22 inner SCF iterations, each
#: applying ``H`` (Fock term included) once, and 24 Fock applications in all —
#: the 2 extra are the initial residual and the energy evaluation
SCF_ITERATIONS_PER_STEP: int = PAPER_SCALARS["average_scf_per_step"]
FOCK_APPLICATIONS_PER_STEP: int = PAPER_SCALARS["fock_applications_per_step"]
EXTRA_FOCK_APPLICATIONS: int = FOCK_APPLICATIONS_PER_STEP - SCF_ITERATIONS_PER_STEP


def pair_solve_flops(n_grid: int) -> float:
    """FLOPs of one Poisson-like solve of Eq. 3 on ``n_grid`` points: a forward
    and an inverse FFT plus pointwise work. One band of the local ``H Psi``
    costs the same."""
    return 2.0 * fft_flops(n_grid) + 6.0 * n_grid


def fock_pair_solves(n_bands: int) -> float:
    """Pair solves of one Fock exchange application: ``N_b^2``, the paper's
    count (PWDFT solves every ordered pair)."""
    return float(n_bands) ** 2


def hamiltonian_application_flops(n_bands: int, n_grid: int, hybrid_mixing: float = 0.25) -> float:
    """FLOPs of one ``H Psi`` application on ``n_bands`` orbitals.

    The local/semi-local part costs one forward+inverse FFT plus pointwise
    work per band; a hybrid functional adds the Fock exchange — ``N_b^2``
    pair-density Poisson solves (Eq. 3 of the paper), the term that makes
    hybrid groups dominate any mixed sweep. The count is the paper's (PWDFT
    on Summit): the host engine's :mod:`repro.pw.exchange` solves only the
    ``N_b (N_b + 1) / 2`` pair triangle, a constant factor that
    :mod:`repro.calib` absorbs into the host's observed/predicted scale.
    """
    if n_bands < 1 or n_grid < 1:
        raise ValueError("n_bands and n_grid must be >= 1")
    per_solve = pair_solve_flops(n_grid)
    local = n_bands * per_solve
    if hybrid_mixing:
        return local + fock_pair_solves(n_bands) * per_solve
    return local


def fock_flops_per_application(workload: SiliconWorkload) -> float:
    """FLOPs of one Fock exchange application (Eq. 3): ``N_e^2`` Poisson solves."""
    # plus transforming every broadcast orbital to the real-space grid on every rank
    orbital_ffts = workload.n_bands * fft_flops(workload.n_planewaves)
    return fock_pair_solves(workload.n_bands) * pair_solve_flops(workload.n_planewaves) + orbital_ffts


def step_flops(workload: SiliconWorkload) -> float:
    """Total FLOPs of one PT-CN step of the paper's schedule (paper: 3.87e16
    for Si-1536): :data:`FOCK_APPLICATIONS_PER_STEP` Fock applications over
    :data:`SCF_ITERATIONS_PER_STEP` inner iterations.

    Besides the Fock applications this includes the subspace GEMMs of the
    residual evaluation, the Anderson history GEMMs, the density FFTs and the
    local part of ``H Psi``; together these account for the remaining ~7 %.
    """
    ne = workload.n_bands
    ng = workload.n_planewaves
    fock = FOCK_APPLICATIONS_PER_STEP * fock_flops_per_application(workload)
    residual = SCF_ITERATIONS_PER_STEP * 2.0 * 8.0 * ne * ne * ng
    anderson = SCF_ITERATIONS_PER_STEP * 8.0 * (2 * 20) ** 2 * ng * ne / (2 * 20)
    density = SCF_ITERATIONS_PER_STEP * ne * fft_flops(workload.n_density_points)
    local = (FOCK_APPLICATIONS_PER_STEP * ne) * pair_solve_flops(ng)
    return fock + residual + anderson + density + local


def fock_flop_fraction(workload: SiliconWorkload) -> float:
    """Fraction of the step FLOPs contributed by the Fock exchange (paper: 93 %)."""
    total = step_flops(workload)
    fock = FOCK_APPLICATIONS_PER_STEP * fock_flops_per_application(workload)
    return fock / total


def flops_efficiency(workload: SiliconWorkload, n_gpus: int, step_wall_time_s: float) -> float:
    """Achieved fraction of aggregate Summit GPU peak for one step (paper: 5.5 % at 36 GPUs)."""
    if step_wall_time_s <= 0:
        raise ValueError("step_wall_time_s must be positive")
    achieved = step_flops(workload) / (n_gpus * step_wall_time_s)
    return achieved / SUMMIT.node.gpu.peak_flops
