"""Strong- and weak-scaling drivers (Figs. 6, 7, 8, 9, 10; Tables 1, 2).

Thin orchestration on top of :class:`~repro.perf.components.PWDFTPerformanceModel`
that sweeps GPU counts or system sizes and returns the rows the benchmarks
print next to the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.paper_data import WEAK_SCALING_ATOMS
from .components import PWDFTPerformanceModel
from .workload import SiliconWorkload

__all__ = [
    "StrongScalingPoint",
    "WeakScalingPoint",
    "strong_scaling",
    "weak_scaling",
    "ptcn_vs_rk4",
    "parallel_efficiency",
]


@dataclass
class StrongScalingPoint:
    """One GPU count of the strong-scaling sweep."""

    n_gpus: int
    per_scf_total: float
    total_step_time: float
    speedup_vs_cpu: float
    hpsi_percentage: float
    components: dict[str, float] = field(default_factory=dict)
    communication: dict[str, float] = field(default_factory=dict)


@dataclass
class WeakScalingPoint:
    """One system size of the weak-scaling sweep (GPUs = atoms / 2)."""

    natoms: int
    n_gpus: int
    time_per_50as: float
    ideal_time_per_50as: float


def strong_scaling(gpu_counts: tuple[int, ...]) -> list[StrongScalingPoint]:
    """Strong scaling of Si-1536 on Summit over ``gpu_counts`` (Table 1 / Fig. 7)."""
    model = PWDFTPerformanceModel(SiliconWorkload.from_atom_count(1536))
    points = []
    for n in gpu_counts:
        breakdown = model.step_breakdown(n)
        comm = model.communication_breakdown(n)
        points.append(
            StrongScalingPoint(
                n_gpus=n,
                per_scf_total=breakdown.per_scf_total,
                total_step_time=breakdown.total_step_time,
                speedup_vs_cpu=breakdown.speedup,
                hpsi_percentage=breakdown.hpsi_percentage,
                components=breakdown.scf_components.as_dict(),
                communication=comm.as_dict(),
            )
        )
    return points


def weak_scaling() -> list[WeakScalingPoint]:
    """Weak scaling on Summit (Fig. 8): time per 50 as with GPUs = atoms / 2,
    over :data:`~repro.analysis.paper_data.WEAK_SCALING_ATOMS`.

    The "ideal" curve follows the paper's ``O(N_atom^2)`` line (the
    ``O(N^3 log N)`` total work divided by ``O(N)`` GPUs, dropping the
    logarithm), anchored at the smallest system — so "measured below ideal"
    for the larger systems corresponds to the paper's observation that small
    systems are not yet Fock-dominated.
    """
    points: list[WeakScalingPoint] = []
    raw: list[tuple[int, int, float]] = []
    for natoms in WEAK_SCALING_ATOMS:
        workload = SiliconWorkload.from_atom_count(natoms)
        model = PWDFTPerformanceModel(workload)
        n_gpus = max(1, natoms // 2)
        raw.append((natoms, n_gpus, model.step_breakdown(n_gpus).total_step_time))
    smallest_atoms, _, smallest_time = min(raw, key=lambda r: r[0])
    for natoms, n_gpus, time_per_step in raw:
        ideal = smallest_time * (natoms / smallest_atoms) ** 2
        points.append(WeakScalingPoint(natoms, n_gpus, time_per_step, ideal))
    return points


def ptcn_vs_rk4(gpu_counts: tuple[int, ...]) -> list[dict]:
    """Fig. 6: wall time of a 50 as window of Si-1536 on Summit with PT-CN
    (50 as step) vs RK4 (0.5 as step)."""
    model = PWDFTPerformanceModel(SiliconWorkload.from_atom_count(1536))
    rows = []
    for n in gpu_counts:
        ptcn = model.ptcn_time_per_window(n)
        rk4 = model.rk4_time_per_window(n)
        rows.append(
            {
                "n_gpus": n,
                "ptcn_time": ptcn,
                "rk4_time": rk4,
                "speedup": rk4 / ptcn,
            }
        )
    return rows


def parallel_efficiency(points: list[StrongScalingPoint]) -> np.ndarray:
    """Strong-scaling parallel efficiency relative to the smallest GPU count."""
    if not points:
        return np.zeros(0)
    base = points[0]
    return np.array(
        [
            (base.total_step_time * base.n_gpus) / (p.total_step_time * p.n_gpus)
            for p in points
        ]
    )
