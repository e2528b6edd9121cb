"""PWDFT-at-scale performance model: workloads, component times, scaling sweeps."""

from .components import (
    CommunicationBreakdown,
    ComponentCalibration,
    PWDFTPerformanceModel,
    SCFComponentTimes,
    StepBreakdown,
)
from .flops import (
    flops_efficiency,
    fock_flop_fraction,
    fock_flops_per_application,
    hamiltonian_application_flops,
    step_flops,
)
from .scaling import (
    StrongScalingPoint,
    WeakScalingPoint,
    parallel_efficiency,
    ptcn_vs_rk4,
    strong_scaling,
    weak_scaling,
)
from .stages import StageResult, optimization_stage_times
from .sweep_cost import (
    applications_per_step,
    predict_group_cost,
    predict_job_cost,
    predict_scf_cost,
    workload_sizes,
)
from .workload import SiliconWorkload

__all__ = [
    "CommunicationBreakdown",
    "ComponentCalibration",
    "PWDFTPerformanceModel",
    "SCFComponentTimes",
    "StepBreakdown",
    "flops_efficiency",
    "fock_flop_fraction",
    "fock_flops_per_application",
    "step_flops",
    "StrongScalingPoint",
    "WeakScalingPoint",
    "parallel_efficiency",
    "ptcn_vs_rk4",
    "strong_scaling",
    "weak_scaling",
    "StageResult",
    "optimization_stage_times",
    "applications_per_step",
    "hamiltonian_application_flops",
    "predict_group_cost",
    "predict_job_cost",
    "predict_scf_cost",
    "workload_sizes",
    "SiliconWorkload",
]
