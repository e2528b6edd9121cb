"""Summit machine model: hardware specs, kernel rooflines, network collectives, power."""

from .frontier import FRONTIER
from .gpu import GPUKernelModel, fft_flops
from .network import NetworkModel
from .power import PowerReport, compare_runs, cpu_run_power, gpu_run_power
from .summit import SUMMIT, CPUSocketSpec, GPUSpec, NodeSpec, SummitSystem

__all__ = [
    "FRONTIER",
    "GPUKernelModel",
    "fft_flops",
    "NetworkModel",
    "PowerReport",
    "compare_runs",
    "cpu_run_power",
    "gpu_run_power",
    "SUMMIT",
    "CPUSocketSpec",
    "GPUSpec",
    "NodeSpec",
    "SummitSystem",
]
