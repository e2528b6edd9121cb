"""Power and energy-to-solution accounting (Section 6 of the paper).

The paper's power comparison: 3072 CPU cores occupy 73 nodes at 380 W each
(27 740 W) while 72 GPUs occupy 12 nodes at 2180 W each (26 160 W) — slightly
less power for a 7x faster time to solution, i.e. ~7x better energy to
solution. These helpers reproduce that arithmetic for any configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .summit import SUMMIT

__all__ = ["PowerReport", "cpu_run_power", "gpu_run_power", "compare_runs"]


@dataclass(frozen=True)
class PowerReport:
    """Power and energy summary of one run configuration."""

    label: str
    nodes: int
    power_watts: float
    wall_time_s: float

    @property
    def energy_joules(self) -> float:
        """Energy to solution in Joules."""
        return self.power_watts * self.wall_time_s


def cpu_run_power(n_cores: int) -> float:
    """Total power (W) of a CPU-only run using ``n_cores`` Summit cores."""
    return SUMMIT.cpu_run_power_watts(n_cores)


def gpu_run_power(n_gpus: int) -> float:
    """Total power (W) of a GPU run using ``n_gpus`` Summit GPUs (whole nodes)."""
    return SUMMIT.gpu_run_power_watts(n_gpus)


def compare_runs(cpu: PowerReport, gpu: PowerReport) -> dict:
    """Head-to-head comparison used by the power benchmark.

    Returns speedup, power ratio and energy ratio (CPU / GPU; > 1 means the
    GPU run wins).
    """
    return {
        "speedup": cpu.wall_time_s / gpu.wall_time_s,
        "power_ratio": cpu.power_watts / gpu.power_watts,
        "energy_ratio": cpu.energy_joules / gpu.energy_joules,
        "cpu": cpu,
        "gpu": gpu,
    }
