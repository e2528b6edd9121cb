"""Section 6's power comparison: 3072 CPU cores against 72 GPUs."""

import pytest

from repro.analysis.paper_data import CPU_BASELINE_CORES, CPU_BASELINE_TIME_S, POWER, TABLE1
from repro.machine import SUMMIT, PowerReport, compare_runs, cpu_run_power, gpu_run_power


@pytest.fixture(scope="module")
def modelled(si1536):
    cpu = PowerReport("3072 CPU cores", SUMMIT.nodes_for_cpu_cores(CPU_BASELINE_CORES),
                      cpu_run_power(CPU_BASELINE_CORES), si1536.cpu_step_time(CPU_BASELINE_CORES))
    gpu = PowerReport("72 GPUs", SUMMIT.nodes_for_gpus(72), gpu_run_power(72),
                      si1536.step_breakdown(72).total_step_time)
    result = compare_runs(cpu, gpu)
    return {
        "cpu_nodes_3072_cores": cpu.nodes,
        "cpu_power_watts": cpu.power_watts,
        "gpu_nodes_72_gpus": gpu.nodes,
        "gpu_power_watts": gpu.power_watts,
        "gpu_vs_cpu_step_speedup_72gpu": result["speedup"],
        "cpu_over_gpu_power": result["power_ratio"],
        "node_power_cpu_only_watts": SUMMIT.node.power_cpu_only_watts,
        "node_power_full_watts": SUMMIT.node.power_full_watts,
    }


@pytest.mark.parametrize("row", list(POWER))
def test_power(modelled, row, admitted):
    assert admitted(POWER, modelled, row)


def test_the_papers_own_numbers_give_its_conclusion():
    """At nearly equal power, the 72-GPU run is ~7x faster, so ~7x less energy."""
    (cpu_nodes, _), (cpu_watts, _) = POWER["cpu_nodes_3072_cores"], POWER["cpu_power_watts"]
    (gpu_nodes, _), (gpu_watts, _) = POWER["gpu_nodes_72_gpus"], POWER["gpu_power_watts"]
    step_72 = TABLE1["total_step_time"][1]
    result = compare_runs(PowerReport("cpu", cpu_nodes, cpu_watts, CPU_BASELINE_TIME_S),
                          PowerReport("gpu", gpu_nodes, gpu_watts, step_72))
    assert result["speedup"] == pytest.approx(TABLE1["speedup"][1], rel=0.05)
    assert result["power_ratio"] == pytest.approx(POWER["cpu_over_gpu_power"][0], rel=0.05)
    assert result["energy_ratio"] > 6.5
