"""Section 6 power comparison: 3072 CPU cores (73 nodes) vs 72 GPUs (12 nodes).

Extended with the paper's closing "improved network bandwidth" what-if: the
same 72-GPU workload priced on the Frontier-like preset
(``repro.cost.MACHINES["frontier"]``) next to Summit.
"""

import pytest

from repro.analysis import CPU_BASELINE_TIME_S, PAPER_SCALARS, format_table
from repro.cost import MACHINES
from repro.machine import PowerReport, compare_runs, cpu_run_power, gpu_run_power, SUMMIT


def test_power_comparison(benchmark, si1536_model, report_writer):
    def run():
        cpu = PowerReport(
            label="3072 CPU cores",
            nodes=SUMMIT.nodes_for_cpu_cores(3072),
            power_watts=cpu_run_power(3072),
            wall_time_s=si1536_model.cpu_step_time(3072),
        )
        gpu = PowerReport(
            label="72 GPUs",
            nodes=SUMMIT.nodes_for_gpus(72),
            power_watts=gpu_run_power(72),
            wall_time_s=si1536_model.step_breakdown(72).total_step_time,
        )
        return compare_runs(cpu, gpu)

    result = benchmark(run)
    cpu, gpu = result["cpu"], result["gpu"]

    rows = [
        ["CPU nodes", PAPER_SCALARS["cpu_nodes_3072_cores"], cpu.nodes],
        ["CPU power [W]", PAPER_SCALARS["cpu_power_watts"], cpu.power_watts],
        ["CPU time per step [s]", CPU_BASELINE_TIME_S, cpu.wall_time_s],
        ["GPU nodes", PAPER_SCALARS["gpu_nodes_72_gpus"], gpu.nodes],
        ["GPU power [W]", PAPER_SCALARS["gpu_power_watts"], gpu.power_watts],
        ["GPU time per step [s]", 1269.1, gpu.wall_time_s],
        ["speedup at ~equal power", PAPER_SCALARS["gpu_vs_cpu_fock_speedup_72gpu"], result["speedup"]],
        ["energy-to-solution ratio", 7.0, result["energy_ratio"]],
    ]
    table = format_table(["quantity", "paper", "model"], rows)
    report_writer("power_comparison", table)

    assert gpu.power_watts == pytest.approx(PAPER_SCALARS["gpu_power_watts"])
    assert cpu.power_watts == pytest.approx(PAPER_SCALARS["cpu_power_watts"], rel=0.02)
    assert result["power_ratio"] == pytest.approx(1.06, rel=0.1)
    assert result["speedup"] == pytest.approx(7.0, rel=0.2)


def test_improved_network_whatif(benchmark, report_writer, si1536_step_estimate):
    """The same 72-GPU PT-CN step on the Frontier-like preset: 8 GPUs/node
    (fewer, denser nodes) and 4x the injection bandwidth must beat Summit on
    wall time *and* energy to solution — the paper's closing expectation,
    stated as a power-comparison row."""

    def run():
        return {
            name: si1536_step_estimate(system, 72)
            for name, system in sorted(MACHINES.items())
        }

    estimates = benchmark(run)
    summit, frontier = estimates["summit"], estimates["frontier"]

    rows = [
        ["nodes for 72 GPUs", summit.nodes, frontier.nodes],
        ["node power [W]", summit.power_watts / summit.nodes, frontier.power_watts / frontier.nodes],
        ["run power [W]", summit.power_watts, frontier.power_watts],
        ["time per step [s]", summit.seconds, frontier.seconds],
        ["energy per step [kWh]", summit.energy_kwh, frontier.energy_kwh],
        ["speedup vs summit", 1.0, summit.seconds / frontier.seconds],
        ["energy ratio vs summit", 1.0, summit.energy_joules / frontier.energy_joules],
    ]
    report_writer(
        "power_comparison_whatif", format_table(["quantity", "summit", "frontier"], rows)
    )

    assert frontier.nodes < summit.nodes  # 8 GPUs/node pack denser than 6
    assert frontier.seconds < summit.seconds
    assert frontier.energy_joules < summit.energy_joules
