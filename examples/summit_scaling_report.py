#!/usr/bin/env python
"""Full Summit-scale report: regenerate every table and figure of the paper.

This example drives the calibrated performance model (``repro.perf``) and the
machine model (``repro.machine``) to print the paper's Table 1, Table 2 and
the data behind Figs. 3 and 6-10, each next to the published values. It is the
script version of the benchmark harness, convenient for reading the whole
reproduction at once.

Usage:
    python examples/summit_scaling_report.py
"""

from __future__ import annotations

from repro.analysis import (
    CPU_BASELINE_TIME_S,
    FIG6_GPU_COUNTS,
    TABLE1,
    TABLE1_GPU_COUNTS,
    TABLE2,
    format_table,
)
from repro.analysis.paper_data import FIG7, SECTION7
from repro.machine import PowerReport, SUMMIT, compare_runs, cpu_run_power, gpu_run_power
from repro.perf import (
    PWDFTPerformanceModel,
    SiliconWorkload,
    flops_efficiency,
    fock_flop_fraction,
    optimization_stage_times,
    parallel_efficiency,
    ptcn_vs_rk4,
    strong_scaling,
    weak_scaling,
)


def section(title: str) -> None:
    print("\n" + "=" * 78)
    print(title)
    print("=" * 78)


def main() -> None:
    workload = SiliconWorkload.from_atom_count(1536)
    model = PWDFTPerformanceModel(workload)

    section("Workload: Si-1536 (paper Section 4)")
    print(
        f"bands N_e = {workload.n_bands}, N_G = {workload.n_planewaves}, "
        f"wavefunction grid {workload.wavefunction_grid}, density grid {workload.density_grid}"
    )
    print(f"CPU baseline (3072 cores): model {model.cpu_step_time(3072):8.0f} s, paper {CPU_BASELINE_TIME_S:.0f} s")

    section("Table 1 — per-SCF component times and per-step totals")
    rows = []
    for i, n in enumerate(TABLE1_GPU_COUNTS):
        b = model.step_breakdown(n)
        s = b.scf_components
        rows.append(
            [n, TABLE1["hpsi_total"][i], s.hpsi_total, TABLE1["per_scf_total"][i], s.per_scf_total,
             TABLE1["total_step_time"][i], b.total_step_time, TABLE1["speedup"][i], b.speedup]
        )
    print(format_table(
        ["#GPUs", "HPsi paper", "HPsi model", "SCF paper", "SCF model",
         "step paper", "step model", "speedup paper", "speedup model"], rows))

    section("Table 2 — MPI / memcpy / compute breakdown per step")
    rows = []
    for i, n in enumerate(TABLE1_GPU_COUNTS):
        cb = model.communication_breakdown(n)
        rows.append([n, TABLE2["bcast"][i], cb.bcast, TABLE2["allreduce"][i], cb.allreduce,
                     TABLE2["mpi_total"][i], cb.mpi_total, TABLE2["compute"][i], cb.compute])
    print(format_table(
        ["#GPUs", "bcast paper", "bcast model", "allreduce paper", "allreduce model",
         "MPI paper", "MPI model", "compute paper", "compute model"], rows))

    section("Fig. 3 — Fock exchange optimization stages (72 GPUs vs 3072 CPU cores)")
    rows = [[s.name, s.compute_time, s.communication_time, s.memcpy_time, s.total]
            for s in optimization_stage_times(model, n_gpus=72)]
    print(format_table(["stage", "compute", "visible MPI", "memcpy", "total [s]"], rows))

    section("Fig. 6 — PT-CN vs RK4 wall time per 50 as")
    rows = [[r["n_gpus"], r["rk4_time"], r["ptcn_time"], r["speedup"]] for r in ptcn_vs_rk4(FIG6_GPU_COUNTS)]
    print(format_table(["#GPUs", "RK4 [s]", "PT-CN [s]", "speedup"], rows))

    section("Fig. 7 / Fig. 9 / Fig. 10 — strong scaling")
    rows = []
    points = strong_scaling(TABLE1_GPU_COUNTS)
    for p in points:
        rows.append([p.n_gpus, p.total_step_time, p.per_scf_total, p.hpsi_percentage,
                     p.communication["bcast"], p.communication["compute"]])
    print(format_table(["#GPUs", "step [s]", "per-SCF [s]", "HPsi %", "bcast [s]", "compute [s]"], rows))

    section("Fig. 7 / Section 7 — parallel and FLOP efficiency")
    efficiency = parallel_efficiency(points)[TABLE1_GPU_COUNTS.index(288)]
    print(f"strong-scaling parallel efficiency, 36 -> 288 GPUs: model {efficiency:.2f}, "
          f"paper {FIG7['parallel_efficiency_288gpu'][0]:.2f}")
    for n in (36, 768):
        achieved = flops_efficiency(workload, n, model.step_breakdown(n).total_step_time)
        print(f"fraction of GPU peak FLOPS at {n} GPUs: model {achieved:.1%}, "
              f"paper {SECTION7[f'flops_efficiency_{n}gpu'][0]:.1%}")
    print(f"Fock exchange share of a step's FLOPs: model {fock_flop_fraction(workload):.0%}, "
          f"paper {SECTION7['fock_flop_fraction'][0]:.0%}")

    section("Fig. 8 — weak scaling (GPUs = atoms / 2)")
    rows = [[p.natoms, p.n_gpus, p.time_per_50as, p.ideal_time_per_50as] for p in weak_scaling()]
    print(format_table(["atoms", "#GPUs", "time per 50 as [s]", "ideal O(N^2) [s]"], rows))

    section("Section 6 — power comparison")
    cpu = PowerReport("3072 CPU cores", SUMMIT.nodes_for_cpu_cores(3072), cpu_run_power(3072),
                      model.cpu_step_time(3072))
    gpu = PowerReport("72 GPUs", SUMMIT.nodes_for_gpus(72), gpu_run_power(72),
                      model.step_breakdown(72).total_step_time)
    comparison = compare_runs(cpu, gpu)
    print(f"CPU: {cpu.nodes} nodes, {cpu.power_watts:.0f} W, {cpu.wall_time_s:.0f} s/step")
    print(f"GPU: {gpu.nodes} nodes, {gpu.power_watts:.0f} W, {gpu.wall_time_s:.0f} s/step")
    print(f"speedup at ~equal power: {comparison['speedup']:.1f}x, energy ratio {comparison['energy_ratio']:.1f}x")

    section("Headline (paper abstract)")
    b = model.step_breakdown(768)
    print(f"Si-1536 on 768 GPUs: {b.total_step_time:.0f} s per 50 as step "
          f"-> {b.hours_per_femtosecond:.2f} hours per femtosecond (paper: ~1.5 h/fs).")


if __name__ == "__main__":
    main()
