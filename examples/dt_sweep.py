#!/usr/bin/env python
"""Fig. 6 as a one-call sweep: {PT-CN, RK4} x {time steps} via ``repro.batch``.

The paper's central comparison — PT-CN holding a large time step where RK4
either crawls or blows up — is a *sweep*, not a single run. This example
declares it as one: a base config, two axes, one ``BatchRunner.run()`` call.
The runner converges the shared hybrid ground state exactly once, fans out
the four propagations, and the report renders the cost table (Fig. 6), the
propagator-x-dt Fock-application pivot, and the dt-vs-accuracy table against
the smallest-step run.

Execution is pluggable (``repro.exec``): ``--backend distributed`` dispatches
the ground-state groups over simulated MPI ranks and prints the per-rank
communication volume, ``--schedule`` picks the cost-aware ordering policy.
With ``--budget SECONDS`` the execution settings are not hand-picked at all:
the :class:`repro.campaign.CampaignPlanner` inverts the cost model and
chooses machine/ranks/GPUs/schedule for the stated wall-clock budget.

Usage:
    python examples/dt_sweep.py                          # the full comparison
    python examples/dt_sweep.py --backend distributed --ranks 4 \\
                                --schedule makespan_balanced
    python examples/dt_sweep.py --budget 3600            # planner picks the settings
    python examples/dt_sweep.py --smoke                  # CI smoke (serial)
    python examples/dt_sweep.py --smoke --backend distributed --ranks 4
                                                         # CI distributed smoke
"""

from __future__ import annotations

import argparse
import sys
import tempfile

import numpy as np

from repro.api import SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.exec import ExecutionSettings

#: the quickstart H2 system driven by a weak laser, swept below
BASE = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 10.0, "bond_length": 1.4}},
    "basis": {"ecut": 3.0},
    "xc": {"hybrid_mixing": 0.25, "screening_length": None},
    "laser": {
        "pulse": "gaussian",
        "params": {
            "amplitude": 0.005,
            "omega": 0.35,
            "t0_as": 100.0,
            "sigma_as": 40.0,
            "polarization": [1.0, 0.0, 0.0],
        },
    },
    "run": {"gs_scf_tolerance": 1e-7},
}

#: each integrator with its own parameters, times the same 20 as window
#: covered at a small and at a large step
WINDOW_AXES = {
    "propagator": [
        {"name": "ptcn", "params": {"scf_tolerance": 1e-7, "max_scf_iterations": 40}},
        {"name": "rk4", "params": {}},
    ],
    "run": [
        {"time_step_as": 1.0, "n_steps": 20},
        {"time_step_as": 10.0, "n_steps": 2},
    ],
}


def main(backend: str, ranks: int, schedule: str | None, budget: float | None = None) -> int:
    spec = SweepSpec(SimulationConfig.from_dict(BASE), WINDOW_AXES)
    if budget is not None:
        # inverse mode: state a wall-clock budget, let the campaign planner
        # choose the machine, rank count, GPUs per group and policy
        from repro.api import Budget, InfeasibleBudgetError, plan

        try:
            execution_plan = plan({"dt-sweep": spec}, Budget(max_wall_seconds=budget))
        except InfeasibleBudgetError as exc:
            print(f"no plan fits a {budget:g} s budget:\n  {exc}", file=sys.stderr)
            return 2
        print(f"Planned for a {budget:g} s wall budget:\n")
        print(execution_plan.plan_table())
        runner = BatchRunner.from_plan(execution_plan)
        backend = runner.settings.backend
    else:
        runner = BatchRunner(
            spec,
            settings=ExecutionSettings.from_config(
                spec.base, backend=backend, ranks=ranks, schedule=schedule
            ),
        )
    print(f"Sweep: {spec.n_jobs} jobs over axes {spec.axis_paths}")
    print(f"Backend: {runner.settings.backend} (schedule: {runner.settings.schedule})")
    if backend == "serial":
        print(f"Shared ground states to converge: {runner.prepare_ground_states()}")
    print()

    # at production cutoffs RK4 overflows at large steps; keep that quiet and
    # let it show up as a huge energy drift in the table instead
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report = runner.run()

    print(report.to_table())
    print("\nFig. 6-style cost comparison:\n")
    print(report.fig6_table())
    print("\nFock applications, propagator x dt:\n")
    print(report.pivot("hamiltonian_applications"))
    print("\nAccuracy vs the smallest-step run:\n")
    print(report.accuracy_table())
    if backend != "serial":
        print("\nExecution placement / communication:\n")
        print(report.execution_table())

    by_point = {
        (r.summary["propagator"], r.summary["time_step_as"]): r.summary for r in report.completed
    }
    ratio = by_point[("rk4", 1.0)]["hamiltonian_applications"] / by_point[("ptcn", 10.0)]["hamiltonian_applications"]
    print(
        f"\nPT-CN at the 10x larger step covers the window with {ratio:.1f}x fewer Fock"
        "\napplications than small-step RK4 at matching accuracy. (On this toy basis"
        "\nRK4 happens to stay stable at 10 as; at the paper's 10 Ha cutoff its"
        "\nstability limit forces sub-attosecond steps, giving the 20-30x of Fig. 6.)"
    )
    return 0


def smoke(backend: str, ranks: int, schedule: str | None) -> int:
    """Tiny sweep + store resume through the chosen backend; exits
    nonzero on any failure. With a non-serial backend the deterministic
    report export is additionally checked against the serial reference."""
    base = SimulationConfig.from_dict(
        {
            "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
            "basis": {"ecut": 2.0},
            "xc": {"hybrid_mixing": 0.0},
            "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
        }
    )
    # four distinct ground-state groups x two time steps: enough structure to
    # exercise scheduling and to give every one of 4 simulated ranks a group
    spec = SweepSpec(base, {"basis.ecut": [1.5, 1.7, 2.0, 2.2], "run.time_step_as": [1.0, 2.0]})
    n_jobs = spec.n_jobs
    settings = ExecutionSettings.from_config(base, backend=backend, ranks=ranks, schedule=schedule)
    with tempfile.TemporaryDirectory() as store_root:
        runner = BatchRunner(spec, store=store_root, settings=settings)
        report = runner.run()
        print(report.to_table())
        if [r.status for r in report] != ["completed"] * n_jobs:
            print("smoke FAILED: sweep did not complete", file=sys.stderr)
            return 1
        resumed = BatchRunner(spec, store=store_root, settings=settings).run()
        if [r.status for r in resumed] != ["cached"] * n_jobs:
            print("smoke FAILED: resume did not load the stored results", file=sys.stderr)
            return 1
        if backend != "serial":
            print(report.execution_table())
            print(report.scaling_table())
            serial = BatchRunner(spec).run()
            if report.to_json(exclude_timings=True) != serial.to_json(exclude_timings=True):
                print(
                    f"smoke FAILED: {backend} report export differs from serial",
                    file=sys.stderr,
                )
                return 1
            print(f"smoke ok: {backend} export is bit-identical to the serial backend")
    print(
        f"smoke ok: {n_jobs} jobs completed on the {backend} backend, "
        "resume served all of them from the store"
    )
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="run the tiny CI smoke sweep")
    parser.add_argument(
        "--backend",
        choices=["serial", "process", "distributed"],
        default="serial",
        help="execution backend (see repro.exec)",
    )
    parser.add_argument("--ranks", type=int, default=4, help="simulated MPI ranks (distributed backend)")
    parser.add_argument(
        "--schedule",
        choices=["fifo", "cheapest_first", "makespan_balanced", "energy_aware"],
        default=None,
        help="scheduling policy (default: the config's run.schedule.policy)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="wall-clock budget in modeled seconds: the campaign planner picks "
        "the settings instead of --backend/--ranks/--schedule (full mode only)",
    )
    args = parser.parse_args()
    if args.smoke:
        sys.exit(smoke(args.backend, args.ranks, args.schedule))
    sys.exit(main(args.backend, args.ranks, args.schedule, args.budget))
