"""Sweep dispatch over the execution backends: scheduling + communication volume.

The paper's scaling figures (7, 8, 10) account for the communication of one
distributed SCF; the :class:`~repro.exec.DistributedBackend` extends the same
accounting one level up, to the *sweep traffic* — group dispatch and result
collection across simulated MPI ranks. This benchmark measures a small real
sweep through each backend, renders the per-rank placement/communication
table, and checks the two properties the scheduler guarantees: cost-aware
packing balances the predicted per-rank makespan, and the physics export is
backend-invariant.
"""

import json
import time

from repro.analysis import format_table
from repro.api import SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.cost import sweep_execution_point
from repro.exec import ExecutionSettings, Scheduler

#: a 4-group x 2-dt sweep on the tiny semi-local H2 system — large enough to
#: exercise placement on 4 ranks, small enough to run in seconds
_BASE = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}
_AXES = {"basis.ecut": [1.5, 1.7, 2.0, 2.2], "run.time_step_as": [1.0, 2.0]}


def _spec() -> SweepSpec:
    return SweepSpec(SimulationConfig.from_dict(_BASE), _AXES)


def test_distributed_sweep_dispatch(benchmark, report_writer):
    """Distributed sweep over 4 simulated ranks with makespan balancing."""

    def run():
        return BatchRunner(
            _spec(),
            settings=ExecutionSettings(
                backend="distributed", ranks=4, schedule="makespan_balanced"
            ),
        ).run()

    report = benchmark(run)
    report_writer("sweep_backend_distributed", report.execution_table())

    execution = report.execution
    per_rank = execution["per_rank"]
    assert sum(s["jobs"] for s in per_rank) == 8
    assert all(s["groups"] >= 1 for s in per_rank)
    assert execution["comm"]["calls"]["sendrecv"] == 8  # 2 per group
    # dispatch payloads (configs) are much smaller than results (observables):
    # the sweep, like the paper's propagation, is compute-shipping, not data-shipping
    assert sum(s["dispatch_bytes"] for s in per_rank) < sum(s["result_bytes"] for s in per_rank)

    serial = BatchRunner(_spec()).run()
    assert report.to_json(exclude_timings=True) == serial.to_json(exclude_timings=True)


def test_scheduler_policies_rank_groups_consistently(benchmark, report_writer):
    """Cost predictions order the policies' submission sequences as documented."""
    runner = BatchRunner(_spec())
    grouped = runner.groups()

    def schedule_all():
        return {
            policy: Scheduler(policy).schedule(grouped)
            for policy in ("fifo", "cheapest_first", "makespan_balanced")
        }

    schedules = benchmark(schedule_all)

    cheapest = [g.predicted_cost for g in schedules["cheapest_first"]]
    largest = [g.predicted_cost for g in schedules["makespan_balanced"]]
    assert cheapest == sorted(cheapest)
    assert largest == sorted(largest, reverse=True)
    assert [g.index for g in schedules["fifo"]] == list(range(len(grouped)))

    rows = [
        [policy, " ".join(str(g.index) for g in order), f"{sum(g.predicted_cost for g in order):.3g}"]
        for policy, order in schedules.items()
    ]
    report_writer(
        "sweep_scheduler_policies",
        format_table(["policy", "group order", "total predicted cost"], rows),
    )


def test_backend_exports_are_identical(benchmark, report_writer):
    """The deterministic report export is invariant across all three backends."""

    def run_all():
        return {
            "serial": BatchRunner(_spec()).run(),
            "process": BatchRunner(
                _spec(), settings=ExecutionSettings(backend="process", max_workers=2)
            ).run(),
            "distributed": BatchRunner(
                _spec(), settings=ExecutionSettings(backend="distributed", ranks=4)
            ).run(),
        }

    reports = benchmark(run_all)
    exports = {name: r.to_json(exclude_timings=True) for name, r in reports.items()}
    assert exports["serial"] == exports["process"] == exports["distributed"]

    summary = json.loads(exports["serial"])
    report_writer(
        "sweep_backend_equivalence",
        format_table(
            ["backend", "jobs", "completed", "export bytes"],
            [[name, summary["n_jobs"], summary["n_completed"], len(text)] for name, text in exports.items()],
        ),
    )


def _greedy_makespan(seconds: list[float], workers: int) -> float:
    """Least-loaded (LPT) makespan of independent durations over ``workers``."""
    loads = [0.0] * max(1, workers)
    for duration in sorted(seconds, reverse=True):
        loads[loads.index(min(loads))] += duration
    return max(loads)


def _makespan_row(report, backend: str, policy: str, ranks: int | None,
                  workers: int, elapsed_s: float) -> dict:
    """One row of the makespan matrix: predicted vs observed makespan of a run.

    Distributed runs reduce the per-rank accounting via
    :func:`repro.cost.sweep_execution_point` (the busiest modeled rank).
    Serial/process runs predict by packing the groups' predicted seconds over
    their actual worker count and report the *measured elapsed* wall time —
    for a parallel pool that is the true makespan, where summing per-job wall
    times would double-count overlapping work.
    """
    execution = report.execution
    if execution.get("per_rank"):
        point = sweep_execution_point(execution)
        predicted, observed = point["predicted_makespan_s"], point["observed_makespan_s"]
    else:
        predicted = _greedy_makespan(
            [g.get("predicted_seconds") or 0.0 for g in execution.get("groups", [])], workers
        )
        observed = float(elapsed_s)
    return {
        "backend": backend,
        "policy": policy,
        "ranks": ranks,
        "predicted_makespan_s": predicted,
        "observed_makespan_s": observed,
    }


def test_bench_sweep_makespans(benchmark, report_writer):
    """Predicted vs observed makespan per (backend, policy, ranks)."""
    matrix = [
        ("serial", "fifo", None),
        ("process", "cheapest_first", None),
        ("distributed", "makespan_balanced", 4),
        ("distributed", "energy_aware", 4),
    ]

    def run_all():
        rows = []
        for backend, policy, ranks in matrix:
            settings = {"backend": backend, "schedule": policy}
            if ranks is not None:
                settings["ranks"] = ranks
            workers = 1
            if backend == "process":
                workers = 2
                settings["max_workers"] = workers
            start = time.perf_counter()
            report = BatchRunner(_spec(), settings=ExecutionSettings(**settings)).run()
            elapsed = time.perf_counter() - start
            rows.append(_makespan_row(report, backend, policy, ranks, workers, elapsed))
        return rows

    rows = benchmark(run_all)

    report_writer(
        "sweep_backend_makespans",
        format_table(
            ["backend", "policy", "ranks", "predicted makespan [s]", "observed makespan [s]"],
            [
                [r["backend"], r["policy"], r["ranks"] or "-",
                 r["predicted_makespan_s"], r["observed_makespan_s"]]
                for r in rows
            ],
        ),
    )

    assert all(r["predicted_makespan_s"] > 0 for r in rows)
    assert all(r["observed_makespan_s"] > 0 for r in rows)
    # balancing over 4 ranks must beat the serial whole-sweep makespan
    by_key = {(r["backend"], r["policy"]): r for r in rows}
    assert (
        by_key[("distributed", "makespan_balanced")]["predicted_makespan_s"]
        < by_key[("serial", "fifo")]["predicted_makespan_s"]
    )
