"""The paper's closing what-if: "the parallel performance could scale further
with improved network bandwidth" — answered across machine presets.

Two levels of the question:

* **Kernel/step level** — the per-component PT-CN step model behind Table 1
  (:class:`repro.perf.PWDFTPerformanceModel`) priced on every
  :data:`repro.cost.MACHINES` preset over the paper's Fig. 7 strong scaling
  range, each step wrapped with its slice's nodes and power by
  :meth:`repro.cost.MachineCostModel.estimate`. The Frontier-like preset
  carries 4x the injection bandwidth and ~3x the per-GPU throughput, so its
  speedup over Summit must *grow* with the GPU count: the deeper into the
  network-bound regime, the more the improved network pays — which is
  precisely the paper's closing claim.
* **Campaign level** — the :class:`repro.campaign.CampaignPlanner` asked to
  plan the same sweep campaign once per preset; the improved machine's
  plan must predict a shorter makespan and less energy to solution.
"""

import pytest

from repro.analysis import format_table
from repro.api import Budget, CampaignSpec, SimulationConfig
from repro.batch import SweepSpec
from repro.campaign import CampaignPlanner
from repro.cost import MACHINES

GPU_COUNTS = (72, 384, 768, 1536, 3072)


def test_step_whatif_across_machines(benchmark, report_writer, si1536_step_estimate):
    def run():
        return {
            name: [si1536_step_estimate(system, n) for n in GPU_COUNTS]
            for name, system in sorted(MACHINES.items())
        }

    estimates = benchmark(run)
    summit, frontier = estimates["summit"], estimates["frontier"]

    rows = []
    for n, s_est, f_est in zip(GPU_COUNTS, summit, frontier):
        rows.append(
            [
                n,
                s_est.seconds,
                f_est.seconds,
                s_est.seconds / f_est.seconds,
                s_est.energy_kwh,
                f_est.energy_kwh,
            ]
        )
    table = format_table(
        ["GPUs", "summit [s]", "frontier [s]", "speedup", "summit [kWh]", "frontier [kWh]"],
        rows,
    )
    report_writer("machine_whatif", table)

    # the improved machine is faster at every scale ...
    for s_est, f_est in zip(summit, frontier):
        assert f_est.seconds < s_est.seconds
        assert f_est.energy_joules < s_est.energy_joules
    # ... and the advantage grows into the network-bound regime (the paper's
    # closing expectation: better network -> further scaling)
    speedups = [s.seconds / f.seconds for s, f in zip(summit, frontier)]
    assert speedups[-1] > speedups[0]


def test_campaign_planner_whatif(benchmark, report_writer):
    """Plan the same campaign per preset: the improved network + denser nodes
    must shorten the predicted makespan and the energy to solution."""
    base = SimulationConfig.from_dict(
        {
            "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
            "basis": {"ecut": 2.0},
            "xc": {"hybrid_mixing": 0.25},
            "run": {"time_step_as": 1.0, "n_steps": 4},
        }
    )
    campaign = CampaignSpec(
        {
            "cutoff-scan": SweepSpec(base, {"basis.ecut": [1.5, 1.8, 2.0, 2.2]}),
            "mixing-scan": SweepSpec(base, {"xc.hybrid_mixing": [0.0, 0.25]}),
        },
        budget=Budget(max_ranks=8),
    )

    def run():
        return {
            name: CampaignPlanner(campaign, machines=[name]).plan()
            for name in sorted(MACHINES)
        }

    plans = benchmark(run)
    rows = [
        [
            name,
            plan.settings.ranks,
            plan.settings.gpus_per_group,
            plan.settings.schedule,
            plan.predicted_wall_seconds,
            plan.predicted_energy_joules,
        ]
        for name, plan in plans.items()
    ]
    table = format_table(
        ["machine", "ranks", "gpus/group", "schedule", "wall [s]", "energy [J]"], rows
    )
    report_writer("machine_whatif_campaign", table)

    summit, frontier = plans["summit"], plans["frontier"]
    assert frontier.predicted_wall_seconds < summit.predicted_wall_seconds
    assert frontier.predicted_energy_joules < summit.predicted_energy_joules
    # determinism: replanning yields the identical plan
    assert CampaignPlanner(campaign, machines=["frontier"]).plan().as_dict() == frontier.as_dict()


def test_whatif_preserves_calibration(benchmark, si1536_step_estimate):
    """The what-if must not disturb the Summit calibration: the summit preset
    still reproduces the paper's 36-GPU reference step time."""

    def run():
        return si1536_step_estimate(MACHINES["summit"], 36).seconds

    predicted = benchmark(run)
    assert predicted == pytest.approx(2263.0, rel=0.15)  # paper Fig. 7 reference
