"""The paper's closing what-if, "the parallel performance could scale further
with improved network bandwidth", across the machine presets.

The per-component Si1536 step model behind Table 1, priced on every
:data:`repro.cost.MACHINES` preset over Fig. 7's range: the Frontier-like
preset (4x the injection bandwidth, ~3x the per-GPU throughput) is faster and
cheaper at every GPU count, and its lead grows into the network-bound regime.
The campaign planner, asked to plan one sweep campaign per preset, predicts a
shorter makespan and less energy on it. The Summit preset stays on the paper.
"""

import pytest

from repro.analysis.paper_data import WHATIF
from repro.api import Budget, CampaignSpec, SimulationConfig
from repro.batch import SweepSpec
from repro.campaign import CampaignPlanner
from repro.cost import MACHINES, MachineCostModel
from repro.perf import PWDFTPerformanceModel, SiliconWorkload, step_flops

GPU_COUNTS = (72, 384, 768, 1536, 3072)


def _step(system, n_gpus: int):
    """One Si1536 PT-CN step priced per component on ``system``, with the
    nodes and power of its slice."""
    workload = SiliconWorkload.from_atom_count(1536)
    seconds = PWDFTPerformanceModel(workload, system=system).step_breakdown(n_gpus).total_step_time
    return MachineCostModel(system=system).estimate(step_flops(workload), n_gpus, seconds=seconds)


@pytest.fixture(scope="module")
def modelled():
    return {"summit_step_36gpu": _step(MACHINES["summit"], 36).seconds}


@pytest.mark.parametrize("row", list(WHATIF))
def test_whatif(modelled, row, admitted):
    assert admitted(WHATIF, modelled, row)


@pytest.mark.parametrize("n_gpus", GPU_COUNTS)
def test_the_improved_machine_is_faster_and_cheaper(n_gpus):
    summit, frontier = _step(MACHINES["summit"], n_gpus), _step(MACHINES["frontier"], n_gpus)
    assert frontier.seconds < summit.seconds
    assert frontier.energy_joules < summit.energy_joules


def test_its_lead_grows_into_the_network_bound_regime():
    speedups = [_step(MACHINES["summit"], n).seconds / _step(MACHINES["frontier"], n).seconds
                for n in (GPU_COUNTS[0], GPU_COUNTS[-1])]
    assert speedups[1] > speedups[0]
    # 8 GPUs a node pack 72 GPUs onto fewer nodes than 6 do
    assert _step(MACHINES["frontier"], 72).nodes < _step(MACHINES["summit"], 72).nodes


def test_the_campaign_planner_prefers_the_improved_machine():
    base = SimulationConfig.from_dict({
        "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
        "basis": {"ecut": 2.0},
        "xc": {"hybrid_mixing": 0.25},
        "run": {"time_step_as": 1.0, "n_steps": 4},
    })
    campaign = CampaignSpec(
        {
            "cutoff-scan": SweepSpec(base, {"basis.ecut": [1.5, 1.8, 2.0, 2.2]}),
            "mixing-scan": SweepSpec(base, {"xc.hybrid_mixing": [0.0, 0.25]}),
        },
        budget=Budget(max_ranks=8),
    )
    summit, frontier = (CampaignPlanner(campaign, machines=[name]).plan() for name in ("summit", "frontier"))
    assert frontier.predicted_wall_seconds < summit.predicted_wall_seconds
    assert frontier.predicted_energy_joules < summit.predicted_energy_joules
    # replanning yields the identical plan
    assert CampaignPlanner(campaign, machines=["frontier"]).plan().as_dict() == frontier.as_dict()
