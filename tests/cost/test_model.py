"""MachineCostModel: monotonicity, energy accounting, config plumbing.

The property tests check the monotonicity every scheduler decision relies
on: more work never takes less time. The paper's silicon steps are priced by
:class:`repro.perf.PWDFTPerformanceModel` on each machine preset; its
Fig. 7 / Fig. 8 pins and network monotonicity live in ``tests/perf``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SimulationConfig
from repro.cost import MachineCostModel, resolve_machine, sweep_execution_point
from repro.exec import ExecutionSettings
from repro.machine import SUMMIT, SummitSystem


@pytest.fixture(scope="module")
def model() -> MachineCostModel:
    return MachineCostModel()


def tiny_config(**overrides) -> SimulationConfig:
    base = {
        "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
        "basis": {"ecut": 2.0},
        "xc": {"hybrid_mixing": 0.0},
        "run": {"time_step_as": 1.0, "n_steps": 2},
    }
    return SimulationConfig.from_dict(base).with_overrides(overrides)


# ---------------------------------------------------------------------------
# Monotonicity properties
# ---------------------------------------------------------------------------


class TestMonotonicity:
    @given(
        flops=st.floats(min_value=1e3, max_value=1e18),
        extra=st.floats(min_value=1e3, max_value=1e18),
        n_gpus=st.integers(min_value=1, max_value=3072),
    )
    @settings(max_examples=50, deadline=None)
    def test_more_work_never_takes_less_time(self, flops, extra, n_gpus):
        model = MachineCostModel()
        assert model.compute_seconds(flops + extra, n_gpus) > model.compute_seconds(flops, n_gpus)

    def test_time_monotone_in_workload_size(self, model):
        """Bigger sweep workloads (more steps, larger basis) predict strictly
        more seconds."""
        seconds = [
            model.group_estimate([tiny_config(**{"run.n_steps": n})]).seconds for n in (2, 4, 8)
        ]
        assert all(b > a for a, b in zip(seconds, seconds[1:]))
        # cutoffs chosen to actually enlarge the FFT grid at each step
        by_ecut = [
            model.group_estimate([tiny_config(**{"basis.ecut": e})]).seconds for e in (1.5, 2.5, 4.0)
        ]
        assert all(b > a for a, b in zip(by_ecut, by_ecut[1:]))

    def test_more_gpus_never_slow_the_compute_conversion(self, model):
        flops = 1e15
        times = [model.compute_seconds(flops, n) for n in (1, 2, 6, 12, 96)]
        assert all(b < a for a, b in zip(times, times[1:]))


# ---------------------------------------------------------------------------
# Config plumbing and energy accounting
# ---------------------------------------------------------------------------


class TestEstimates:
    def test_energy_is_power_times_seconds_of_whole_nodes(self, model):
        estimate = model.group_estimate([tiny_config()])
        assert estimate.n_gpus == 1
        assert estimate.nodes == 1
        assert estimate.power_watts == SUMMIT.node.power_full_watts
        assert estimate.energy_joules == pytest.approx(estimate.power_watts * estimate.seconds)

    def test_run_machine_gpus_override_flows_through(self, model):
        config = tiny_config(**{"run.machine": {"gpus_per_group": 6}})
        estimate = model.group_estimate([config])
        assert estimate.n_gpus == 6
        baseline = model.group_estimate([tiny_config()])
        assert estimate.seconds == pytest.approx(baseline.seconds / 6)
        # one node either way: same power, so 6 GPUs also win on energy
        assert estimate.energy_joules < baseline.energy_joules

    def test_from_config_reads_the_machine_section(self):
        config = tiny_config(**{"run.machine": {"name": "summit", "gpus_per_group": 3}})
        model = ExecutionSettings.from_config(config).machine_model()
        assert model.system is SUMMIT
        assert model.gpus_per_group == 3

    def test_group_estimate_reuses_caller_flops(self, model):
        given_flops = 1e12
        estimate = model.group_estimate([tiny_config()], flops=given_flops)
        assert estimate.flops == pytest.approx(model.step_flop_multiplier * given_flops)
        assert estimate.seconds == pytest.approx(
            model.compute_seconds(model.step_flop_multiplier * given_flops, 1)
        )

    def test_empty_group_costs_nothing(self, model):
        assert model.group_estimate([]).seconds == 0.0


    def test_invalid_inputs_rejected(self, model):
        with pytest.raises(ValueError, match="flops"):
            model.compute_seconds(-1.0)
        with pytest.raises(ValueError, match="n_gpus"):
            model.compute_seconds(1.0, 0)
        with pytest.raises(ValueError, match="gpus_per_group"):
            MachineCostModel(gpus_per_group=0)

    def test_unknown_machine_lists_the_presets(self):
        with pytest.raises(ValueError, match="frontier.*summit"):
            resolve_machine("perlmutter")
        assert resolve_machine("summit") is SUMMIT
        from repro.machine import FRONTIER

        assert resolve_machine("frontier") is FRONTIER

    def test_oversubscribed_machine_rejected(self):
        small = MachineCostModel(system=SummitSystem(n_nodes=1))
        with pytest.raises(ValueError, match="GPUs"):
            small.compute_seconds(1e12, 7)


class TestSweepExecutionPoint:
    def test_reduces_per_rank_accounting(self):
        execution = {
            "ranks": 2,
            "n_groups": 3,
            "n_jobs": 6,
            "per_rank": [
                {"predicted_seconds": 2.0, "observed_seconds": 0.4, "predicted_energy_j": 10.0,
                 "dispatch_bytes": 100, "result_bytes": 300, "comm_seconds": 0.1},
                {"predicted_seconds": 3.0, "observed_seconds": 0.2, "predicted_energy_j": 20.0,
                 "dispatch_bytes": 50, "result_bytes": 150, "comm_seconds": 0.2},
            ],
        }
        point = sweep_execution_point(execution)
        assert point == {
            "ranks": 2,
            "n_groups": 3,
            "n_jobs": 6,
            "predicted_makespan_s": 3.0,
            "observed_makespan_s": 0.4,
            "predicted_energy_j": 30.0,
            "comm_bytes": 600,
            "comm_seconds": pytest.approx(0.3),
        }

    def test_requires_per_rank_accounting(self):
        with pytest.raises(ValueError, match="distributed"):
            sweep_execution_point({"backend": "serial"})
