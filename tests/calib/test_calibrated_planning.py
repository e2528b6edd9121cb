"""Calibration threaded through the scheduler and planner."""

from __future__ import annotations

import pytest

from repro.batch import SweepSpec
from repro.calib import CalibrationModel, Observation
from repro.campaign import Budget, CampaignPlanner, CampaignSpec
from repro.cost import MachineCostModel, machine_name
from repro.cost.model import resolve_machine
from repro.exec import Scheduler


def fit(scale_ptcn: float = 3.0, scale_rk4: float = 1.0) -> CalibrationModel:
    return CalibrationModel.fit(
        [
            Observation(machine="summit", propagator="ptcn",
                        predicted_seconds=1.0, observed_seconds=scale_ptcn),
            Observation(machine="summit", propagator="rk4",
                        predicted_seconds=1.0, observed_seconds=scale_rk4),
        ]
    )


class TestCalibratedScheduler:
    @staticmethod
    def spec(tiny_config) -> SweepSpec:
        return SweepSpec(
            tiny_config,
            {"basis.ecut": [1.5, 2.0], "propagator.name": ["ptcn", "ptcn"]},
            mode="zip",
        )

    def test_scheduler_stamps_identity_and_reprices(self, tiny_config):
        model = MachineCostModel(system=resolve_machine("summit"))
        cold = Scheduler(policy="makespan_balanced", machine=model)
        warm = Scheduler(policy="makespan_balanced", machine=model, calibration=fit(3.0))
        cold_groups = cold.schedule(self.spec(tiny_config).groups())
        warm_groups = warm.schedule(self.spec(tiny_config).groups())
        for before, after in zip(cold_groups, warm_groups):
            assert before.machine == after.machine == "summit"
            assert before.propagator == after.propagator == "ptcn"
            assert before.n_bands and before.n_grid
            # the model's predictions stay the model's: they are what
            # observations pair with reality
            assert after.predicted_seconds == before.predicted_seconds
            assert after.predicted_energy_j == before.predicted_energy_j
            # planning reads the re-priced seconds, and joules follow them
            assert after.repriced_seconds == pytest.approx(3.0 * before.predicted_seconds)
            assert after.metric_value("seconds") == pytest.approx(3.0 * before.metric_value("seconds"))
            assert after.metric_value("energy") == pytest.approx(3.0 * before.metric_value("energy"))

    def test_calibration_rescales_time_not_work_or_slice(self, tiny_config):
        base = MachineCostModel(system=resolve_machine("summit"))
        (cold,) = Scheduler(machine=base).schedule(
            SweepSpec(tiny_config, {"run.machine": [{"gpus_per_group": 6}]}).groups()
        )
        (warm,) = Scheduler(machine=base, calibration=fit(scale_ptcn=3.0)).schedule(
            SweepSpec(tiny_config, {"run.machine": [{"gpus_per_group": 6}]}).groups()
        )
        assert warm.planned_seconds == pytest.approx(3.0 * cold.planned_seconds)
        assert warm.metric_value("energy") == pytest.approx(3.0 * cold.predicted_energy_j)
        assert warm.predicted_cost == cold.predicted_cost
        assert warm.n_gpus == cold.n_gpus == 6
        system = base.system
        assert system.nodes_for_gpus(warm.n_gpus) == system.nodes_for_gpus(cold.n_gpus)

    @pytest.mark.parametrize("identity", [None, CalibrationModel()], ids=["none", "empty"])
    def test_identity_calibrations_stamp_nothing(self, tiny_config, identity):
        model = MachineCostModel(system=resolve_machine("summit"))
        cold = Scheduler(policy="makespan_balanced", machine=model).schedule(self.spec(tiny_config).groups())
        same = Scheduler(policy="makespan_balanced", machine=model, calibration=identity).schedule(
            self.spec(tiny_config).groups()
        )
        assert [g.as_dict() for g in same] == [g.as_dict() for g in cold]
        assert all(g.as_dict()["repriced_seconds"] is None for g in same)

    def test_machine_name_round_trip(self):
        system = resolve_machine("summit")
        assert machine_name(system) == "summit"
        assert machine_name(object()) is None


class TestCalibratedPlanner:
    def test_calibration_scales_plan_predictions_and_records_provenance(
        self, tiny_config
    ):
        spec = CampaignSpec(
            {"dt": SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})},
            budget=Budget(max_ranks=1),
        )
        options = dict(
            machines=["summit"], rank_options=(1,), policies=("makespan_balanced",)
        )
        cold_plan = CampaignPlanner(spec, **options).plan()
        warm_plan = CampaignPlanner(spec, calibration=fit(3.0), **options).plan()

        # ptcn-only campaign under a 3x ptcn scale: the whole wall triples
        # (and energy with it), while node occupancy is untouched
        assert warm_plan.predicted_wall_seconds == pytest.approx(
            3.0 * cold_plan.predicted_wall_seconds
        )
        assert warm_plan.predicted_nodes == cold_plan.predicted_nodes

        assert "calibration" not in cold_plan.as_dict()
        record = warm_plan.as_dict()["calibration"]
        assert record["n_observations"] == 2
        assert CalibrationModel.from_dict(record) == fit(3.0)

        assert "uncalibrated" in cold_plan.plan_table()
        assert "calibrated from 2 obs" in warm_plan.plan_table()
