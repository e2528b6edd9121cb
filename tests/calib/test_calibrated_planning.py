"""Calibration threaded through the cost model, scheduler and planner."""

from __future__ import annotations

import pytest

from repro.batch import SweepSpec
from repro.calib import CalibrationModel, Observation
from repro.campaign import Budget, CampaignPlanner, CampaignSpec
from repro.cost import CalibratedCostModel, MachineCostModel, machine_name
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


class TestCalibratedCostModel:
    def test_calibrated_rescales_seconds_and_energy_not_flops(self, tiny_config):
        base = MachineCostModel(system=resolve_machine("summit"))
        calibrated = base.calibrated(fit(scale_ptcn=3.0))
        assert isinstance(calibrated, CalibratedCostModel)
        cold = base.job_estimate(tiny_config)  # tiny_config runs ptcn
        warm = calibrated.job_estimate(tiny_config)
        assert warm.seconds == pytest.approx(3.0 * cold.seconds)
        assert warm.energy_joules == pytest.approx(3.0 * cold.energy_joules)
        assert warm.flops == cold.flops
        assert warm.n_gpus == cold.n_gpus and warm.nodes == cold.nodes

    def test_identity_calibrations_return_self(self):
        base = MachineCostModel(system=resolve_machine("summit"))
        assert base.calibrated(None) is base
        assert base.calibrated(CalibrationModel()) is base

    def test_machine_name_round_trip(self):
        system = resolve_machine("summit")
        assert machine_name(system) == "summit"
        assert machine_name(object()) is None


class TestCalibratedScheduler:
    def test_scheduler_stamps_identity_and_reprices(self, tiny_config):
        spec = SweepSpec(
            tiny_config,
            {"basis.ecut": [1.5, 2.0], "propagator.name": ["ptcn", "ptcn"]},
            mode="zip",
        )
        model = MachineCostModel(system=resolve_machine("summit"))
        cold = Scheduler(policy="makespan_balanced", machine=model)
        warm = Scheduler(policy="makespan_balanced", machine=model, calibration=fit(3.0))
        cold_groups = cold.schedule(spec.groups())
        warm_groups = warm.schedule(spec.groups())
        for before, after in zip(cold_groups, warm_groups):
            assert before.machine == after.machine == "summit"
            assert before.propagator == after.propagator == "ptcn"
            assert before.n_bands and before.n_grid
            assert after.predicted_seconds == pytest.approx(
                3.0 * before.predicted_seconds
            )


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
