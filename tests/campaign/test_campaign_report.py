"""End-to-end campaigns: plan → execute → report, round-trips, resume, and the
bit-identical-physics acceptance criterion.
"""

import json

import numpy as np
import pytest

from repro.api import PROPAGATORS
from repro.batch import BatchRunner, SweepSpec, config_hash
from repro.campaign import Budget, CampaignReport, CampaignSpec, plan, run
from repro.store import ResultStore


@pytest.fixture()
def small_campaign(tiny_config) -> CampaignSpec:
    """Two tiny sweeps (2 cutoff groups + 1 dt group, 4 jobs total)."""
    return CampaignSpec(
        {
            "cutoff": SweepSpec(tiny_config, {"basis.ecut": [1.5, 2.0]}),
            "dt": SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]}),
        },
        budget=Budget(max_ranks=2),
    )


class TestExecution:
    def test_plan_execute_report_lifecycle(self, small_campaign):
        execution_plan = plan(small_campaign)
        report = execution_plan.execute()
        assert report.sweep_names == ["cutoff", "dt"]
        assert report.n_jobs == 4
        assert report.ok and report.n_failed == 0
        for name in report.sweep_names:
            assert [r.status for r in report[name]] == ["completed"] * 2
            # every sweep report records the planner-chosen settings
            assert report[name].settings == execution_plan.settings.as_dict()
        table = report.plan_table()
        assert "cutoff" in table and "predicted wall [s]" in table
        with pytest.raises(KeyError, match="unknown sweep"):
            report["nope"]

    def test_physics_bit_identical_to_hand_configured_runner(self, small_campaign):
        """Acceptance: planner-driven execution exports exactly the physics a
        hand-configured BatchRunner produces for the same sweeps."""
        report = plan(small_campaign).execute()
        for name, spec in small_campaign.sweeps.items():
            hand = BatchRunner(spec).run()
            assert report[name].to_json(exclude_timings=True) == hand.to_json(exclude_timings=True)
            for planned, manual in zip(report[name], hand):
                assert planned.job_id == manual.job_id
                np.testing.assert_array_equal(
                    planned.trajectory.energies, manual.trajectory.energies
                )

    @pytest.mark.parametrize("precision", ["complex128", "complex64"])
    def test_precision_tier_is_the_runners_through_the_service_path(
        self, small_campaign, tmp_path, precision
    ):
        """The settings' precision tier reaches the physics through
        ExecutionPlan.execute / run_sweep exactly as through BatchRunner: the
        screening tier is stamped on every result and never touches the
        store; either tier agrees with the hand-configured runner."""
        execution_plan = plan(small_campaign)
        execution_plan.settings = execution_plan.settings.replace(precision=precision)
        store = ResultStore(tmp_path / "store")
        report = execution_plan.execute(store)
        assert report.ok
        for name, spec in small_campaign.sweeps.items():
            hand = BatchRunner(spec, settings=execution_plan.settings).run()
            assert report[name].settings["precision"] == precision
            assert report[name].to_json(exclude_timings=True) == hand.to_json(exclude_timings=True)
            for planned, manual in zip(report[name], hand):
                assert planned.job_id == manual.job_id
                assert planned.summary.get("precision") == manual.summary.get("precision")
                if precision == "complex64":
                    assert planned.summary["precision"] == "complex64"
                np.testing.assert_array_equal(
                    planned.trajectory.energies, manual.trajectory.energies
                )
        jobs = [job for spec in small_campaign.sweeps.values() for job in spec.expand()]
        stored = 0 if precision == "complex64" else len({config_hash(j.config) for j in jobs})
        assert len(list(store.manifests_dir.glob("job-*.json"))) == stored

    def test_run_facade_plans_and_executes(self, small_campaign):
        report = run(small_campaign)
        assert report.ok
        assert report.settings["ranks"] <= 2  # the campaign's own budget applied

    def test_run_facade_is_incremental_through_store(
        self, small_campaign, tmp_path, count_scf_solves, count_propagation_steps
    ):
        cold = run(small_campaign, store=tmp_path)
        assert cold.ok and count_scf_solves and count_propagation_steps
        count_scf_solves.clear()
        count_propagation_steps.clear()
        warm = run(small_campaign, small_campaign.budget, store=tmp_path)
        assert warm.n_cached == warm.n_jobs == 4
        assert count_scf_solves == [] and count_propagation_steps == []
        for name in cold.sweep_names:
            assert warm[name].to_json(exclude_timings=True) == cold[name].to_json(
                exclude_timings=True
            )

    def test_campaign_checkpoints_resume_per_sweep(self, small_campaign, tmp_path, count_scf_solves):
        execution_plan = plan(small_campaign)
        execution_plan.execute(tmp_path)
        first_scfs = len(count_scf_solves)
        # one shared store root, no per-sweep directories: the dt group is the
        # cutoff sweep's ecut=2.0 ground state and adopts it (2 SCFs, not 3)
        assert first_scfs == 2
        assert not (tmp_path / "cutoff").exists() and not (tmp_path / "dt").exists()
        assert (tmp_path / "manifests").is_dir()

        resumed = execution_plan.execute(tmp_path)
        assert len(count_scf_solves) == first_scfs  # zero new SCFs
        for name in resumed.sweep_names:
            assert [r.status for r in resumed[name]] == ["cached"] * 2

    def test_from_plan_builds_the_equivalent_runner(self, small_campaign, tiny_config):
        execution_plan = plan(small_campaign)
        runner = BatchRunner.from_plan(execution_plan, "cutoff")
        assert runner.settings == execution_plan.settings
        with pytest.raises(ValueError, match="pass name="):
            BatchRunner.from_plan(execution_plan)  # two sweeps: ambiguous
        single = plan(SweepSpec(tiny_config, {"run.time_step_as": [1.0]}))
        assert BatchRunner.from_plan(single).spec.n_jobs == 1


class TestRoundTrips:
    def test_campaign_report_round_trips_through_json(self, small_campaign):
        report = plan(small_campaign).execute()
        rebuilt = CampaignReport.from_json(report.to_json())
        assert rebuilt.to_json() == report.to_json()
        assert rebuilt.sweep_names == report.sweep_names
        assert rebuilt.settings == report.settings
        for name in report.sweep_names:
            assert rebuilt.observed_wall_seconds(name) == report.observed_wall_seconds(name)

    def test_sweep_report_round_trips_with_settings_and_execution(self, small_campaign):
        report = plan(small_campaign).execute()["cutoff"]
        text = report.to_json(include_execution=True)
        rebuilt = type(report).from_json(text)
        assert rebuilt.to_json(include_execution=True) == text
        assert rebuilt.settings == report.settings
        assert rebuilt.execution == report.execution
        # and the deterministic export stays settings-free either way
        assert "settings" not in json.loads(rebuilt.to_json(exclude_timings=True))

    def test_loaders_reject_wrong_shapes(self):
        from repro.batch import SweepReport

        with pytest.raises(ValueError, match="jobs"):
            SweepReport.from_dict({"axes": []})
        with pytest.raises(ValueError, match="dict"):
            SweepReport.from_dict([1, 2])
        with pytest.raises(ValueError, match="sweeps"):
            CampaignReport.from_dict({"plan": {}})
        with pytest.raises(ValueError, match="ExecutionPlan"):
            CampaignReport("not-a-plan", {})


# ---------------------------------------------------------------------------
# Failure paths: campaigns with failed jobs and missing timings
# ---------------------------------------------------------------------------


@pytest.fixture()
def failing_campaign(tiny_config) -> CampaignSpec:
    """One healthy dt sweep plus one sweep whose second job always fails."""

    def explode(hamiltonian, **params):
        raise RuntimeError("simulated campaign-level crash")

    PROPAGATORS.register("campaign_exploding_prop", explode)
    yield CampaignSpec(
        {
            "dt": SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]}),
            "mixed": SweepSpec(
                tiny_config, {"propagator.name": ["ptcn", "campaign_exploding_prop"]}
            ),
        }
    )
    PROPAGATORS.unregister("campaign_exploding_prop")


class TestFailurePaths:
    def test_failed_jobs_are_counted_and_rendered(self, failing_campaign):
        report = plan(failing_campaign, machines=["summit"]).execute()
        assert not report.ok
        assert report.n_failed == 1
        assert report.n_jobs == 4
        assert [r.status for r in report["mixed"]] == ["completed", "failed"]
        table = report.plan_table()
        rows = table.splitlines()
        mixed_row = next(line for line in rows if line.startswith("mixed"))
        assert " 1 " in mixed_row  # the failed count shows in the table
        assert report.complete and report.pending_sweeps == []

    def test_failed_campaign_round_trips_through_json(self, failing_campaign):
        report = plan(failing_campaign, machines=["summit"]).execute()
        rebuilt = CampaignReport.from_json(report.to_json())
        assert rebuilt.to_json() == report.to_json()
        assert rebuilt.n_failed == report.n_failed == 1
        assert not rebuilt.ok
        failed = rebuilt["mixed"].failed[0]
        assert "RuntimeError" in failed.error and failed.trajectory is None
        for name in report.sweep_names:
            assert rebuilt.observed_wall_seconds(name) == report.observed_wall_seconds(name)

    def test_missing_elapsed_entries_are_tolerated(self, failing_campaign):
        executed = plan(failing_campaign, machines=["summit"]).execute()
        # a partially recorded campaign: one elapsed entry lost entirely
        report = CampaignReport(
            executed.plan,
            executed.reports,
            elapsed_seconds={"dt": executed.elapsed_seconds["dt"]},
        )
        assert report.plan_table()  # renders without the missing entry
        rebuilt = CampaignReport.from_json(report.to_json())
        assert rebuilt.elapsed_seconds == {"dt": executed.elapsed_seconds["dt"]}
        # and no elapsed record at all still round-trips
        bare = CampaignReport(executed.plan, executed.reports)
        assert CampaignReport.from_json(bare.to_json()).elapsed_seconds == {}

    def test_partial_report_renders_pending_sweeps_prediction_only(self, failing_campaign):
        executed = plan(failing_campaign, machines=["summit"]).execute()
        partial = CampaignReport(executed.plan, {"dt": executed.reports["dt"]})
        assert partial.planned_sweeps == ["dt", "mixed"]
        assert partial.pending_sweeps == ["mixed"]
        assert not partial.complete
        table = partial.plan_table()
        mixed_row = next(line for line in table.splitlines() if line.startswith("mixed"))
        assert "-" in mixed_row  # prediction-only: no observed wall yet
        assert "partial: 1 of 2 sweeps reported" in table
        with pytest.raises(KeyError, match="unknown sweep"):
            partial["mixed"]

    def test_malformed_per_rank_stats_degrade_to_summed_walls(self, small_campaign):
        """A crashed rank may leave its per-rank stats entry missing or not
        even a dict; the observed makespan must degrade to the summed job
        walls instead of raising mid-plan_table."""
        executed = plan(small_campaign).execute()
        report = executed["cutoff"]
        summed = sum(float(r.summary.get("wall_time") or 0.0) for r in report.results)

        for per_rank in ([], [None], [None, "not-a-dict"], None):
            report.execution["per_rank"] = per_rank
            assert executed.observed_wall_seconds("cutoff") == pytest.approx(summed)
            assert executed.plan_table()  # renders, never raises

        # partially-present stats still use the surviving rank entries
        report.execution["per_rank"] = [None, {"observed_seconds": 123.0}]
        assert executed.observed_wall_seconds("cutoff") == pytest.approx(123.0)


class TestDriftColumn:
    def test_drift_column_renders_observed_over_predicted(self, small_campaign):
        report = plan(small_campaign).execute()
        table = report.plan_table()
        assert "drift" in table.splitlines()[0]
        for name in report.sweep_names:
            row = next(
                line for line in table.splitlines() if line.startswith(name)
            )
            assert "x" in row  # some finite ratio rendered
        # uncalibrated plan: provenance says so in the footer
        assert "uncalibrated" in table

    def test_drift_cell_dashes_without_a_usable_prediction(self):
        from repro.campaign.report import _drift

        assert _drift(None, 1.0) == "-"
        assert _drift("-", 1.0) == "-"
        assert _drift(0.0, 1.0) == "-"
        assert _drift(2.0, -1.0) == "-"
        assert _drift(2.0, 5.0) == "2.5x"
