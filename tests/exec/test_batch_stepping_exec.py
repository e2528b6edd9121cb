"""Lockstep stepping through the execution stack: backends, settings, identity.

Every backend runs a group through :func:`~repro.exec.backends.execute_group`,
which always advances the group's uncached jobs in lockstep. ``precision`` is
threaded from ``run.schedule`` / :class:`~repro.exec.ExecutionSettings`
through every backend; ``batch_stepping`` is still accepted, validated and
round-tripped there but selects nothing. Invariants:

* physics exports do not depend on the inert flag or the backend
  (``to_json()``);
* both settings are execution-only for job identity: ``config_hash`` and
  group keys ignore them, so a warm store re-run under different settings is
  served 100 % from cache with zero propagation steps;
* a group reads each job from the store exactly once, and a failing job of a
  lockstep group is attributed to itself, after its predecessors were
  checkpointed; the width-1 fallback that does the attributing is warned
  about with the group's job ids and noted in the report's execution section
  (and only there, and only when it fired);
* process-pool workers cap FFT threading at 1 (the pool owns the cores);
* the scheduler's cost model amortizes multi-job groups.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.batch import BatchRunner, SweepSpec
from repro.batch.sweep import config_hash
from repro.exec import ExecutionSettings, Scheduler, execute_group
from repro.perf.sweep_cost import (
    BATCH_STEPPING_EFFICIENCY,
    predict_group_cost,
    predict_job_cost,
    predict_scf_cost,
)
from repro.store import ResultStore

BATCHED = ExecutionSettings(batch_stepping=True)


@pytest.fixture()
def dt_spec(tiny_config):
    """Four jobs, one ground-state group: a dt sweep crossed with ptcn/rk4."""
    return SweepSpec(
        tiny_config,
        {"run.time_step_as": [1.0, 2.0], "propagator.name": ["ptcn", "rk4"]},
    )


class TestBitIdentity:
    def test_batched_sweep_exports_are_bit_identical(self, dt_spec):
        solo = BatchRunner(dt_spec).run()
        batched = BatchRunner(dt_spec, settings=BATCHED).run()
        assert [r.status for r in batched.results] == ["completed"] * 4
        assert batched.to_json() == solo.to_json()

    def test_process_pool_batched_sweep_matches_serial(self, tiny_config):
        # two ground-state groups so the pool actually forks; inside each
        # worker the group steps in lockstep with FFT threads capped at 1
        spec = SweepSpec(
            tiny_config,
            {"system.params.box": [8.0, 8.5], "run.time_step_as": [1.0, 2.0]},
        )
        serial = BatchRunner(spec).run()
        pooled = BatchRunner(
            spec, settings=ExecutionSettings(backend="process", batch_stepping=True, max_workers=2)
        ).run()
        assert pooled.to_json() == serial.to_json()


class TestIdentityExclusion:
    def test_config_hash_ignores_batching_and_precision(self, tiny_config):
        flagged = tiny_config.with_overrides(
            {"run.schedule": {"batch_stepping": True, "precision": "complex64"}}
        )
        assert config_hash(flagged) == config_hash(tiny_config)

    def test_warm_store_rerun_under_batching_is_all_cache_hits(
        self, dt_spec, tmp_path, count_propagation_steps
    ):
        store = ResultStore(tmp_path / "store")
        warm = BatchRunner(dt_spec, store=store).run()
        assert [r.status for r in warm.results] == ["completed"] * 4

        steps_before_rerun = len(count_propagation_steps)
        rerun = BatchRunner(dt_spec, store=store, settings=BATCHED).run()
        assert [r.status for r in rerun.results] == ["cached"] * 4
        assert rerun.execution["store"]["hits"] == 4
        # zero propagation steps: the flip changed execution settings only,
        # so job identity (and therefore every cache key) was untouched
        assert count_propagation_steps[steps_before_rerun:] == []


class TestOneStoreReadPerJob:
    def test_cold_group_misses_once_and_warm_group_hits_once_per_job(
        self, dt_spec, tmp_path, monkeypatch
    ):
        """``execute_group`` reads each job of a group from the store exactly
        once: N ``load`` calls and N ledger misses cold, N hits warm (the
        warm path's reads are digest-verified, so a second read per job would
        double its cost)."""
        loads = []
        original = ResultStore.load

        def counting(self, job, *args, **kwargs):
            loads.append(job.job_id)
            return original(self, job, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "load", counting)
        (jobs,) = dt_spec.groups().values()

        cold = BatchRunner(dt_spec, store=tmp_path / "store", settings=BATCHED)
        assert [r.status for r in cold.run().results] == ["completed"] * 4
        assert sorted(loads) == sorted(job.job_id for job in jobs)
        assert (cold.store.stats["hits"], cold.store.stats["misses"]) == (0, 4)

        del loads[:]
        warm = BatchRunner(dt_spec, store=tmp_path / "store", settings=BATCHED)
        assert [r.status for r in warm.run().results] == ["cached"] * 4
        assert sorted(loads) == sorted(job.job_id for job in jobs)
        assert (warm.store.stats["hits"], warm.store.stats["misses"]) == (4, 0)


class TestFailureAttribution:
    """A lockstep group with one job that raises: the exception falls through
    to per-job width-1 runs, so the failure lands on the job that raised."""

    @pytest.fixture()
    def jobs(self, tiny_config):
        """Three jobs of one group; the middle one's propagator rejects its params."""
        spec = SweepSpec(
            tiny_config,
            {
                "propagator": [
                    {"name": "ptcn", "params": {}},
                    {"name": "ptcn", "params": {"scf_tolerance": -1.0}},
                    {"name": "rk4", "params": {}},
                ]
            },
            mode="zip",
        )
        (jobs,) = spec.groups().values()
        return jobs

    @staticmethod
    def _assert_computes_what_it_computes_alone(result, job):
        (alone,) = execute_group([job], None, raise_on_error=True)
        for column in alone.trajectory._ARRAY_FIELDS:
            assert np.array_equal(
                getattr(result.trajectory, column), getattr(alone.trajectory, column), equal_nan=True
            ), column
        assert np.array_equal(
            result.trajectory.final_wavefunction.coefficients,
            alone.trajectory.final_wavefunction.coefficients,
        )

    def test_failure_is_recorded_for_the_job_that_raised(self, jobs):
        with pytest.warns(UserWarning, match="fell back to width-1 runs: ValueError"):
            results = execute_group(jobs, None, raise_on_error=False)
        assert [r.status for r in results] == ["completed", "failed", "completed"]
        assert [r.job_id for r in results] == [job.job_id for job in jobs]
        assert "scf_tolerance" in results[1].error
        # the survivors are what their one-job groups compute, bit for bit
        for index in (0, 2):
            self._assert_computes_what_it_computes_alone(results[index], jobs[index])

    def test_a_diverging_job_fails_by_name_and_alone(self, tiny_config, monkeypatch):
        """A NaN injected into the field of the second job of a width-2 PT-CN
        stack (the group's third job; an RK4 job steps in a stack of its
        own): the lockstep step fails by name, not in PT-CN's Cholesky
        factorisation, naming the group's job rather than the stack row; the
        width-1 fallback records the failure on that job, and the other jobs
        compute what they compute alone."""
        from repro.pw.laser import GaussianLaserPulse

        pulse = {"amplitude": 0.004, "omega": 0.35, "t0_as": 2.0, "sigma_as": 2.0}
        config = tiny_config.with_overrides({"laser": {"pulse": "gaussian", "params": pulse}})
        spec = SweepSpec(
            config,
            {"propagator.name": ["ptcn", "rk4", "ptcn"], "laser.params.amplitude": [0.004, 0.005, 0.006]},
            mode="zip",
        )
        (jobs,) = spec.groups().values()
        field = GaussianLaserPulse.field
        monkeypatch.setattr(
            GaussianLaserPulse,
            "field",
            lambda pulse, t: float("nan") if pulse.amplitude == 0.006 and t > 0 else field(pulse, t),
        )
        with np.errstate(invalid="ignore"), pytest.warns(
            UserWarning, match="fell back to width-1 runs: DivergedStepError: job 2 diverged"
        ):
            results = execute_group(jobs, None, raise_on_error=False)
        assert [r.status for r in results] == ["completed", "completed", "failed"]
        assert results[2].error.startswith("DivergedStepError: job 0 diverged in the step from t = 0 a.u.")
        for index in (0, 1):
            self._assert_computes_what_it_computes_alone(results[index], jobs[index])

    def test_raise_on_error_checkpoints_the_jobs_before_the_failure(self, jobs, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.warns(UserWarning, match="fell back"), pytest.raises(ValueError, match="scf_tolerance"):
            execute_group(jobs, store, raise_on_error=True)
        assert [store.has(job) for job in jobs] == [True, False, False]
        # the resume serves the first job from its checkpoint
        with pytest.warns(UserWarning, match="fell back"):
            resumed = execute_group(jobs, store, raise_on_error=False)
        assert [r.status for r in resumed] == ["cached", "failed", "completed"]

    def test_fallback_names_the_jobs_and_lands_in_the_execution_section(self, jobs, dt_spec):
        ids = [job.job_id for job in jobs]
        notes: list[str] = []
        with pytest.warns(UserWarning) as caught:
            execute_group(jobs, None, raise_on_error=False, notes=notes)
        (warning,) = caught
        assert notes == [str(warning.message)]
        assert all(job_id in notes[0] for job_id in ids)
        assert "ValueError: scf_tolerance must be positive" in notes[0]

        spec = SweepSpec(jobs[0].config, {"propagator": [job.config.to_dict()["propagator"] for job in jobs]})
        with pytest.warns(UserWarning, match="fell back"):
            degraded = BatchRunner(spec).run()
        (group,) = degraded.execution["groups"]
        assert group["notes"] == notes
        # a healthy run has no such key, in the execution section or anywhere else
        healthy = BatchRunner(dt_spec).run()
        assert all("notes" not in group for group in healthy.execution["groups"])
        assert "fell back" not in healthy.to_json() + json.dumps(healthy.execution)
        # the survivors' physics is what a healthy group of the two computes
        survivors = SweepSpec(jobs[0].config, {"propagator": [spec.axes["propagator"][0], spec.axes["propagator"][2]]})
        expected = BatchRunner(survivors).run().results
        for index, reference in zip((0, 2), expected):
            assert np.array_equal(degraded.results[index].trajectory.energies, reference.trajectory.energies)
            assert degraded.results[index].error is None

    def test_pool_worker_returns_the_note_to_the_parent(self, jobs):
        from repro.exec.backends import _run_group_worker

        with pytest.warns(UserWarning, match="fell back"):
            dicts, notes, seconds = _run_group_worker((jobs, None, False, "complex128"))
        assert [d["status"] for d in dicts] == ["completed", "failed", "completed"]
        assert len(notes) == 1 and jobs[1].job_id in notes[0]
        assert seconds > 0.0  # the group's wall, for the parent's ledger


class TestSettingsPlumbing:
    def test_settings_validate_the_new_fields(self):
        with pytest.raises(ValueError, match="batch_stepping"):
            ExecutionSettings(batch_stepping="yes")
        with pytest.raises(ValueError, match="precision"):
            ExecutionSettings(precision="float32")

    def test_round_trip_includes_the_new_fields(self):
        settings = ExecutionSettings(batch_stepping=True, precision="complex64")
        data = settings.as_dict()
        assert data["batch_stepping"] is True and data["precision"] == "complex64"
        assert ExecutionSettings(**data) == settings

    def test_from_config_reads_run_schedule(self, tiny_config):
        config = tiny_config.with_overrides(
            {"run.schedule": {"policy": "cheapest_first", "batch_stepping": True,
                              "precision": "complex64"}}
        )
        settings = ExecutionSettings.from_config(config)
        assert settings.schedule == "cheapest_first"
        assert settings.batch_stepping is True
        assert settings.precision == "complex64"

    def test_run_config_validates_the_new_schedule_keys(self, tiny_config):
        from repro.api.config import ConfigError

        with pytest.raises(ConfigError, match="batch_stepping"):
            tiny_config.with_overrides({"run.schedule": {"batch_stepping": "yes"}})
        with pytest.raises(ConfigError, match="precision"):
            tiny_config.with_overrides({"run.schedule": {"precision": "single"}})
        with pytest.raises(ConfigError, match="unknown key"):
            tiny_config.with_overrides({"run.schedule": {"batching": True}})
        flagged = tiny_config.with_overrides(
            {"run.schedule": {"batch_stepping": True, "precision": "complex64"}}
        )
        flagged_settings = ExecutionSettings.from_config(flagged)
        assert flagged_settings.batch_stepping is True
        assert flagged_settings.precision == "complex64"
        plain_settings = ExecutionSettings.from_config(tiny_config)
        assert plain_settings.batch_stepping is False
        assert plain_settings.precision == "complex128"


class TestCostAmortization:
    def test_batched_groups_predict_cheaper(self, tiny_config):
        """A width-4 group predicts cheaper than four width-1 groups'
        propagation: the lockstep saving applies to every multi-job group."""
        scf = predict_scf_cost(tiny_config)
        four_alone = 4 * (predict_group_cost([tiny_config]) - scf)
        together = predict_group_cost([tiny_config] * 4) - scf
        assert together < four_alone
        assert together == pytest.approx(four_alone * (1 - BATCH_STEPPING_EFFICIENCY * 3 / 4))
        # the shared-SCF term is unaffected and width 1 gets no discount
        assert predict_group_cost([tiny_config]) == pytest.approx(
            scf + predict_job_cost(tiny_config)
        )
        assert predict_group_cost([]) == 0.0
        assert 0 < BATCH_STEPPING_EFFICIENCY < 1

    def test_scheduler_uses_the_amortized_model(self, dt_spec):
        (jobs,) = dt_spec.groups().values()
        unamortized = predict_scf_cost(jobs[0].config) + sum(
            predict_job_cost(job.config) for job in jobs
        )
        settings = ExecutionSettings(batch_stepping=True)
        for scheduler in (Scheduler(machine=None), Scheduler(machine=settings.machine_model())):
            predicted = scheduler.predict_cost(jobs)
            assert predicted == predict_group_cost([job.config for job in jobs])
            assert predicted < unamortized
