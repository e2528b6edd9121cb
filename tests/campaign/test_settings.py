"""ExecutionSettings: validation, config resolution, identity preservation,
and the BatchRunner redesign around it (settings= is the only path).
"""

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.api import SimulationConfig
from repro.batch import BatchRunner, SweepSpec, config_hash
from repro.cost import MACHINES, MachineCostModel, NodePlacement
from repro.exec import BACKEND_NAMES, ExecutionSettings, Scheduler


class TestValidation:
    def test_defaults_are_the_pre_settings_defaults(self):
        settings = ExecutionSettings()
        assert settings.backend == "serial"
        assert settings.ranks == 4
        assert settings.schedule == "fifo"
        assert settings.machine == "summit"
        assert settings.gpus_per_group == 1
        assert settings.max_workers is None

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ValueError, match="serial.*process.*distributed"):
            ExecutionSettings(backend="threads")

    @pytest.mark.parametrize("ranks", [0, -1, 1.5, True])
    def test_bad_ranks_rejected(self, ranks):
        with pytest.raises(ValueError, match="ranks"):
            ExecutionSettings(ranks=ranks)

    def test_unknown_schedule_lists_policies(self):
        with pytest.raises(ValueError, match="fifo.*makespan_balanced"):
            ExecutionSettings(schedule="random")

    def test_unknown_machine_lists_presets(self):
        with pytest.raises(ValueError, match="frontier.*summit"):
            ExecutionSettings(machine="perlmutter")

    @pytest.mark.parametrize("gpus", [0, -2, 1.5, True])
    def test_bad_gpus_per_group_rejected(self, gpus):
        with pytest.raises(ValueError, match="gpus_per_group"):
            ExecutionSettings(gpus_per_group=gpus)

    def test_bad_max_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            ExecutionSettings(max_workers=0)

    def test_integral_floats_coerced_for_legacy_and_json_paths(self):
        """The pre-settings BatchRunner accepted ranks=4.0 and JSON-sourced
        settings dicts carry floats; both must keep working."""
        settings = ExecutionSettings(backend="distributed", ranks=4.0, gpus_per_group=2.0)
        assert settings.ranks == 4 and isinstance(settings.ranks, int)
        assert settings.gpus_per_group == 2 and isinstance(settings.gpus_per_group, int)


class TestResolution:
    def test_from_config_reads_schedule_and_machine_sections(self):
        config = SimulationConfig.from_dict(
            {
                "run": {
                    "schedule": {"policy": "energy_aware"},
                    "machine": {"name": "frontier", "gpus_per_group": 8},
                }
            }
        )
        settings = ExecutionSettings.from_config(config)
        assert settings.schedule == "energy_aware"
        assert settings.machine == "frontier"
        assert settings.gpus_per_group == 8
        assert settings.backend == "serial"  # not a config concern: default

    def test_explicit_arguments_override_the_config(self):
        config = SimulationConfig.from_dict({"run": {"schedule": {"policy": "energy_aware"}}})
        settings = ExecutionSettings.resolve(config, backend="distributed", ranks=2, schedule="fifo")
        assert settings.backend == "distributed"
        assert settings.ranks == 2
        assert settings.schedule == "fifo"

    def test_none_arguments_fall_through_to_the_config(self):
        config = SimulationConfig.from_dict({"run": {"schedule": {"policy": "cheapest_first"}}})
        settings = ExecutionSettings.resolve(config, backend=None, schedule=None)
        assert settings.schedule == "cheapest_first"
        assert settings.backend == "serial"

    def test_round_trip_and_replace(self):
        settings = ExecutionSettings(backend="distributed", ranks=8, machine="frontier")
        assert ExecutionSettings.from_dict(settings.as_dict()) == settings
        assert settings.replace(ranks=2).ranks == 2
        with pytest.raises(ValueError, match="unknown ExecutionSettings key"):
            ExecutionSettings.from_dict({"backend": "serial", "bogus": 1})
        with pytest.raises(ValueError, match="ranks"):
            settings.replace(ranks=0)


class TestDescribedObjects:
    def test_machine_model_follows_the_preset(self):
        model = ExecutionSettings(machine="frontier", gpus_per_group=8).machine_model()
        assert isinstance(model, MachineCostModel)
        assert model.system is MACHINES["frontier"]
        assert model.gpus_per_group == 8
        # the roofline follows the preset's own accelerator
        assert model.gpu_model.gpu is MACHINES["frontier"].node.gpu

    def test_machine_none_disables_the_model(self):
        settings = ExecutionSettings(machine=None, backend="distributed")
        assert settings.machine_model() is None
        assert settings.placement() is None
        assert settings.scheduler().machine is None

    def test_placement_only_for_the_distributed_backend(self):
        assert ExecutionSettings(backend="serial").placement() is None
        placement = ExecutionSettings(backend="distributed", ranks=8, machine="frontier").placement()
        assert isinstance(placement, NodePlacement)
        assert placement.n_ranks == 8
        assert placement.ranks_per_node == 8  # frontier: one rank per GCD

    def test_scheduler_carries_policy_and_machine(self):
        scheduler = ExecutionSettings(schedule="makespan_balanced").scheduler()
        assert isinstance(scheduler, Scheduler)
        assert scheduler.policy == "makespan_balanced"
        assert scheduler.machine.system is MACHINES["summit"]


class TestIdentityPreservation:
    """Settings must never touch what a job computes: group keys, job ids and
    config hashes are invariant under any settings stamping."""

    @given(
        machine=st.sampled_from(sorted(MACHINES)),
        gpus=st.integers(min_value=1, max_value=8),
        policy=st.sampled_from(["fifo", "cheapest_first", "makespan_balanced", "energy_aware"]),
        ranks=st.integers(min_value=1, max_value=16),
    )
    @hyp_settings(max_examples=20, deadline=None)
    def test_apply_to_leaves_job_identity_untouched(self, machine, gpus, policy, ranks):
        config = SimulationConfig.from_dict({"basis": {"ecut": 2.0}})
        spec = SweepSpec(config, {"basis.ecut": [1.5, 2.0], "run.time_step_as": [1.0, 2.0]})
        settings = ExecutionSettings(
            backend="serial" if ranks == 1 else "distributed",
            ranks=ranks,
            schedule=policy,
            machine=machine,
            gpus_per_group=gpus,
        )
        stamped = settings.apply_to(spec)
        assert stamped.base.run.machine_name == machine
        assert stamped.base.run.schedule_policy == policy
        for original, restamped in zip(spec.expand(), stamped.expand()):
            assert original.job_id == restamped.job_id
            assert original.group_key == restamped.group_key
            assert config_hash(original.config) == config_hash(restamped.config)


class TestBatchRunnerRedesign:
    def test_settings_object_is_the_first_class_path(self, tiny_config, recwarn):
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        settings = ExecutionSettings(backend="distributed", ranks=2, schedule="makespan_balanced")
        runner = BatchRunner(spec, settings=settings)
        assert runner.settings is settings
        assert runner.backend == "distributed"
        assert runner.ranks == 2
        assert runner.schedule == "makespan_balanced"
        assert not [w for w in recwarn.list if issubclass(w.category, DeprecationWarning)]

    def test_settings_accepts_the_dict_form(self, tiny_config):
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0]})
        runner = BatchRunner(spec, settings={"backend": "process", "max_workers": 2})
        assert runner.backend == "process"
        assert runner.max_workers == 2

    def test_settings_default_resolves_from_the_config(self, tiny_config, recwarn):
        config = tiny_config.with_overrides(
            {"run.schedule": {"policy": "energy_aware"}, "run.machine": {"name": "frontier"}}
        )
        runner = BatchRunner(SweepSpec(config, {"run.time_step_as": [1.0]}))
        assert runner.settings.schedule == "energy_aware"
        assert runner.settings.machine == "frontier"
        assert runner.machine.system is MACHINES["frontier"]
        assert not [w for w in recwarn.list if issubclass(w.category, DeprecationWarning)]

    def test_legacy_keywords_are_a_type_error(self, tiny_config):
        # the pre-settings keywords are gone, not deprecated: settings= is the
        # one way to say where and how a sweep runs
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        legacy = {"backend": "serial", "ranks": 2, "schedule": "fifo", "max_workers": 2}
        for name, value in legacy.items():
            with pytest.raises(TypeError, match=name):
                BatchRunner(spec, **{name: value})

    def test_settings_and_legacy_keywords_are_mutually_exclusive(self, tiny_config):
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0]})
        with pytest.raises(TypeError, match="ranks"):
            BatchRunner(spec, settings=ExecutionSettings(), ranks=2)

    def test_backend_names_reexported_for_compat(self):
        from repro.batch.runner import BACKEND_NAMES as runner_names

        assert runner_names is BACKEND_NAMES
        assert runner_names == ("serial", "process", "distributed")

    def test_report_records_the_settings_it_ran_under(self, tiny_config):
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        settings = ExecutionSettings(backend="distributed", ranks=2, machine="frontier")
        report = BatchRunner(spec, settings=settings).run()
        assert report.settings == settings.as_dict()
        data = report.to_dict()
        assert data["settings"] == settings.as_dict()
        # ... but never in the deterministic physics export
        assert "settings" not in report.to_dict(exclude_timings=True)
