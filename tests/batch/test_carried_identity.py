"""A job's identity is a value computed at expansion and carried.

``SweepSpec.expand`` is the one place ``config_hash`` and
``ground_state_group_key`` run; every later reader (grouping, scheduling, the
store) reads ``SweepJob.config_hash`` / ``SweepJob.group_key``. That is only
sound if the spec and the configs are values: these tests pin the carried
fields against their definitions, the spec's immutability, and the read-only
``params`` of a config.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SimulationConfig
from repro.batch import SweepSpec, config_hash, ground_state_group_key

TINY = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "laser": {"pulse": "gaussian", "params": {"amplitude": 0.005, "omega": 0.35}},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}

#: axis path -> strategy of one value; together they touch identity the ways a
#: sweep can (ground-state fields, propagation-only fields, the laser, nested
#: params, a whole-section override and an execution-only field)
_AXES = {
    "basis.ecut": st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
    "run.time_step_as": st.floats(min_value=0.05, max_value=100.0, allow_nan=False),
    "laser.params.amplitude": st.floats(min_value=1e-4, max_value=0.1, allow_nan=False),
    "system.params.box": st.floats(min_value=6.0, max_value=12.0, allow_nan=False),
    "propagator": st.sampled_from(
        [{"name": "rk4", "params": {}}, {"name": "ptcn", "params": {"scf_tolerance": 1e-6}}]
    ),
    "run.schedule": st.sampled_from([{"policy": "fifo"}, {"policy": "cheapest_first"}]),
}


@st.composite
def _specs(draw):
    paths = draw(st.lists(st.sampled_from(sorted(_AXES)), min_size=0, max_size=3, unique=True))
    mode = draw(st.sampled_from(["product", "zip"]))
    length = draw(st.integers(min_value=1, max_value=3))
    axes = {
        path: draw(
            st.lists(
                _AXES[path],
                min_size=length if mode == "zip" else 1,
                max_size=length if mode == "zip" else 3,
            )
        )
        for path in paths
    }
    return SweepSpec(SimulationConfig.from_dict(TINY), axes, mode=mode)


@settings(max_examples=40, deadline=None)
@given(spec=_specs())
def test_carried_identity_is_the_definition(spec):
    jobs = spec.expand()
    assert len(jobs) == spec.n_jobs
    for job in jobs:
        assert job.config_hash == config_hash(job.config)
        assert job.group_key == ground_state_group_key(job.config)
        assert job.job_id == f"job{job.index:04d}-{job.config_hash}"
    # one expansion, however often it is asked for; and a spec built again
    # from the same values expands to equal jobs
    assert spec.expand() == jobs
    assert all(a is b for a, b in zip(spec.expand(), jobs))
    assert SweepSpec(spec.base, dict(spec.axes), mode=spec.mode).expand() == jobs
    # grouping reads the carried key: groups in order of first appearance,
    # members in expansion order
    grouped = spec.groups()
    assert list(grouped) == list(dict.fromkeys(job.group_key for job in jobs))
    for key, members in grouped.items():
        assert members == [job for job in jobs if job.group_key == key]


class TestSweepSpecIsAValue:
    def test_base_axes_and_mode_are_read_only(self):
        spec = SweepSpec(SimulationConfig.from_dict(TINY), {"basis.ecut": [1.5, 2.0]})
        for name, value in (("base", SimulationConfig()), ("axes", {}), ("mode", "zip")):
            with pytest.raises(AttributeError):
                setattr(spec, name, value)
        with pytest.raises(TypeError):
            spec.axes["basis.ecut"] = [9.0]
        assert spec.axes["basis.ecut"] == (1.5, 2.0)

    def test_the_callers_axes_are_copied_in(self):
        values = [{"time_step_as": 1.0, "n_steps": 2}, {"time_step_as": 2.0, "n_steps": 1}]
        axes = {"run": values}
        spec = SweepSpec(SimulationConfig.from_dict(TINY), axes)
        values[0]["n_steps"] = 99
        values.append({"time_step_as": 3.0, "n_steps": 1})
        axes["basis.ecut"] = [1.0]
        assert spec.n_jobs == 2 and spec.axis_paths == ["run"]
        assert [job.config.run.n_steps for job in spec.expand()] == [2, 1]

    def test_expand_hands_out_a_fresh_list_of_the_shared_jobs(self):
        spec = SweepSpec(SimulationConfig.from_dict(TINY), {"basis.ecut": [1.5, 2.0]})
        first = spec.expand()
        first.clear()
        groups = spec.groups()
        next(iter(groups.values())).clear()
        assert len(spec.expand()) == 2
        assert sum(len(jobs) for jobs in spec.groups().values()) == 2


class TestConfigsAreValues:
    @pytest.mark.parametrize("section", ["system", "laser", "propagator"])
    def test_params_cannot_be_edited_in_place(self, section):
        config = SimulationConfig.from_dict(TINY)
        params = getattr(config, section).params
        with pytest.raises(TypeError):
            params["box"] = 99.0
        with pytest.raises((TypeError, AttributeError)):
            params.update(box=99.0)

    def test_a_job_cannot_be_desynchronised_from_its_hash(self):
        (job,) = SweepSpec(SimulationConfig.from_dict(TINY)).expand()
        with pytest.raises(TypeError):
            job.config.system.params["box"] = 9.0
        assert job.config_hash == config_hash(job.config)

    def test_the_callers_dict_is_copied_in(self):
        data = copy.deepcopy(TINY)
        config = SimulationConfig.from_dict(data)
        before = config_hash(config)
        data["system"]["params"]["box"] = 12.0
        data["laser"]["params"]["amplitude"] = 1.0
        assert config.system.params["box"] == 8.0
        assert config_hash(config) == before

    def test_to_dict_is_an_independent_deep_copy(self):
        config = SimulationConfig.from_dict(
            {**TINY, "system": {"structure": "hydrogen_chain", "params": {"n_atoms": 4, "box": 7.0}}}
        )
        first, second = config.to_dict(), config.to_dict()
        assert first == second and type(first["system"]["params"]) is dict
        first["system"]["params"]["box"] = 1.0
        first["run"]["schedule"]["policy"] = "cheapest_first"
        assert second["system"]["params"]["box"] == 7.0 and second["run"]["schedule"] == {}
        assert config.to_dict() == second
        assert SimulationConfig.from_dict(second) == config

    def test_configs_and_jobs_survive_pickle_and_deepcopy(self):
        # process-pool workers receive whole jobs
        (job,) = SweepSpec(SimulationConfig.from_dict(TINY)).expand()
        for clone in (pickle.loads(pickle.dumps(job)), copy.deepcopy(job)):
            assert clone == job and clone.config == job.config
            assert clone.config_hash == config_hash(clone.config)
            with pytest.raises(TypeError):
                clone.config.laser.params["amplitude"] = 1.0

    def test_a_non_mapping_params_is_still_rejected(self):
        from repro.api import ConfigError

        with pytest.raises(ConfigError, match="system.params must be a dict"):
            SimulationConfig.from_dict({"system": {"params": [1, 2]}})
