"""Property tests pinning the store-key contract.

The whole store rests on :func:`repro.batch.sweep.config_hash` being a
*canonical* key: invariant under dict key order, dict-vs-SimulationConfig
input and JSON round-trips, blind to execution-only run fields, injective
over distinct physics, and equal for configs that compare ``==`` however
their numbers are spelled. Hypothesis hunts for counterexamples.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SimulationConfig
from repro.batch import SweepSpec
from repro.batch.sweep import config_hash, ground_state_group_key
from repro.store import ground_state_hash

#: tiny H2 base (mirrors the root conftest's TINY_API_DICT; restated so the
#: property tests stand alone)
TINY = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}

#: physically plausible axis values — the hash must behave over all of them
_dts = st.floats(min_value=0.05, max_value=200.0, allow_nan=False, allow_infinity=False)
_ecuts = st.floats(min_value=0.5, max_value=50.0, allow_nan=False, allow_infinity=False)


def _tiny_dict(dt: float = 1.0, ecut: float = 2.0) -> dict:
    data = json.loads(json.dumps(TINY))
    data["run"]["time_step_as"] = dt
    data["basis"]["ecut"] = ecut
    return data


@settings(max_examples=50, deadline=None)
@given(rnd=st.randoms(use_true_random=False), dt=_dts, ecut=_ecuts)
def test_key_is_invariant_under_dict_key_order(rnd, dt, ecut):
    data = _tiny_dict(dt, ecut)

    def shuffled(node):
        if not isinstance(node, dict):
            return node
        items = list(node.items())
        rnd.shuffle(items)
        return {key: shuffled(value) for key, value in items}

    assert config_hash(shuffled(data)) == config_hash(data)


@settings(max_examples=25, deadline=None)
@given(dt=_dts, ecut=_ecuts)
def test_config_object_and_its_dict_form_agree(dt, ecut):
    config = SimulationConfig.from_dict(_tiny_dict(dt, ecut))
    assert config_hash(config) == config_hash(config.to_dict())


@settings(max_examples=25, deadline=None)
@given(dt=_dts, ecut=_ecuts)
def test_key_survives_a_json_round_trip(dt, ecut):
    # manifests store the config as JSON text; floats must round-trip to the
    # same key or a rewritten manifest would orphan its own artifact
    data = SimulationConfig.from_dict(_tiny_dict(dt, ecut)).to_dict()
    assert config_hash(json.loads(json.dumps(data))) == config_hash(data)


@settings(max_examples=50, deadline=None)
@given(dt1=_dts, dt2=_dts)
def test_distinct_configs_get_distinct_keys(dt1, dt2):
    key1 = config_hash(_tiny_dict(dt=dt1))
    key2 = config_hash(_tiny_dict(dt=dt2))
    assert (key1 == key2) == (dt1 == dt2)


def test_execution_only_run_fields_do_not_change_the_key():
    base = _tiny_dict()
    noisy = json.loads(json.dumps(base))
    noisy["run"]["schedule"] = {"policy": "cheapest_first"}
    noisy["run"]["machine"] = {"name": "summit"}
    assert config_hash(noisy) == config_hash(base)


@settings(max_examples=50, deadline=None)
@given(key1=st.text(min_size=1, max_size=64), key2=st.text(min_size=1, max_size=64))
def test_ground_state_hash_is_stable_and_injective(key1, key2):
    assert ground_state_hash(key1) == ground_state_hash(key1)
    assert (ground_state_hash(key1) == ground_state_hash(key2)) == (key1 == key2)


#: every numeric field of a config with a gaussian pulse and PT-CN — the
#: dataclass fields and the ``params`` the registered factories declare —
#: with the integral values it may take, so each has an int spelling
_INTEGRAL_FIELDS = {
    "system.params.box": st.integers(6, 12),
    "system.params.bond_length": st.integers(1, 3),
    "basis.ecut": st.integers(1, 4),
    "basis.grid_factor": st.integers(1, 2),
    "xc.hybrid_mixing": st.integers(0, 1),
    "xc.screening_length": st.integers(1, 3),
    "xc.gs_hybrid_mixing": st.integers(0, 1),
    "laser.params.amplitude": st.integers(1, 3),
    "laser.params.omega": st.integers(1, 3),
    "laser.params.t0_as": st.integers(1, 300),
    "laser.params.sigma_as": st.integers(1, 100),
    "laser.params.phase": st.integers(0, 3),
    "propagator.params.scf_tolerance": st.integers(1, 2),
    "propagator.params.max_scf_iterations": st.integers(1, 50),
    "propagator.params.anderson_history": st.integers(1, 20),
    "run.time_step_as": st.integers(1, 100),
    "run.n_steps": st.integers(1, 20),
    "run.gs_scf_tolerance": st.integers(1, 2),
    "run.gs_max_scf_iterations": st.integers(1, 100),
}
_SPELLINGS = (int, float, np.int64, np.float64)


def _config_dict(values: dict) -> dict:
    data = {"system": {"structure": "hydrogen_molecule", "params": {}},
            "laser": {"pulse": "gaussian", "params": {}}, "propagator": {"name": "ptcn", "params": {}}}
    for path, value in values.items():
        *parents, key = path.split(".")
        node = data
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = value
    return data


_spellings = st.lists(st.sampled_from(_SPELLINGS), min_size=len(_INTEGRAL_FIELDS), max_size=len(_INTEGRAL_FIELDS))


@settings(max_examples=40, deadline=None)
@given(values=st.fixed_dictionaries(_INTEGRAL_FIELDS), built=_spellings, overridden=_spellings, swept=_spellings)
def test_equal_configs_have_equal_keys_however_numbers_are_spelled(values, built, overridden, swept):
    """int, float, ``np.int64`` and ``np.float64`` spellings of every numeric
    field, ``params`` value and sweep-axis value: built directly, through
    :meth:`~repro.api.SimulationConfig.with_overrides` and as a sweep axis,
    the configs compare ``==`` and share ``config_hash`` and group key."""
    paths = list(values)

    def spelled(spellings):
        return {path: spell(values[path]) for path, spell in zip(paths, spellings)}

    direct = SimulationConfig.from_dict(_config_dict(spelled(built)))
    shifted = {path: float(value) + 1.0 for path, value in values.items()}
    other = SimulationConfig.from_dict(_config_dict({**shifted, "xc.hybrid_mixing": 0.5, "xc.gs_hybrid_mixing": 0.5}))
    (job,) = SweepSpec(other, {path: [value] for path, value in spelled(swept).items()}).expand()
    for config in (other.with_overrides(spelled(overridden)), job.config):
        assert config == direct
        assert config_hash(config) == config_hash(direct)
        assert ground_state_group_key(config) == ground_state_group_key(direct)
    assert (job.config_hash, job.group_key) == (config_hash(direct), ground_state_group_key(direct))


#: ``asset:`` references and the integral values their ``params`` may take:
#: each is coerced by the signature of the builder the asset forwards to (the
#: structure recipe or pulse generator its payload names)
_ASSET_FIELDS = {
    "asset:structure/h4-chain@1": {"n_atoms": st.integers(2, 6), "spacing": st.integers(1, 3),
                                   "box": st.integers(8, 12)},
    "asset:structure/si-diamond-1x1x1@1": {"lattice_constant": st.integers(9, 11),
                                           "repeats": st.lists(st.integers(1, 2), min_size=3, max_size=3)},
    "asset:pulse/pump-probe-380+760@1": {"fluence": st.integers(1, 3), "delay_as": st.integers(0, 500),
                                         "duration_fs": st.integers(1, 30), "probe_ratio": st.integers(0, 1),
                                         "pump_wavelength_nm": st.integers(300, 400)},
    "asset:pulse/fluence-gaussian-380@1": {"fluence": st.integers(1, 3), "omega": st.integers(1, 2),
                                           "t0": st.integers(100, 700), "sigma": st.integers(50, 250)},
    "asset:pulse/kick-z@1": {"strength": st.integers(1, 2)},
}


def _spell(value, spelling):
    return [spelling(item) for item in value] if isinstance(value, list) else spelling(value)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_asset_params_are_coerced_by_the_builder_they_forward_to(data):
    """An ``asset:`` reference's ``params`` spelled as int, float, ``np.int64``
    or ``np.float64`` give one config and one key, built directly, through
    :meth:`~repro.api.SimulationConfig.with_overrides` and as sweep axes
    (``laser.params.fluence`` on the pump-probe asset is the fluence axis of
    ``examples/spectra_service.py``)."""
    structure = data.draw(st.sampled_from([ref for ref in _ASSET_FIELDS if "structure/" in ref]))
    pulse = data.draw(st.sampled_from([ref for ref in _ASSET_FIELDS if "pulse/" in ref]))
    values = {("system", structure): data.draw(st.fixed_dictionaries(_ASSET_FIELDS[structure])),
              ("laser", pulse): data.draw(st.fixed_dictionaries(_ASSET_FIELDS[pulse]))}

    def spelled():
        return {section: {key: _spell(value, data.draw(st.sampled_from(_SPELLINGS)))
                          for key, value in params.items()}
                for (section, _), params in values.items()}

    def built(params):
        return SimulationConfig.from_dict({"system": {"structure": structure, "params": params["system"]},
                                           "laser": {"pulse": pulse, "params": params["laser"]}})

    direct = built(spelled())
    overridden = built({"system": {}, "laser": {}}).with_overrides(
        {"system": {"params": spelled()["system"]}, "laser": {"params": spelled()["laser"]}})
    axes = {f"{section}.params.{key}": [value] for section, params in spelled().items()
            for key, value in params.items()}
    (job,) = SweepSpec(built({"system": {}, "laser": {}}), axes).expand()
    for config in (built(spelled()), overridden, job.config):
        assert config == direct
        assert config_hash(config) == config_hash(direct)
        assert ground_state_group_key(config) == ground_state_group_key(direct)
    assert (job.config_hash, job.group_key) == (config_hash(direct), ground_state_group_key(direct))


def test_the_fluence_axis_of_the_pump_probe_asset_keys_one_way():
    pulse = "asset:pulse/pump-probe-380+760@1"
    one = SimulationConfig.from_dict({"laser": {"pulse": pulse, "params": {"fluence": 1}}})
    other = SimulationConfig.from_dict({"laser": {"pulse": pulse, "params": {"fluence": 1.0}}})
    assert one.laser.params["fluence"] == 1.0 and isinstance(one.laser.params["fluence"], float)
    assert config_hash(one) == config_hash(other)
