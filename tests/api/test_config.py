"""SimulationConfig: dict/JSON round-trips, validation, registry errors."""

import copy
import json
import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.api import (
    PROPAGATORS,
    PULSES,
    STRUCTURES,
    BasisConfig,
    ConfigError,
    SimulationConfig,
    UnknownNameError,
    register_propagator,
)
from repro.cost import MachineCostModel
from repro.exec import ExecutionSettings

QUICKSTART_DICT = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 10.0, "bond_length": 1.4}},
    "basis": {"ecut": 3.0, "grid_factor": 1.0},
    "xc": {"hybrid_mixing": 0.25, "screening_length": None},
    "laser": {
        "pulse": "gaussian",
        "params": {
            "amplitude": 0.005,
            "omega": 0.35,
            "t0_as": 150.0,
            "sigma_as": 60.0,
            "polarization": [1.0, 0.0, 0.0],
        },
    },
    "propagator": {"name": "ptcn", "params": {"scf_tolerance": 1e-6, "max_scf_iterations": 30}},
    "run": {"time_step_as": 50.0, "n_steps": 8, "gs_scf_tolerance": 1e-7},
}


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def test_dict_round_trip_is_identity():
    config = SimulationConfig.from_dict(QUICKSTART_DICT)
    again = SimulationConfig.from_dict(config.to_dict())
    assert again == config
    assert again.to_dict() == config.to_dict()


def test_json_round_trip_is_identity():
    config = SimulationConfig.from_dict(QUICKSTART_DICT)
    text = json.dumps(config.to_dict(), indent=2)
    json.loads(text)  # valid JSON
    assert SimulationConfig.from_dict(json.loads(text)) == config
    assert SimulationConfig.from_dict(json.loads(text)).to_dict() == config.to_dict()


def test_default_config_is_valid_and_round_trips():
    config = SimulationConfig().validate()
    assert SimulationConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


def test_partial_dict_uses_defaults():
    config = SimulationConfig.from_dict({"basis": {"ecut": 5.0}})
    assert config.basis.ecut == 5.0
    assert config.basis.grid_factor == BasisConfig().grid_factor
    assert config.propagator.name == "ptcn"
    assert config.laser.pulse == "none"


def test_to_dict_deep_copies_params():
    config = SimulationConfig.from_dict(QUICKSTART_DICT)
    dumped = config.to_dict()
    dumped["system"]["params"]["box"] = -1.0
    assert config.system.params["box"] == 10.0


# ---------------------------------------------------------------------------
# Validation errors
# ---------------------------------------------------------------------------


def test_unknown_section_lists_valid_sections():
    with pytest.raises(ConfigError, match=r"sytem.*valid sections.*propagator"):
        SimulationConfig.from_dict({"sytem": {}})


def test_unknown_section_key_lists_valid_keys():
    with pytest.raises(ConfigError, match=r"cutoff.*'basis'.*ecut"):
        SimulationConfig.from_dict({"basis": {"cutoff": 3.0}})


@pytest.mark.parametrize(
    "section, payload, fragment",
    [
        ("basis", {"ecut": 0.0}, "basis.ecut"),
        ("basis", {"grid_factor": -1.0}, "basis.grid_factor"),
        ("xc", {"hybrid_mixing": 2.0}, "xc.hybrid_mixing"),
        ("xc", {"gs_hybrid_mixing": -0.5}, "xc.gs_hybrid_mixing"),
        ("xc", {"screening_length": 0.0}, "xc.screening_length"),
        ("run", {"n_steps": 0}, "run.n_steps"),
        ("run", {"time_step_as": -50.0}, "run.time_step_as"),
        ("system", {"structure": ""}, "system.structure"),
        ("basis", {"ecut": "3.0"}, "basis.ecut"),
        ("xc", {"hybrid_mixing": "0.25"}, "xc.hybrid_mixing"),
        ("run", {"time_step_as": None}, "run.time_step_as"),
        ("propagator", {"params": ["not", "a", "dict"]}, "propagator.params"),
    ],
)
def test_bad_values_raise_actionable_errors(section, payload, fragment):
    with pytest.raises(ConfigError) as excinfo:
        SimulationConfig.from_dict({section: payload})
    assert fragment in str(excinfo.value)


# ---------------------------------------------------------------------------
# Override expansion hook (used by repro.batch sweeps)
# ---------------------------------------------------------------------------


def test_with_overrides_replaces_dotted_paths():
    config = SimulationConfig.from_dict(QUICKSTART_DICT)
    swept = config.with_overrides(
        {"run.time_step_as": 10.0, "propagator.name": "rk4", "laser.params.amplitude": 0.01}
    )
    assert swept.run.time_step_as == 10.0
    assert swept.propagator.name == "rk4"
    assert swept.laser.params["amplitude"] == 0.01
    # everything else untouched, original config unmodified
    assert swept.basis == config.basis
    assert config.run.time_step_as == 50.0
    assert config.laser.params["amplitude"] == 0.005


def test_with_overrides_section_merge_keeps_other_fields():
    config = SimulationConfig.from_dict(QUICKSTART_DICT)
    swept = config.with_overrides({"run": {"time_step_as": 5.0, "n_steps": 20}})
    assert swept.run.time_step_as == 5.0 and swept.run.n_steps == 20
    assert swept.run.gs_scf_tolerance == config.run.gs_scf_tolerance


def test_with_overrides_validates_result():
    config = SimulationConfig.from_dict(QUICKSTART_DICT)
    with pytest.raises(ConfigError, match="run.time_step_as"):
        config.with_overrides({"run.time_step_as": -1.0})
    with pytest.raises(UnknownNameError, match="ptcn"):
        config.with_overrides({"propagator.name": "leapfrog"})
    with pytest.raises(ConfigError, match="valid sections"):
        config.with_overrides({"basiss.ecut": 2.0})
    with pytest.raises(ConfigError, match="unknown key"):
        config.with_overrides({"basis.cutoff": 2.0})
    with pytest.raises(ConfigError, match="non-empty string"):
        config.with_overrides({3: 1.0})


# ---------------------------------------------------------------------------
# Registry resolution
# ---------------------------------------------------------------------------


def test_float_counts_are_coerced_to_int():
    config = SimulationConfig.from_dict({"run": {"n_steps": 8.0, "gs_max_scf_iterations": 40.0}})
    assert config.run.n_steps == 8 and isinstance(config.run.n_steps, int)
    assert config.run.gs_max_scf_iterations == 40
    assert isinstance(config.run.gs_max_scf_iterations, int)


def test_non_integral_counts_raise():
    with pytest.raises(ConfigError, match=r"run.n_steps must be an integer"):
        SimulationConfig.from_dict({"run": {"n_steps": 8.5}})
    with pytest.raises(ConfigError, match=r"run.n_steps must be an integer"):
        SimulationConfig.from_dict({"run": {"n_steps": "many"}})


def test_unknown_structure_lists_registered_names():
    with pytest.raises(UnknownNameError) as excinfo:
        SimulationConfig.from_dict({"system": {"structure": "unobtainium"}})
    message = str(excinfo.value)
    assert "unobtainium" in message
    assert "hydrogen_molecule" in message
    assert "silicon_supercell" in message


def test_unknown_propagator_lists_registered_names():
    with pytest.raises(UnknownNameError) as excinfo:
        SimulationConfig.from_dict({"propagator": {"name": "verlet"}})
    message = str(excinfo.value)
    assert "ptcn" in message and "rk4" in message and "etrs" in message and "cn" in message


def test_unknown_pulse_lists_registered_names():
    with pytest.raises(UnknownNameError) as excinfo:
        SimulationConfig.from_dict({"laser": {"pulse": "square_wave"}})
    message = str(excinfo.value)
    assert "gaussian" in message and "none" in message


def test_builtin_registry_contents():
    assert "hydrogen_molecule" in STRUCTURES and "diamond_silicon" in STRUCTURES
    assert "gaussian" in PULSES and "delta_kick" in PULSES
    for name in ("ptcn", "rk4", "etrs", "cn", "pt-cn"):
        assert name in PROPAGATORS


def test_register_propagator_decorator_plugs_into_configs(registries):
    @register_propagator("test_prop_xyz")
    def build(hamiltonian, **params):
        return ("built", hamiltonian, params)

    config = SimulationConfig.from_dict({"propagator": {"name": "test_prop_xyz"}})
    assert config.propagator.name == "test_prop_xyz"
    assert PROPAGATORS.create("test_prop_xyz", None, a=1) == ("built", None, {"a": 1})


# ---------------------------------------------------------------------------
# The run.machine section
# ---------------------------------------------------------------------------


def test_machine_section_round_trips_and_resolves():
    config = SimulationConfig.from_dict(
        {"run": {"machine": {"name": "summit", "gpus_per_group": 6}}}
    )
    settings = ExecutionSettings.from_config(config)
    assert (settings.machine, settings.gpus_per_group) == ("summit", 6)
    again = SimulationConfig.from_dict(config.to_dict())
    assert again.run.machine == {"name": "summit", "gpus_per_group": 6}


def test_machine_defaults_are_summit_one_gpu():
    config = SimulationConfig.from_dict({})
    assert config.run.machine == {}
    settings = ExecutionSettings.from_config(config)
    assert (settings.machine, settings.gpus_per_group) == ("summit", 1)


def test_unknown_machine_key_lists_valid_keys():
    with pytest.raises(ConfigError, match=r"gpus_per_group"):
        SimulationConfig.from_dict({"run": {"machine": {"nodes": 2}}})


def test_unknown_machine_name_lists_presets():
    with pytest.raises(ConfigError, match="frontier.*summit"):
        SimulationConfig.from_dict({"run": {"machine": {"name": "perlmutter"}}})
    # both registered presets are valid machine names
    for name in ("summit", "frontier"):
        config = SimulationConfig.from_dict({"run": {"machine": {"name": name}}})
        assert ExecutionSettings.from_config(config).machine == name


@pytest.mark.parametrize("gpus", [0, -1, 1.5, True, np.True_, "six"])
def test_bad_gpus_per_group_rejected(gpus):
    with pytest.raises(ConfigError, match=r"run\.machine\.gpus_per_group"):
        SimulationConfig.from_dict({"run": {"machine": {"gpus_per_group": gpus}}})


def test_machine_must_be_a_mapping():
    with pytest.raises(ConfigError, match="run.machine"):
        SimulationConfig.from_dict({"run": {"machine": "summit"}})


def test_execution_sections_are_read_only_values():
    """``run.schedule`` / ``run.machine`` are frozen like ``params``: a checked
    config cannot be edited around the validator, and what it holds is the
    checked value (an integral float count is an int)."""
    source = {"schedule": {"policy": "cheapest_first"}, "machine": {"name": "summit", "gpus_per_group": 6.0}}
    config = SimulationConfig.from_dict({"run": source})
    with pytest.raises(TypeError):
        config.run.machine["name"] = "perlmutter"
    with pytest.raises(TypeError):
        config.run.schedule["policy"] = "fifo"
    source["machine"]["name"] = "frontier"  # the config holds a copy
    assert config.run.machine == {"name": "summit", "gpus_per_group": 6}
    assert type(config.run.machine["gpus_per_group"]) is int
    plain = config.to_dict()["run"]
    assert type(plain["machine"]) is dict and type(plain["schedule"]) is dict
    for clone in (pickle.loads(pickle.dumps(config)), copy.deepcopy(config)):
        assert clone == config


@pytest.mark.parametrize("name", ["ranks", "gpus_per_group"])
def test_numpy_bools_are_not_counts_in_settings(name):
    with pytest.raises(ValueError, match=name):
        ExecutionSettings(**{name: np.True_})


# ---------------------------------------------------------------------------
# One canonical value per field
# ---------------------------------------------------------------------------


def test_values_are_coerced_to_their_declared_types():
    config = SimulationConfig.from_dict({
        "system": {"structure": "hydrogen_chain", "params": {"n_atoms": 2.0, "spacing": 2, "box": np.int64(6)}},
        "basis": {"ecut": np.float64(2.0), "grid_factor": 1},
        "xc": {"hybrid_mixing": 0, "include_nonlocal": np.False_},
        "laser": {"pulse": "gaussian", "params": {"amplitude": np.float32(0.5), "omega": 1,
                                                  "t0_as": 150, "sigma_as": 60.0,
                                                  "polarization": np.array([1, 0, 0])}},
        "propagator": {"name": "ptcn", "params": {"max_scf_iterations": 30.0, "scf_tolerance": 1e-6}},
        "run": {"time_step_as": np.int32(50), "n_steps": np.float64(8.0)},
    })
    plain = config.to_dict()
    assert plain["system"]["params"] == {"n_atoms": 2, "spacing": 2.0, "box": 6.0}
    assert plain["laser"]["params"]["polarization"] == [1, 0, 0]  # no usable annotation: kept
    assert plain["propagator"]["params"]["max_scf_iterations"] == 30
    assert (plain["run"]["time_step_as"], plain["run"]["n_steps"]) == (50.0, 8)
    expected = {"n_atoms": int, "spacing": float, "box": float}
    assert {key: type(value) for key, value in plain["system"]["params"].items()} == expected
    for section in plain.values():
        for value in [*section.values(), *section.get("params", {}).values()]:
            assert type(value) in (str, int, float, bool, list, dict, type(None)), value
    assert type(plain["xc"]["include_nonlocal"]) is bool
    assert SimulationConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


def test_a_bool_is_never_a_number():
    with pytest.raises(ConfigError, match="basis.ecut"):
        SimulationConfig.from_dict({"basis": {"ecut": np.True_}})
    with pytest.raises(ConfigError, match="run.n_steps"):
        SimulationConfig.from_dict({"run": {"n_steps": True}})
    config = SimulationConfig.from_dict({"system": {"params": {"box": True}}})
    assert config.system.params["box"] is True  # kept as a bool, for the factory to refuse


@pytest.mark.parametrize("path,value", [
    ("laser.params.amplitude", object()),
    ("laser.params.amplitude", 1j),
    ("laser.params.amplitude", float("nan")),
    ("laser.params.polarization", {1: 2.0}),
    ("basis.ecut", float("inf")),
    ("system.params.box", {3.0}),
])
def test_a_value_json_cannot_spell_fails_at_construction(path, value):
    base = SimulationConfig.from_dict({"laser": {"pulse": "gaussian", "params": {
        "amplitude": 0.01, "omega": 0.35, "t0_as": 150.0, "sigma_as": 60.0}}})
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
        base.with_overrides({path: value})


# ---------------------------------------------------------------------------
# One validator: a section accepts exactly what ExecutionSettings accepts
# ---------------------------------------------------------------------------


def test_integral_float_gpus_per_group_is_accepted_as_settings_accept_it():
    """JSON writes 6 as 6.0; ``ExecutionSettings`` always coerced it, and the
    section now goes through the same check."""
    config = SimulationConfig.from_dict({"run": {"machine": {"gpus_per_group": 6.0}}})
    settings = ExecutionSettings.from_config(config)
    assert settings.gpus_per_group == 6 and isinstance(settings.gpus_per_group, int)
    assert settings == ExecutionSettings(gpus_per_group=6.0)
    assert MachineCostModel().gpus_for(config) == 6


def test_a_null_machine_name_turns_the_machine_model_off():
    config = SimulationConfig.from_dict({"run": {"machine": {"name": None, "gpus_per_group": 6}}})
    settings = ExecutionSettings.from_config(config)
    assert settings.machine is None and settings.machine_model() is None
    assert settings == ExecutionSettings(machine=None, gpus_per_group=6)


def test_a_null_precision_is_the_default_tier_as_in_settings():
    config = SimulationConfig.from_dict({"run": {"schedule": {"precision": None}}})
    assert ExecutionSettings.from_config(config).precision == "complex128"
    assert ExecutionSettings(precision=None).precision == "complex128"


_FIELDS = {
    "schedule": ("schedule", "policy"),
    "batch_stepping": ("schedule", "batch_stepping"),
    "precision": ("schedule", "precision"),
    "machine": ("machine", "name"),
    "gpus_per_group": ("machine", "gpus_per_group"),
}
_VALUES = ["fifo", "energy_aware", "complex64", "float32", "frontier", "perlmutter", "", "6",
           0, 1, 6, -1, 6.0, 1.5, float("nan"), float("inf"), True, False, None]


@pytest.mark.parametrize("name", sorted(_FIELDS))
def test_a_section_key_and_its_settings_field_agree(name):
    """Every value is accepted by both or rejected by both (``ConfigError``
    naming ``run.<section>.<key>`` / ``ValueError`` naming the field), and an
    accepted value resolves to the same settings."""
    section, key = _FIELDS[name]
    for value in _VALUES:
        try:
            expected = ExecutionSettings(**{name: value})
        except ValueError as exc:
            assert name in str(exc)
            with pytest.raises(ConfigError, match=f"run\\.{section}\\.{key}"):
                SimulationConfig.from_dict({"run": {section: {key: value}}})
            continue
        config = SimulationConfig.from_dict({"run": {section: {key: value}}})
        assert ExecutionSettings.from_config(config) == expected, value


def test_building_a_config_does_not_import_the_execution_layer():
    """The validator lives in ``repro.api.config``: checking a section must
    not pull in ``repro.exec`` (``ExecutionSettings`` imports the config
    layer, not the other way round)."""
    import repro

    code = ("import sys; from repro.api import SimulationConfig; "
            "SimulationConfig.from_dict({'run': {'schedule': {'policy': 'fifo'}, "
            "'machine': {'name': 'frontier', 'gpus_per_group': 8}}}); "
            "assert 'repro.exec' not in sys.modules, sorted(m for m in sys.modules if m.startswith('repro'))")
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
