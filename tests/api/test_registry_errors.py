"""Registry error paths: typo'd names list the valid set, duplicates raise.

Complements the happy-path registry tests in ``test_config.py`` with the
failure modes a config author or plugin writer actually hits.
"""

import pytest

from repro.api import (
    PROPAGATORS,
    PULSES,
    STRUCTURES,
    DuplicateNameError,
    Registry,
    Session,
    SimulationConfig,
    UnknownNameError,
    register_propagator,
)


# ---------------------------------------------------------------------------
# Typo'd names fail with the valid names listed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "section, payload, expected_names",
    [
        ({"system": {"structure": "hdyrogen_molecule"}}, "hdyrogen_molecule", ["hydrogen_molecule", "silicon_supercell"]),
        ({"laser": {"pulse": "gausian"}}, "gausian", ["gaussian", "delta_kick", "none"]),
        ({"propagator": {"name": "pt_cn_typo"}}, "pt_cn_typo", ["ptcn", "rk4", "etrs", "cn"]),
    ],
)
def test_typod_config_names_list_the_valid_ones(section, payload, expected_names):
    with pytest.raises(UnknownNameError) as excinfo:
        SimulationConfig.from_dict(section)
    message = str(excinfo.value)
    assert payload in message
    for name in expected_names:
        assert name in message


def test_session_construction_validates_names_eagerly():
    config = SimulationConfig()  # valid defaults
    object.__setattr__(config.propagator, "name", "wavelet")  # sneak past __post_init__
    with pytest.raises(UnknownNameError, match="wavelet"):
        Session(config)


def test_unknown_name_error_message_is_unquoted():
    try:
        PROPAGATORS.get("nope")
    except UnknownNameError as exc:
        assert str(exc).startswith("unknown propagator")  # no KeyError quoting
    else:
        pytest.fail("lookup should have raised")


# ---------------------------------------------------------------------------
# Did-you-mean suggestions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "registry, typo, suggestion",
    [
        (STRUCTURES, "hydrogen_molecle", "hydrogen_molecule"),
        (STRUCTURES, "silicon_supercel", "silicon_supercell"),
        (PULSES, "gausian", "gaussian"),
        (PULSES, "pump_prove", "pump_probe"),
        (PROPAGATORS, "ptnc", "ptcn"),
    ],
)
def test_near_miss_names_get_did_you_mean(registry, typo, suggestion):
    with pytest.raises(UnknownNameError) as excinfo:
        registry.get(typo)
    message = str(excinfo.value)
    assert "did you mean" in message
    assert f"'{suggestion}'" in message


def test_far_miss_names_skip_the_suggestion():
    with pytest.raises(UnknownNameError) as excinfo:
        PROPAGATORS.get("zzzzzzzzzz")
    message = str(excinfo.value)
    assert "did you mean" not in message
    assert "registered propagators" in message


# ---------------------------------------------------------------------------
# Duplicate registration
# ---------------------------------------------------------------------------


class TestDuplicateRegistration:
    def test_duplicate_name_raises_cleanly(self):
        registry = Registry("thing")
        registry.register("x", lambda: 1)
        with pytest.raises(DuplicateNameError, match=r"\['x'\] already registered"):
            registry.register("x", lambda: 2)
        assert registry.create("x") == 1  # original untouched

    def test_duplicate_alias_raises_and_registers_nothing(self):
        registry = Registry("thing")
        registry.register("x", lambda: 1)
        with pytest.raises(DuplicateNameError, match="x"):
            registry.register("y", lambda: 2, aliases=("x",))
        assert "y" not in registry  # the clash aborted the whole registration

    def test_builtin_propagator_names_are_protected(self):
        with pytest.raises(DuplicateNameError, match="ptcn"):
            PROPAGATORS.register("ptcn", lambda ham: None)
        # and via the module-level decorator too
        with pytest.raises(DuplicateNameError, match="rk4"):
            @register_propagator("rk4")
            def build(hamiltonian, **params):  # pragma: no cover - never registered
                return None

    def test_builtin_structures_and_pulses_protected(self):
        with pytest.raises(DuplicateNameError):
            STRUCTURES.register("hydrogen_molecule", lambda **kw: None)
        with pytest.raises(DuplicateNameError):
            PULSES.register("gaussian", lambda **kw: None)
