"""The declarative configuration tree for a full rt-TDDFT simulation.

A :class:`SimulationConfig` captures everything the paper's workflow needs —
structure, plane-wave basis, exchange-correlation treatment, laser, propagator
and run parameters — as a frozen dataclass tree that round-trips through plain
dicts and JSON. This is the batch/serving-friendly entry point: a scenario is
a dict, not a script.

.. code-block:: python

    config = SimulationConfig.from_dict({
        "system": {"structure": "hydrogen_molecule", "params": {"box": 10.0}},
        "basis": {"ecut": 3.0},
        "laser": {"pulse": "gaussian",
                  "params": {"amplitude": 0.005, "omega": 0.35,
                             "t0_as": 150.0, "sigma_as": 60.0}},
        "propagator": {"name": "ptcn"},
        "run": {"time_step_as": 50.0, "n_steps": 8},
    })
    trajectory = repro.api.run_tddft(config)

Every section coerces each value to its declared type and validates it
eagerly in ``__post_init__``, and :meth:`SimulationConfig.validate`
additionally resolves all registry names, so
a malformed config fails at construction time with an error naming the bad
field (and, for registry keys, listing the valid names) rather than deep
inside a propagation run.
"""

from __future__ import annotations

import copy
import functools
import inspect
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType

import numpy as np

from ..core.precision import DEFAULT_PRECISION, PRECISIONS, resolve_precision
from . import registry as _registry

__all__ = [
    "ConfigError",
    "SCHEDULE_POLICIES",
    "SystemConfig",
    "BasisConfig",
    "XCConfig",
    "LaserConfig",
    "PropagatorConfig",
    "RunConfig",
    "SimulationConfig",
]

#: sweep scheduling policies accepted by ``run.schedule`` (see
#: :class:`repro.exec.Scheduler`): ``"fifo"`` keeps expansion order,
#: ``"cheapest_first"`` orders ground-state groups by predicted wall time,
#: ``"makespan_balanced"`` orders longest-first so machine-aware packing
#: balances per-rank predicted seconds, ``"energy_aware"`` orders and packs
#: by predicted energy to solution (watts x seconds of the occupied nodes)
SCHEDULE_POLICIES = ("fifo", "cheapest_first", "makespan_balanced", "energy_aware")


class ConfigError(ValueError):
    """A configuration value or key is invalid."""


def _require_positive(section: str, name: str, value) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not value > 0:
        raise ConfigError(f"{section}.{name} must be a positive number, got {value!r}")


def _require_mapping(section: str, name: str, value) -> None:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{section}.{name} must be a dict of keyword arguments, got {type(value).__name__}")


def _is_bool(value) -> bool:
    """Python's and numpy's bools, which are never a number in a config."""
    return isinstance(value, (bool, np.bool_))


def positive_integer(label: str, value) -> int:
    """``value`` as an ``int`` >= 1: an integral float (JSON's ``6.0``) is
    coerced, a bool (Python's or numpy's) or anything else raises
    ``ValueError`` naming ``label``."""
    try:
        integral = not _is_bool(value) and value == int(value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or value < 1:
        raise ValueError(f"{label} must be a positive integer, got {value!r}")
    return int(value)


def _policy(label: str, value) -> str:
    if value not in SCHEDULE_POLICIES:
        raise ValueError(f"{label} must be one of {list(SCHEDULE_POLICIES)}, got {value!r}")
    return value


def _flag(label: str, value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{label} must be a bool, got {value!r}")
    return value


def _precision(label: str, value) -> str:
    try:
        return resolve_precision(value)  # None is the default tier
    except ValueError:
        raise ValueError(f"{label} must be one of {list(PRECISIONS)}, got {value!r}") from None


@functools.cache
def _machines() -> dict:
    from ..cost.model import MACHINES  # deferred, once: keeps ``import repro.api`` light

    return MACHINES


def _machine(label: str, value) -> str | None:
    if value is not None and value not in _machines():
        raise ValueError(f"{label} must be one of {sorted(_machines())} or None, got {value!r}")
    return value  # None: no machine model


#: the five execution fields, by :class:`~repro.exec.ExecutionSettings` name:
#: the ``run.<section>.<key>`` that sets each one in a config, its default,
#: and the check that owns its domain and coercion
EXECUTION_FIELDS = {
    "schedule": ("schedule", "policy", "fifo", _policy),
    "batch_stepping": ("schedule", "batch_stepping", False, _flag),
    "precision": ("schedule", "precision", DEFAULT_PRECISION, _precision),
    "machine": ("machine", "name", "summit", _machine),
    "gpus_per_group": ("machine", "gpus_per_group", 1, positive_integer),
}

_DEFAULTS = {name: default for name, (_, _, default, _) in EXECUTION_FIELDS.items()}

#: per section, its keys and the field each one sets
_SECTION_KEYS = {
    section: {key: name for name, (where, key, _, _) in EXECUTION_FIELDS.items() if where == section}
    for section in ("schedule", "machine")
}


def execution_fields(run=None, **given) -> dict:
    """The five execution fields, checked, coerced and defaulted in one place.

    Each field takes its :data:`EXECUTION_FIELDS` default, overridden by
    ``run``'s (a :class:`RunConfig`) ``run.schedule`` / ``run.machine``
    section, overridden by a value ``given`` under its
    :class:`~repro.exec.ExecutionSettings` name. Domains:
    :data:`SCHEDULE_POLICIES`; :data:`repro.core.precision.PRECISIONS`
    (``None`` is the default tier); :data:`repro.cost.MACHINES` or ``None``
    (no machine model); a bool; a positive integer (integral floats coerced,
    bools rejected). Returns all five by settings name. A bad value raises
    ``ValueError`` naming where it came from: ``run.machine.name`` for a
    section key, ``machine`` for a given field.
    """
    resolved = dict(_DEFAULTS)
    if run is not None:
        for section, keys in _SECTION_KEYS.items():
            for key, value in getattr(run, section).items():
                name = keys[key]
                resolved[name] = EXECUTION_FIELDS[name][3](f"run.{section}.{key}", value)
    for name, value in given.items():
        resolved[name] = EXECUTION_FIELDS[name][3](name, value)
    return resolved


#: an annotation, as written, -> the type of the numbers it declares
_NUMBER_TYPES = {"float": float, "float | None": float, "int": int, "int | None": int,
                 "tuple[int, int, int]": int}


@functools.cache
def _param_types(factory) -> dict:
    """Parameter name -> declared number type, from a registered factory's
    signature; looked up once per factory."""
    try:
        parameters = inspect.signature(factory).parameters.values()
    except (TypeError, ValueError):
        return {}
    return {p.name: _NUMBER_TYPES.get(getattr(p.annotation, "__name__", str(p.annotation)))
            for p in parameters}


def _canonical(path: str, value, number=None):
    """``value`` as the one JSON value a config holds: numpy scalars and
    arrays become Python scalars and lists, tuples lists; where ``number``
    (for a mapping, a dict of them by key) declares a float an int becomes a
    float, where it declares an int an integral float becomes an int; a bool
    is never a number. A value JSON cannot spell raises naming ``path``."""
    if _is_bool(value):
        return bool(value)
    if isinstance(value, (np.generic, np.ndarray)):
        value = value.tolist()
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return float(value) if number is float else value
    if isinstance(value, float) and math.isfinite(value):
        return int(value) if number is int and value.is_integer() else value
    if isinstance(value, (list, tuple)):
        return [_canonical(f"{path}[{i}]", item, number) for i, item in enumerate(value)]
    if isinstance(value, Mapping) and all(isinstance(key, str) for key in value):
        types = number if isinstance(number, dict) else {}
        return {key: _canonical(f"{path}.{key}", item, types.get(key)) for key, item in value.items()}
    raise ConfigError(f"{path} must be a string, a finite number, a bool, None, or a list or "
                      f"string-keyed dict of them, got {value!r}")


class _Section:
    """What the config sections share: a config is a value, spelled one way.
    Each field is coerced to its annotation (:func:`_canonical`), ``params``
    to the signature of the factory its registry name resolves to (for an
    ``asset:`` reference, of the builder the asset forwards them to), so configs that
    compare ``==`` hash alike. Mappings are copied and handed out read-only: a config's
    identity (``config_hash``, group key, store keys) is computed once, at
    sweep expansion, and carried, so ``params["box"] = 9`` raises
    ``TypeError``; :meth:`SimulationConfig.with_overrides` derives a changed
    config, :meth:`SimulationConfig.to_dict` gives a mutable copy."""

    def _coerce(self, section: str, registry=None, name: str = "") -> None:
        for f in fields(self):
            value, path = getattr(self, f.name), f"{section}.{f.name}"
            if f.name == "params":
                _require_mapping(section, "params", value)
                types = _param_types(registry.declared(name))
                value = MappingProxyType(_canonical(path, value, types))
            elif f.name not in _SECTION_KEYS:  # ``run.schedule`` / ``run.machine``: RunConfig's
                value = _canonical(path, value, _NUMBER_TYPES.get(f.type))
            object.__setattr__(self, f.name, value)

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied; the constructor
        # arguments can (process-pool workers receive whole jobs)
        return type(self), tuple(_plain_value(getattr(self, f.name)) for f in fields(self))


def _plain_value(value):
    return dict(value) if isinstance(value, MappingProxyType) else value


@dataclass(frozen=True)
class SystemConfig(_Section):
    """Which atomic structure to build.

    Attributes
    ----------
    structure:
        A :data:`repro.api.STRUCTURES` registry key, e.g. ``"hydrogen_molecule"``
        or ``"silicon_supercell"`` — or an ``asset:`` reference into the
        :mod:`repro.assets` library, e.g.
        ``"asset:structure/si-diamond-2x2x2@1"`` (asset content digests then
        flow into job hashes and provenance).
    params:
        Keyword arguments forwarded to the structure factory (e.g.
        ``{"box": 10.0, "bond_length": 1.4}`` or ``{"repeats": [2, 2, 3]}``);
        for assets they override the payload's geometry parameters.
    """

    structure: str = "hydrogen_molecule"
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.structure, str) or not self.structure:
            raise ConfigError(f"system.structure must be a non-empty string, got {self.structure!r}")
        self._coerce("system", _registry.STRUCTURES, self.structure)


@dataclass(frozen=True)
class BasisConfig(_Section):
    """Plane-wave basis parameters.

    Attributes
    ----------
    ecut:
        Kinetic energy cutoff in Hartree (the paper uses 10 Ha for silicon;
        the laptop-scale examples use 2.5–3 Ha).
    grid_factor:
        Oversampling factor handed to :func:`repro.pw.choose_grid_shape`
        (1.0 = wavefunction grid, 2.0 = full density grid).
    """

    ecut: float = 3.0
    grid_factor: float = 1.0

    def __post_init__(self) -> None:
        self._coerce("basis")
        _require_positive("basis", "ecut", self.ecut)
        _require_positive("basis", "grid_factor", self.grid_factor)


@dataclass(frozen=True)
class XCConfig(_Section):
    """Exchange-correlation / Hamiltonian treatment.

    Attributes
    ----------
    hybrid_mixing:
        Fock exchange fraction alpha in [0, 1]; 0.25 is the HSE/PBE0 value
        used by the paper, 0 selects the semi-local functional.
    screening_length:
        Screening parameter mu (Bohr^-1) of the short-range exchange kernel;
        ``None`` selects the bare (PBE0-style) kernel.
    include_nonlocal:
        Whether to build the Kleinman–Bylander nonlocal projectors.
    gs_hybrid_mixing:
        If not ``None``, the ground state is prepared with a *separate*
        Hamiltonian using this mixing (the silicon example starts PT-CN
        propagation with hybrid exchange from a cheap semi-local ground
        state, i.e. ``gs_hybrid_mixing=0.0``). ``None`` (default) prepares
        the ground state with the propagation Hamiltonian itself.
    """

    hybrid_mixing: float = 0.25
    screening_length: float | None = None
    include_nonlocal: bool = True
    gs_hybrid_mixing: float | None = None

    def __post_init__(self) -> None:
        self._coerce("xc")
        for name in ("hybrid_mixing", "gs_hybrid_mixing"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, float) or not 0.0 <= value <= 1.0):
                raise ConfigError(f"xc.{name} must be a number in [0, 1], got {value!r}")
        if self.screening_length is not None:
            _require_positive("xc", "screening_length", self.screening_length)


@dataclass(frozen=True)
class LaserConfig(_Section):
    """External field driving the dynamics.

    Attributes
    ----------
    pulse:
        A :data:`repro.api.PULSES` registry key: ``"none"`` (field-free),
        ``"gaussian"``, ``"paper"`` (the 380 nm pulse of Fig. 4b),
        ``"delta_kick"`` (absorption-spectrum preparation),
        ``"fluence_gaussian"`` or ``"pump_probe"`` — or an ``asset:``
        reference, e.g. ``"asset:pulse/pump-probe-380+760@1"``.
    params:
        Keyword arguments forwarded to the pulse factory; for assets they
        merge over the payload's parameters, which is what makes
        ``laser.params.fluence`` / ``laser.params.delay_as`` sweep axes
        compose with pulse assets.
    """

    pulse: str = "none"
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.pulse, str) or not self.pulse:
            raise ConfigError(f"laser.pulse must be a non-empty string, got {self.pulse!r}")
        self._coerce("laser", _registry.PULSES, self.pulse)


@dataclass(frozen=True)
class PropagatorConfig(_Section):
    """Which time integrator to use.

    Attributes
    ----------
    name:
        A :data:`repro.api.PROPAGATORS` registry key: ``"ptcn"``, ``"rk4"``,
        ``"etrs"`` or ``"cn"`` (or anything added via
        :func:`repro.api.register_propagator`).
    params:
        Keyword arguments forwarded to the propagator factory (e.g.
        ``{"scf_tolerance": 1e-6, "max_scf_iterations": 30}`` for PT-CN).
    """

    name: str = "ptcn"
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(f"propagator.name must be a non-empty string, got {self.name!r}")
        self._coerce("propagator", _registry.PROPAGATORS, self.name)


@dataclass(frozen=True)
class RunConfig(_Section):
    """Propagation-run and ground-state-preparation parameters.

    Attributes
    ----------
    time_step_as:
        Propagation time step in attoseconds (the paper's PT-CN runs use 50).
    n_steps:
        Number of propagation steps.
    record_energy:
        Evaluate the total energy at every step (one extra Fock application
        per step for hybrids). Disable for pure timing runs.
    record_dipole:
        Record the dipole moment at every step.
    gs_scf_tolerance:
        Density-change convergence threshold of the ground-state SCF.
    gs_max_scf_iterations:
        Outer-iteration bound of the ground-state SCF.
    schedule, machine:
        The execution sections: *how* a sweep runs, never the physics of a
        run, so config hashes and group keys exclude them. They hold the five
        :data:`EXECUTION_FIELDS`, accept exactly what
        :class:`~repro.exec.ExecutionSettings` accepts (one validator,
        :func:`execution_fields`, checks both) and keep the checked values,
        read-only (``gpus_per_group`` 6.0 is held as 6, ``precision`` None
        as the default tier). ``schedule``: ``policy``, one of
        :data:`SCHEDULE_POLICIES` (default ``"fifo"``); ``precision``,
        ``"complex128"`` (default) or the ``"complex64"`` screening tier,
        which *does* change the numbers, so its results are stamped and kept
        out of the result store; ``batch_stepping``, a bool with **no
        effect** (jobs always step in lockstep; the key stays so stored
        configs load). ``machine``: ``name``, a :data:`repro.cost.MACHINES`
        preset (default ``"summit"``) or ``None`` for no machine model, and
        ``gpus_per_group``, the modeled GPUs each ground-state group occupies
        (default 1), e.g. ``{"machine": {"name": "summit", "gpus_per_group": 6}}``.
    """

    time_step_as: float = 50.0
    n_steps: int = 8
    record_energy: bool = True
    record_dipole: bool = True
    gs_scf_tolerance: float = 1e-6
    gs_max_scf_iterations: int = 60
    schedule: Mapping = field(default_factory=dict)
    machine: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._coerce("run")
        _require_positive("run", "time_step_as", self.time_step_as)
        _require_positive("run", "gs_scf_tolerance", self.gs_scf_tolerance)
        for name in ("n_steps", "gs_max_scf_iterations"):
            value = getattr(self, name)
            if not isinstance(value, int) or _is_bool(value) or value < 1:
                raise ConfigError(f"run.{name} must be an integer >= 1, got {value!r}")
        for section, keys in _SECTION_KEYS.items():
            values = getattr(self, section)
            _require_mapping("run", section, values)
            if not values.keys() <= keys.keys():
                raise ConfigError(f"unknown key(s) {sorted(set(values) - set(keys))} in run.{section}; "
                                  f"valid keys: {sorted(keys)}")
        try:
            resolved = execution_fields(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for section, keys in _SECTION_KEYS.items():  # the checked values, read-only
            values = {key: resolved[keys[key]] for key in getattr(self, section)}
            object.__setattr__(self, section, MappingProxyType(_canonical(f"run.{section}", values)))


def _section_from_dict(cls, data, section: str):
    """Build one config section, rejecting unknown keys with the valid set."""
    if isinstance(data, cls):
        return data
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}' must be a dict, got {type(data).__name__}")
    valid = [f.name for f in fields(cls)]
    if not data.keys() <= set(valid):
        raise ConfigError(f"unknown key(s) {sorted(set(data) - set(valid))} in section '{section}'; "
                          f"valid keys: {valid}")
    return cls(**data)


@dataclass(frozen=True)
class SimulationConfig:
    """The full declarative description of one rt-TDDFT simulation.

    Composed of six sections mirroring the layers a hand-wired script touches:
    :class:`SystemConfig`, :class:`BasisConfig`, :class:`XCConfig`,
    :class:`LaserConfig`, :class:`PropagatorConfig` and :class:`RunConfig`.
    All sections have sensible defaults, so ``SimulationConfig()`` is a valid
    field-free hybrid-functional H2 run.
    """

    system: SystemConfig = field(default_factory=SystemConfig)
    basis: BasisConfig = field(default_factory=BasisConfig)
    xc: XCConfig = field(default_factory=XCConfig)
    laser: LaserConfig = field(default_factory=LaserConfig)
    propagator: PropagatorConfig = field(default_factory=PropagatorConfig)
    run: RunConfig = field(default_factory=RunConfig)

    _SECTIONS = ("system", "basis", "xc", "laser", "propagator", "run")

    # ------------------------------------------------------------------
    def validate(self) -> "SimulationConfig":
        """Resolve all registry names; raises with the registered names listed.

        Numeric field validation already happened in each section's
        ``__post_init__``; this adds the cross-module checks that need the
        registries. Returns ``self`` so it chains.
        """
        _registry.STRUCTURES.get(self.system.structure)
        _registry.PULSES.get(self.laser.pulse)
        _registry.PROPAGATORS.get(self.propagator.name)
        return self

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A plain-dict (and JSON) deep copy of the config, independent of the
        config and of every other copy."""
        return copy.deepcopy(self._plain())

    def _plain(self) -> dict:
        """:meth:`to_dict` without the deep copy, for readers that serialise
        and discard (hashing, group keys): the outer, section and ``params``
        dicts are fresh — keys may be popped — while everything nested below
        them is shared with the config and must not be modified."""
        out: dict = {}
        for section in self._SECTIONS:
            value = getattr(self, section)
            out[section] = {f.name: _plain_value(getattr(value, f.name)) for f in fields(value)}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        """Build and validate a config from a (possibly partial) nested dict.

        Missing sections take their defaults; unknown section names or unknown
        keys inside a section raise :class:`ConfigError` listing the valid
        choices; unknown registry names raise with the registered names.
        """
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a dict, got {type(data).__name__}")
        unknown = sorted(set(data) - set(cls._SECTIONS))
        if unknown:
            raise ConfigError(
                f"unknown config section(s) {unknown}; valid sections: {list(cls._SECTIONS)}"
            )
        section_types = {f.name: f.default_factory for f in fields(cls)}
        kwargs = {name: _section_from_dict(section_types[name], data[name], name) for name in data}
        return cls(**kwargs).validate()

    # ------------------------------------------------------------------
    def with_overrides(self, overrides: dict) -> "SimulationConfig":
        """Return a new validated config with dotted-path overrides applied.

        ``overrides`` maps paths to replacement values. A path is either

        * ``"section.field"`` (or deeper, e.g. ``"system.params.box"``),
          replacing the single addressed value, or
        * a bare ``"section"`` name, whose value must be a dict that is merged
          into the section (useful for overriding several coupled fields at
          once, e.g. ``{"run": {"time_step_as": 10.0, "n_steps": 6}}``).

        The original config is never mutated; the result passes through
        :meth:`from_dict`, so malformed values and unknown field names raise
        :class:`ConfigError` with the valid choices listed. This is the
        expansion hook :mod:`repro.batch` sweeps are built on.
        """
        if not isinstance(overrides, dict):
            raise ConfigError(f"overrides must be a dict of path -> value, got {type(overrides).__name__}")
        data = self.to_dict()  # the constructors copy what they keep
        for path, value in overrides.items():
            if not isinstance(path, str) or not path:
                raise ConfigError(f"override path must be a non-empty string, got {path!r}")
            keys = path.split(".")
            if keys[0] not in self._SECTIONS:
                raise ConfigError(f"unknown config section {keys[0]!r} in override path {path!r}; "
                                  f"valid sections: {list(self._SECTIONS)}")
            *parents, last = keys
            if not parents:
                if not isinstance(value, dict):
                    raise ConfigError(f"override for whole section {path!r} must be a dict, "
                                      f"got {type(value).__name__}")
                data[path].update(value)
                continue
            node = data
            for depth, key in enumerate(parents, start=1):
                if not isinstance(node, dict) or key not in node:
                    raise ConfigError(f"override path {path!r} does not exist in the config "
                                      f"(no {'.'.join(parents[:depth])!r})")
                node = node[key]
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} does not address a dict "
                                  f"({'.'.join(parents)!r} is {type(node).__name__})")
            node[last] = value
        return SimulationConfig.from_dict(data)
