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

Every section validates its numeric fields eagerly in ``__post_init__`` and
:meth:`SimulationConfig.validate` additionally resolves all registry names, so
a malformed config fails at construction time with an error naming the bad
field (and, for registry keys, listing the valid names) rather than deep
inside a propagation run.
"""

from __future__ import annotations

import copy
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType

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
        raise ConfigError(
            f"{section}.{name} must be a dict of keyword arguments, got {type(value).__name__}"
        )


class _ParamsSection:
    """What the sections holding a ``params`` mapping share: configs are
    values, so the mapping is deep-copied at construction and handed out
    read-only. Identity derived from a config (``config_hash``, the
    ground-state group key, store keys) is computed once, at sweep expansion,
    and carried — a ``params`` that could be edited afterwards would silently
    disagree with it. ``job.config.system.params["box"] = 9`` raises
    ``TypeError``; :meth:`SimulationConfig.with_overrides` is the way to
    derive a changed config, :meth:`SimulationConfig.to_dict` the way to get a
    mutable copy. (Containers nested *inside* ``params`` are copied but not
    frozen.)"""

    def _freeze_params(self, section: str) -> None:
        _require_mapping(section, "params", self.params)
        object.__setattr__(self, "params", MappingProxyType(copy.deepcopy(dict(self.params))))

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied; the constructor
        # arguments can (process-pool workers receive whole jobs)
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        return type(self), tuple({**state, "params": dict(self.params)}.values())


@dataclass(frozen=True)
class SystemConfig(_ParamsSection):
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
        self._freeze_params("system")


@dataclass(frozen=True)
class BasisConfig:
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
        _require_positive("basis", "ecut", self.ecut)
        _require_positive("basis", "grid_factor", self.grid_factor)


@dataclass(frozen=True)
class XCConfig:
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
        for name, value in (("hybrid_mixing", self.hybrid_mixing), ("gs_hybrid_mixing", self.gs_hybrid_mixing)):
            if value is None:
                continue
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not 0.0 <= value <= 1.0
            ):
                raise ConfigError(f"xc.{name} must be a number in [0, 1], got {value!r}")
        if self.screening_length is not None:
            _require_positive("xc", "screening_length", self.screening_length)


@dataclass(frozen=True)
class LaserConfig(_ParamsSection):
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
        self._freeze_params("laser")


@dataclass(frozen=True)
class PropagatorConfig(_ParamsSection):
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
        self._freeze_params("propagator")


@dataclass(frozen=True)
class RunConfig:
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
    schedule:
        Sweep-level scheduling section consumed by :mod:`repro.exec` (it never
        affects the physics of a single run). Keys: ``policy``, one of
        :data:`SCHEDULE_POLICIES` (default ``"fifo"``), e.g.
        ``{"schedule": {"policy": "cheapest_first"}}``; ``precision``,
        ``"complex128"`` (default) or ``"complex64"`` selecting the screening
        precision tier; and ``batch_stepping``, a bool that is accepted and
        validated but has **no effect** (a ground-state group's jobs always
        propagate in lockstep; the key stays so stored configs keep loading).
        ``precision`` *does* change the numbers, so complex64 results are
        stamped and kept out of the result store — but the key still lives
        here because it selects *how* the sweep executes, not *what* physics
        it describes.
    machine:
        Machine-model section consumed by :mod:`repro.cost` / :mod:`repro.exec`
        (like ``schedule``, it never affects the physics of a single run —
        both are excluded from group keys and config hashes). Keys:
        ``name`` — a :data:`repro.cost.MACHINES` preset (default
        ``"summit"``) — and ``gpus_per_group`` — the modeled GPUs each
        ground-state group occupies (default 1), e.g.
        ``{"machine": {"name": "summit", "gpus_per_group": 6}}``.
    """

    time_step_as: float = 50.0
    n_steps: int = 8
    record_energy: bool = True
    record_dipole: bool = True
    gs_scf_tolerance: float = 1e-6
    gs_max_scf_iterations: int = 60
    schedule: dict = field(default_factory=dict)
    machine: dict = field(default_factory=dict)

    @property
    def schedule_policy(self) -> str:
        """The configured scheduling policy (default ``"fifo"``)."""
        return self.schedule.get("policy", "fifo")

    @property
    def schedule_batch_stepping(self) -> bool:
        """The inert ``batch_stepping`` key as stored (default False); lockstep
        propagation is always on, whatever this says."""
        return bool(self.schedule.get("batch_stepping", False))

    @property
    def schedule_precision(self) -> str:
        """The configured precision tier (default ``"complex128"``)."""
        return self.schedule.get("precision", "complex128")

    @property
    def machine_name(self) -> str:
        """The configured machine preset (default ``"summit"``)."""
        return self.machine.get("name", "summit")

    @property
    def machine_gpus_per_group(self) -> int:
        """Modeled GPUs each ground-state group occupies (default 1)."""
        return int(self.machine.get("gpus_per_group", 1))

    def __post_init__(self) -> None:
        _require_positive("run", "time_step_as", self.time_step_as)
        _require_positive("run", "gs_scf_tolerance", self.gs_scf_tolerance)
        _require_mapping("run", "schedule", self.schedule)
        unknown = sorted(set(self.schedule) - {"policy", "batch_stepping", "precision"})
        if unknown:
            raise ConfigError(
                f"unknown key(s) {unknown} in run.schedule; "
                "valid keys: ['batch_stepping', 'policy', 'precision']"
            )
        policy = self.schedule.get("policy", "fifo")
        if policy not in SCHEDULE_POLICIES:
            raise ConfigError(
                f"run.schedule.policy must be one of {list(SCHEDULE_POLICIES)}, got {policy!r}"
            )
        batch_stepping = self.schedule.get("batch_stepping", False)
        if not isinstance(batch_stepping, bool):
            raise ConfigError(
                f"run.schedule.batch_stepping must be a bool, got {batch_stepping!r}"
            )
        precision = self.schedule.get("precision", "complex128")
        if precision not in ("complex128", "complex64"):
            raise ConfigError(
                "run.schedule.precision must be one of ['complex128', 'complex64'], "
                f"got {precision!r}"
            )
        _require_mapping("run", "machine", self.machine)
        unknown = sorted(set(self.machine) - {"name", "gpus_per_group"})
        if unknown:
            raise ConfigError(
                f"unknown key(s) {unknown} in run.machine; valid keys: ['name', 'gpus_per_group']"
            )
        machine_name = self.machine.get("name", "summit")
        # deferred: repro.cost.MACHINES stays the single source of machine
        # presets (a preset added there is immediately valid in configs)
        from ..cost.model import MACHINES

        if machine_name not in MACHINES:
            raise ConfigError(
                f"run.machine.name must be one of {sorted(MACHINES)}, got {machine_name!r}"
            )
        gpus = self.machine.get("gpus_per_group", 1)
        if not isinstance(gpus, int) or isinstance(gpus, bool) or gpus < 1:
            raise ConfigError(
                f"run.machine.gpus_per_group must be a positive integer, got {gpus!r}"
            )
        for name in ("n_steps", "gs_max_scf_iterations"):
            value = getattr(self, name)
            try:
                is_integral = value == int(value)
            except (TypeError, ValueError):
                is_integral = False
            if not is_integral:
                raise ConfigError(f"run.{name} must be an integer, got {value!r}")
            # coerce (e.g. JSON-sourced 8.0) so downstream range()/loops get ints
            object.__setattr__(self, name, int(value))
            if int(value) < 1:
                raise ConfigError(f"run.{name} must be >= 1, got {value!r}")


def _section_from_dict(cls, data: dict, section: str):
    """Build one config section, rejecting unknown keys with the valid set."""
    if isinstance(data, cls):
        return data
    if not isinstance(data, dict):
        raise ConfigError(
            f"section '{section}' must be a dict, got {type(data).__name__}"
        )
    valid = [f.name for f in fields(cls)]
    unknown = sorted(set(data) - set(valid))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in section '{section}'; valid keys: {valid}"
        )
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
        for reg, name in (
            (_registry.STRUCTURES, self.system.structure),
            (_registry.PULSES, self.laser.pulse),
            (_registry.PROPAGATORS, self.propagator.name),
        ):
            reg.get(name)
        return self

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A plain-dict deep copy of the config (JSON-serializable if the
        ``params`` dicts are), independent of the config and of every other
        copy."""
        return copy.deepcopy(self._plain())

    def _plain(self) -> dict:
        """:meth:`to_dict` without the deep copy, for readers that serialise
        and discard (hashing, group keys): the outer, section and ``params``
        dicts are fresh — keys may be popped — while everything nested below
        them is shared with the config and must not be modified."""
        out: dict = {}
        for section in self._SECTIONS:
            value = getattr(self, section)
            out[section] = {f.name: getattr(value, f.name) for f in fields(value)}
            if isinstance(value, _ParamsSection):
                out[section]["params"] = dict(value.params)
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
        section_types = {
            "system": SystemConfig,
            "basis": BasisConfig,
            "xc": XCConfig,
            "laser": LaserConfig,
            "propagator": PropagatorConfig,
            "run": RunConfig,
        }
        kwargs = {
            name: _section_from_dict(section_types[name], data[name], name)
            for name in data
        }
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
            raise ConfigError(
                f"overrides must be a dict of path -> value, got {type(overrides).__name__}"
            )
        data = self.to_dict()
        for path, value in overrides.items():
            if not isinstance(path, str) or not path:
                raise ConfigError(f"override path must be a non-empty string, got {path!r}")
            keys = path.split(".")
            if keys[0] not in self._SECTIONS:
                raise ConfigError(
                    f"unknown config section {keys[0]!r} in override path {path!r}; "
                    f"valid sections: {list(self._SECTIONS)}"
                )
            if len(keys) == 1:
                if not isinstance(value, dict):
                    raise ConfigError(
                        f"override for whole section {path!r} must be a dict, "
                        f"got {type(value).__name__}"
                    )
                data[path].update(copy.deepcopy(value))
                continue
            node = data[keys[0]]
            for depth, key in enumerate(keys[1:-1], start=1):
                if not isinstance(node, dict) or key not in node:
                    raise ConfigError(
                        f"override path {path!r} does not exist in the config "
                        f"(no {'.'.join(keys[: depth + 1])!r})"
                    )
                node = node[key]
            if not isinstance(node, dict):
                raise ConfigError(
                    f"override path {path!r} does not address a dict "
                    f"({'.'.join(keys[:-1])!r} is {type(node).__name__})"
                )
            node[keys[-1]] = copy.deepcopy(value)
        return SimulationConfig.from_dict(data)

    # ------------------------------------------------------------------
    def to_json(self, indent: int | None = 2) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SimulationConfig":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))
