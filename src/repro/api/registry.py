"""String-keyed registries for structures, laser pulses and propagators.

The declarative layer refers to every pluggable component by name — a config
dict says ``{"structure": "silicon_supercell"}`` or ``{"name": "ptcn"}`` and
the registries below resolve those names to factory callables. New schemes
plug in with a decorator and become available to every config-driven entry
point without touching the session driver:

.. code-block:: python

    from repro.api import register_propagator

    @register_propagator("my_scheme")
    def build_my_scheme(hamiltonian, **params):
        return MyScheme(hamiltonian, **params)

Unknown names raise :class:`UnknownNameError` whose message lists every
registered name plus did-you-mean suggestions, so typos in configs fail with
an actionable error. Registering a name (or alias) that is already taken
raises :class:`DuplicateNameError`, so two plugins cannot silently shadow
each other or a built-in.

Beyond registered names, the structure and pulse registries resolve
``asset:<kind>/<name>@<version>`` references through the
:mod:`repro.assets` library (e.g. ``{"structure":
"asset:structure/si-diamond-2x2x2@1"}``); registries remain the
compatibility path for plain names.
"""

from __future__ import annotations

import difflib
from typing import Callable

from ..constants import attoseconds_to_au
from ..core.propagators import (
    CrankNicolsonPropagator,
    ETRSPropagator,
    PTCNPropagator,
    RK4Propagator,
)
from ..pw.laser import (
    DeltaKick,
    GaussianLaserPulse,
    fluence_gaussian_pulse,
    paper_laser_pulse,
    pump_probe_pulse,
)
from ..pw.structures import (
    diamond_silicon,
    hydrogen_chain,
    hydrogen_molecule,
    silicon_supercell,
)

__all__ = [
    "Registry",
    "UnknownNameError",
    "DuplicateNameError",
    "STRUCTURES",
    "PULSES",
    "PROPAGATORS",
    "register_structure",
    "register_pulse",
    "register_propagator",
]


class UnknownNameError(KeyError):
    """A registry lookup failed; the message lists the registered names."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # KeyError would wrap the message in quotes
        return self.message


class DuplicateNameError(ValueError):
    """A registration clashed with an already-registered name or alias."""


class Registry:
    """A named mapping from string keys to factory callables.

    Parameters
    ----------
    kind:
        Human-readable singular noun for error messages (e.g. ``"propagator"``).
    asset_kind:
        When set (``"structure"`` / ``"pulse"``), names starting with
        ``asset:`` resolve through :func:`repro.assets.default_library`
        instead of the registered factories, restricted to assets of that
        kind. ``None`` (the default) keeps the registry purely name-based.
    """

    def __init__(self, kind: str, asset_kind: str | None = None):
        self.kind = kind
        self.asset_kind = asset_kind
        self._factories: dict[str, Callable] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        factory: Callable | None = None,
        *,
        aliases: tuple[str, ...] = (),
    ):
        """Register ``factory`` under ``name`` (and optional aliases).

        Usable directly (``REG.register("x", build_x)``) or as a decorator
        (``@REG.register("x")``). Registering a name or alias that is already
        taken raises :class:`DuplicateNameError`, so a built-in is never
        replaced.
        """

        def _store(func: Callable) -> Callable:
            keys = [str(key) for key in (name, *aliases)]
            taken = sorted(key for key in keys if key in self._factories)
            if taken:
                raise DuplicateNameError(f"{self.kind} name(s) {taken} already registered")
            for key in keys:
                self._factories[key] = func
            return func

        if factory is not None:
            return _store(factory)
        return _store

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Sorted list of all registered names (including aliases)."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def get(self, name: str) -> Callable:
        """The factory registered under ``name``.

        On an asset-aware registry, ``asset:<id>`` names resolve to the
        asset library's build factory for that id (the asset must exist and
        be of this registry's kind — resolution fails fast at config
        validation, not at build time).
        """
        asset_factory = self._asset_factory(name)
        if asset_factory is not None:
            return asset_factory
        try:
            return self._factories[name]
        except KeyError:
            raise UnknownNameError(self._missing_message(name)) from None

    def declared(self, name: str) -> Callable | None:
        """The callable whose signature declares ``name``'s params: its
        factory or, for an ``asset:`` reference, the builder the asset
        forwards them to; ``None`` if there is none (:meth:`get` says why)."""
        if name in self._factories or self.asset_kind is None:
            return self._factories.get(name)
        try:
            asset = self._asset_factory(name)
            from ..assets import default_library

            return None if asset is None else default_library().builder(asset.asset_ref)
        except (UnknownNameError, ValueError):  # an AssetError is a ValueError
            return None

    def create(self, name: str, *args, **kwargs):
        """Instantiate the component registered under ``name``."""
        return self.get(name)(*args, **kwargs)

    def _asset_factory(self, name: str) -> Callable | None:
        from ..assets import ASSET_PREFIX, default_library

        if not isinstance(name, str) or not name.startswith(ASSET_PREFIX):
            return None
        if self.asset_kind is None:
            raise UnknownNameError(
                f"{self.kind} names cannot be asset references ({name!r}); "
                f"registered {self.kind}s: " + ", ".join(self.names())
            )
        from ..assets import AssetError

        ref = name[len(ASSET_PREFIX):]
        try:
            return default_library().factory(ref, expected_kind=self.asset_kind)
        except (AssetError, KeyError) as exc:
            # keep the registry's error contract: bad names raise UnknownNameError
            raise UnknownNameError(str(exc)) from None

    def _missing_message(self, name: str) -> str:
        message = f"unknown {self.kind} {name!r}"
        close = difflib.get_close_matches(str(name), self.names(), n=3, cutoff=0.6)
        if close:
            message += "; did you mean " + " or ".join(repr(c) for c in close) + "?"
        message += f"; registered {self.kind}s: " + ", ".join(self.names())
        if self.asset_kind is not None:
            message += (
                f" ('asset:{self.asset_kind}/...' references resolve through "
                "the repro.assets library)"
            )
        return message


#: Structures addressable from :class:`repro.api.SystemConfig`; also resolves
#: ``asset:structure/...`` ids through the asset library.
STRUCTURES = Registry("structure", asset_kind="structure")
#: Laser pulses / kicks addressable from :class:`repro.api.LaserConfig`; also
#: resolves ``asset:pulse/...`` ids through the asset library.
PULSES = Registry("laser pulse", asset_kind="pulse")
#: Time propagators addressable from :class:`repro.api.PropagatorConfig`.
PROPAGATORS = Registry("propagator")


def register_structure(name: str):
    """Decorator registering a structure factory ``(**params) -> Structure``."""
    return STRUCTURES.register(name)


def register_pulse(name: str):
    """Decorator registering a pulse factory ``(**params) -> pulse | None``."""
    return PULSES.register(name)


def register_propagator(name: str):
    """Decorator registering a propagator factory ``(hamiltonian, **params)``."""
    return PROPAGATORS.register(name)


# ---------------------------------------------------------------------------
# Built-in structures
# ---------------------------------------------------------------------------

STRUCTURES.register("hydrogen_molecule", hydrogen_molecule, aliases=("h2",))
STRUCTURES.register("hydrogen_chain", hydrogen_chain)
STRUCTURES.register("diamond_silicon", diamond_silicon, aliases=("si8",))
STRUCTURES.register("silicon_supercell", silicon_supercell)


# ---------------------------------------------------------------------------
# Built-in pulses
# ---------------------------------------------------------------------------


@register_pulse("none")
def _build_no_pulse(**params):
    """Field-free propagation; accepts no parameters."""
    if params:
        raise ValueError(f"pulse 'none' accepts no parameters, got {sorted(params)}")
    return None


@register_pulse("gaussian")
def _build_gaussian_pulse(
    amplitude: float,
    omega: float,
    t0: float | None = None,
    sigma: float | None = None,
    t0_as: float | None = None,
    sigma_as: float | None = None,
    polarization=None,
    phase: float = 0.0,
):
    """Gaussian-envelope pulse; times either in a.u. (t0/sigma) or attoseconds.

    Exactly one of ``t0``/``t0_as`` and one of ``sigma``/``sigma_as`` must be
    given, so declarative JSON configs can use the more natural attosecond
    units while programmatic callers keep atomic units.
    """
    if (t0 is None) == (t0_as is None):
        raise ValueError("give exactly one of 't0' (a.u.) or 't0_as' (attoseconds)")
    if (sigma is None) == (sigma_as is None):
        raise ValueError("give exactly one of 'sigma' (a.u.) or 'sigma_as' (attoseconds)")
    return GaussianLaserPulse(
        amplitude=amplitude,
        omega=omega,
        t0=attoseconds_to_au(t0_as) if t0 is None else t0,
        sigma=attoseconds_to_au(sigma_as) if sigma is None else sigma,
        polarization=polarization,
        phase=phase,
    )


PULSES.register("paper", paper_laser_pulse, aliases=("paper_380nm",))
PULSES.register("delta_kick", DeltaKick, aliases=("kick",))
PULSES.register("fluence_gaussian", fluence_gaussian_pulse)
PULSES.register("pump_probe", pump_probe_pulse)


# ---------------------------------------------------------------------------
# Built-in propagators
# ---------------------------------------------------------------------------

PROPAGATORS.register("ptcn", PTCNPropagator, aliases=("pt-cn", "pt_cn"))
PROPAGATORS.register("rk4", RK4Propagator)
PROPAGATORS.register("etrs", ETRSPropagator)
PROPAGATORS.register("cn", CrankNicolsonPropagator, aliases=("crank_nicolson",))
