"""Generator-backed builtin assets: the library ships self-contained.

Every builtin asset's payload is produced by a deterministic generator over
the numeric tables in :mod:`repro.pw` (GTH parameters, lattice constants,
paper pulse geometry), so the library needs no data files — yet each payload
is a plain dict of numbers whose canonical sha256 pins the *content*, not the
generator's name. :data:`PINNED_DIGESTS` records the expected digest of every
builtin asset; ``repro.assets verify`` regenerates each payload and compares,
so an accidental edit to a generator (or to the tables it reads) that changes
physical content fails verification loudly instead of silently shifting store
keys. Deliberate content changes bump the asset ``@version`` and re-pin.

Structure payloads embed their pseudopotential dependencies as
``{"ref": "pseudo/si/gth-q4@1", "sha256": ...}`` pairs — a Merkle link, so a
structure's digest transitively pins the pseudopotential numbers it was
built against, and resolving a structure re-checks both the link digest and
the element ↔ pseudopotential symbol consistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..constants import (
    ANGSTROM_TO_BOHR,
    PAPER_LASER_WAVELENGTH_NM,
    SILICON_LATTICE_BOHR,
    femtoseconds_to_au,
    wavelength_nm_to_energy_hartree,
)
from .manifest import (
    AssetError,
    AssetId,
    AssetIntegrityError,
    AssetManifest,
    AssetRecord,
    payload_digest,
)

__all__ = [
    "BUILTIN_ASSETS",
    "PINNED_DIGESTS",
    "BuiltinAsset",
    "builtin_manifest",
    "builtin_payloads",
    "build_pseudo",
    "build_structure",
    "build_pulse",
]


# ---------------------------------------------------------------------------
# Payload generators
# ---------------------------------------------------------------------------


def _pseudo_payload(symbol: str) -> dict:
    """Full numeric GTH parameter set for ``symbol`` — the content the digest
    pins (not the generator name)."""
    from ..pw.pseudopotential import GTH_PARAMETERS

    key = str(symbol).capitalize()
    valence, r_loc, local_coefficients, channels = GTH_PARAMETERS[key]
    return {
        "generator": "gth_species",
        "element": key,
        "valence_charge": float(valence),
        "r_loc": float(r_loc),
        "local_coefficients": [float(c) for c in local_coefficients],
        "projectors": [[int(l), float(r_l), float(h)] for l, r_l, h in channels],
    }


def _pseudo_ref(symbol: str) -> dict:
    """The Merkle link a structure payload embeds for one species."""
    symbol = str(symbol).capitalize()
    valence = int(_pseudo_payload(symbol)["valence_charge"])
    ref = f"pseudo/{symbol.lower()}/gth-q{valence}@1"
    return {"ref": ref, "sha256": payload_digest(_pseudo_payload(symbol))}


def _species_entry(symbol: str) -> dict:
    return {"element": str(symbol).capitalize(), "pseudo": _pseudo_ref(symbol)}


def _diamond_payload(symbol: str, lattice_bohr: float, repeats=(1, 1, 1)) -> dict:
    return {
        "generator": "diamond_crystal",
        "lattice_constant": float(lattice_bohr),
        "repeats": [int(r) for r in repeats],
        "species": [_species_entry(symbol)],
    }


def _zincblende_payload(cation: str, anion: str, lattice_bohr: float) -> dict:
    return {
        "generator": "zincblende_crystal",
        "lattice_constant": float(lattice_bohr),
        "repeats": [1, 1, 1],
        "species": [_species_entry(cation), _species_entry(anion)],
    }


def _molecule_payload(symbol_a: str, symbol_b: str | None, bond_length: float, box: float) -> dict:
    species = [_species_entry(symbol_a)]
    if symbol_b is not None and str(symbol_b).capitalize() != str(symbol_a).capitalize():
        species.append(_species_entry(symbol_b))
    return {
        "generator": "diatomic_molecule",
        "bond_length": float(bond_length),
        "box": float(box),
        "species": species,
    }


def _chain_payload(symbol: str, n_atoms: int, spacing: float, box: float) -> dict:
    return {
        "generator": "atom_chain",
        "n_atoms": int(n_atoms),
        "spacing": float(spacing),
        "box": float(box),
        "species": [_species_entry(symbol)],
    }


def _paper_pulse_geometry() -> tuple[float, float]:
    """(t0, sigma) of the paper's 30 fs window, in atomic units."""
    window = femtoseconds_to_au(30.0)
    return 0.5 * window, window / 6.0


def _pump_probe_payload() -> dict:
    return {
        "generator": "pump_probe_pulse",
        "params": {
            "pump_wavelength_nm": float(PAPER_LASER_WAVELENGTH_NM),
            "probe_wavelength_nm": float(2.0 * PAPER_LASER_WAVELENGTH_NM),
            "duration_fs": 30.0,
            "fluence": 1.0e-6,
            "probe_ratio": 0.1,
            "delay_as": 0.0,
        },
    }


def _fluence_gaussian_payload() -> dict:
    t0, sigma = _paper_pulse_geometry()
    return {
        "generator": "fluence_gaussian_pulse",
        "params": {
            "fluence": 1.0e-6,
            "omega": float(wavelength_nm_to_energy_hartree(PAPER_LASER_WAVELENGTH_NM)),
            "t0": float(t0),
            "sigma": float(sigma),
        },
    }


def _kick_payload() -> dict:
    return {"generator": "delta_kick", "params": {"strength": 1.0e-3}}


def _paper_pulse_payload() -> dict:
    return {
        "generator": "paper_laser_pulse",
        "params": {
            "amplitude": 0.01,
            "duration_fs": 30.0,
            "wavelength_nm": float(PAPER_LASER_WAVELENGTH_NM),
        },
    }


# ---------------------------------------------------------------------------
# The builtin catalog
# ---------------------------------------------------------------------------

#: Lattice constants of the builtin crystals, Bohr.
_CARBON_DIAMOND_BOHR = 3.567 * ANGSTROM_TO_BOHR
_GERMANIUM_DIAMOND_BOHR = 5.658 * ANGSTROM_TO_BOHR
_SIC_ZINCBLENDE_BOHR = 4.36 * ANGSTROM_TO_BOHR


@dataclass(frozen=True)
class BuiltinAsset:
    """One catalog row: identity, metadata, and the payload generator."""

    id: str
    description: str
    payload_fn: Callable[[], dict]
    element: str | None = None

    @property
    def asset_id(self) -> AssetId:
        return AssetId.parse(self.id)


def _pseudo_asset(symbol: str, description: str) -> BuiltinAsset:
    link = _pseudo_ref(symbol)
    return BuiltinAsset(
        id=link["ref"],
        description=description,
        payload_fn=lambda symbol=symbol: _pseudo_payload(symbol),
        element=str(symbol).capitalize(),
    )


BUILTIN_ASSETS: tuple[BuiltinAsset, ...] = (
    # --- pseudopotentials -------------------------------------------------
    _pseudo_asset("H", "GTH/HGH hydrogen, q=1 (s-local)"),
    _pseudo_asset("C", "GTH/HGH carbon, q=4, one s projector"),
    _pseudo_asset("N", "GTH/HGH nitrogen, q=5, one s projector"),
    _pseudo_asset("O", "GTH/HGH oxygen, q=6, one s projector"),
    _pseudo_asset("Al", "GTH/HGH aluminium, q=3, s+p projectors"),
    _pseudo_asset("Si", "GTH/HGH silicon, q=4, s+p projectors (paper species)"),
    _pseudo_asset("Ge", "GTH/HGH germanium, q=4, s+p projectors"),
    # --- structures -------------------------------------------------------
    BuiltinAsset(
        id="structure/h2-box@1",
        description="H2 molecule centred in a 12 Bohr cubic box",
        payload_fn=lambda: _molecule_payload("H", None, bond_length=1.4, box=12.0),
        element="H",
    ),
    BuiltinAsset(
        id="structure/h4-chain@1",
        description="Periodic 4-atom hydrogen chain, 2 Bohr spacing",
        payload_fn=lambda: _chain_payload("H", n_atoms=4, spacing=2.0, box=10.0),
        element="H",
    ),
    BuiltinAsset(
        id="structure/n2-box@1",
        description="N2 molecule (2.074 Bohr bond) in a 12 Bohr box",
        payload_fn=lambda: _molecule_payload("N", None, bond_length=2.074, box=12.0),
        element="N",
    ),
    BuiltinAsset(
        id="structure/co-box@1",
        description="CO molecule (2.132 Bohr bond) in a 12 Bohr box",
        payload_fn=lambda: _molecule_payload("C", "O", bond_length=2.132, box=12.0),
    ),
    BuiltinAsset(
        id="structure/si-diamond-1x1x1@1",
        description="8-atom conventional diamond-silicon cell, a = 5.43 A",
        payload_fn=lambda: _diamond_payload("Si", SILICON_LATTICE_BOHR),
        element="Si",
    ),
    BuiltinAsset(
        id="structure/si-diamond-2x2x2@1",
        description="64-atom 2x2x2 diamond-silicon supercell",
        payload_fn=lambda: _diamond_payload("Si", SILICON_LATTICE_BOHR, repeats=(2, 2, 2)),
        element="Si",
    ),
    BuiltinAsset(
        id="structure/c-diamond-1x1x1@1",
        description="8-atom diamond-carbon cell, a = 3.567 A",
        payload_fn=lambda: _diamond_payload("C", _CARBON_DIAMOND_BOHR),
        element="C",
    ),
    BuiltinAsset(
        id="structure/ge-diamond-1x1x1@1",
        description="8-atom diamond-germanium cell, a = 5.658 A",
        payload_fn=lambda: _diamond_payload("Ge", _GERMANIUM_DIAMOND_BOHR),
        element="Ge",
    ),
    BuiltinAsset(
        id="structure/sic-zincblende-1x1x1@1",
        description="8-atom zincblende SiC cell, a = 4.36 A",
        payload_fn=lambda: _zincblende_payload("Si", "C", _SIC_ZINCBLENDE_BOHR),
    ),
    # --- pulses -----------------------------------------------------------
    BuiltinAsset(
        id="pulse/pump-probe-380+760@1",
        description="380 nm pump + 760 nm probe pair; sweep fluence / delay_as",
        payload_fn=_pump_probe_payload,
    ),
    BuiltinAsset(
        id="pulse/fluence-gaussian-380@1",
        description="380 nm Gaussian pulse parameterised by fluence (Ha/Bohr^2)",
        payload_fn=_fluence_gaussian_payload,
    ),
    BuiltinAsset(
        id="pulse/kick-z@1",
        description="Weak delta kick along z for absorption spectra",
        payload_fn=_kick_payload,
    ),
    BuiltinAsset(
        id="pulse/paper-380@1",
        description="The paper's Fig. 4(b) 380 nm, 30 fs pulse",
        payload_fn=_paper_pulse_payload,
    ),
)


#: Expected canonical-payload sha256 of every builtin asset. ``verify``
#: regenerates each payload and compares against these pins; a mismatch means
#: a generator (or a table it reads) changed physical content without a
#: version bump. Regenerate with
#: ``python -m repro.assets pin`` after a *deliberate* change.
PINNED_DIGESTS: dict[str, str] = {
    "pseudo/al/gth-q3@1": "330d18c39e25ba48cf5bc7950443789954fbcd52c85e51b4f2f91c55e851f15f",
    "pseudo/c/gth-q4@1": "31bb3db38ca24bd1055586ad0699768a4e9395280cedf076a81784b9dc604b94",
    "pseudo/ge/gth-q4@1": "a3d88706ccba966ba2807734a28fe1a9183a0d5b4591aa0124d8e42e592f0ebf",
    "pseudo/h/gth-q1@1": "ba5e14738aa93f60db6f63e152cc39f88311d0b4e367c50bdb8b1e7ef3b3713f",
    "pseudo/n/gth-q5@1": "36234023f50d1780936df74bbee087033542439b61ff85e20279aee59e299d1b",
    "pseudo/o/gth-q6@1": "ba752ba6a55a1707dbb6bfc4471e27316ea293833d07e3d265fec3d125444275",
    "pseudo/si/gth-q4@1": "a603d3f169707b43ecc63c8f9530b03d8769c92fdf82b669137b6160186a02d2",
    "pulse/fluence-gaussian-380@1": "09fe0dd9fbe6a614f680b6102c91e0aa23e1e50b94dd6366b5621c9de19fd5f0",
    "pulse/kick-z@1": "3ac3534f7e9ad3077412fb8aa9169abce7940114fc8a71a27ba937ff7fa100ec",
    "pulse/paper-380@1": "e8f261691a8655baab4e2f8afc55cde0adce5412c04b016977146c6e1a6b5b5b",
    "pulse/pump-probe-380+760@1": "052198eb55896c4be256a0c64bc6fc5dd9c22b7e3d8dc0a924fe21890df195a6",
    "structure/c-diamond-1x1x1@1": "d5c47ec707882ebe7f490b773c42579744d7a5fc63eae52731a58603f9d93a89",
    "structure/co-box@1": "4446e80a2de01170f4290eb455ff709b3e088b82af38257e9d5ac26d414014c6",
    "structure/ge-diamond-1x1x1@1": "abea27f7e5bffe4d449ee4c5d99b8fb4677b83d238249afa4c882deaf70599fb",
    "structure/h2-box@1": "d7ed3ed4fe2748cf184e25176790854cbcc7a03e3cd70a79c820a175838a365e",
    "structure/h4-chain@1": "1b61e17013c614de38b434be142afbda017e2ddc896434cf317e42fdd33111b2",
    "structure/n2-box@1": "baa26724c640dea762de652b76d44e3a1396bc6f2da65b3d6d4d244a7d9b5f35",
    "structure/si-diamond-1x1x1@1": "9131fa41557b4df87b38094c90bab890abcade1e66a653695760760d73ffa9dd",
    "structure/si-diamond-2x2x2@1": "c111047cb149b6131e61f8fd8c0847a5afd087329b83fa67380b82a0269b56bf",
    "structure/sic-zincblende-1x1x1@1": "b76744f0040001bd6d4c5c4847fb267907922f8f2dfdfdacc8668a7af563c980",
}


def builtin_payloads() -> dict[str, dict]:
    """Freshly generated payloads for every builtin asset, keyed by id."""
    return {asset.id: asset.payload_fn() for asset in BUILTIN_ASSETS}


def builtin_manifest() -> AssetManifest:
    """The manifest of the builtin catalog (digests computed, not pinned)."""
    manifest = AssetManifest()
    for asset in BUILTIN_ASSETS:
        manifest.add(
            AssetRecord(
                asset_id=asset.asset_id,
                sha256=payload_digest(asset.payload_fn()),
                element=asset.element,
                description=asset.description,
                provenance=f"builtin:{asset.payload_fn().get('generator', 'literal')}",
            )
        )
    return manifest


# ---------------------------------------------------------------------------
# Payload -> object builders
# ---------------------------------------------------------------------------


def build_pseudo(payload: dict, **overrides):
    """Build a :class:`~repro.pw.pseudopotential.PseudopotentialSpecies` from
    a pseudo payload's numbers (not from the generator tables, so a
    materialised-and-edited payload builds exactly what it says)."""
    from ..pw.pseudopotential import ProjectorChannel, PseudopotentialSpecies

    if overrides:
        raise AssetError(
            f"pseudo assets accept no build parameters, got {sorted(overrides)}"
        )
    try:
        return PseudopotentialSpecies(
            symbol=str(payload["element"]),
            valence_charge=float(payload["valence_charge"]),
            r_loc=float(payload["r_loc"]),
            local_coefficients=tuple(float(c) for c in payload["local_coefficients"]),
            projectors=tuple(
                ProjectorChannel(l=int(l), i=1, r_l=float(r_l), h=float(h))
                for l, r_l, h in payload.get("projectors", ())
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise AssetError(f"malformed pseudo payload: {exc}") from None


def _resolve_species(entry: dict, library):
    """Resolve one embedded species link: verify the Merkle digest, build the
    species, and check element ↔ pseudopotential symbol consistency."""
    try:
        element = str(entry["element"])
        link = entry["pseudo"]
        ref, pinned = link["ref"], link["sha256"]
    except (KeyError, TypeError) as exc:
        raise AssetError(f"malformed species entry in structure payload: {exc}") from None
    actual = library.digest(ref)
    if actual != pinned:
        raise AssetIntegrityError(
            f"structure pins {ref} at sha256 {pinned[:12]}..., but the library "
            f"holds {actual[:12]}...; the pseudopotential content changed under "
            "the structure (bump the structure version or re-pin)"
        )
    species = library.build(ref)
    if species.symbol.capitalize() != element.capitalize():
        raise AssetIntegrityError(
            f"structure declares element {element!r} but {ref} provides a "
            f"{species.symbol!r} pseudopotential"
        )
    return species


def forwarded_builder(kind: str, generator):
    """The :mod:`repro.pw` function a structure or pulse payload's
    ``generator`` forwards its parameters to (a structure recipe takes the
    species first); ``None`` for a pseudo or an unknown generator."""
    from ..pw import laser, structures

    recipes = ("diamond_crystal", "zincblende_crystal", "diatomic_molecule", "atom_chain")
    pulses = ("pump_probe_pulse", "fluence_gaussian_pulse", "paper_laser_pulse")
    builders = {"structure": {name: getattr(structures, name) for name in recipes},
                "pulse": {name: getattr(laser, name) for name in pulses} | {"delta_kick": laser.DeltaKick}}
    return builders.get(kind, {}).get(generator)


def build_structure(payload: dict, library, **overrides):
    """Build a :class:`~repro.pw.structures.Structure` from a structure
    payload, resolving its pseudo links through ``library``.

    ``overrides`` may replace the payload's geometry parameters (``repeats``,
    ``n_atoms``, ...) — that is what makes ``system.params`` sweep axes
    compose with assets — but never the species links.
    """
    generator = payload.get("generator")
    species = [_resolve_species(entry, library) for entry in payload.get("species", [])]
    if not species:
        raise AssetError("structure payload lists no species")
    params = {
        key: value
        for key, value in payload.items()
        if key not in ("generator", "species")
    }
    unknown = sorted(set(overrides) - set(params))
    if unknown:
        raise AssetError(
            f"unknown structure parameter(s) {unknown} for generator "
            f"{generator!r}; overridable: {sorted(params)}"
        )
    params.update(overrides)
    if "repeats" in params:
        params["repeats"] = tuple(int(r) for r in params["repeats"])
    recipe = forwarded_builder("structure", generator)
    if recipe is None:
        raise AssetError(f"unknown structure generator {generator!r}")
    if generator == "zincblende_crystal" and len(species) != 2:
        raise AssetError("zincblende_crystal payloads need exactly two species")
    return recipe(*species, **params)


def build_pulse(payload: dict, **overrides):
    """Build a pulse object from a pulse payload; ``overrides`` merge over the
    payload's ``params`` (e.g. ``fluence`` / ``delay_as`` sweep values)."""
    generator = payload.get("generator")
    params = dict(payload.get("params", {}))
    # amplitude and fluence are exclusive ways to set pulse strength: an
    # override of one displaces the payload's default for the other
    if generator == "pump_probe_pulse":
        if "amplitude" in overrides and "fluence" not in overrides:
            params.pop("fluence", None)
        if "fluence" in overrides and "amplitude" not in overrides:
            params.pop("amplitude", None)
    params.update(overrides)
    builder = forwarded_builder("pulse", generator)
    if builder is None:
        raise AssetError(f"unknown pulse generator {generator!r}")
    try:
        return builder(**params)
    except TypeError as exc:
        raise AssetError(f"bad parameters for pulse generator {generator!r}: {exc}") from None
