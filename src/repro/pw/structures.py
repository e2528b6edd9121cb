"""Atomic structures: silicon supercells and simple molecules.

The paper's test systems are diamond-silicon supercells built from the 8-atom
simple-cubic conventional cell with lattice constant 5.43 Angstrom, replicated
1x1x3 (48 atoms) up to 4x6x8 (1536 atoms). This module builds those geometries
(at any replication factor, so that laptop-scale runs can use the 8- or
16-atom versions) plus a few molecule-in-a-box systems used by the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..constants import SILICON_LATTICE_BOHR
from .lattice import Cell
from .pseudopotential import (
    PseudopotentialSpecies,
    cohen_bergstresser_silicon_species,
    gth_species,
)

__all__ = [
    "Structure",
    "diamond_crystal",
    "zincblende_crystal",
    "diatomic_molecule",
    "atom_chain",
    "diamond_silicon",
    "silicon_supercell",
    "paper_silicon_series",
    "hydrogen_molecule",
    "hydrogen_chain",
]


@dataclass
class Structure:
    """A periodic atomic structure.

    Attributes
    ----------
    cell:
        Periodic simulation cell.
    species_list:
        One :class:`PseudopotentialSpecies` per group of equivalent atoms.
    positions_by_species:
        For each species, Cartesian positions ``(n_atoms, 3)`` in Bohr.
    name:
        Human-readable label used in reports.
    """

    cell: Cell
    species_list: list[PseudopotentialSpecies]
    positions_by_species: list[np.ndarray]
    name: str = "structure"

    def __post_init__(self) -> None:
        if len(self.species_list) != len(self.positions_by_species):
            raise ValueError("species_list and positions_by_species must align")
        cleaned = []
        for pos in self.positions_by_species:
            arr = np.atleast_2d(np.asarray(pos, dtype=float))
            if arr.shape[1] != 3:
                raise ValueError("positions must have shape (natoms, 3)")
            cleaned.append(arr)
        self.positions_by_species = cleaned

    # ------------------------------------------------------------------
    @property
    def natoms(self) -> int:
        """Total number of atoms."""
        return sum(p.shape[0] for p in self.positions_by_species)

    @property
    def positions(self) -> np.ndarray:
        """All Cartesian positions stacked, shape ``(natoms, 3)``."""
        return np.vstack(self.positions_by_species) if self.positions_by_species else np.zeros((0, 3))

    @property
    def valence_charges(self) -> np.ndarray:
        """Valence charge per atom, aligned with :attr:`positions`."""
        charges = []
        for species, pos in zip(self.species_list, self.positions_by_species):
            charges.append(np.full(pos.shape[0], species.valence_charge))
        return np.concatenate(charges) if charges else np.zeros(0)

    @property
    def n_electrons(self) -> float:
        """Total number of valence electrons."""
        return float(np.sum(self.valence_charges))

    def n_occupied_bands(self) -> int:
        """Number of doubly occupied bands (paper: N_e orbitals = electrons/2)."""
        electrons = self.n_electrons
        n = int(round(electrons / 2.0))
        if abs(n * 2.0 - electrons) > 1e-8:
            raise ValueError(
                f"odd electron count {electrons}; spin-degenerate occupation impossible"
            )
        return n


# ---------------------------------------------------------------------------
# Silicon
# ---------------------------------------------------------------------------

#: Fractional coordinates of the 8 atoms of the conventional diamond cell.
_DIAMOND_FRACTIONS = np.array(
    [
        [0.00, 0.00, 0.00],
        [0.50, 0.50, 0.00],
        [0.50, 0.00, 0.50],
        [0.00, 0.50, 0.50],
        [0.25, 0.25, 0.25],
        [0.75, 0.75, 0.25],
        [0.75, 0.25, 0.75],
        [0.25, 0.75, 0.75],
    ]
)


def diamond_silicon(
    lattice_constant: float = SILICON_LATTICE_BOHR,
    empirical: bool = False,
    include_nonlocal: bool = True,
) -> Structure:
    """The 8-atom conventional diamond-silicon cubic cell.

    Parameters
    ----------
    lattice_constant:
        Cubic lattice constant in Bohr (defaults to the paper's 5.43 Angstrom).
    empirical:
        If True, use the Cohen–Bergstresser empirical pseudopotential (local
        only) instead of the HGH-style model potential.
    include_nonlocal:
        Whether the HGH-style species carries nonlocal projectors.
    """
    cell = Cell.cubic(lattice_constant)
    positions = _DIAMOND_FRACTIONS @ cell.lattice_vectors
    if empirical:
        species = cohen_bergstresser_silicon_species(lattice_constant)
    else:
        species = gth_species("Si")
        if not include_nonlocal:
            species = replace(species, projectors=())
    return Structure(cell, [species], [positions], name="Si8")


def silicon_supercell(
    repeats: tuple[int, int, int] = (1, 1, 1),
    lattice_constant: float = SILICON_LATTICE_BOHR,
    empirical: bool = False,
    include_nonlocal: bool = True,
) -> Structure:
    """A diamond-silicon supercell with ``8 * nx * ny * nz`` atoms.

    The paper's systems correspond to ``repeats`` of (1,1,3)=48 atoms up to
    (4,6,8)=1536 atoms.
    """
    base = diamond_silicon(lattice_constant, empirical=empirical, include_nonlocal=include_nonlocal)
    supercell, positions = _replicate(base.cell, base.positions_by_species[0], repeats)
    return Structure(supercell, list(base.species_list), [positions], name=f"Si{positions.shape[0]}")


def paper_silicon_series() -> dict[int, tuple[int, int, int]]:
    """The supercell multiplicities of the paper's weak-scaling series.

    Returns a mapping from atom count to the ``(nx, ny, nz)`` replication of
    the 8-atom conventional cell. The paper quotes "1x1x3 to 4x6x8 unit cells"
    for 48 to 1536 atoms; with 8 atoms per conventional cell the atom counts
    fix the replication factors used here (the largest system, 4x6x8 = 1536
    atoms, matches the paper exactly).
    """
    return {
        48: (1, 2, 3),
        96: (2, 2, 3),
        192: (2, 2, 6),
        384: (2, 4, 6),
        768: (4, 4, 6),
        1536: (4, 6, 8),
    }


# ---------------------------------------------------------------------------
# Generic crystal recipes (the generators behind the structure/ assets)
# ---------------------------------------------------------------------------

#: Zincblende sublattice fractions: cations on the fcc sites, anions offset
#: by (1/4, 1/4, 1/4) — the diamond fractions split into their two sublattices.
_ZB_CATION_FRACTIONS = _DIAMOND_FRACTIONS[:4]
_ZB_ANION_FRACTIONS = _DIAMOND_FRACTIONS[4:]


def _replicate(cell: Cell, positions: np.ndarray, repeats: tuple[int, int, int]):
    """Tile ``positions`` (one conventional cell) over an ``nx x ny x nz``
    supercell; returns ``(supercell, tiled_positions)``."""
    nx, ny, nz = (int(r) for r in repeats)
    if min(nx, ny, nz) < 1:
        raise ValueError(f"repeats must be positive integers, got {tuple(repeats)}")
    lat = cell.lattice_vectors
    shifts = np.asarray(
        [
            ix * lat[0] + iy * lat[1] + iz * lat[2]
            for ix in range(nx)
            for iy in range(ny)
            for iz in range(nz)
        ]
    )
    tiled = (positions[None, :, :] + shifts[:, None, :]).reshape(-1, 3)
    return cell.supercell((nx, ny, nz)), tiled


def diamond_crystal(
    species: PseudopotentialSpecies | str,
    lattice_constant: float,
    repeats: tuple[int, int, int] = (1, 1, 1),
) -> Structure:
    """A diamond-lattice crystal of any single species, at any replication.

    ``species`` may be a :class:`PseudopotentialSpecies` or an element symbol
    resolved through :func:`gth_species`. ``diamond_crystal("Si", a)`` at
    ``repeats=(1, 1, 1)`` reproduces :func:`diamond_silicon` geometry.
    """
    if isinstance(species, str):
        species = gth_species(species)
    cell = Cell.cubic(float(lattice_constant))
    positions = _DIAMOND_FRACTIONS @ cell.lattice_vectors
    supercell, tiled = _replicate(cell, positions, repeats)
    name = f"{species.symbol}{tiled.shape[0]}"
    return Structure(supercell, [species], [tiled], name=name)


def zincblende_crystal(
    cation: PseudopotentialSpecies | str,
    anion: PseudopotentialSpecies | str,
    lattice_constant: float,
    repeats: tuple[int, int, int] = (1, 1, 1),
) -> Structure:
    """A two-species zincblende crystal (e.g. SiC), at any replication."""
    if isinstance(cation, str):
        cation = gth_species(cation)
    if isinstance(anion, str):
        anion = gth_species(anion)
    cell = Cell.cubic(float(lattice_constant))
    cation_positions = _ZB_CATION_FRACTIONS @ cell.lattice_vectors
    anion_positions = _ZB_ANION_FRACTIONS @ cell.lattice_vectors
    supercell, cation_tiled = _replicate(cell, cation_positions, repeats)
    _, anion_tiled = _replicate(cell, anion_positions, repeats)
    n_pairs = cation_tiled.shape[0]
    name = f"{cation.symbol}{n_pairs}{anion.symbol}{n_pairs}"
    return Structure(
        supercell, [cation, anion], [cation_tiled, anion_tiled], name=name
    )


def diatomic_molecule(
    species_a: PseudopotentialSpecies | str,
    species_b: PseudopotentialSpecies | str | None = None,
    bond_length: float = 1.4,
    box: float = 12.0,
) -> Structure:
    """A (possibly hetero-nuclear) diatomic centred in a cubic box.

    ``species_b=None`` builds the homonuclear molecule;
    ``diatomic_molecule("H", box=12.0, bond_length=1.4)`` reproduces
    :func:`hydrogen_molecule`.
    """
    if isinstance(species_a, str):
        species_a = gth_species(species_a)
    if species_b is None:
        species_b = species_a
    elif isinstance(species_b, str):
        species_b = gth_species(species_b)
    if bond_length <= 0 or box <= 0:
        raise ValueError("bond_length and box must be positive")
    cell = Cell.cubic(float(box))
    centre = 0.5 * np.array([box, box, box], dtype=float)
    half = 0.5 * float(bond_length)
    left = centre - [half, 0.0, 0.0]
    right = centre + [half, 0.0, 0.0]
    if species_b is species_a or species_b == species_a:
        name = f"{species_a.symbol}2"
        return Structure(cell, [species_a], [np.array([left, right])], name=name)
    name = f"{species_a.symbol}{species_b.symbol}"
    return Structure(
        cell,
        [species_a, species_b],
        [np.array([left]), np.array([right])],
        name=name,
    )


def atom_chain(
    species: PseudopotentialSpecies | str,
    n_atoms: int = 4,
    spacing: float = 2.0,
    box: float = 10.0,
) -> Structure:
    """A periodic single-species chain along x (generalised
    :func:`hydrogen_chain`)."""
    if isinstance(species, str):
        species = gth_species(species)
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    length = n_atoms * float(spacing)
    cell = Cell.orthorhombic(length, float(box), float(box))
    positions = np.array(
        [[i * spacing, box / 2.0, box / 2.0] for i in range(n_atoms)], dtype=float
    )
    return Structure(cell, [species], [positions], name=f"{species.symbol}{n_atoms}-chain")


# ---------------------------------------------------------------------------
# Molecules in a box
# ---------------------------------------------------------------------------


def hydrogen_molecule(box: float = 12.0, bond_length: float = 1.4) -> Structure:
    """An H2 molecule centred in a cubic box (lengths in Bohr)."""
    cell = Cell.cubic(box)
    centre = 0.5 * np.array([box, box, box])
    half = 0.5 * bond_length
    positions = np.array([centre - [half, 0, 0], centre + [half, 0, 0]])
    return Structure(cell, [gth_species("H")], [positions], name="H2")


def hydrogen_chain(n_atoms: int = 4, spacing: float = 2.0, box: float = 10.0) -> Structure:
    """A periodic hydrogen chain along x, a classic minimal metal-like test system."""
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    length = n_atoms * spacing
    cell = Cell.orthorhombic(length, box, box)
    positions = np.array(
        [[i * spacing, box / 2.0, box / 2.0] for i in range(n_atoms)], dtype=float
    )
    return Structure(cell, [gth_species("H")], [positions], name=f"H{n_atoms}-chain")
