"""The generic crystal/molecule recipes and the GTH species table."""

import numpy as np
import pytest

from repro.constants import SILICON_LATTICE_BOHR
from repro.pw.pseudopotential import (
    GTH_PARAMETERS,
    gth_species,
    hydrogen_species,
    silicon_species,
)
from repro.pw.structures import (
    atom_chain,
    diamond_crystal,
    diamond_silicon,
    diatomic_molecule,
    hydrogen_chain,
    hydrogen_molecule,
    zincblende_crystal,
)


class TestGTHSpecies:
    def test_table_covers_required_elements(self):
        assert {"H", "C", "N", "O", "Al", "Si", "Ge"} <= set(GTH_PARAMETERS)

    def test_si_matches_existing_species(self):
        generic = gth_species("Si")
        reference = silicon_species()
        assert generic.valence_charge == reference.valence_charge
        assert generic.r_loc == reference.r_loc
        assert generic.local_coefficients == reference.local_coefficients
        assert len(generic.projectors) == len(reference.projectors)

    def test_h_matches_existing_species(self):
        generic = gth_species("H")
        reference = hydrogen_species()
        assert generic.valence_charge == reference.valence_charge
        assert generic.r_loc == reference.r_loc

    def test_case_insensitive_symbol(self):
        assert gth_species("si").symbol == "Si"
        assert gth_species("GE").symbol == "Ge"

    def test_unknown_element_actionable(self):
        with pytest.raises(ValueError, match="supported elements"):
            gth_species("Xx")

    def test_carbon_has_one_projector_channel(self):
        assert len(gth_species("C").projectors) == 1


class TestDiamondCrystal:
    def test_matches_diamond_silicon_geometry(self):
        generic = diamond_crystal("Si", SILICON_LATTICE_BOHR)
        reference = diamond_silicon()
        assert np.allclose(generic.positions, reference.positions)
        assert np.allclose(generic.cell.lattice_vectors, reference.cell.lattice_vectors)
        assert generic.name == "Si8"

    def test_replication(self):
        structure = diamond_crystal("C", 6.74, repeats=(2, 1, 1))
        assert structure.natoms == 16
        assert structure.name == "C16"

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            diamond_crystal("Si", SILICON_LATTICE_BOHR, repeats=(0, 1, 1))


class TestZincblende:
    def test_sublattices(self):
        structure = zincblende_crystal("Si", "C", 8.24)
        assert structure.natoms == 8
        assert [s.symbol for s in structure.species_list] == ["Si", "C"]
        assert all(p.shape[0] == 4 for p in structure.positions_by_species)
        # anions sit on the (1/4,1/4,1/4)-offset sublattice
        offset = structure.positions_by_species[1][0] - structure.positions_by_species[0][0]
        assert np.allclose(offset, 8.24 * 0.25 * np.ones(3))

    def test_replication_tiles_both_sublattices(self):
        structure = zincblende_crystal("Si", "C", 8.24, repeats=(1, 2, 1))
        assert structure.natoms == 16
        assert structure.name == "Si8C8"


class TestMolecules:
    def test_homonuclear_matches_hydrogen_molecule(self):
        generic = diatomic_molecule("H", bond_length=1.4, box=12.0)
        reference = hydrogen_molecule(box=12.0, bond_length=1.4)
        assert np.allclose(generic.positions, reference.positions)
        assert len(generic.species_list) == 1
        assert generic.name == "H2"

    def test_heteronuclear_two_species_groups(self):
        structure = diatomic_molecule("C", "O", bond_length=2.1, box=10.0)
        assert [s.symbol for s in structure.species_list] == ["C", "O"]
        assert structure.n_electrons == 10.0
        assert structure.name == "CO"

    def test_validation(self):
        with pytest.raises(ValueError):
            diatomic_molecule("H", bond_length=-1.0)


class TestAtomChain:
    def test_matches_hydrogen_chain(self):
        generic = atom_chain("H", n_atoms=4, spacing=2.0, box=10.0)
        reference = hydrogen_chain(n_atoms=4, spacing=2.0, box=10.0)
        assert np.allclose(generic.positions, reference.positions)
        assert generic.name == "H4-chain"

    def test_validation(self):
        with pytest.raises(ValueError):
            atom_chain("H", n_atoms=0)
