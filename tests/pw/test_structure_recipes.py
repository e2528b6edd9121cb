"""The generic crystal/molecule recipes and the GTH species table."""

import numpy as np
import pytest

from repro.constants import SILICON_LATTICE_BOHR
from repro.pw.pseudopotential import GTH_PARAMETERS, ProjectorChannel, PseudopotentialSpecies, gth_species
from repro.pw.structures import (
    atom_chain,
    diamond_crystal,
    diamond_silicon,
    diatomic_molecule,
    hydrogen_chain,
    hydrogen_molecule,
    silicon_supercell,
    zincblende_crystal,
)


class TestGTHSpecies:
    def test_table_covers_required_elements(self):
        assert {"H", "C", "N", "O", "Al", "Si", "Ge"} <= set(GTH_PARAMETERS)

    def test_case_insensitive_symbol(self):
        assert gth_species("si").symbol == "Si"
        assert gth_species("GE").symbol == "Ge"

    def test_unknown_element_actionable(self):
        with pytest.raises(ValueError, match="supported elements"):
            gth_species("Xx")

    def test_carbon_has_one_projector_channel(self):
        assert len(gth_species("C").projectors) == 1


#: the HGH-LDA parameters of the paper's species, as the recipes carried them
#: before they were read from ``GTH_PARAMETERS``
_HYDROGEN = dict(symbol="H", valence_charge=1.0, r_loc=0.2, local_coefficients=(-4.180237, 0.725075))
_SILICON = dict(symbol="Si", valence_charge=4.0, r_loc=0.44, local_coefficients=(-7.336103,))
_SILICON_PROJECTORS = ((0, 1, 0.422738, 5.906928), (1, 1, 0.484278, 2.727013))


@pytest.mark.parametrize(
    "recipe, expected, projectors",
    [
        (hydrogen_molecule, _HYDROGEN, ()),
        (hydrogen_chain, _HYDROGEN, ()),
        (diamond_silicon, _SILICON, _SILICON_PROJECTORS),
        (lambda: diamond_silicon(include_nonlocal=False), _SILICON, ()),
        (lambda: silicon_supercell((1, 1, 2)), _SILICON, _SILICON_PROJECTORS),
    ],
    ids=["hydrogen_molecule", "hydrogen_chain", "diamond_silicon", "diamond_silicon_local", "silicon_supercell"],
)
def test_recipes_carry_the_hgh_species(recipe, expected, projectors):
    (species,) = recipe().species_list
    assert species == PseudopotentialSpecies(
        **expected, projectors=tuple(ProjectorChannel(l=l, i=i, r_l=r, h=h) for l, i, r, h in projectors)
    )


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
