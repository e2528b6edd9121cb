"""Tests for structure builders (silicon supercells, molecules)."""

import numpy as np
import pytest

from repro.analysis import WEAK_SCALING_ATOMS
from repro.constants import SILICON_LATTICE_BOHR
from repro.pw.structures import (
    Structure,
    diamond_silicon,
    hydrogen_chain,
    hydrogen_molecule,
    paper_silicon_series,
    silicon_supercell,
)


class TestDiamondSilicon:
    def test_eight_atoms(self):
        st = diamond_silicon()
        assert st.natoms == 8

    def test_lattice_constant(self):
        st = diamond_silicon()
        assert st.cell.lengths[0] == pytest.approx(SILICON_LATTICE_BOHR)

    def test_electron_count(self):
        st = diamond_silicon()
        assert st.n_electrons == pytest.approx(32.0)
        assert st.n_occupied_bands() == 16

    def test_nearest_neighbour_distance(self):
        """Diamond nearest neighbours are at sqrt(3)/4 of the lattice constant."""
        st = diamond_silicon()
        pos = st.positions
        d = np.linalg.norm(pos[4] - pos[0])  # (1/4, 1/4, 1/4) a from the origin atom, in the cell
        assert d == pytest.approx(np.sqrt(3.0) / 4.0 * SILICON_LATTICE_BOHR, rel=1e-10)

    def test_empirical_variant(self):
        st = diamond_silicon(empirical=True)
        assert st.species_list[0].local_form_factor is not None
        assert st.species_list[0].projectors == ()


class TestSupercell:
    @pytest.mark.parametrize("repeats,expected", [((1, 1, 1), 8), ((2, 1, 1), 16), ((2, 2, 2), 64)])
    def test_atom_counts(self, repeats, expected):
        assert silicon_supercell(repeats).natoms == expected

    def test_supercell_volume(self):
        st = silicon_supercell((2, 3, 1))
        assert st.cell.volume == pytest.approx(6 * SILICON_LATTICE_BOHR**3)

    def test_positions_inside_cell(self):
        st = silicon_supercell((2, 2, 1))
        frac = st.positions @ np.linalg.inv(st.cell.lattice_vectors)
        assert np.all(frac > -1e-10)
        assert np.all(frac < 1.0 + 1e-10)

    def test_no_duplicate_positions(self):
        st = silicon_supercell((2, 2, 2))
        pos = st.positions
        dists = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() > 1.0

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            silicon_supercell((0, 1, 1))

    def test_paper_series_atom_counts(self):
        series = paper_silicon_series()
        assert tuple(series) == WEAK_SCALING_ATOMS
        for natoms, repeats in series.items():
            assert 8 * repeats[0] * repeats[1] * repeats[2] == natoms


class TestMolecules:
    def test_h2(self):
        st = hydrogen_molecule(box=10.0, bond_length=1.4)
        assert st.natoms == 2
        assert st.n_electrons == pytest.approx(2.0)
        d = np.linalg.norm(st.positions[0] - st.positions[1])
        assert d == pytest.approx(1.4)

    def test_h_chain(self):
        st = hydrogen_chain(n_atoms=6, spacing=2.0, box=8.0)
        assert st.natoms == 6
        assert st.cell.lengths[0] == pytest.approx(12.0)
        assert st.n_occupied_bands() == 3

    def test_odd_electron_count_rejected(self):
        st = hydrogen_chain(n_atoms=3)
        with pytest.raises(ValueError):
            st.n_occupied_bands()

    def test_invalid_chain(self):
        with pytest.raises(ValueError):
            hydrogen_chain(n_atoms=0)


class TestStructureHelpers:
    def test_valence_charges_alignment(self):
        st = diamond_silicon()
        assert st.valence_charges.shape == (8,)
        assert np.allclose(st.valence_charges, 4.0)

    def test_mismatched_species_positions(self):
        st = diamond_silicon()
        with pytest.raises(ValueError):
            Structure(st.cell, st.species_list, [])
