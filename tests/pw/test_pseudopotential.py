"""Tests for the model pseudopotentials, structure factor and Ewald sum."""

import numpy as np
import pytest

import repro.pw.pseudopotential as psp_module
from repro.pw import FFTGrid, PlaneWaveBasis
from repro.pw.lattice import Cell
from repro.pw.pseudopotential import (
    LocalPotentialBuilder,
    NonlocalPotential,
    ProjectorChannel,
    PseudopotentialSpecies,
    cohen_bergstresser_silicon_species,
    ewald_energy,
    hydrogen_species,
    silicon_species,
    structure_factor,
)


@pytest.fixture()
def small_basis():
    cell = Cell.cubic(10.0)
    grid = FFTGrid(cell, (12, 12, 12))
    return PlaneWaveBasis(grid, 2.5)


class TestSpecies:
    def test_hydrogen_parameters(self):
        h = hydrogen_species()
        assert h.valence_charge == 1.0
        assert h.projectors == ()

    def test_silicon_has_projectors(self):
        si = silicon_species()
        assert si.valence_charge == 4.0
        assert len(si.projectors) == 2
        assert {p.l for p in si.projectors} == {0, 1}

    def test_silicon_without_nonlocal(self):
        si = silicon_species(include_nonlocal=False)
        assert si.projectors == ()

    def test_projector_count_with_m_degeneracy(self):
        si = silicon_species()
        assert si.n_projector_functions == 1 + 3  # one s + three p

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PseudopotentialSpecies("X", valence_charge=-1, r_loc=0.5)
        with pytest.raises(ValueError):
            PseudopotentialSpecies("X", valence_charge=1, r_loc=0.0)
        with pytest.raises(ValueError):
            ProjectorChannel(l=3, i=1, r_l=0.5, h=1.0)
        with pytest.raises(ValueError):
            ProjectorChannel(l=0, i=3, r_l=0.5, h=1.0)

    def test_local_form_coulomb_tail(self):
        """At small G the local form factor approaches -4 pi Z / G^2."""
        h = hydrogen_species()
        g = np.array([1e-3])
        value = h.local_potential_g(g)
        assert value[0] == pytest.approx(-4.0 * np.pi * 1.0 / g[0] ** 2, rel=1e-3)

    def test_local_form_g0_finite(self):
        h = hydrogen_species()
        value = h.local_potential_g(np.array([0.0]))
        assert np.isfinite(value[0])

    def test_local_form_decays_at_large_g(self):
        si = silicon_species()
        small = abs(si.local_potential_g(np.array([1.0]))[0])
        large = abs(si.local_potential_g(np.array([20.0]))[0])
        assert large < 1e-3 * small


class TestStructureFactor:
    def test_single_atom_at_origin(self):
        g = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        s = structure_factor(g, np.zeros((1, 3)))
        assert np.allclose(s, 1.0)

    def test_value_at_g_zero_counts_atoms(self):
        s = structure_factor(np.zeros((1, 3)), np.random.default_rng(0).random((5, 3)))
        assert s[0] == pytest.approx(5.0)

    def test_translation_phase(self):
        g = np.array([[0.5, 0.0, 0.0]])
        shift = np.array([1.0, 0.0, 0.0])
        s0 = structure_factor(g, np.zeros((1, 3)))
        s1 = structure_factor(g, shift[None, :])
        assert s1[0] == pytest.approx(s0[0] * np.exp(-0.5j))


class TestLocalPotential:
    def test_real_and_correct_shape(self, small_basis):
        builder = LocalPotentialBuilder(small_basis.grid)
        st_positions = np.array([[5.0, 5.0, 5.0]])
        v = builder.build([hydrogen_species()], [st_positions])
        assert v.shape == small_basis.grid.shape
        assert np.isrealobj(v)

    def test_attractive_near_nucleus(self, small_basis):
        builder = LocalPotentialBuilder(small_basis.grid)
        pos = np.array([[5.0, 5.0, 5.0]])
        v = builder.build([hydrogen_species()], [pos])
        r = small_basis.grid.real_space_points - pos[0]
        r2 = np.sum(r * r, axis=-1)
        near = v[r2 < 1.0]
        far = v[r2 > 16.0]
        assert near.mean() < far.mean()

    def test_superposition(self, small_basis):
        builder = LocalPotentialBuilder(small_basis.grid)
        p1 = np.array([[3.0, 5.0, 5.0]])
        p2 = np.array([[7.0, 5.0, 5.0]])
        v1 = builder.build([hydrogen_species()], [p1])
        v2 = builder.build([hydrogen_species()], [p2])
        v12 = builder.build([hydrogen_species()], [np.vstack([p1, p2])])
        assert np.allclose(v12, v1 + v2, atol=1e-10)

    def test_mismatched_lists_raise(self, small_basis):
        builder = LocalPotentialBuilder(small_basis.grid)
        with pytest.raises(ValueError):
            builder.build([hydrogen_species()], [])

    def test_cohen_bergstresser_form_factor(self):
        species = cohen_bergstresser_silicon_species(10.26)
        g3 = np.sqrt(3.0) * 2 * np.pi / 10.26
        value = species.local_potential_g(np.array([g3]))
        assert value[0] < 0.0  # V3 is attractive


class TestNonlocalPotential:
    def test_no_projectors_is_zero(self, small_basis):
        nl = NonlocalPotential(small_basis, [hydrogen_species()], [np.array([[5.0, 5.0, 5.0]])])
        assert nl.n_projectors == 0
        c = np.random.default_rng(0).standard_normal((2, small_basis.npw)).astype(complex)
        assert np.allclose(nl.apply(c), 0.0)

    def test_projector_count(self, small_basis):
        si = silicon_species()
        positions = np.array([[2.0, 2.0, 2.0], [6.0, 6.0, 6.0]])
        nl = NonlocalPotential(small_basis, [si], [positions])
        assert nl.n_projectors == 2 * (1 + 3)

    def test_hermiticity(self, small_basis):
        si = silicon_species()
        nl = NonlocalPotential(small_basis, [si], [np.array([[5.0, 5.0, 5.0]])])
        rng = np.random.default_rng(1)
        a = rng.standard_normal(small_basis.npw) + 1j * rng.standard_normal(small_basis.npw)
        b = rng.standard_normal(small_basis.npw) + 1j * rng.standard_normal(small_basis.npw)
        lhs = np.vdot(a, nl.apply(b[None, :])[0])
        rhs = np.vdot(nl.apply(a[None, :])[0], b)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_energy_real_and_matches_expectation(self, small_basis):
        si = silicon_species()
        nl = NonlocalPotential(small_basis, [si], [np.array([[5.0, 5.0, 5.0]])])
        rng = np.random.default_rng(2)
        c = rng.standard_normal((2, small_basis.npw)) + 1j * rng.standard_normal((2, small_basis.npw))
        occ = np.array([2.0, 2.0])
        energy = nl.energy(c, occ)
        expectation = sum(
            occ[n] * np.real(np.vdot(c[n], nl.apply(c[n][None, :])[0])) for n in range(2)
        )
        assert energy == pytest.approx(expectation, rel=1e-10)

    def test_translation_invariance_of_spectrum(self, small_basis):
        """Moving the atom changes the projectors only by phases; the coupling
        strengths (and thus the operator norm) are unchanged."""
        si = silicon_species()
        nl1 = NonlocalPotential(small_basis, [si], [np.array([[5.0, 5.0, 5.0]])])
        nl2 = NonlocalPotential(small_basis, [si], [np.array([[2.0, 3.0, 4.0]])])
        norms1 = np.linalg.norm(nl1.projector_matrix, axis=1)
        norms2 = np.linalg.norm(nl2.projector_matrix, axis=1)
        assert np.allclose(sorted(norms1), sorted(norms2), rtol=1e-10)


    def test_projector_tables_are_memoised_bit_identically(self, small_basis, monkeypatch):
        """Every Session build asks for the same tables: they are built once
        per (basis, species, positions, radial parameters), the shared arrays
        are the very ones an uncached build produces and are read-only, and
        the cache stays bounded."""
        builds = []
        uncached = NonlocalPotential._build_uncached

        def counting(self):
            builds.append(self)
            return uncached(self)

        monkeypatch.setattr(NonlocalPotential, "_build_uncached", counting)
        monkeypatch.setattr(psp_module, "_PROJECTOR_CACHE", type(psp_module._PROJECTOR_CACHE)())
        si = silicon_species()
        positions = np.array([[2.0, 2.0, 2.0], [6.0, 6.0, 6.0]])
        first = NonlocalPotential(small_basis, [si], [positions])
        again = NonlocalPotential(small_basis, [silicon_species()], [positions.copy()])
        assert len(builds) == 1
        assert again.projector_matrix is first.projector_matrix and again.couplings is first.couplings
        matrix, couplings = uncached(first)
        assert first.projector_matrix.tobytes() == matrix.tobytes()
        assert first.couplings.tobytes() == couplings.tobytes()
        assert not first.projector_matrix.flags.writeable and not first.couplings.flags.writeable
        c = np.random.default_rng(3).standard_normal((2, small_basis.npw)).astype(complex)
        assert np.array_equal(first.apply(c), (matrix.T @ ((matrix.conj() @ c.T) * couplings[:, None])).T)
        # anything that enters the tables is part of the key
        NonlocalPotential(small_basis, [si], [positions + 0.25])
        NonlocalPotential(small_basis, [silicon_species(include_nonlocal=False)], [positions])
        NonlocalPotential(small_basis, [si], [positions], radial_points=300)
        NonlocalPotential(small_basis, [si], [positions], radial_cutoff=9.0)
        NonlocalPotential(PlaneWaveBasis(small_basis.grid, 0.8 * small_basis.ecut), [si], [positions])
        assert len(builds) == 6
        assert len(psp_module._PROJECTOR_CACHE) == psp_module._PROJECTOR_CACHE_SIZE


class TestEwald:
    def test_like_charges_repel(self):
        """Bringing two like charges closer (same cell, same background) raises the energy."""
        cell = Cell.cubic(12.0)
        charges = np.array([1.0, 1.0])
        near = np.array([[5.0, 6.0, 6.0], [7.0, 6.0, 6.0]])
        far = np.array([[3.0, 6.0, 6.0], [9.0, 6.0, 6.0]])
        assert ewald_energy(cell, near, charges) > ewald_energy(cell, far, charges)

    def test_opposite_charges_attract(self):
        """Bringing opposite charges closer lowers the energy."""
        cell = Cell.cubic(12.0)
        charges = np.array([1.0, -1.0])
        near = np.array([[5.0, 6.0, 6.0], [7.0, 6.0, 6.0]])
        far = np.array([[3.0, 6.0, 6.0], [9.0, 6.0, 6.0]])
        assert ewald_energy(cell, near, charges) < ewald_energy(cell, far, charges)

    def test_splitting_parameter_independence(self):
        cell = Cell.cubic(10.0)
        positions = np.array([[2.0, 5.0, 5.0], [8.0, 5.0, 5.0]])
        charges = np.array([4.0, 4.0])
        e1 = ewald_energy(cell, positions, charges, eta=0.5)
        e2 = ewald_energy(cell, positions, charges, eta=0.8)
        assert e1 == pytest.approx(e2, rel=1e-3)

    def test_supercell_extensivity(self):
        """Doubling the cell with the atoms doubles the Ewald energy (approximately)."""
        cell = Cell.cubic(10.0)
        positions = np.array([[2.5, 5.0, 5.0], [7.5, 5.0, 5.0]])
        charges = np.array([4.0, 4.0])
        e1 = ewald_energy(cell, positions, charges)
        big_cell = Cell.orthorhombic(20.0, 10.0, 10.0)
        big_positions = np.vstack([positions, positions + np.array([10.0, 0.0, 0.0])])
        e2 = ewald_energy(big_cell, big_positions, np.tile(charges, 2))
        assert e2 == pytest.approx(2.0 * e1, rel=1e-2)

    def test_charge_mismatch_raises(self):
        with pytest.raises(ValueError):
            ewald_energy(Cell.cubic(5.0), np.zeros((2, 3)), np.array([1.0]))

    def test_memoised_per_structure(self, monkeypatch):
        """Every Session build asks for the same constant: the loops run once
        per structure, the cached float is the very one they produced, and the
        cache stays bounded."""
        calls = []
        summed = psp_module._ewald_sum

        def counting(*args):
            calls.append(args)
            return summed(*args)

        monkeypatch.setattr(psp_module, "_ewald_sum", counting)
        monkeypatch.setattr(psp_module, "_EWALD_CACHE", type(psp_module._EWALD_CACHE)())
        cell = Cell.cubic(9.0)
        positions = np.array([[2.0, 4.5, 4.5], [7.0, 4.5, 4.5]])
        charges = np.array([4.0, 4.0])
        first = ewald_energy(cell, positions, charges)
        again = ewald_energy(Cell.cubic(9.0), positions.copy(), charges.copy())
        assert len(calls) == 1
        assert again == first == summed(cell, positions, charges, None, 10.0, 10.0)
        # any input that enters the sum is part of the key
        ewald_energy(cell, positions, charges, eta=0.6)
        ewald_energy(cell, positions + 0.25, charges)
        ewald_energy(cell, positions, 0.5 * charges)
        assert len(calls) == 4
        for shift in range(psp_module._EWALD_CACHE_SIZE + 3):
            ewald_energy(cell, positions + 0.01 * (shift + 1), charges, real_space_cutoff=2.0,
                         reciprocal_cutoff=2.0)
        assert len(psp_module._EWALD_CACHE) == psp_module._EWALD_CACHE_SIZE

    @pytest.mark.parametrize("name", ["si8", "h2", "n2", "skewed", "skewed eta=0.7"])
    def test_is_the_written_out_loop_bit_for_bit(self, name):
        """The vectorised sums add the very terms of the triple loops, in the
        loops' order: the same float, not one within rounding of it."""
        from repro.pw.structures import diamond_silicon, diatomic_molecule, hydrogen_molecule

        eta = None
        if name.startswith("skewed"):
            cell = Cell(np.array([[7.0, 0.3, 0.1], [1.2, 6.5, -0.4], [0.5, 0.9, 8.1]]))
            positions = np.random.default_rng(3).uniform(0.0, 6.0, size=(5, 3))
            charges = np.array([1.0, 4.0, 5.0, 4.0, 1.0])
            eta = 0.7 if name.endswith("0.7") else None
        else:
            structure = {
                "si8": diamond_silicon,
                "h2": lambda: hydrogen_molecule(box=8.0, bond_length=1.4),
                "n2": lambda: diatomic_molecule("N", "N", 2.07, box=10.0),
            }[name]()
            cell, positions, charges = structure.cell, structure.positions, structure.valence_charges
        positions = np.asarray(positions, float)
        charges = np.asarray(charges, float)
        summed = psp_module._ewald_sum(cell, positions, charges, eta, 10.0, 10.0)
        assert summed == _ewald_loop(cell, positions, charges, eta, 10.0, 10.0)


def _ewald_loop(cell, positions, charges, eta, real_space_cutoff, reciprocal_cutoff) -> float:
    """The Ewald sum as three nested loops per lattice, one term at a time —
    the reference the vectorised sum behind :func:`ewald_energy` reproduces."""
    from scipy.special import erfc

    natoms = positions.shape[0]
    volume = cell.volume
    if eta is None:
        eta = max((natoms * np.pi**3 / volume**2) ** (1.0 / 6.0), 0.3)
    energy = -eta / np.sqrt(np.pi) * float(np.sum(charges**2))
    energy -= np.pi / (2.0 * eta**2 * volume) * float(np.sum(charges)) ** 2

    lat = cell.lattice_vectors
    nmax = np.maximum(1, np.ceil(real_space_cutoff / (eta * np.linalg.norm(lat, axis=1))).astype(int) + 1)
    shifts = np.asarray([
        n1 * lat[0] + n2 * lat[1] + n3 * lat[2]
        for n1 in range(-nmax[0], nmax[0] + 1)
        for n2 in range(-nmax[1], nmax[1] + 1)
        for n3 in range(-nmax[2], nmax[2] + 1)
    ])
    for a in range(natoms):
        for b in range(natoms):
            r = np.linalg.norm(positions[a] - positions[b] + shifts, axis=1)
            r = r[r > 1e-10]
            if r.size:
                energy += 0.5 * charges[a] * charges[b] * float(np.sum(erfc(eta * r) / r))

    recip = cell.reciprocal_vectors
    gmax = 2.0 * eta * reciprocal_cutoff
    mmax = np.maximum(1, np.ceil(gmax / np.linalg.norm(recip, axis=1)).astype(int) + 1)
    for m1 in range(-mmax[0], mmax[0] + 1):
        for m2 in range(-mmax[1], mmax[1] + 1):
            for m3 in range(-mmax[2], mmax[2] + 1):
                if m1 == 0 and m2 == 0 and m3 == 0:
                    continue
                g = m1 * recip[0] + m2 * recip[1] + m3 * recip[2]
                g2 = float(g @ g)
                if g2 > gmax * gmax:
                    continue
                s = np.sum(charges * np.exp(1j * positions @ g))
                energy += 2.0 * np.pi / volume * np.exp(-g2 / (4.0 * eta**2)) / g2 * float(np.abs(s) ** 2)
    return float(energy)
