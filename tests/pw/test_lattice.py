"""Tests for :mod:`repro.pw.lattice`."""

import numpy as np
import pytest

from repro.pw.lattice import Cell


class TestCellConstruction:
    def test_cubic_volume(self):
        cell = Cell.cubic(3.0)
        assert cell.volume == pytest.approx(27.0)

    def test_orthorhombic_volume(self):
        cell = Cell.orthorhombic(2.0, 3.0, 4.0)
        assert cell.volume == pytest.approx(24.0)

    def test_general_cell_volume_positive_even_for_left_handed(self):
        lat = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        cell = Cell(lat)
        assert cell.volume == pytest.approx(1.0)

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError, match="shape"):
            Cell(np.eye(2))

    def test_singular_lattice_raises(self):
        lat = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]])
        with pytest.raises(ValueError, match="singular"):
            Cell(lat)

    def test_negative_lattice_constant_raises(self):
        with pytest.raises(ValueError):
            Cell.cubic(-1.0)
        with pytest.raises(ValueError):
            Cell.orthorhombic(1.0, -2.0, 3.0)


class TestReciprocalLattice:
    def test_duality_relation(self):
        rng = np.random.default_rng(0)
        lat = np.eye(3) * 5.0 + 0.3 * rng.standard_normal((3, 3))
        cell = Cell(lat)
        product = cell.lattice_vectors @ cell.reciprocal_vectors.T
        assert np.allclose(product, 2.0 * np.pi * np.eye(3), atol=1e-12)

    def test_cubic_reciprocal_length(self):
        a = 4.0
        cell = Cell.cubic(a)
        expected = 2.0 * np.pi / a
        assert np.allclose(np.linalg.norm(cell.reciprocal_vectors, axis=1), expected)

    def test_lengths(self):
        cell = Cell.orthorhombic(2.0, 3.0, 4.0)
        assert np.allclose(cell.lengths, [2.0, 3.0, 4.0])


class TestSupercell:
    def test_supercell_volume(self):
        cell = Cell.cubic(2.0)
        sc = cell.supercell((2, 3, 4))
        assert sc.volume == pytest.approx(2.0**3 * 24)

    def test_supercell_invalid(self):
        with pytest.raises(ValueError):
            Cell.cubic(2.0).supercell((0, 1, 1))

    def test_equality_and_hash(self):
        a = Cell.cubic(2.0)
        b = Cell.cubic(2.0)
        c = Cell.cubic(3.0)
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_equality_fast_path_keeps_the_allclose_semantics(self, monkeypatch):
        """Identical objects and byte-equal vectors compare equal without an
        ``allclose`` (the cache-hit case of every Hartree solve); a cell that
        is only allclose still compares equal and still hashes differently."""
        a, b = Cell.cubic(2.0), Cell.cubic(2.0)
        nearly = Cell(a.lattice_vectors * (1.0 + 1e-12))
        assert a == nearly and hash(a) != hash(nearly)
        assert a != Cell.cubic(2.0 + 1e-3)
        assert (a == "not a cell") is False

        def no_allclose(*args, **kwargs):
            raise AssertionError("allclose on the fast path")

        monkeypatch.setattr(np, "allclose", no_allclose)
        assert a == a and a == b
