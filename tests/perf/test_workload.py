"""Tests for the silicon workload descriptions (their sizes against the
paper: ``tests/paper/test_fig4.py`` and ``test_memory.py``)."""

import pytest

from repro.analysis import WEAK_SCALING_ATOMS
from repro.perf import SiliconWorkload
from repro.pw.structures import paper_silicon_series


class TestSi1536:
    @pytest.fixture()
    def w(self):
        return SiliconWorkload.from_atom_count(1536)

    def test_bands_per_rank(self, w):
        assert w.bands_per_rank(36) == pytest.approx(w.n_bands / 36)
        with pytest.raises(ValueError):
            w.bands_per_rank(4000)
        with pytest.raises(ValueError):
            w.bands_per_rank(0)


class TestSeries:
    def test_paper_workloads_cover_weak_scaling(self):
        workloads = {natoms: SiliconWorkload(natoms, cell) for natoms, cell in paper_silicon_series().items()}
        assert tuple(workloads) == WEAK_SCALING_ATOMS
        for natoms, w in workloads.items():
            assert w.n_bands == 2 * natoms

    def test_planewaves_scale_linearly_with_atoms(self):
        w_small = SiliconWorkload.from_atom_count(192)
        w_large = SiliconWorkload.from_atom_count(1536)
        assert w_large.n_planewaves == pytest.approx(8 * w_small.n_planewaves)

    def test_arbitrary_multiple_of_eight(self):
        w = SiliconWorkload.from_atom_count(64)
        assert w.natoms == 64
        assert 8 * w.supercell[0] * w.supercell[1] * w.supercell[2] == 64

    def test_invalid_atom_counts(self):
        with pytest.raises(ValueError):
            SiliconWorkload.from_atom_count(50)
        with pytest.raises(ValueError):
            SiliconWorkload(48, (1, 1, 1))
