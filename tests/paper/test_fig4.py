"""Fig. 4: the Si1536 system, its discretisation and the 380 nm pulse."""

import pytest

from repro.analysis.paper_data import FIG4, WEAK_SCALING_ATOMS
from repro.constants import AU_TIME_TO_FEMTOSECOND, HARTREE_TO_EV, HC_HARTREE_NM
from repro.perf import SiliconWorkload
from repro.pw import paper_laser_pulse, silicon_supercell
from repro.pw.structures import paper_silicon_series


def _one(*values):
    """The value the structure and the performance workload agree on, or
    both (which no row admits)."""
    return values[0] if len(set(values)) == 1 else values


@pytest.fixture(scope="module")
def modelled():
    atoms = WEAK_SCALING_ATOMS[-1]
    supercell = paper_silicon_series()[atoms]
    structure = silicon_supercell(supercell)
    workload = SiliconWorkload.from_atom_count(atoms)
    pulse = paper_laser_pulse()
    return {
        "supercell": supercell,
        "atoms": _one(structure.natoms, workload.natoms),
        "valence_electrons": _one(structure.n_electrons, 2 * workload.n_bands),  # doubly occupied bands
        "occupied_bands": _one(structure.n_occupied_bands(), workload.n_bands),
        "planewaves": workload.n_planewaves,
        "wavefunction_grid": workload.wavefunction_grid,
        "density_grid": workload.density_grid,
        "laser_wavelength_nm": HC_HARTREE_NM / pulse.omega,
        "photon_energy_ev": pulse.omega * HARTREE_TO_EV,
        "window_fs": 2.0 * pulse.t0 * AU_TIME_TO_FEMTOSECOND,
    }


@pytest.mark.parametrize("row", list(FIG4))
def test_fig4(modelled, row, admitted):
    assert admitted(FIG4, modelled, row)

