"""Section 7's memory analysis for Si1536."""

import pytest

from repro.analysis.paper_data import MEMORY
from repro.machine import SUMMIT


@pytest.fixture(scope="module")
def modelled(si1536):
    w = si1536.workload
    return {
        "wavefunction_mb_double": w.wavefunction_bytes() / 1e6,
        "wavefunction_mb_single": w.wavefunction_bytes(single_precision=True) / 1e6,
        "overlap_matrix_mb": w.overlap_matrix_bytes() / 1e6,
        "density_mb": w.density_bytes() / 1e6,
        "anderson_memory_per_rank_gb_36gpu": w.anderson_memory_per_rank_bytes(36) / 1e9,
        "host_memory_per_node_gb_36gpu": w.host_memory_per_node_bytes(36) / 1e9,
        "summit_node_memory_gb": SUMMIT.node.cpu_memory_gb,
        "nonlocal_projector_memory_mb": w.nonlocal_projector_bytes() / 1e6,
        "bcast_volume_per_rank_gb": w.n_bands * w.wavefunction_bytes(single_precision=True) / 1e9,
    }


@pytest.mark.parametrize("row", list(MEMORY))
def test_memory(modelled, row, admitted):
    assert admitted(MEMORY, modelled, row)
