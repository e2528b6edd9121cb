"""Section 7's memory analysis for Si1536."""

import numpy as np
import pytest

from repro.analysis.paper_data import MEMORY, PAPER_SCALARS
from repro.machine import SUMMIT


@pytest.fixture(scope="module")
def modelled(si1536):
    w = si1536.workload
    wavefunction_bytes = 16 * w.n_planewaves  # one complex128 orbital
    # each of the 36 ranks keeps the 20-deep Anderson history of its bands, six ranks a node
    bands_per_rank = int(np.ceil(w.bands_per_rank(36)))
    anderson_per_rank = PAPER_SCALARS["anderson_history"] * bands_per_rank * wavefunction_bytes
    return {
        "wavefunction_mb_double": wavefunction_bytes / 1e6,
        "wavefunction_mb_single": wavefunction_bytes / 2 / 1e6,
        "overlap_matrix_mb": w.overlap_matrix_bytes() / 1e6,
        "density_mb": w.density_bytes() / 1e6,
        "anderson_memory_per_rank_gb_36gpu": anderson_per_rank / 1e9,
        "host_memory_per_node_gb_36gpu": 6 * anderson_per_rank / 1e9,
        "summit_node_memory_gb": SUMMIT.node.sockets * SUMMIT.node.cpu_socket.memory_gb,
        "nonlocal_projector_memory_mb": w.nonlocal_projector_bytes() / 1e6,
        "bcast_volume_per_rank_gb": w.n_bands * wavefunction_bytes / 2 / 1e9,
    }


@pytest.mark.parametrize("row", list(MEMORY))
def test_memory(modelled, row, admitted):
    assert admitted(MEMORY, modelled, row)
