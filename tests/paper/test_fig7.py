"""Fig. 7: strong scaling of the Si1536 step and of the Fock computation."""

import pytest

from repro.analysis.paper_data import FIG7, TABLE1_GPU_COUNTS
from repro.perf import parallel_efficiency, strong_scaling


@pytest.fixture(scope="module")
def modelled(si1536):
    points = strong_scaling(gpu_counts=TABLE1_GPU_COUNTS)
    efficiency = parallel_efficiency(points)
    return {
        "parallel_efficiency_288gpu": efficiency[TABLE1_GPU_COUNTS.index(288)],
        "fock_compute_speedup_36_to_768gpu": si1536.fock_compute_time(36) / si1536.fock_compute_time(768),
        "peak_speedup_vs_cpu": max(point.speedup_vs_cpu for point in points),
    }


@pytest.mark.parametrize("row", list(FIG7))
def test_fig7(modelled, row, admitted):
    assert admitted(FIG7, modelled, row)
