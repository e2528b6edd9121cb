"""Section 7's counts and kernel timings for Si1536."""

import pytest

from repro.analysis.paper_data import MEMORY, PAPER_SCALARS, SECTION7
from repro.machine import GPUKernelModel, NetworkModel
from repro.perf import flops_efficiency, fock_flop_fraction, step_flops


@pytest.fixture(scope="module")
def modelled(si1536):
    w = si1536.workload
    bcast_bytes = MEMORY["bcast_volume_per_rank_gb"][0] * 1e9
    return {
        "flop_per_step": step_flops(w),
        "fock_flop_fraction": fock_flop_fraction(w),
        "flops_efficiency_36gpu": flops_efficiency(w, 36, si1536.step_breakdown(36).total_step_time),
        "flops_efficiency_768gpu": flops_efficiency(w, 768, si1536.step_breakdown(768).total_step_time),
        "cholesky_time_s": GPUKernelModel().cholesky_time(PAPER_SCALARS["si1536_wavefunctions"]),
        "bcast_time_768gpu_s": NetworkModel().bcast_time(bcast_bytes, 768),
    }


@pytest.mark.parametrize("row", list(SECTION7))
def test_section7(modelled, row, admitted):
    assert admitted(SECTION7, modelled, row)
