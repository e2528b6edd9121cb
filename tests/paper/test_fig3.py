"""Fig. 3: one Fock application on 72 GPUs after the optimisation stages."""

import pytest

from repro.analysis.paper_data import FIG3
from repro.perf import optimization_stage_times


@pytest.fixture(scope="module")
def modelled(si1536):
    stages = optimization_stage_times(si1536, 72)
    return {"fock_speedup_vs_cpu_72gpu": stages[0].total / stages[-1].total}


@pytest.mark.parametrize("row", list(FIG3))
def test_fig3(modelled, row, admitted):
    assert admitted(FIG3, modelled, row)
