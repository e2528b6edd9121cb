"""Table 1: the component model at every cell, and its two anchors."""

import numpy as np
import pytest

from repro.analysis.paper_data import (
    CPU_BASELINE_CORES,
    TABLE1,
    TABLE1_ANCHOR_BUDGETS,
    TABLE1_BUDGETS,
    TABLE1_CHECKS,
    TABLE1_GPU_COUNTS,
)


def _cell(model, row: str, n_gpus: int) -> float:
    """The model's counterpart of one Table 1 cell."""
    components = model.scf_component_times(n_gpus).as_dict()
    if row in components:
        return components[row]
    return getattr(model.step_breakdown(n_gpus), row)


@pytest.mark.parametrize("n_gpus", TABLE1_GPU_COUNTS)
@pytest.mark.parametrize("row", list(TABLE1))
def test_table1_cell(si1536, row, n_gpus, admits):
    """Each cell within its row's budget; the 36-GPU calibration column also
    within the anchor's."""
    assert set(TABLE1_BUDGETS) == set(TABLE1_ANCHOR_BUDGETS) == set(TABLE1)
    paper = TABLE1[row][TABLE1_GPU_COUNTS.index(n_gpus)]
    value = _cell(si1536, row, n_gpus)
    assert admits(TABLE1_BUDGETS[row], value, paper)
    if n_gpus == TABLE1_GPU_COUNTS[0]:
        assert admits(TABLE1_ANCHOR_BUDGETS[row], value, paper)


def test_only_communication_rows_are_loose():
    loose = {row for row, budget in TABLE1_BUDGETS.items() if budget.over >= 0.5}
    assert loose == {"fock_mpi", "residual_alltoallv", "residual_allreduce", "residual_total",
                     "density_allreduce", "density_total"}


@pytest.fixture(scope="module")
def modelled(si1536):
    totals = [si1536.step_breakdown(n).total_step_time for n in TABLE1_GPU_COUNTS]
    return {
        "cpu_step_3072_cores": si1536.cpu_step_time(CPU_BASELINE_CORES),
        "total_step_time_geometric_mean_ratio": float(
            np.exp(np.mean(np.log(np.divide(totals, TABLE1["total_step_time"]))))
        ),
    }


@pytest.mark.parametrize("row", list(TABLE1_CHECKS))
def test_table1_anchor(modelled, row, admitted):
    assert admitted(TABLE1_CHECKS, modelled, row)
