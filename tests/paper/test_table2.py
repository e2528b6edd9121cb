"""Table 2: the per-step MPI / memory copy / computation breakdown at every cell."""

import pytest

from repro.analysis.paper_data import TABLE1_GPU_COUNTS, TABLE2, TABLE2_BUDGETS


@pytest.mark.parametrize("n_gpus", TABLE1_GPU_COUNTS)
@pytest.mark.parametrize("row", list(TABLE2))
def test_table2_cell(si1536, row, n_gpus, admits):
    assert set(TABLE2_BUDGETS) == set(TABLE2)
    paper = TABLE2[row][TABLE1_GPU_COUNTS.index(n_gpus)]
    value = si1536.communication_breakdown(n_gpus).as_dict()[row]
    assert admits(TABLE2_BUDGETS[row], value, paper)
