"""Fig. 1: the band-index distribution of the Si1536 wavefunctions over the
GPU counts of Table 1."""

import pytest

from repro.analysis.paper_data import FIG1, TABLE1_GPU_COUNTS


@pytest.fixture(scope="module")
def modelled(si1536):
    return {f"bands_per_rank_{n}gpu": si1536.workload.bands_per_rank(n) for n in TABLE1_GPU_COUNTS}


@pytest.mark.parametrize("row", list(FIG1))
def test_fig1(modelled, row, admitted):
    assert admitted(FIG1, modelled, row)
