"""Fig. 10: how each operation of Table 2 changes from 36 to 1536 GPUs."""

import pytest

from repro.analysis.paper_data import FIG10


@pytest.fixture(scope="module")
def modelled(si1536):
    small, large = si1536.communication_breakdown(36), si1536.communication_breakdown(1536)
    return {
        **{
            f"{operation}_growth_36_to_1536gpu": getattr(large, operation) / getattr(small, operation)
            for operation in ("compute", "memcpy", "alltoallv", "allreduce", "bcast")
        },
        "bcast_over_compute_1536gpu": large.bcast / large.compute,
    }


@pytest.mark.parametrize("row", list(FIG10))
def test_fig10(modelled, row, admitted):
    assert admitted(FIG10, modelled, row)
