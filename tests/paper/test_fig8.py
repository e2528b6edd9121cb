"""Fig. 8 and the headline: weak scaling and time to solution."""

import pytest

from repro.analysis.paper_data import FIG8
from repro.perf import PWDFTPerformanceModel, SiliconWorkload, weak_scaling


@pytest.fixture(scope="module")
def modelled(si1536):
    points = {point.natoms: point for point in weak_scaling()}
    si192 = PWDFTPerformanceModel(SiliconWorkload.from_atom_count(192))
    return {
        "si192_seconds_per_50as_96gpu": points[192].time_per_50as,
        "si192_minutes_per_fs_96gpu": 60.0 * si192.step_breakdown(96).hours_per_femtosecond,
        "si1536_seconds_per_50as_768gpu": points[1536].time_per_50as,
        "si1536_hours_per_fs_768gpu": si1536.step_breakdown(768).hours_per_femtosecond,
    }


@pytest.mark.parametrize("row", list(FIG8))
def test_fig8(modelled, row, admitted):
    assert admitted(FIG8, modelled, row)
