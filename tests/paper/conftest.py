"""The paper's checks: every table of :mod:`repro.analysis.paper_data`, row by
row, against the model or an executed run (one module per table or figure).

Each module builds a ``modelled`` mapping with one entry per row of its table
and asserts that the row's budget admits it; a row without a counterpart, or a
counterpart without a row, fails too.
"""

import pytest

from repro.perf import PWDFTPerformanceModel, SiliconWorkload


@pytest.fixture(scope="session")
def si1536() -> PWDFTPerformanceModel:
    """The calibrated performance model of the paper's largest system."""
    return PWDFTPerformanceModel(SiliconWorkload.from_atom_count(1536))


@pytest.fixture(scope="session")
def admitted():
    """``(table, modelled, row) -> bool``: whether ``row``'s budget admits its
    modelled value (and the two mappings name the same rows)."""

    def check(table: dict, modelled: dict, row: str) -> bool:
        assert set(modelled) == set(table)
        paper, budget = table[row]
        return budget.admits(modelled[row], paper)

    return check
