"""The paper's checks: every table of :mod:`repro.analysis.paper_data`, row by
row, against the model or an executed run (one module per table or figure).

Each module builds a ``modelled`` mapping with one entry per row of its table
and asserts that the row's budget admits it; a row without a counterpart, or a
counterpart without a row, fails too.
"""

import pytest

from repro.analysis.paper_data import Budget
from repro.perf import PWDFTPerformanceModel, SiliconWorkload


@pytest.fixture(scope="session")
def si1536() -> PWDFTPerformanceModel:
    """The calibrated performance model of the paper's largest system."""
    return PWDFTPerformanceModel(SiliconWorkload.from_atom_count(1536))


@pytest.fixture(scope="session")
def admits():
    """``(budget, value, paper) -> bool``: whether a :class:`Budget` (the
    relative deviation ``value / paper - 1`` in ``[-under, over]``; exact
    equality for ``Budget()``) or a :class:`Ceiling` (``value < limit``)
    admits ``value``."""

    def check(budget, value, paper) -> bool:
        if not isinstance(budget, Budget):
            return value < budget.limit
        if budget.under == budget.over == 0.0:
            return value == paper
        return -budget.under <= value / paper - 1.0 <= budget.over

    return check


@pytest.fixture(scope="session")
def admitted(admits):
    """``(table, modelled, row) -> bool``: whether ``row``'s budget admits its
    modelled value (and the two mappings name the same rows)."""

    def check(table: dict, modelled: dict, row: str) -> bool:
        assert set(modelled) == set(table)
        paper, budget = table[row]
        return admits(budget, modelled[row], paper)

    return check
