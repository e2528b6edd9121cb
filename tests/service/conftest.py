"""Fixtures for the service-layer tests.

Pool tests run pure modeled-time accounting (no physics). The end-to-end
service tests run the shared tiny semi-local H2 config from the top-level
``conftest.py`` — the same sweeps the campaign suite executes, planned under
``Budget(max_nodes=1)`` so each campaign occupies exactly one modeled Summit
node and two of them co-schedule on a 2-node pool.
"""

from __future__ import annotations

import pytest

from repro.batch import SweepSpec
from repro.campaign import Budget, CampaignSpec


@pytest.fixture()
def cutoff_campaign(tiny_config) -> CampaignSpec:
    """Four cutoffs (one job each) in three ground-state groups — 2.0 and 2.2 Ha
    select one plane-wave set — something to preempt mid-flight."""
    return CampaignSpec(
        {"cutoff": SweepSpec(tiny_config, {"basis.ecut": [1.5, 1.8, 2.0, 2.2]})},
        budget=Budget(max_nodes=1),
    )


@pytest.fixture()
def dt_campaign(tiny_config) -> CampaignSpec:
    """One ground-state group x two dts — a short, single-lease campaign."""
    return CampaignSpec(
        {"dt": SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})},
        budget=Budget(max_nodes=1),
    )
