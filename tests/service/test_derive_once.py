"""Derive once, carry down: what a store-served campaign pass may re-derive.

A three-sweep campaign is planned and run against a filled store, twice —
once resubmitting the same ``SweepSpec`` objects (a resubmission), once from
specs built afresh (a new process) — while every *call* of the identity and
pricing functions is counted through the module globals their callers
resolve (the way ``benchmarks/layers`` counts them).

At the parent a pass called ``config_hash`` 4 times and
``ground_state_group_key`` twice per job and priced every group 17 times
(once per planner candidate plus once at execution).
"""

from __future__ import annotations

import asyncio
import sys

import pytest

import repro.batch.sweep as sweep_module
import repro.perf.sweep_cost as sweep_cost_module
from repro.batch import SweepSpec
from repro.campaign import Budget, CampaignSpec
from repro.service import CampaignService, NodePool
from repro.store import ResultStore


def _campaign(tiny_config) -> CampaignSpec:
    ptcn = tiny_config.with_overrides({"propagator": {"name": "ptcn", "params": {"scf_tolerance": 1e-6}}})
    return CampaignSpec(
        {
            "cutoff-dt": SweepSpec(tiny_config, {"basis.ecut": [1.5, 2.0], "run.time_step_as": [1.0, 1.5]}),
            "amplitude": SweepSpec(
                ptcn.with_overrides(
                    {"laser": {"pulse": "gaussian", "params": {"omega": 0.35, "t0_as": 20.0, "sigma_as": 10.0}}}
                ),
                {"laser.params.amplitude": [0.002, 0.004]},
            ),
            "dt": SweepSpec(ptcn, {"run.time_step_as": [5.0, 10.0]}),
        },
        budget=Budget(max_nodes=1),
    )


def _serve(campaign: CampaignSpec, root):
    async def main():
        service = CampaignService(NodePool("summit", n_nodes=1), store=ResultStore(root))
        return await service.submit(campaign, name="tenant").report()

    return asyncio.run(main())


@pytest.fixture()
def calls(monkeypatch):
    """Call counts of ``config_hash``, ``ground_state_group_key`` and
    ``predict_group_cost``, wherever ``repro`` binds them."""
    counts = {"config_hash": 0, "ground_state_group_key": 0, "predict_group_cost": 0}
    originals = {
        "config_hash": sweep_module.config_hash,
        "ground_state_group_key": sweep_module.ground_state_group_key,
        "predict_group_cost": sweep_cost_module.predict_group_cost,
    }

    def counting(name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)

        return wrapper

    for name, original in originals.items():
        replacement = counting(name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for bound, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, bound, replacement)
    return counts


def test_a_store_served_pass_derives_identity_once_and_prices_each_group_twice(
    tiny_config, tmp_path, calls, count_scf_solves, count_propagation_steps
):
    root = tmp_path / "store"
    campaign = _campaign(tiny_config)
    n_jobs = campaign.n_jobs
    n_groups = sum(len(spec.groups()) for spec in campaign.sweeps.values())
    assert (n_jobs, n_groups) == (8, 4)

    cold = _serve(campaign, root)
    assert all(result.status == "completed" for name in cold.sweep_names for result in cold[name].results)
    # from the expansion above through planning, scheduling and 8 saves,
    # every job was hashed and keyed exactly once
    assert calls["config_hash"] == n_jobs and calls["ground_state_group_key"] == n_jobs

    # --- resubmission of the same specs: nothing about a job is re-derived
    for name in calls:
        calls[name] = 0
    del count_scf_solves[:], count_propagation_steps[:]
    warm = _serve(campaign, root)
    assert all(result.status == "cached" for name in warm.sweep_names for result in warm[name].results)
    assert count_scf_solves == [] and count_propagation_steps == []
    assert calls["config_hash"] == 0 and calls["ground_state_group_key"] == 0
    # one workload pricing per group by the planner (its candidate grid only
    # converts it) and one by each executed sweep's scheduler
    assert calls["predict_group_cost"] == 2 * n_groups
    for name in warm.sweep_names:
        assert warm[name].to_json() == cold[name].to_json()

    # --- the same campaign from specs built afresh: one hash and one key per job
    for name in calls:
        calls[name] = 0
    again = _serve(_campaign(tiny_config), root)
    assert all(result.status == "cached" for name in again.sweep_names for result in again[name].results)
    assert calls["config_hash"] + calls["ground_state_group_key"] <= 2 * n_jobs
    assert calls["predict_group_cost"] <= 2 * n_groups
    for name in again.sweep_names:
        assert again[name].to_json() == cold[name].to_json()
