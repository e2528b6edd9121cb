"""Incremental campaigns over a shared store — the acceptance criteria.

A warm-store re-run of an identical campaign performs **zero** SCF solves and
**zero** propagation steps (asserted by counting both), its store-served
report is bit-identical to the freshly computed one once timings/provenance
are excluded, and partial warmth (one sweep already stored) executes only the
new work. The service path shares the same store across tenants.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.batch import SweepSpec
from repro.campaign import CampaignSpec, plan
from repro.service import CampaignService, NodePool
from repro.store import ResultStore


@pytest.fixture()
def campaign(tiny_config) -> CampaignSpec:
    # axes avoid the base-config values (ecut 2.0, dt 1.0): either would make
    # the two sweeps overlap on one expanded config and the second sweep
    # would open with an intra-campaign store hit (tested separately below)
    return CampaignSpec(
        {
            "cutoff": SweepSpec(tiny_config, {"basis.ecut": [1.5, 1.8, 2.2]}),
            "dt": SweepSpec(tiny_config, {"run.time_step_as": [2.0, 3.0]}),
        }
    )


def _physics_export(report) -> dict:
    return {name: report[name].to_json() for name in report.sweep_names}


class TestIncrementalExecute:
    def test_warm_rerun_computes_nothing_and_matches_bit_for_bit(
        self, campaign, store, count_scf_solves, count_propagation_steps
    ):
        cold = plan(campaign).execute(store=store)
        assert cold.ok and cold.n_cached == 0
        assert count_scf_solves and count_propagation_steps
        cold_physics = _physics_export(cold)

        count_scf_solves.clear()
        count_propagation_steps.clear()
        warm = plan(campaign).execute(store=ResultStore(store.root))
        assert warm.ok
        assert warm.n_cached == warm.n_jobs == 5
        assert count_scf_solves == []  # zero SCF solves on a warm store
        assert count_propagation_steps == []  # zero propagation steps
        assert _physics_export(warm) == cold_physics  # bit-identical physics

    def test_partially_warm_campaign_executes_only_the_new_sweep(
        self, campaign, tiny_config, store, count_scf_solves
    ):
        # warm the dt sweep alone, then run the full campaign: cutoff is new
        # work, dt is served; provenance lands in the report and the table
        plan(CampaignSpec({"dt": campaign.sweeps["dt"]})).execute(store=store)
        count_scf_solves.clear()

        report = plan(campaign).execute(store=ResultStore(store.root))
        assert report["dt"].n_cached == 2
        assert report["cutoff"].n_cached == 0
        assert report.n_cached == 2
        # the new cutoff groups only: 2.2 Ha selects the plane waves of the
        # base 2.0 Ha, whose ground state the dt sweep already stored
        assert len(count_scf_solves) == 2
        rows = {
            line.split()[0]: line.split()
            for line in report.plan_table().splitlines()
            if line.strip().startswith(("cutoff", "dt"))
        }
        assert rows["cutoff"][3] == "0" and rows["dt"][3] == "2"  # cached column

    def test_overlapping_sweeps_hit_within_one_cold_campaign(self, tiny_config, store):
        # ecut=2.0 and dt=1.0 both expand to the base config: the dt sweep's
        # first job is served by the cutoff sweep's result of the same run
        overlapping = CampaignSpec(
            {
                "cutoff": SweepSpec(tiny_config, {"basis.ecut": [1.8, 2.0]}),
                "dt": SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]}),
            }
        )
        report = plan(overlapping).execute(store=store)
        assert report["cutoff"].n_cached == 0
        assert report["dt"].n_cached == 1
        (hit,) = report["dt"].cached
        assert hit.point == {"run.time_step_as": 1.0}

    def test_store_provenance_is_stamped_per_sweep(self, campaign, store):
        report = plan(campaign).execute(store=store)
        for name in report.sweep_names:
            stamp = report[name].execution["store"]
            assert stamp["root"] == str(store.root)
            assert stamp["hits"] == 0
            assert stamp["computed"] == len(report[name])
            assert stamp["failed"] == 0

    def test_checkpoint_dir_execute_remains_incremental(self, campaign, tmp_path, count_scf_solves):
        # execute(path): the first positional argument is the store (a root
        # directory builds a ResultStore), so the old calling convention holds
        execution_plan = plan(campaign)
        execution_plan.execute(tmp_path / "ckpt")
        count_scf_solves.clear()
        resumed = execution_plan.execute(tmp_path / "ckpt")
        assert resumed.n_cached == resumed.n_jobs
        assert count_scf_solves == []


class TestServiceSharedStore:
    def test_campaigns_across_tenants_share_one_store(
        self, campaign, store, count_scf_solves, count_propagation_steps
    ):
        service = CampaignService(NodePool("summit", n_nodes=2), store=store)

        async def run_twice():
            first = await service.submit(campaign, name="tenant-a").report()
            second = await service.submit(campaign, name="tenant-b").report()
            return first, second

        first, second = asyncio.run(run_twice())
        assert first.ok and second.ok
        assert first.n_cached == 0
        assert second.n_cached == second.n_jobs == 5
        assert _physics_export(second) == _physics_export(first)

    def test_per_submission_store_overrides_service_default(self, campaign, store, tmp_path):
        service = CampaignService(NodePool("summit", n_nodes=2))

        async def run_pair():
            cold = await service.submit(campaign, store=store).report()
            warm = await service.submit(campaign, store=ResultStore(store.root)).report()
            return cold, warm

        cold, warm = asyncio.run(run_pair())
        assert cold.n_cached == 0
        assert warm.n_cached == warm.n_jobs
