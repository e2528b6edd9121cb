"""CampaignService end-to-end: co-scheduling acceptance, bit-identical
physics, preemption/resume, admission rejection, handles, and the
ExecutionPlan.execute() sync shim.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.api import PROPAGATORS
from repro.batch import BatchRunner, SweepSpec, config_hash
from repro.campaign import Budget, CampaignSpec, InfeasibleBudgetError, plan
from repro.campaign.report import _observed_wall_seconds
from repro.exec import ExecutionSettings
from repro.service import CampaignService, NodePool, run_sweep
from repro.store import ResultStore


def run(coro):
    """Drive one async test body (the suite avoids an asyncio pytest plugin)."""
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Acceptance: two campaigns co-schedule on a shared pool
# ---------------------------------------------------------------------------


class TestCoScheduling:
    def test_two_campaigns_beat_serial_makespan_with_identical_physics(
        self, cutoff_campaign, dt_campaign
    ):
        """The PR's acceptance criterion: two campaigns with disjoint sweeps
        over one shared NodePool finish in strictly less modeled makespan
        than running the same plans serially, with bit-identical physics."""
        pool = NodePool("summit", n_nodes=2)
        service = CampaignService(pool)

        async def body():
            a = service.submit(cutoff_campaign, name="tenant-a")
            b = service.submit(dt_campaign, name="tenant-b")
            return await asyncio.gather(a.report(), b.report()), (a, b)

        (report_a, report_b), (handle_a, handle_b) = run(body())

        # each campaign needs one node, the pool has two: they ran side by side
        serial_sum = (
            handle_a.plan.predicted_wall_seconds + handle_b.plan.predicted_wall_seconds
        )
        co_scheduled = pool.makespan()
        assert co_scheduled < serial_sum
        assert co_scheduled == pytest.approx(
            max(
                handle_a.plan.predicted_wall_seconds,
                handle_b.plan.predicted_wall_seconds,
            )
        )
        tenants = {lease.tenant.split("/")[0] for lease in pool.history}
        assert tenants == {"tenant-a", "tenant-b"}

        # physics: bit-identical to a hand-configured BatchRunner per sweep
        assert report_a.ok and report_b.ok
        for campaign, report in [(cutoff_campaign, report_a), (dt_campaign, report_b)]:
            for name, spec in campaign.sweeps.items():
                hand = BatchRunner(spec).run()
                assert report[name].to_json() == hand.to_json()
                for ours, theirs in zip(report[name], hand):
                    assert ours.job_id == theirs.job_id
                    np.testing.assert_array_equal(
                        ours.trajectory.energies, theirs.trajectory.energies
                    )

    def test_service_execution_matches_the_blocking_path(self, dt_campaign):
        """One campaign through the service == the same plan through
        ExecutionPlan.execute(), export for export."""
        execution_plan = plan(dt_campaign, machines=["summit"])
        serial_report = execution_plan.execute()

        service = CampaignService(NodePool("summit", n_nodes=1))

        async def body():
            return await service.submit(execution_plan).report()

        service_report = run(body())
        for name in serial_report.sweep_names:
            assert service_report[name].to_json() == serial_report[
                name
            ].to_json()

    def test_an_idle_pool_leases_exactly_the_planned_wall(self, cutoff_campaign):
        """Un-preempted and uncalibrated, a sweep holds one lease for exactly
        its planned wall: the planner's forecast and the runner's lease are
        one rank-load sum over the same packing."""
        # four groups on three ranks: one rank's load is a sum of two groups
        execution_plan = plan(
            cutoff_campaign, machines=["summit"], rank_options=(3,), gpus_per_group_options=(1,)
        )
        assert execution_plan.settings.ranks == 3

        async def body():
            pool = NodePool("summit", n_nodes=1)
            return await run_sweep(cutoff_campaign.sweeps["cutoff"], execution_plan.settings, pool)

        outcome = run(body())
        (lease,) = outcome.leases
        assert lease.start == 0.0
        assert lease.duration == execution_plan.sweeps["cutoff"].predicted_wall_seconds


# ---------------------------------------------------------------------------
# One group-stepping core: run_sweep steps the backend BatchRunner drains
# ---------------------------------------------------------------------------


class TestSharedGroupCore:
    """The execution records of the two entrypoints come from one place —
    ``ExecutionBackend.execution_summary`` and one report builder — so they
    cannot drift apart again."""

    @staticmethod
    def _service_report(spec, settings, **options):
        async def body():
            return await run_sweep(spec, settings, NodePool("summit", n_nodes=1), **options)

        return run(body()).report

    def test_group_records_and_store_provenance_match_the_runner(self, cutoff_campaign, tmp_path):
        (spec,) = cutoff_campaign.sweeps.values()  # four cutoffs, three ground-state groups
        settings = ExecutionSettings()
        store = ResultStore(tmp_path / "store")
        cold = BatchRunner(spec, settings=settings, store=store).run().execution
        ours = self._service_report(spec, settings, store=store).execution  # warm
        theirs = BatchRunner(spec, settings=settings, store=store).run().execution  # warm

        assert cold["store"]["computed"] == 4 and cold["store"]["hits"] == 0
        assert ours["store"] == theirs["store"]
        assert ours["store"] == {"root": str(store.root), "hits": 4, "computed": 0, "failed": 0}
        assert ours["schedule"] == theirs["schedule"] == "fifo"
        assert ours["backend"] == "service" and theirs["backend"] == "serial"
        assert len(ours["groups"]) == len(cold["groups"]) == 3
        for mine, runner_cold, runner_warm in zip(ours["groups"], cold["groups"], theirs["groups"]):
            assert list(mine) == list(runner_cold) == list(runner_warm)  # same keys, same order
            for key in ("index", "n_jobs", "n_gpus", "machine", "propagator", "n_bands", "n_grid",
                        "predicted_cost", "predicted_seconds", "predicted_energy_j"):
                assert mine[key] == runner_cold[key] == runner_warm[key], key
            assert mine["predicted_seconds"] > 0 and mine["repriced_seconds"] is None
            assert runner_cold["observed_seconds"] > 0

    def test_unknown_costs_export_as_null_through_the_service_too(
        self, dt_campaign, monkeypatch
    ):
        (spec,) = dt_campaign.sweeps.values()
        # a workload model that cannot price anything
        monkeypatch.setattr("repro.exec.scheduler.predict_group_cost", lambda configs: float("nan"))
        report = self._service_report(spec, ExecutionSettings(machine=None))
        assert [r.status for r in report] == ["completed", "completed"]
        decoded = json.loads(json.dumps(report.execution, allow_nan=False))  # strict JSON
        assert decoded["groups"][0]["predicted_cost"] is None
        assert decoded["groups"][0]["predicted_seconds"] is None
        assert decoded["groups"][0]["observed_seconds"] > 0


# ---------------------------------------------------------------------------
# Priorities: preemption at group boundaries, checkpointed resume
# ---------------------------------------------------------------------------


class TestPreemption:
    def test_high_priority_arrival_preempts_and_both_finish_clean(
        self, cutoff_campaign, dt_campaign
    ):
        pool = NodePool("summit", n_nodes=1)
        service = CampaignService(pool)

        async def body():
            low = service.submit(cutoff_campaign, priority=0, name="low")
            await asyncio.sleep(0)  # let the low campaign take the pool's node
            high = service.submit(dt_campaign, priority=5, name="high")
            return await asyncio.gather(low.report(), high.report()), (low, high)

        (low_report, high_report), (low, high) = run(body())

        # the low campaign really gave its lease up at a group boundary...
        progress = low.progress()
        assert progress["preemptions"] >= 1
        assert progress["sweeps"]["cutoff"]["preemptions"] >= 1
        tenants = [lease.tenant for lease in pool.history]
        assert tenants.count("low") >= 2  # split across >= 2 leases
        assert "high" in tenants
        # ...and the high-priority lease sits between the low segments
        first_low = next(lease for lease in pool.history if lease.tenant == "low")
        high_lease = next(lease for lease in pool.history if lease.tenant == "high")
        assert high_lease.start >= first_low.end

        # both campaigns finished with full, bit-identical physics
        assert low_report.ok and high_report.ok
        for campaign, report in [(cutoff_campaign, low_report), (dt_campaign, high_report)]:
            for name, spec in campaign.sweeps.items():
                hand = BatchRunner(spec).run()
                assert report[name].to_json() == hand.to_json()

    def test_preempted_sweep_resumes_from_checkpoints(
        self, cutoff_campaign, dt_campaign, tmp_path, count_scf_solves
    ):
        """Preemption must never redo finished work, however the leases
        interleave — and both tenants share the service's one store: the dt
        group is the cutoff sweep's ecut=2.0 ground state, so the 3 + 1 groups
        converge 3 SCFs (4 with the per-sweep directories this replaced), and
        every job has its manifest in the one store root."""
        service = CampaignService(NodePool("summit", n_nodes=1), store=tmp_path)

        async def body():
            low = service.submit(cutoff_campaign, priority=0, name="low")
            await asyncio.sleep(0)
            high = service.submit(dt_campaign, priority=5, name="high")
            return await asyncio.gather(low.report(), high.report())

        run(body())
        assert len(count_scf_solves) == 3
        jobs = [
            job
            for campaign in (cutoff_campaign, dt_campaign)
            for spec in campaign.sweeps.values()
            for job in spec.expand()
        ]
        assert all(service.store.has(job) for job in jobs)
        manifests = list(service.store.manifests_dir.glob("job-*.json"))
        assert len(manifests) == len({config_hash(job.config) for job in jobs})
        assert not (tmp_path / "low").exists() and not (tmp_path / "high").exists()


# ---------------------------------------------------------------------------
# Admission: infeasible campaigns are rejected before anything runs
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_infeasible_budget_is_rejected_synchronously(self, dt_campaign):
        service = CampaignService(NodePool("summit", n_nodes=1))

        async def body():
            with pytest.raises(InfeasibleBudgetError) as excinfo:
                # every candidate occupies 8 whole nodes: can never fit 1
                service.submit(dt_campaign, rank_options=(8,), gpus_per_group_options=(6,))
            return excinfo.value

        error = run(body())
        assert error.binding == "max_nodes"
        assert service.handles == []  # nothing was enqueued

    def test_preplanned_campaign_is_checked_against_the_pool(self, dt_campaign):
        big_plan = plan(dt_campaign.with_budget(Budget()), rank_options=(8,),
                        gpus_per_group_options=(6,), machines=["summit"])
        service = CampaignService(NodePool("summit", n_nodes=2))

        async def body():
            with pytest.raises(InfeasibleBudgetError, match="grow the pool"):
                service.submit(big_plan)

        run(body())

    def test_plan_for_another_machine_is_rejected(self, dt_campaign):
        frontier_plan = plan(dt_campaign, machines=["frontier"])
        service = CampaignService(NodePool("summit", n_nodes=2))

        async def body():
            with pytest.raises(ValueError, match="models 'summit'"):
                service.submit(frontier_plan)

        run(body())

    def test_budget_with_a_preplanned_campaign_is_rejected(self, dt_campaign):
        execution_plan = plan(dt_campaign)
        service = CampaignService(NodePool("summit", n_nodes=2))

        async def body():
            with pytest.raises(ValueError, match="already planned"):
                service.submit(execution_plan, Budget(max_ranks=2))

        run(body())

    def test_submit_requires_a_running_event_loop(self, dt_campaign):
        service = CampaignService(NodePool("summit", n_nodes=1))
        with pytest.raises(RuntimeError):
            service.submit(dt_campaign)


# ---------------------------------------------------------------------------
# Handles: status, streaming progress, partial reports, cancellation
# ---------------------------------------------------------------------------


class TestHandle:
    def test_status_progress_and_partial_report_stream_mid_flight(self, cutoff_campaign):
        service = CampaignService(NodePool("summit", n_nodes=1))
        seen = []

        async def body():
            handle = service.submit(
                cutoff_campaign, on_sweep_complete=lambda name, report: seen.append(name)
            )
            assert handle.status() == "queued"
            partial = handle.partial_report()
            assert partial.pending_sweeps == ["cutoff"] and not partial.complete
            assert "partial: 0 of 1" in partial.plan_table()
            json.dumps(handle.progress())  # the snapshot is JSON-able

            report = await handle.report()
            assert handle.status() == "done" and handle._task.done()
            progress = handle.progress()
            assert progress["sweeps"]["cutoff"]["state"] == "done"
            assert progress["jobs_done"] == progress["n_jobs"] == 4
            assert progress["sweeps"]["cutoff"]["groups_done"] == 3
            assert handle.partial_report().complete
            return report

        report = run(body())
        assert seen == ["cutoff"]
        assert report.ok
        # the service stamped modeled pool accounting into the execution record
        execution = report["cutoff"].execution
        assert execution["backend"] == "service"
        assert execution["pool"]["n_nodes"] == 1
        assert execution["modeled_end"] > execution["modeled_start"] >= 0.0
        assert len(execution["leases"]) >= 1

    def test_cancelled_campaign_keeps_finished_sweeps(self, cutoff_campaign, dt_campaign, tiny_config):
        service = CampaignService(NodePool("summit", n_nodes=1))
        campaign = CampaignSpec(
            dict(cutoff_campaign.sweeps, **dt_campaign.sweeps), budget=Budget(max_nodes=1)
        )

        async def body():
            handle = service.submit(
                campaign,
                on_sweep_complete=lambda name, report: handle.cancel(),  # after sweep 1
            )
            with pytest.raises(asyncio.CancelledError):
                await handle.report()
            return handle

        handle = run(body())
        assert handle.status() == "cancelled"
        partial = handle.partial_report()
        assert partial.sweep_names == ["cutoff"]  # sweep 1 survived the cancel
        assert partial.pending_sweeps == ["dt"]
        assert service.pool.active == []  # no leaked leases

    def test_an_exception_in_on_sweep_complete_fails_the_campaign_cleanly(
        self, cutoff_campaign, dt_campaign, tmp_path
    ):
        """The callback runs after the sweep's report and observations are
        recorded: its exception fails the campaign, keeps the finished sweep
        (and its log entries), never starts the next one and leaks no lease."""
        from repro.calib import ObservationLog

        store = ResultStore(tmp_path / "store")
        service = CampaignService(NodePool("summit", n_nodes=1), store=store)
        campaign = CampaignSpec(
            dict(cutoff_campaign.sweeps, **dt_campaign.sweeps), budget=Budget(max_nodes=1)
        )

        def callback(name, report):
            raise KeyError(f"callback broke after {name}")

        async def body():
            handle = service.submit(campaign, on_sweep_complete=callback)
            with pytest.raises(KeyError, match="callback broke after cutoff") as excinfo:
                await handle.report()
            return handle, excinfo.value

        handle, error = run(body())
        assert handle.status() == "failed"
        partial = error.partial_report
        assert partial.sweep_names == ["cutoff"]
        assert partial.pending_sweeps == ["dt"]
        assert len(partial["cutoff"]) == 4 and not partial["cutoff"].failed
        logged = ObservationLog(store).load()
        assert len(logged) == 3 and {obs.sweep for obs in logged} == {"cutoff"}
        assert handle.progress()["sweeps"]["dt"]["state"] == "pending"
        assert service.pool.active == []
        assert len(service.pool._free) == service.pool.n_nodes


# ---------------------------------------------------------------------------
# The ExecutionPlan.execute() sync shim
# ---------------------------------------------------------------------------


class TestExecuteShim:
    def test_execute_refuses_to_block_a_running_loop(self, dt_campaign):
        execution_plan = plan(dt_campaign)

        async def body():
            with pytest.raises(RuntimeError, match="CampaignService"):
                execution_plan.execute()

        run(body())

    def test_a_failing_job_fails_its_result_not_the_campaign(self, tiny_config, registries):
        """A crashing job is a failed result of its sweep: the campaign runs
        every sweep, and the others keep their reports and the time on their
        group ledgers."""

        def explode(hamiltonian, **params):
            raise RuntimeError("simulated mid-campaign crash")

        PROPAGATORS.register("service_exploding_prop", explode)
        campaign = CampaignSpec(
            {
                "good": SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]}),
                "bad": SweepSpec(
                    tiny_config, {"propagator.name": ["service_exploding_prop"]}
                ),
            }
        )
        report = plan(campaign).execute()

        assert report.sweep_names == ["good", "bad"]
        assert [r.status for r in report["good"]] == ["completed", "completed"]
        (failed,) = report["bad"]
        assert failed.status == "failed" and "mid-campaign crash" in failed.error
        assert report["good"].to_json()  # real, exportable report
        assert _observed_wall_seconds(report["good"]) > 0.0
