"""Adaptive mid-campaign re-planning: drift-triggered work stealing.

The scenario is the skewed sweep of the PR's acceptance criterion: four
single-propagator ground-state groups (propagator zipped against cutoff so
the group key separates them), two ranks, and a deterministic ``observe``
hook that makes every ptcn group run 3x its prediction while rk4 groups run
exactly as predicted. The static pack balances the *predicted* seconds —
pairing the two ptcn groups on one rank — so re-packing on the fitted
calibration must steal work and strictly beat it.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.batch import BatchRunner, SweepSpec
from repro.calib import CalibrationModel, Observation
from repro.exec import ExecutionSettings
from repro.service import NodePool
from repro.service import runner
from repro.service.runner import run_sweep

#: the synthetic truth: ptcn groups run 3x their prediction, rk4 exactly 1x
SKEW = {"ptcn": 3.0, "rk4": 1.0}


def skewed_observe(group):
    return group.predicted_seconds * SKEW[group.propagator]


@pytest.fixture()
def skewed_spec(tiny_config) -> SweepSpec:
    """Four single-propagator groups: cutoffs zipped with propagators, the
    two ptcn groups sitting mid-cost so the static LPT pack pairs them."""
    return SweepSpec(
        tiny_config,
        {
            "basis.ecut": [2.6, 2.1, 1.8, 1.5],
            "propagator.name": ["rk4", "ptcn", "ptcn", "rk4"],
        },
        mode="zip",
    )


@pytest.fixture()
def settings() -> ExecutionSettings:
    return ExecutionSettings(machine="summit", ranks=2, schedule="makespan_balanced")


def run_adaptive(spec, settings, observe=skewed_observe, **kwargs):
    async def body():
        pool = NodePool("summit", n_nodes=1)
        return await run_sweep(spec, settings, pool, observe=observe, **kwargs)

    return asyncio.run(body())


def fit_of(records) -> CalibrationModel:
    """The calibration the given group records fit to."""
    return CalibrationModel.fit(
        [
            Observation(
                machine=r["machine"],
                propagator=r["propagator"],
                predicted_seconds=r["predicted_seconds"],
                observed_seconds=r["observed_seconds"],
            )
            for r in records
        ]
    )


def corrected_makespan(records, rank_of, fit) -> float:
    """The busiest of two ranks, every group priced ``predicted x scale``."""
    loads = [0.0, 0.0]
    for r in records:
        loads[rank_of[r["index"]]] += r["predicted_seconds"] * fit.scale_for(r["machine"], r["propagator"])
    return max(loads)


def dt_campaign(config, time_steps, ecut=None):
    """One sweep named ``dt``: time steps, crossed with cutoffs when given
    (one ground-state group per cutoff)."""
    from repro.campaign import Budget, CampaignSpec

    axes = {"run.time_step_as": time_steps}
    if ecut is not None:
        axes = {"basis.ecut": ecut, **axes}
    return CampaignSpec({"dt": SweepSpec(config, axes)}, budget=Budget(max_nodes=1))


def service_pass(store, campaign, name, calibration=None):
    """One campaign through a fresh service over ``store``: its report."""
    from repro.service import CampaignService

    service = CampaignService(NodePool("summit", n_nodes=1), store=store, calibration=calibration)

    async def body():
        return await service.submit(campaign, name=name).report()

    return asyncio.run(body())


def upfront_fit(ptcn: float) -> CalibrationModel:
    """A fit made before the sweep: ptcn ``ptcn``x, rk4 exactly as modeled."""
    return CalibrationModel.fit(
        [
            Observation(machine="summit", propagator="ptcn", predicted_seconds=1.0, observed_seconds=ptcn),
            Observation(machine="summit", propagator="rk4", predicted_seconds=1.0, observed_seconds=1.0),
        ]
    )


class TestAdaptiveRepack:
    def test_drift_triggers_work_stealing_and_beats_the_static_plan(
        self, skewed_spec, settings
    ):
        outcome = run_adaptive(skewed_spec, settings, adaptive=True)
        assert outcome.repacks >= 1
        record = outcome.report.execution["adaptive"]
        assert record["enabled"] is True
        assert record["repacks"] == outcome.repacks
        assert len(record["events"]) == outcome.repacks
        event = record["events"][0]
        assert event["drift"] > record["drift_threshold"]
        assert any(scale > 2.0 for scale in event["scales"].values())
        # the acceptance inequality: re-packed makespan strictly below the
        # static pack, both priced with the final fitted seconds
        assert (
            record["adaptive_modeled_makespan_s"]
            < record["static_modeled_makespan_s"]
        )

    def test_the_ledger_is_the_fit_exactly(self, skewed_spec, settings):
        """Every re-priced second and both what-if makespans equal what the
        fits of the observed groups give, float for float: a group is
        re-priced by the fit of the last re-pack before it ran, and both
        packings are priced by the final fit."""
        executed = []

        def observe(group):
            executed.append(group.index)
            return skewed_observe(group)

        static = run_adaptive(skewed_spec, settings, observe=observe)
        del executed[:]
        outcome = run_adaptive(skewed_spec, settings, observe=observe, adaptive=True)
        record = outcome.report.execution["adaptive"]
        groups = outcome.report.execution["groups"]
        by_index = {g["index"]: g for g in groups}
        assert len(record["events"]) >= 2  # re-packed more than once

        static_groups = static.report.execution["groups"]
        # re-priced, never re-predicted: observations keep pairing the model's
        # own prediction with reality
        assert [g["predicted_seconds"] for g in groups] == [g["predicted_seconds"] for g in static_groups]
        for g in groups:
            assert g["observed_seconds"] == g["predicted_seconds"] * SKEW[g["propagator"]]
        for position, index in enumerate(executed):
            before = [e["after_groups"] for e in record["events"] if e["after_groups"] <= position]
            expected = None
            if before:
                fit = fit_of(by_index[i] for i in executed[: before[-1]])
                g = by_index[index]
                expected = g["predicted_seconds"] * fit.scale_for(g["machine"], g["propagator"])
            assert by_index[index]["repriced_seconds"] == expected

        final = fit_of(groups)
        static_rank = {g["index"]: g["rank"] for g in static_groups}
        adaptive_rank = {g["index"]: g["rank"] for g in groups}
        assert record["static_modeled_makespan_s"] == corrected_makespan(groups, static_rank, final)
        assert record["adaptive_modeled_makespan_s"] == corrected_makespan(groups, adaptive_rank, final)

    def test_no_repack_below_threshold(self, skewed_spec, settings, monkeypatch):
        monkeypatch.setattr(runner, "DRIFT_THRESHOLD", 10.0)
        outcome = run_adaptive(skewed_spec, settings, adaptive=True)
        assert outcome.repacks == 0
        record = outcome.report.execution["adaptive"]
        assert record["repacks"] == 0
        assert "static_modeled_makespan_s" not in record

    def test_uniform_drift_never_triggers(self, skewed_spec, settings):
        async def body():
            pool = NodePool("summit", n_nodes=1)
            return await run_sweep(
                skewed_spec,
                settings,
                pool,
                adaptive=True,
                observe=lambda g: g.predicted_seconds * 5.0,  # uniformly slow
            )

        outcome = asyncio.run(body())
        # every ratio equal → spread 1.0: nothing a re-pack could improve
        assert outcome.repacks == 0

    def test_a_skew_the_upfront_calibration_priced_in_is_no_drift(self, tiny_config, settings):
        """Drift is measured against the planned seconds: with ptcn already
        calibrated 3x, observing ptcn 3x does not re-pack, 9x still does,
        and the re-pack still beats the (calibrated) static pack. One
        mid-cost ptcn group among three rk4 groups: at 9x it outweighs the
        rank the calibrated pack gave it."""
        spec = SweepSpec(
            tiny_config,
            {"basis.ecut": [2.6, 2.1, 1.8, 1.5], "propagator.name": ["rk4", "rk4", "ptcn", "rk4"]},
            mode="zip",
        )
        calibration = upfront_fit(ptcn=3.0)
        priced_in = run_adaptive(spec, settings, adaptive=True, calibration=calibration)
        assert priced_in.repacks == 0

        def slower(group):
            return group.predicted_seconds * (9.0 if group.propagator == "ptcn" else 1.0)

        outcome = run_adaptive(spec, settings, observe=slower, adaptive=True, calibration=calibration)
        assert outcome.repacks >= 1
        record = outcome.report.execution["adaptive"]
        assert record["adaptive_modeled_makespan_s"] < record["static_modeled_makespan_s"]
        # the re-pack fit reads the raw observations: the model's seconds
        # against reality, ptcn 9x
        assert record["events"][0]["scales"]["summit/ptcn"] == pytest.approx(9.0)

    def test_a_repack_keeps_the_upfront_buckets_it_did_not_observe(self, tiny_config):
        """Up-front ptcn 0.5x / rk4 1x; the two rk4 groups that run first
        observe 1x then 2x, which drifts and re-packs. The ptcn group nothing
        observed yet keeps its up-front 0.5x, not the fresh machine-wide
        sqrt(2)x of the rk4 observations."""
        spec = SweepSpec(
            tiny_config,
            {"basis.ecut": [2.6, 2.1, 1.8, 1.5], "propagator.name": ["rk4", "rk4", "ptcn", "rk4"]},
            mode="zip",
        )
        calibration = upfront_fit(ptcn=0.5)
        seen = []

        def observe(group):
            seen.append(group.propagator)
            scale = 0.5 if group.propagator == "ptcn" else (1.0 if seen.count("rk4") == 1 else 2.0)
            return group.predicted_seconds * scale

        fifo = ExecutionSettings(machine="summit", ranks=2, schedule="fifo")
        outcome = run_adaptive(spec, fifo, observe=observe, adaptive=True, calibration=calibration)
        record = outcome.report.execution["adaptive"]
        assert record["events"][0]["after_groups"] == 2
        assert record["events"][0]["scales"]["summit/rk4"] == pytest.approx(2.0**0.5)
        assert record["events"][0]["scales"]["summit/ptcn"] == calibration.scale_for("summit", "ptcn")
        (ptcn,) = [g for g in outcome.report.execution["groups"] if g["propagator"] == "ptcn"]
        assert ptcn["repriced_seconds"] == ptcn["predicted_seconds"] * calibration.scale_for("summit", "ptcn")

    def test_adaptive_off_by_default(self, skewed_spec, settings):
        outcome = run_adaptive(skewed_spec, settings)
        assert outcome.repacks == 0
        assert "adaptive" not in outcome.report.execution


class TestServiceCalibrationLoop:
    def test_observations_persist_and_recalibrate_admission(
        self, skewed_spec, tiny_config, tmp_path
    ):
        """The full loop through CampaignService: a first campaign populates
        the store's observation log; a second service over the same store
        with calibration='store' admits its plan re-priced and stamps the
        provenance."""
        from repro.calib import ObservationLog
        from repro.campaign import Budget, CampaignSpec
        from repro.service import CampaignService
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        campaign = CampaignSpec({"skewed": skewed_spec}, budget=Budget(max_nodes=1))

        cold_service = CampaignService(NodePool("summit", n_nodes=1), store=store)

        async def cold_body():
            return await cold_service.submit(campaign, name="cold").report()

        cold_report = asyncio.run(cold_body())
        assert cold_report.ok
        log = ObservationLog(store)
        observations = log.load()
        assert len(observations) == 4  # one per executed group
        assert {obs.sweep for obs in observations} == {"skewed"}
        assert all(obs.ok and obs.machine == "summit" for obs in observations)

        warm_service = CampaignService(
            NodePool("summit", n_nodes=1), store=store, calibration="store"
        )

        async def warm_body():
            handle = warm_service.submit(campaign, name="warm")
            return handle, await handle.report()

        handle, warm_report = asyncio.run(warm_body())
        assert "calibration" in handle.plan.as_dict()
        assert "calibrated from" in warm_report.plan_table()
        # warm re-run is fully served from the store: identical physics
        assert warm_report.n_cached == warm_report.n_jobs == 4
        assert warm_report["skewed"].to_json() == cold_report[
            "skewed"
        ].to_json()

    def test_a_fully_store_served_pass_observes_nothing(self, tiny_config, tmp_path):
        from repro.calib import ObservationLog
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        campaign = dt_campaign(tiny_config, [1.0, 2.0])

        cold = service_pass(store, campaign, "cold")
        assert cold.n_cached == 0
        log = ObservationLog(store)
        cold_observations = log.load()
        assert len(cold_observations) == 1  # one executed group
        cold_file = log.path.stat()

        warm = service_pass(store, campaign, "warm")
        assert warm.n_cached == warm.n_jobs == 2
        (group,) = warm["dt"].execution["groups"]
        assert group["n_served"] == 2 and group["observed_seconds"] == 0.0
        # nothing ran, so nothing was observed: the log is the cold pass's,
        # not even rewritten
        assert log.load() == cold_observations
        assert (log.path.stat().st_ino, log.path.stat().st_mtime_ns) == (
            cold_file.st_ino, cold_file.st_mtime_ns
        )

    def test_a_partly_served_group_records_no_observation(self, tiny_config, tmp_path):
        """A group the store served in part observes the wall of its computed
        jobs only, against a prediction that priced them all: no observation.
        A group computed in full in the same pass still is one."""
        from repro.calib import ObservationLog
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        service_pass(store, dt_campaign(tiny_config, [1.0, 2.0]), "cold")
        cold_observations = ObservationLog(store).load()

        mixed = service_pass(store, dt_campaign(tiny_config, [1.0, 2.0, 3.0], ecut=[2.0, 1.5]), "mixed")
        assert mixed.n_cached == 2 and mixed.n_jobs == 6
        groups = mixed["dt"].execution["groups"]
        partly = [g for g in groups if g["n_served"]]
        computed = [g for g in groups if not g["n_served"]]
        assert [g["n_served"] for g in partly] == [2] and len(computed) == 1
        assert partly[0]["observed_seconds"] > 0  # the one computed job's wall

        logged = ObservationLog(store).load()
        assert logged[: len(cold_observations)] == cold_observations
        (new,) = logged[len(cold_observations):]
        assert (new.group_index, new.n_jobs) == (computed[0]["index"], 3)
        assert new.observed_seconds == computed[0]["observed_seconds"]

    def test_a_cold_pass_logs_every_group_at_its_predicted_seconds(self, tiny_config, tmp_path):
        """With nothing stored, every group is computed in full, so the log
        pairs each group's record, in execution order, exactly."""
        from repro.calib import ObservationLog
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        cold = service_pass(store, dt_campaign(tiny_config, [1.0, 2.0], ecut=[2.0, 1.5]), "cold")
        groups = cold["dt"].execution["groups"]
        assert len(groups) == 2
        logged = ObservationLog(store).load()
        assert [(o.group_index, o.n_jobs, o.predicted_seconds, o.observed_seconds) for o in logged] == [
            (g["index"], g["n_jobs"], g["predicted_seconds"], g["observed_seconds"]) for g in groups
        ]
        assert all(o.sweep == "dt" and o.ok for o in logged)

    def test_a_refused_append_is_named_in_the_report(self, tiny_config, tmp_path, monkeypatch):
        """The campaign's physics stands when the log cannot be written, and
        the sweep's execution section says which append was skipped and why."""
        from repro.calib import ObservationLog
        from repro.store import ResultStore

        def refused(self, observations):
            raise PermissionError("read-only calibration directory")

        monkeypatch.setattr(ObservationLog, "append", refused)
        with pytest.warns(RuntimeWarning, match="calibration append skipped"):
            report = service_pass(ResultStore(tmp_path / "store"), dt_campaign(tiny_config, [1.0]), "cold")
        assert report.ok and report.n_jobs == 1
        assert report["dt"].execution["notes"] == [
            "calibration append skipped: PermissionError: read-only calibration directory"
        ]

    def test_a_calibrated_pass_logs_the_models_predictions(self, tiny_config, tmp_path):
        """A calibration='store' pass that computes new jobs logs the
        uncalibrated model's predicted seconds, not the re-priced ones: a
        later fit must pair the model with reality."""
        from repro.calib import ObservationLog
        from repro.exec import Scheduler
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        service_pass(store, dt_campaign(tiny_config, [1.0, 2.0], ecut=[2.0, 1.5]), "cold")
        cold_observations = ObservationLog(store).load()
        fitted = CalibrationModel.fit(cold_observations)
        assert fitted.scale_for("summit", "ptcn") != pytest.approx(1.0)  # a real re-price

        campaign = dt_campaign(tiny_config, [3.0, 4.0], ecut=[2.0, 1.5])  # not in the store
        warm = service_pass(store, campaign, "warm", calibration="store")
        assert warm.n_cached == 0 and warm.ok
        assert "calibration" in warm.plan

        settings = ExecutionSettings(**warm.plan["settings"])
        model = Scheduler(settings.schedule, machine=settings.machine_model())
        predicted = {g.index: g.predicted_seconds for g in model.schedule(campaign.sweeps["dt"].groups())}
        logged = ObservationLog(store).load()[len(cold_observations):]
        assert len(logged) == len(predicted) == 2
        for obs in logged:
            assert obs.predicted_seconds == predicted[obs.group_index]

    def test_calibration_argument_is_validated(self):
        from repro.service import CampaignService

        with pytest.raises(ValueError, match="calibration"):
            CampaignService(calibration="bogus")


class TestAdaptivePhysicsSafety:
    def test_no_group_rerun_and_export_bit_identical(
        self, skewed_spec, settings, count_scf_solves, count_propagation_steps
    ):
        """Re-packing moves accounting only: every SCF solves exactly once,
        no propagation step runs twice, and the physics export is
        bit-identical to the plain BatchRunner's."""
        outcome = run_adaptive(skewed_spec, settings, adaptive=True)
        assert outcome.repacks >= 1
        scfs_adaptive = len(count_scf_solves)
        steps_adaptive = sum(count_propagation_steps)
        assert scfs_adaptive == 4  # one per ground-state group, none redone

        del count_scf_solves[:]
        del count_propagation_steps[:]
        hand = BatchRunner(skewed_spec, settings=settings).run()
        assert len(count_scf_solves) == scfs_adaptive
        assert sum(count_propagation_steps) == steps_adaptive

        assert outcome.report.to_json() == hand.to_json()

    def test_completed_groups_keep_rank_and_order(self, skewed_spec, settings):
        """The groups executed before the re-pack are untouched by it."""
        static = run_adaptive(skewed_spec, settings)  # adaptive off
        adaptive = run_adaptive(skewed_spec, settings, adaptive=True)
        n_before = adaptive.report.execution["adaptive"]["events"][0]["after_groups"]
        static_by_index = {
            g["index"]: g for g in static.report.execution["groups"]
        }
        done_first = adaptive.report.execution["groups"][:n_before]
        for g in done_first:
            assert g["rank"] == static_by_index[g["index"]]["rank"]
            assert g["repriced_seconds"] is None
