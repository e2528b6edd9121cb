"""Scheduler: cost-aware ordering, makespan packing, config-driven policies.

Acceptance tests of the scheduling layer: ``cheapest_first`` provably orders
ground-state groups by the ``repro.perf`` cost predictions, and
``makespan_balanced`` packing beats naive round-robin placement on a
synthetic heterogeneous sweep.
"""

import json
import math

import numpy as np
import pytest

from repro.api import ConfigError, SimulationConfig
from repro.batch import BatchRunner, SweepSpec, config_hash, ground_state_group_key
from repro.calib import CalibrationModel, Observation, extract_observations
from repro.cost import MachineCostModel
from repro.exec import SCHEDULE_POLICIES, ExecutionSettings, ScheduledGroup, Scheduler
from repro.exec import scheduler as scheduler_module
from repro.exec.scheduler import _least_loaded, _rank_loads


def _makespan(scheduler: Scheduler, bins: list[list[ScheduledGroup]]) -> float:
    """The heaviest rank's load of a packing, in the unit ``pack`` balanced."""
    groups = [group for rank_groups in bins for group in rank_groups]
    metric = scheduler._weight_metric(groups)
    return max(_rank_loads(groups, len(bins), lambda g: g.metric_value(metric)))
from repro.perf import predict_group_cost


@pytest.fixture()
def heterogeneous_runner(tiny_config):
    """A sweep whose groups have very different predicted costs, declared
    most-expensive-first: a hybrid group (N_b^2 Fock term), a large-cutoff
    semi-local group, then a small semi-local group."""
    spec = SweepSpec(
        tiny_config,
        {
            "xc.hybrid_mixing": [0.25, 0.0],
            "basis.ecut": [2.5, 1.5],
        },
    )
    return BatchRunner(spec)


# ---------------------------------------------------------------------------
# Ordering policies
# ---------------------------------------------------------------------------


class TestOrdering:
    def test_fifo_keeps_expansion_order(self, heterogeneous_runner):
        grouped = heterogeneous_runner.groups()
        scheduled = Scheduler("fifo").schedule(grouped)
        assert [g.key for g in scheduled] == list(grouped)
        assert [g.index for g in scheduled] == list(range(len(grouped)))

    def test_cheapest_first_orders_by_perf_prediction(self, heterogeneous_runner):
        """Acceptance: the submission order under ``cheapest_first`` is exactly
        ascending ``repro.perf.predict_group_cost``."""
        grouped = heterogeneous_runner.groups()
        scheduled = Scheduler("cheapest_first").schedule(grouped)

        reference = {
            key: predict_group_cost([job.config for job in jobs])
            for key, jobs in grouped.items()
        }
        costs = [g.predicted_cost for g in scheduled]
        assert costs == sorted(reference.values())
        assert [g.predicted_cost for g in scheduled] == [reference[g.key] for g in scheduled]
        # the sweep was declared most-expensive-first, so the policy provably
        # reordered (it did not just keep fifo order)
        assert [g.index for g in scheduled] != list(range(len(scheduled)))
        assert costs[0] < costs[-1]

    def test_makespan_balanced_orders_largest_first(self, heterogeneous_runner):
        scheduled = Scheduler("makespan_balanced").schedule(heterogeneous_runner.groups())
        costs = [g.predicted_cost for g in scheduled]
        assert costs == sorted(costs, reverse=True)

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="fifo"):
            Scheduler("random")

    def test_failing_cost_model_degrades_to_expansion_order(self, heterogeneous_runner, monkeypatch):
        def broken(configs):
            raise KeyError("no cost model for this structure")

        grouped = heterogeneous_runner.groups()
        monkeypatch.setattr(scheduler_module, "predict_group_cost", broken)
        scheduled = Scheduler("cheapest_first").schedule(grouped)
        assert [g.index for g in scheduled] == list(range(len(grouped)))
        assert all(np.isnan(g.predicted_cost) for g in scheduled)
        # ... and says so: the degraded group is visible, not only a nan
        for group in scheduled:
            (note,) = group.notes
            assert note.endswith("KeyError: 'no cost model for this structure'")

    def test_a_degraded_group_shows_in_the_report_execution_section(self, tiny_config, monkeypatch):
        def broken(configs):
            raise ArithmeticError("workload overflows the model")

        runner = BatchRunner(SweepSpec(tiny_config.with_overrides({"run.n_steps": 1})))
        runner.scheduler = Scheduler("cheapest_first")
        monkeypatch.setattr(scheduler_module, "predict_group_cost", broken)
        (record,) = runner.run().execution["groups"]
        assert record["predicted_cost"] is None
        assert record["notes"] == [
            "no cost prediction, scheduled in expansion order: "
            "ArithmeticError: workload overflows the model"
        ]

    def test_a_bug_in_the_cost_model_is_not_swallowed(self, heterogeneous_runner, monkeypatch):
        """Only the failures a model raises for a workload it cannot price
        degrade the schedule; anything else propagates."""

        def buggy(configs):
            raise RuntimeError("a bug, not an unpriceable workload")

        grouped = heterogeneous_runner.groups()
        monkeypatch.setattr(scheduler_module, "predict_group_cost", buggy)
        with pytest.raises(RuntimeError, match="a bug"):
            Scheduler("cheapest_first").schedule(grouped)

    def test_failing_machine_estimate_is_noted(self, heterogeneous_runner):
        class NoEstimate(MachineCostModel):
            def group_estimate(self, configs, flops=None):
                raise ValueError("no such slice")

        scheduled = Scheduler("makespan_balanced", machine=NoEstimate()).schedule(
            heterogeneous_runner.groups()
        )
        assert all(np.isfinite(g.predicted_cost) and np.isnan(g.predicted_seconds) for g in scheduled)
        assert all(g.notes[0].endswith("ValueError: no such slice") for g in scheduled)


# ---------------------------------------------------------------------------
# Packing onto ranks
# ---------------------------------------------------------------------------


def _synthetic_groups(costs):
    return [
        ScheduledGroup(key=f"g{i}", index=i, jobs=[], predicted_cost=float(c))
        for i, c in enumerate(costs)
    ]


class TestPacking:
    def test_fifo_packing_is_round_robin(self):
        groups = _synthetic_groups([100.0, 1.0, 1.0, 1.0])
        bins = Scheduler("fifo").pack(groups, 2)
        assert [g.rank for g in groups] == [0, 1, 0, 1]
        assert [len(b) for b in bins] == [2, 2]

    def test_makespan_balanced_beats_naive_round_robin(self):
        """Acceptance: on a heterogeneous synthetic sweep, LPT ordering +
        least-loaded packing yields a strictly smaller makespan than the
        naive expansion-order round-robin."""
        costs = [7.0, 8.0, 2.0, 3.0, 2.0, 2.0]

        naive = _synthetic_groups(costs)
        Scheduler("fifo").pack(naive, 2)
        naive_makespan = max(
            sum(g.weight for g in naive if g.rank == r) for r in range(2)
        )
        assert naive_makespan == pytest.approx(13.0)  # ranks get 7+2+2 vs 8+3+2

        scheduler = Scheduler("makespan_balanced")
        groups = _synthetic_groups(costs)
        groups.sort(key=lambda g: -g.predicted_cost)  # what schedule() produces
        bins = scheduler.pack(groups, 2)
        assert _makespan(scheduler, bins) == pytest.approx(12.0)  # 8+2+2 vs 7+3+2
        assert _makespan(scheduler, bins) < naive_makespan

    def test_unknown_costs_spread_instead_of_piling_up(self):
        groups = _synthetic_groups([float("nan")] * 4)
        bins = Scheduler("makespan_balanced").pack(groups, 4)
        assert [len(b) for b in bins] == [1, 1, 1, 1]

    def test_packing_never_mixes_units_across_groups(self):
        """One group whose machine estimate failed (nan seconds, finite FLOPs)
        degrades the whole packing to FLOP weights — it must not weigh its
        raw FLOPs (~1e9) against the others' seconds (~1e-5), which would pin
        one rank and round-robin the rest."""
        groups = _synthetic_groups([4e9, 3e9, 2e9, 1e9])
        for group in groups[:3]:
            group.predicted_seconds = group.predicted_cost / 1e14  # machine ok
        # groups[3] keeps predicted_seconds nan: estimate failed for it alone
        scheduler = Scheduler("makespan_balanced")
        bins = scheduler.pack(groups, 2)
        # consistent FLOP weighting balances 4+1 vs 3+2 (x1e9)...
        assert _makespan(scheduler, bins) == pytest.approx(5e9)
        # ...whereas mixed units would give the nan-seconds group a rank of
        # its own and pile the three others (9e9) onto the second rank
        loads = [sum(g.predicted_cost for g in b) for b in bins]
        assert max(loads) != pytest.approx(9e9)

    def test_pack_requires_positive_rank_count(self):
        with pytest.raises(ValueError, match="n_ranks"):
            Scheduler().pack([], 0)


# ---------------------------------------------------------------------------
# The group ledger: one placement, one rank-load sum, one record
# ---------------------------------------------------------------------------


class TestGroupLedger:
    def test_least_loaded_starts_from_the_given_loads(self):
        """Placement onto ranks that already carry load (an adaptive re-pack's
        spent seconds): each group takes the least-loaded rank, lowest on
        ties, and the loads grow in place."""
        groups = _synthetic_groups([3.0, 4.0, 1.0, 2.0])
        loads = [5.0, 0.0, 2.0]
        _least_loaded(groups, loads, lambda g: g.predicted_cost)
        # 3 -> rank 1 (0), 4 -> rank 2 (2), 1 -> rank 1 (3), 2 -> rank 1 (4)
        assert [g.rank for g in groups] == [1, 2, 1, 1]
        assert loads == [5.0, 6.0, 6.0]

        (tied,) = _synthetic_groups([1.0])
        _least_loaded([tied], [2.0, 2.0], lambda g: g.predicted_cost)
        assert tied.rank == 0

    def test_rank_loads_count_unplaced_groups_on_rank_zero(self):
        groups = _synthetic_groups([1.0, 2.0, 4.0, 8.0, 16.0])
        for group, rank in zip(groups, [1, None, 3, -1, 0]):
            group.rank = rank
        assert _rank_loads(groups, 2, lambda g: g.predicted_cost) == [30.0, 1.0]
        assert _rank_loads([], 3, lambda g: g.predicted_cost) == [0.0, 0.0, 0.0]

    def test_group_record_is_strict_json_and_feeds_calibration(self):
        """``as_dict`` exports NaN as null, adds ``notes`` only on a degraded
        path, and is what calibration reads its observation from."""
        group = ScheduledGroup(
            key="g", index=3, jobs=[None, None], predicted_cost=5.0,
            predicted_seconds=2.0, rank=1, machine="summit", propagator="ptcn",
        )
        record = group.as_dict()
        assert json.loads(json.dumps(record, allow_nan=False)) == record
        assert record["n_jobs"] == 2 and record["rank"] == 1
        assert record["predicted_energy_j"] is None and record["observed_seconds"] is None
        assert "notes" not in record
        assert extract_observations({"groups": [record]}) == []  # not run yet

        group.observed_seconds = 3.0
        group.degraded("lockstep", ValueError("width-1 fallback"))
        record = group.as_dict()
        assert record["notes"] == ["lockstep: ValueError: width-1 fallback"]
        (obs,) = extract_observations({"groups": [record]})
        assert (obs.machine, obs.propagator, obs.group_index, obs.n_jobs) == ("summit", "ptcn", 3, 2)
        assert obs.ratio == 1.5

    def test_repriced_is_the_prediction_times_the_fitted_scale(self):
        fit = CalibrationModel.fit(
            [Observation(machine="summit", propagator="ptcn", predicted_seconds=2.0, observed_seconds=3.0)]
        )
        scale = fit.scale_for("summit", "ptcn")
        assert scale == 1.5
        group = ScheduledGroup(
            key="g", index=0, jobs=[], predicted_seconds=4.0, machine="summit", propagator="ptcn"
        )
        assert group.repriced(fit) == 4.0 * scale
        # another machine falls through to the identity scale
        group.machine = "frontier"
        assert group.repriced(fit) == 4.0
        # no finite positive prediction: nothing to re-price
        for predicted in (float("nan"), 0.0):
            group.predicted_seconds = predicted
            assert math.isnan(group.repriced(fit))


# ---------------------------------------------------------------------------
# Machine-aware scheduling (repro.cost integration)
# ---------------------------------------------------------------------------


class TestMachineAwareness:
    def test_schedule_annotates_wall_seconds_and_energy(self, heterogeneous_runner):
        """Every predictable group carries machine-model wall/energy estimates
        ordered like the relative costs (uniform machine slice)."""
        scheduled = Scheduler("makespan_balanced").schedule(heterogeneous_runner.groups())
        for group in scheduled:
            assert np.isfinite(group.predicted_seconds) and group.predicted_seconds > 0
            assert np.isfinite(group.predicted_energy_j) and group.predicted_energy_j > 0
            assert group.n_gpus == 1
        seconds = [g.predicted_seconds for g in scheduled]
        assert seconds == sorted(seconds, reverse=True)

    def test_pack_weighs_by_predicted_seconds_not_flops(self):
        """Acceptance: when seconds and FLOPs disagree (different machine
        slices), ``makespan_balanced`` packing follows the seconds."""
        groups = [
            ScheduledGroup(key="slow", index=0, jobs=[], predicted_cost=1.0, predicted_seconds=10.0),
            ScheduledGroup(key="q1", index=1, jobs=[], predicted_cost=100.0, predicted_seconds=1.0),
            ScheduledGroup(key="q2", index=2, jobs=[], predicted_cost=100.0, predicted_seconds=1.0),
            ScheduledGroup(key="q3", index=3, jobs=[], predicted_cost=100.0, predicted_seconds=1.0),
        ]
        Scheduler("makespan_balanced").pack(groups, 2)
        # seconds-weighted least-loaded: the 10 s group owns rank 0, the three
        # 1 s groups share rank 1 (FLOP weighting would interleave them)
        assert [g.rank for g in groups] == [0, 1, 1, 1]

    def test_energy_aware_orders_by_joules_not_seconds(self, tiny_config, monkeypatch):
        """A big group on a large slice finishes *sooner* but burns *more*
        joules (more nodes): energy_aware and makespan_balanced order the two
        groups oppositely."""
        spec = SweepSpec(
            tiny_config,
            {
                "basis.ecut": [1.5, 2.0],
                "run.machine": [{"gpus_per_group": 1}, {"gpus_per_group": 12}],
            },
            mode="zip",
        )
        grouped = BatchRunner(spec).groups()
        assert len(grouped) == 2

        def cost_fn(configs):
            # 50 units of work on 12 GPUs (2 nodes): 4.17 s-units, 2x watts;
            # 5 units on 1 GPU (1 node): 5 s-units — shorter wins flip
            return 50.0 if MachineCostModel().gpus_for(configs[0]) == 12 else 5.0

        monkeypatch.setattr(scheduler_module, "predict_group_cost", cost_fn)
        by_time = Scheduler("makespan_balanced").schedule(grouped)
        by_energy = Scheduler("energy_aware").schedule(grouped)
        assert [g.index for g in by_time] == [0, 1]  # 1-GPU group is slower
        assert [g.index for g in by_energy] == [1, 0]  # 12-GPU group burns more
        assert by_energy[0].n_gpus == 12
        assert by_energy[0].predicted_energy_j > by_energy[1].predicted_energy_j
        assert by_energy[0].predicted_seconds < by_energy[1].predicted_seconds

    def test_custom_cost_fn_flows_into_wall_predictions(self, heterogeneous_runner, monkeypatch):
        """The machine converts whatever the workload model returns into
        wall predictions."""
        grouped = heterogeneous_runner.groups()
        monkeypatch.setattr(scheduler_module, "predict_group_cost", lambda configs: 7.0)
        scheduled = Scheduler("makespan_balanced").schedule(grouped)
        expected = MachineCostModel().group_estimate(
            [job.config for job in scheduled[0].jobs], flops=7.0
        )
        assert scheduled[0].predicted_seconds == pytest.approx(expected.seconds)
        assert scheduled[0].predicted_energy_j == pytest.approx(expected.energy_joules)

    def test_machine_none_disables_wall_predictions(self, heterogeneous_runner):
        """``machine=None`` schedules on relative FLOPs only (the pre-cost
        behaviour), with the same ordering."""
        grouped = heterogeneous_runner.groups()
        scheduled = Scheduler("cheapest_first", machine=None).schedule(grouped)
        assert all(np.isnan(g.predicted_seconds) for g in scheduled)
        assert all(np.isnan(g.predicted_energy_j) for g in scheduled)
        costs = [g.predicted_cost for g in scheduled]
        assert costs == sorted(costs)

    def test_broken_cost_fn_keeps_wall_predictions_nan(self, heterogeneous_runner, monkeypatch):
        """A deliberately failing workload model must not be resurrected by
        the machine layer's default."""

        def broken(configs):
            raise ValueError("no model")

        grouped = heterogeneous_runner.groups()
        monkeypatch.setattr(scheduler_module, "predict_group_cost", broken)
        scheduled = Scheduler("energy_aware").schedule(grouped)
        assert all(np.isnan(g.predicted_seconds) for g in scheduled)
        assert [g.index for g in scheduled] == list(range(len(scheduled)))


# ---------------------------------------------------------------------------
# The run.schedule config section
# ---------------------------------------------------------------------------


class TestScheduleConfig:
    def test_policy_round_trips_and_validates(self):
        config = SimulationConfig.from_dict({"run": {"schedule": {"policy": "cheapest_first"}}})
        assert ExecutionSettings.from_config(config).schedule == "cheapest_first"
        again = SimulationConfig.from_dict(config.to_dict())
        assert ExecutionSettings.from_config(again).schedule == "cheapest_first"

    def test_default_policy_is_fifo(self, tiny_config):
        assert ExecutionSettings.from_config(tiny_config).schedule == "fifo"
        assert BatchRunner(SweepSpec(tiny_config)).settings.schedule == "fifo"

    def test_invalid_policy_raises_with_valid_choices(self):
        with pytest.raises(ConfigError, match="cheapest_first"):
            SimulationConfig.from_dict({"run": {"schedule": {"policy": "slowest_first"}}})
        with pytest.raises(ConfigError, match="policy"):
            SimulationConfig.from_dict({"run": {"schedule": {"ranks": 4}}})

    def test_all_declared_policies_are_constructible(self):
        for policy in SCHEDULE_POLICIES:
            assert Scheduler(policy).policy == policy

    def test_schedule_never_affects_group_key_or_job_identity(self, tiny_config):
        """Scheduling decides *when* a job runs, never what it computes: the
        ground-state grouping and the checkpoint ids must be invariant."""
        scheduled = tiny_config.with_overrides({"run.schedule.policy": "makespan_balanced"})
        assert ground_state_group_key(scheduled) == ground_state_group_key(tiny_config)
        assert config_hash(scheduled) == config_hash(tiny_config)

    def test_machine_never_affects_group_key_or_job_identity(self, tiny_config):
        """Like scheduling, the machine model decides *where and how fast* a
        job is modeled to run, never what it computes: grouping and checkpoint
        ids must be invariant under ``run.machine``."""
        on_summit = tiny_config.with_overrides(
            {"run.machine": {"name": "summit", "gpus_per_group": 6}}
        )
        assert ground_state_group_key(on_summit) == ground_state_group_key(tiny_config)
        assert config_hash(on_summit) == config_hash(tiny_config)

    def test_runner_argument_overrides_config_policy(self, tiny_config):
        config = tiny_config.with_overrides({"run.schedule.policy": "cheapest_first"})
        runner = BatchRunner(SweepSpec(config))
        assert runner.settings.schedule == "cheapest_first"
        override = BatchRunner(SweepSpec(config), settings=ExecutionSettings(schedule="fifo"))
        assert override.settings.schedule == "fifo"
