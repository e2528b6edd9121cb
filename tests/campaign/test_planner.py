"""CampaignPlanner: determinism, budget soundness, monotonicity, actionable
infeasibility — the properties the ISSUE's acceptance criteria pin.

The hypothesis suites draw budgets across ~20 orders of magnitude and assert,
for every one, that a returned plan satisfies the budget *under the cost
model* and that loosening a budget never yields a slower plan. Planning never
runs physics, so the whole module stays in the cheap config layers.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.batch import SweepSpec
from repro.campaign import (
    Budget,
    CampaignPlanner,
    CampaignSpec,
    ExecutionPlan,
    InfeasibleBudgetError,
)
from repro.cost import MACHINES
from repro.exec import Scheduler


# ---------------------------------------------------------------------------
# Budget / CampaignSpec surface
# ---------------------------------------------------------------------------


class TestBudget:
    def test_unconstrained_by_default(self):
        budget = Budget()
        assert budget.limits() == {}

    def test_limits_collects_only_set_dimensions(self):
        budget = Budget(max_wall_seconds=10.0, max_ranks=4)
        assert budget.limits() == {"max_wall_seconds": 10.0, "max_ranks": 4}

    @pytest.mark.parametrize("field", ["max_wall_seconds", "max_energy_joules", "max_ranks", "max_nodes"])
    def test_nonpositive_limits_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            Budget(**{field: 0})
        with pytest.raises(ValueError, match=field):
            Budget(**{field: -1.0})

    def test_fractional_counts_rejected(self):
        with pytest.raises(ValueError, match="max_ranks"):
            Budget(max_ranks=2.5)
        with pytest.raises(ValueError, match="max_nodes"):
            Budget(max_nodes=True)

    def test_round_trip_and_replace(self):
        budget = Budget(max_wall_seconds=60.0, max_nodes=2)
        assert Budget(**budget.as_dict()) == budget
        assert dataclasses.replace(budget, max_wall_seconds=None).limits() == {"max_nodes": 2}


class TestCampaignSpec:
    def test_single_sweep_gets_the_default_name(self, tiny_config):
        spec = CampaignSpec(SweepSpec(tiny_config, {"run.time_step_as": [1.0]}))
        assert list(spec.sweeps) == ["sweep"]
        assert spec.n_jobs == 1

    def test_rejects_bad_shapes(self, tiny_config):
        sweep = SweepSpec(tiny_config, {"run.time_step_as": [1.0]})
        with pytest.raises(ValueError, match="non-empty mapping"):
            CampaignSpec({})
        with pytest.raises(ValueError, match="non-empty strings"):
            CampaignSpec({"": sweep})
        with pytest.raises(ValueError, match="must be a SweepSpec"):
            CampaignSpec({"a": tiny_config})
        with pytest.raises(ValueError, match="budget must be a Budget"):
            CampaignSpec({"a": sweep}, budget={"max_ranks": 4})

    @pytest.mark.parametrize("name", ["../escape", "a/b", "a\\b", ".hidden", "..", "a b"])
    def test_unsafe_sweep_names_rejected(self, tiny_config, name):
        """Sweep names become checkpoint subdirectories: no separators, no
        traversal, nothing hidden."""
        sweep = SweepSpec(tiny_config, {"run.time_step_as": [1.0]})
        with pytest.raises(ValueError, match="checkpoint directory name"):
            CampaignSpec({name: sweep})

    def test_with_budget_replaces_the_budget(self, tiny_config):
        spec = CampaignSpec(
            {"a": SweepSpec(tiny_config, {"run.time_step_as": [1.0]})},
            budget=Budget(max_ranks=4),
        )
        relaxed = spec.with_budget(Budget())
        assert relaxed.budget.limits() == {}
        assert list(relaxed.sweeps) == ["a"]


# ---------------------------------------------------------------------------
# The search itself
# ---------------------------------------------------------------------------


class TestPlannerSearch:
    def test_planner_validates_its_grid(self, two_sweep_campaign):
        with pytest.raises(ValueError, match="frontier.*summit"):
            CampaignPlanner(two_sweep_campaign, machines=["perlmutter"])
        with pytest.raises(ValueError, match="rank_options"):
            CampaignPlanner(two_sweep_campaign, rank_options=[0, 2])
        with pytest.raises(ValueError, match="gpus_per_group_options"):
            CampaignPlanner(two_sweep_campaign, gpus_per_group_options=[])
        with pytest.raises(ValueError, match="policies"):
            CampaignPlanner(two_sweep_campaign, policies=())
        with pytest.raises(ValueError, match="CampaignSpec"):
            CampaignPlanner({"not": "a spec"})

    def test_candidate_grid_is_deterministic(self, two_sweep_campaign):
        planner = CampaignPlanner(two_sweep_campaign)
        assert planner.candidates() == planner.candidates()
        # serial for 1 rank, distributed otherwise
        for candidate in planner.candidates():
            assert candidate.backend == ("serial" if candidate.ranks == 1 else "distributed")

    def test_plan_is_deterministic(self, shared_planner):
        first = shared_planner.plan(Budget(max_ranks=4))
        second = shared_planner.plan(Budget(max_ranks=4))
        assert first.as_dict() == second.as_dict()

    def test_unconstrained_budget_picks_the_fastest_candidate(self, shared_planner):
        plan = shared_planner.plan(Budget())
        walls = [
            sum(p.predicted_wall_seconds for p in forecasts.values())
            for _, forecasts, _ in shared_planner._evaluate()
        ]
        assert plan.predicted_wall_seconds == pytest.approx(min(walls))
        # with both presets searched, the improved machine wins on wall time
        assert plan.settings.machine == "frontier"

    def test_rank_and_node_budgets_bound_the_occupancy(self, shared_planner):
        plan = shared_planner.plan(Budget(max_ranks=2))
        assert plan.settings.ranks <= 2
        single_node = shared_planner.plan(Budget(max_nodes=1))
        assert single_node.predicted_nodes == 1

    def test_forecast_matches_the_execution_scheduler(self, shared_planner):
        """The plan's numbers are the execution pipeline's numbers: repacking
        with the chosen settings' own scheduler reproduces the predicted
        makespan exactly."""
        plan = shared_planner.plan(Budget(max_ranks=4))
        scheduler = Scheduler(plan.settings.schedule, machine=plan.settings.machine_model())
        for name, grouped in shared_planner._grouped.items():
            scheduled = scheduler.schedule(dict(grouped))
            bins = scheduler.pack(scheduled, plan.settings.ranks)
            wall = max(sum(g.predicted_seconds for g in rank) for rank in bins)
            assert plan.sweeps[name].predicted_wall_seconds == pytest.approx(wall)

    def test_plan_surface(self, shared_planner):
        plan = shared_planner.plan(Budget(max_ranks=4))
        assert isinstance(plan, ExecutionPlan)
        assert plan.sweep_names == ["cutoff", "dt"]
        assert plan.predicted_wall_seconds > 0
        assert plan.predicted_energy_joules > 0
        table = plan.plan_table()
        assert "cutoff" in table and "machine=" in table
        with pytest.raises(KeyError, match="unknown sweep"):
            plan.sweep_spec("nope")
        record = plan.as_dict()
        assert set(record) == {
            "settings", "budget", "predicted_wall_seconds",
            "predicted_energy_joules", "predicted_nodes", "sweeps",
        }


# ---------------------------------------------------------------------------
# Acceptance properties: soundness, monotonicity, actionable infeasibility
# ---------------------------------------------------------------------------

#: budget magnitudes spanning far below and far above the tiny campaign's
#: predicted costs (~1e-5 s, ~1e-2 J), so both branches are exercised
_WALLS = st.floats(min_value=1e-10, max_value=1e3)
_ENERGIES = st.floats(min_value=1e-7, max_value=1e6)


class TestBudgetProperties:
    @given(wall=_WALLS, energy=_ENERGIES, ranks=st.integers(min_value=1, max_value=16))
    @hyp_settings(max_examples=40, deadline=None)
    def test_every_returned_plan_satisfies_its_budget(self, shared_planner, wall, energy, ranks):
        budget = Budget(max_wall_seconds=wall, max_energy_joules=energy, max_ranks=ranks)
        try:
            plan = shared_planner.plan(budget)
        except InfeasibleBudgetError as exc:
            assert exc.binding in budget.limits()
            assert exc.required > exc.limit
            return
        assert plan.predicted_wall_seconds <= wall
        assert plan.predicted_energy_joules <= energy
        assert plan.settings.ranks <= ranks

    @given(
        tight=_WALLS,
        factor=st.floats(min_value=1.0, max_value=1e6),
    )
    @hyp_settings(max_examples=40, deadline=None)
    def test_looser_wall_budget_never_yields_a_slower_plan(self, shared_planner, tight, factor):
        loose = tight * factor
        try:
            tight_plan = shared_planner.plan(Budget(max_wall_seconds=tight))
        except InfeasibleBudgetError:
            return  # nothing fits the tight budget: nothing to compare
        loose_plan = shared_planner.plan(Budget(max_wall_seconds=loose))
        assert loose_plan.predicted_wall_seconds <= tight_plan.predicted_wall_seconds

    @given(energy_factor=st.floats(min_value=1.0, max_value=1e4))
    @hyp_settings(max_examples=25, deadline=None)
    def test_looser_energy_budget_never_yields_a_slower_plan(self, shared_planner, energy_factor):
        base = shared_planner.plan(Budget()).predicted_energy_joules
        tight_plan = shared_planner.plan(Budget(max_energy_joules=base * 1.01))
        loose_plan = shared_planner.plan(Budget(max_energy_joules=base * 1.01 * energy_factor))
        assert loose_plan.predicted_wall_seconds <= tight_plan.predicted_wall_seconds

    def test_relaxing_to_the_reported_requirement_makes_it_feasible(self, shared_planner):
        """The error's ``required`` is an *actionable* relaxation: re-planning
        with exactly that limit succeeds."""
        with pytest.raises(InfeasibleBudgetError) as excinfo:
            shared_planner.plan(Budget(max_wall_seconds=1e-15))
        exc = excinfo.value
        assert exc.binding == "max_wall_seconds"
        assert "max_wall_seconds" in str(exc)
        assert "raise max_wall_seconds" in str(exc)
        relaxed = shared_planner.plan(Budget(max_wall_seconds=exc.required))
        assert relaxed.predicted_wall_seconds <= exc.required

    def test_binding_constraint_respects_the_other_limits(self, shared_planner):
        """With a rank cap in force, the reported wall relaxation must be
        reachable *within* that cap, not by the unconstrained optimum."""
        with pytest.raises(InfeasibleBudgetError) as excinfo:
            shared_planner.plan(Budget(max_wall_seconds=1e-15, max_ranks=1))
        exc = excinfo.value
        assert exc.binding == "max_wall_seconds"
        serial_walls = [
            totals["max_wall_seconds"]
            for _, _, totals in shared_planner._evaluate()
            if totals["max_ranks"] <= 1
        ]
        assert exc.required == pytest.approx(min(serial_walls))
        assert exc.required >= min(
            totals["max_wall_seconds"] for _, _, totals in shared_planner._evaluate()
        )

    def test_energy_binding_constraint_is_named(self, shared_planner):
        with pytest.raises(InfeasibleBudgetError) as excinfo:
            shared_planner.plan(Budget(max_energy_joules=1e-12))
        assert excinfo.value.binding == "max_energy_joules"
        assert math.isfinite(excinfo.value.required)

    def test_mutually_infeasible_limits_report_the_furthest_dimension(self, shared_planner):
        """When no single relaxation helps (every limit is unreachable even
        with the others lifted), the error names the furthest-out dimension
        against the unconstrained optimum."""
        with pytest.raises(InfeasibleBudgetError, match="mutually") as excinfo:
            shared_planner.plan(Budget(max_wall_seconds=1e-15, max_energy_joules=1e-15))
        exc = excinfo.value
        assert exc.binding in ("max_wall_seconds", "max_energy_joules")
        assert exc.required > exc.limit


# ---------------------------------------------------------------------------
# What-ifs across machine presets
# ---------------------------------------------------------------------------


class TestConfigOverrideConsistency:
    def test_node_budget_follows_the_priced_gpus_per_group(self, tiny_config):
        """A per-config ``run.machine.gpus_per_group`` wins over the candidate
        settings in the cost model; the node-budget accounting must follow
        what the pricing actually used, so plans stay budget-sound."""
        pinned = tiny_config.with_overrides({"run.machine": {"gpus_per_group": 12}})
        campaign = CampaignSpec({"pinned": SweepSpec(pinned, {"run.time_step_as": [1.0, 2.0]})})
        planner = CampaignPlanner(campaign, machines=["summit"])

        plan = planner.plan(Budget())
        assert plan.sweeps["pinned"].max_gpus_per_group == 12
        # 1 rank x 12 GPUs needs 2 Summit nodes — never reported as fewer
        assert plan.predicted_nodes >= 2

        # a node budget below that must be infeasible, not silently violated
        with pytest.raises(InfeasibleBudgetError) as excinfo:
            planner.plan(Budget(max_nodes=1))
        assert excinfo.value.binding == "max_nodes"


class TestMachineWhatIf:
    def test_single_machine_grids_stay_on_that_machine(self, two_sweep_campaign):
        for name in sorted(MACHINES):
            plan = CampaignPlanner(two_sweep_campaign, machines=[name]).plan()
            assert plan.settings.machine == name

    def test_improved_network_machine_plans_faster(self, two_sweep_campaign):
        summit = CampaignPlanner(two_sweep_campaign, machines=["summit"]).plan()
        frontier = CampaignPlanner(two_sweep_campaign, machines=["frontier"]).plan()
        assert frontier.predicted_wall_seconds < summit.predicted_wall_seconds
        assert frontier.predicted_energy_joules < summit.predicted_energy_joules
