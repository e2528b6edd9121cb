"""repro.perf.sweep_cost: the relative cost model behind the sweep scheduler."""

import pytest

from repro.api import PROPAGATORS, SimulationConfig
from repro.perf import (
    applications_per_step,
    hamiltonian_application_flops,
    predict_group_cost,
    predict_job_cost,
    predict_scf_cost,
    workload_sizes,
)
from repro.perf.sweep_cost import BATCH_STEPPING_EFFICIENCY, DEFAULT_APPLICATIONS_PER_STEP


@pytest.fixture()
def base_config():
    return SimulationConfig.from_dict(
        {
            "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0}},
            "basis": {"ecut": 2.0},
            "xc": {"hybrid_mixing": 0.0},
            "run": {"time_step_as": 1.0, "n_steps": 2},
        }
    )


class TestWorkloadSizes:
    def test_sizes_are_positive_and_grow_with_cutoff(self, base_config):
        n_bands, n_grid = workload_sizes(base_config)
        assert n_bands >= 1 and n_grid >= 1
        _, larger_grid = workload_sizes(base_config.with_overrides({"basis.ecut": 4.0}))
        assert larger_grid > n_grid

    def test_never_runs_physics(self, base_config, count_scf_solves):
        workload_sizes(base_config)
        predict_group_cost([base_config])
        assert len(count_scf_solves) == 0

    @pytest.fixture()
    def count_structure_builds(self, monkeypatch):
        """Count ``STRUCTURES.create`` calls, starting from an empty memo."""
        from repro.api import STRUCTURES
        from repro.perf import sweep_cost

        monkeypatch.setattr(sweep_cost, "_DISCRETISATIONS", {})
        builds = []
        original = STRUCTURES.create

        def counting(name, *args, **kwargs):
            builds.append(name)
            return original(name, *args, **kwargs)

        monkeypatch.setattr(STRUCTURES, "create", counting)
        return builds

    def test_sizes_are_memoised_on_system_and_basis(self, base_config, count_structure_builds):
        first = workload_sizes(base_config)
        # laser, propagator, xc and run never enter the key
        other = base_config.with_overrides(
            {"laser": {"pulse": "delta_kick", "params": {"strength": 0.01}},
             "propagator.name": "rk4", "xc.hybrid_mixing": 0.25, "run.n_steps": 7}
        )
        assert workload_sizes(other) == first
        predict_group_cost([base_config, other])
        assert len(count_structure_builds) == 1
        # system and basis do
        assert workload_sizes(base_config.with_overrides({"basis.ecut": 4.0})) != first
        workload_sizes(base_config.with_overrides({"system.params.box": 9.0}))
        workload_sizes(base_config.with_overrides({"system.structure": "h2"}))  # an alias is its own entry
        assert len(count_structure_builds) == 4

    def test_memo_follows_a_re_registered_factory(self, base_config, count_structure_builds, registries):
        from repro.api import STRUCTURES
        from repro.pw import hydrogen_chain

        STRUCTURES.register("memo-probe", lambda: hydrogen_chain(n_atoms=2, spacing=2.0, box=7.0))
        config = base_config.with_overrides({"system": {"structure": "memo-probe", "params": {}}})
        two_atoms = workload_sizes(config)
        # a registry never replaces a name; the registries fixture restores this one
        STRUCTURES._factories["memo-probe"] = lambda: hydrogen_chain(n_atoms=4, spacing=2.0, box=7.0)
        assert workload_sizes(config)[0] == 2 * two_atoms[0]

    def test_asset_structures_are_keyed_by_content_digest(self, count_structure_builds):
        config = SimulationConfig.from_dict(
            {"system": {"structure": "asset:structure/h2-box@1"}, "basis": {"ecut": 2.0}}
        )
        assert workload_sizes(config) == workload_sizes(config)
        assert count_structure_builds == ["asset:structure/h2-box@1"]


class TestApplicationFlops:
    def test_hybrid_dominates_semilocal(self):
        assert hamiltonian_application_flops(4, 1000, 0.25) > hamiltonian_application_flops(4, 1000, 0.0)

    def test_hybrid_term_is_quadratic_in_bands(self):
        small = hamiltonian_application_flops(4, 1000, 1.0)
        large = hamiltonian_application_flops(8, 1000, 1.0)
        assert large / small > 3.0  # N_b^2 pair-density solves

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            hamiltonian_application_flops(0, 100)


class TestApplicationsPerStep:
    def test_rk4_costs_four_applications(self):
        assert applications_per_step("rk4") == 4.0

    def test_aliases_cost_the_same_as_canonical_names(self):
        assert applications_per_step("pt-cn") == applications_per_step("ptcn")

    def test_etrs_scales_with_taylor_order(self):
        assert applications_per_step("etrs", {"taylor_order": 8}) == 2 * applications_per_step(
            "etrs", {"taylor_order": 4}
        )

    def test_implicit_bound_respects_scf_cap(self):
        assert applications_per_step("ptcn", {"max_scf_iterations": 2}) == 3.0

    def test_unknown_propagator_falls_back(self, registries):
        assert applications_per_step("no_such_integrator") == DEFAULT_APPLICATIONS_PER_STEP
        name = "constant_cost_prop"
        PROPAGATORS.register(name, lambda ham, **kw: None)
        assert applications_per_step(name) == DEFAULT_APPLICATIONS_PER_STEP


class TestJobAndGroupCost:
    def test_more_steps_cost_more(self, base_config):
        cheap = predict_job_cost(base_config)
        expensive = predict_job_cost(base_config.with_overrides({"run.n_steps": 20}))
        assert expensive > cheap

    def test_hybrid_group_dominates_semilocal_group(self, base_config):
        hybrid = base_config.with_overrides({"xc.hybrid_mixing": 0.25})
        assert predict_group_cost([hybrid]) > predict_group_cost([base_config])

    def test_group_cost_is_scf_plus_jobs(self, base_config):
        # one job: the shared SCF plus its propagation
        assert predict_group_cost([base_config]) == pytest.approx(
            predict_scf_cost(base_config) + predict_job_cost(base_config)
        )
        # n jobs step in lockstep: the summed propagation carries the
        # (n - 1) / n share of the lockstep saving, the SCF term none
        configs = [base_config, base_config.with_overrides({"run.time_step_as": 2.0})]
        propagation = sum(predict_job_cost(c) for c in configs)
        expected = predict_scf_cost(base_config) + propagation * (
            1.0 - BATCH_STEPPING_EFFICIENCY * 1 / 2
        )
        assert predict_group_cost(configs) == pytest.approx(expected)

    def test_empty_group_costs_nothing(self):
        assert predict_group_cost([]) == 0.0

    def test_gs_mixing_override_drives_scf_cost(self, base_config):
        hybrid_prop = base_config.with_overrides({"xc.hybrid_mixing": 0.25})
        cheap_gs = hybrid_prop.with_overrides({"xc.gs_hybrid_mixing": 0.0})
        assert predict_scf_cost(cheap_gs) < predict_scf_cost(hybrid_prop)


# ---------------------------------------------------------------------------
# Exact values: every float of the cost path, bit for bit
# ---------------------------------------------------------------------------


def _h2(xc: str, propagator: str) -> SimulationConfig:
    return SimulationConfig.from_dict(
        {
            "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0}},
            "basis": {"ecut": 2.0},
            "xc": {"hybrid_mixing": 0.25 if xc == "hybrid" else 0.0},
            "propagator": {"name": propagator},
            "run": {"time_step_as": 1.0, "n_steps": 2},
        }
    )


def _group(config: SimulationConfig, width: int) -> list[SimulationConfig]:
    """``width`` jobs of one ground-state group (they differ in time step)."""
    return [config.with_overrides({"run.time_step_as": 1.0 + k}) for k in range(width)]


def _cost_path_value(quantity: str, xc: str, propagator: str, width: int) -> float:
    from repro.cost import MACHINES, MachineCostModel

    config = _h2(xc, propagator)
    if quantity == "application":
        return hamiltonian_application_flops(*workload_sizes(config), config.xc.hybrid_mixing)
    if quantity == "job":
        return predict_job_cost(config)
    if quantity == "scf":
        return predict_scf_cost(config)
    if quantity == "group":
        return predict_group_cost(_group(config, width))
    machine, attribute = quantity.split(".")
    estimate = MachineCostModel(system=MACHINES[machine]).group_estimate(_group(config, width))
    return getattr(estimate, attribute)


#: (quantity, xc, propagator, group width, float.hex of the value). The
#: scheduler, the planner and the calibration see exactly these floats; a
#: refactor of the FLOP counts or of MachineCostModel must keep every bit.
EXACT_COST_PATH = [
    ("application", "lda", "ptcn", 1, "0x1.8000000000000p+15"),
    ("scf", "lda", "ptcn", 1, "0x1.0e00000000000p+23"),
    ("job", "lda", "ptcn", 1, "0x1.e000000000000p+19"),
    ("group", "lda", "ptcn", 1, "0x1.2c00000000000p+23"),
    ("summit.seconds", "lda", "ptcn", 1, "0x1.e08e47b01a944p-16"),
    ("frontier.seconds", "lda", "ptcn", 1, "0x1.39ab0fbab64d8p-17"),
    ("group", "lda", "ptcn", 3, "0x1.5600000000000p+23"),
    ("summit.seconds", "lda", "ptcn", 3, "0x1.11eab31a23a15p-15"),
    ("frontier.seconds", "lda", "ptcn", 3, "0x1.6594ee17696cdp-17"),
    ("job", "lda", "rk4", 1, "0x1.e000000000000p+18"),
    ("group", "lda", "rk4", 1, "0x1.1d00000000000p+23"),
    ("summit.seconds", "lda", "rk4", 1, "0x1.c8872a80e60cep-16"),
    ("frontier.seconds", "lda", "rk4", 1, "0x1.29fc1bbe2d300p-17"),
    ("group", "lda", "rk4", 3, "0x1.3200000000000p+23"),
    ("summit.seconds", "lda", "rk4", 3, "0x1.ea2ab9c2fc641p-16"),
    ("frontier.seconds", "lda", "rk4", 3, "0x1.3ff10aec86bfbp-17"),
    ("application", "hybrid", "ptcn", 1, "0x1.8000000000000p+16"),
    ("scf", "hybrid", "ptcn", 1, "0x1.0e00000000000p+24"),
    ("job", "hybrid", "ptcn", 1, "0x1.e000000000000p+20"),
    ("group", "hybrid", "ptcn", 1, "0x1.2c00000000000p+24"),
    ("summit.seconds", "hybrid", "ptcn", 1, "0x1.e08e47b01a944p-15"),
    ("frontier.seconds", "hybrid", "ptcn", 1, "0x1.39ab0fbab64d8p-16"),
    ("group", "hybrid", "ptcn", 3, "0x1.5600000000000p+24"),
    ("summit.seconds", "hybrid", "ptcn", 3, "0x1.11eab31a23a15p-14"),
    ("frontier.seconds", "hybrid", "ptcn", 3, "0x1.6594ee17696cdp-16"),
    ("job", "hybrid", "rk4", 1, "0x1.e000000000000p+19"),
    ("group", "hybrid", "rk4", 1, "0x1.1d00000000000p+24"),
    ("summit.seconds", "hybrid", "rk4", 1, "0x1.c8872a80e60cep-15"),
    ("frontier.seconds", "hybrid", "rk4", 1, "0x1.29fc1bbe2d300p-16"),
    ("group", "hybrid", "rk4", 3, "0x1.3200000000000p+24"),
    ("summit.seconds", "hybrid", "rk4", 3, "0x1.ea2ab9c2fc641p-15"),
    ("frontier.seconds", "hybrid", "rk4", 3, "0x1.3ff10aec86bfbp-16"),
    ("summit.power_watts", "hybrid", "ptcn", 1, "0x1.1080000000000p+11"),
    ("summit.power_watts", "hybrid", "ptcn", 3, "0x1.1080000000000p+11"),
    ("frontier.power_watts", "hybrid", "ptcn", 1, "0x1.3420000000000p+11"),
    ("frontier.power_watts", "hybrid", "ptcn", 3, "0x1.3420000000000p+11"),
]


@pytest.mark.parametrize(
    "quantity, xc, propagator, width, expected",
    EXACT_COST_PATH,
    ids=[f"{q}-{xc}-{p}-w{w}" for q, xc, p, w, _ in EXACT_COST_PATH],
)
def test_cost_path_is_bit_exact(quantity, xc, propagator, width, expected):
    assert _cost_path_value(quantity, xc, propagator, width) == float.fromhex(expected)
