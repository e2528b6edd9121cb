"""One SCF per distinct ground state: the ground state is field-free, the
laser is not part of :func:`~repro.batch.ground_state_group_key`, and a
laser-axis sweep is one group stepping in lockstep.

Solve-counted (``count_scf_solves`` wraps ``GroundStateSolver.solve``) with
and without a store; bit-identity of a mixed-pulse lockstep group against
the same jobs alone at width 1; the key's invariance as a hypothesis
property.
"""

import asyncio
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import SimulationConfig
from repro.batch import BatchRunner, SweepSpec, ground_state_group_key
from repro.campaign import Budget, CampaignSpec
from repro.constants import attoseconds_to_au
from repro.exec import execute_group
from repro.perf.sweep_cost import discretisation
from repro.service import CampaignService, NodePool
from repro.store import ResultStore

#: tiny H2 base (mirrors the root conftest's TINY_API_DICT, for the
#: class-scoped fixture that cannot take the function-scoped ``tiny_config``)
TINY = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}

GAUSSIAN = {
    "pulse": "gaussian",
    "params": {"amplitude": 0.005, "omega": 0.35, "t0_as": 20.0, "sigma_as": 10.0},
}
FLUENCE_GAUSSIAN = {
    "pulse": "fluence_gaussian",
    "params": {
        "fluence": 1e-7,
        "omega": 0.35,
        "t0": attoseconds_to_au(20.0),
        "sigma": attoseconds_to_au(10.0),
    },
}
PUMP_PROBE = {"pulse": "pump_probe", "params": {"amplitude": 0.004, "duration_fs": 0.06}}
DELTA_KICK = {"pulse": "delta_kick", "params": {"strength": 0.01, "polarization": [1, 0, 0]}}
NO_PULSE = {"pulse": "none", "params": {}}

#: the PR 10 laser axes plus the pulse shape itself: (base laser, axes)
LASER_SWEEPS = {
    "amplitude": (GAUSSIAN, {"laser.params.amplitude": [0.002, 0.004, 0.006]}),
    "fluence": (FLUENCE_GAUSSIAN, {"laser.params.fluence": [1e-7, 4e-7]}),
    "delay": (PUMP_PROBE, {"laser.params.delay_as": [0.0, 10.0, 20.0]}),
    "shape": (NO_PULSE, {"laser": [GAUSSIAN, PUMP_PROBE, DELTA_KICK, NO_PULSE]}),
}


def laser_sweep(tiny_config, name: str) -> SweepSpec:
    laser, axes = LASER_SWEEPS[name]
    return SweepSpec(tiny_config.with_overrides({"laser": laser}), axes)


# ---------------------------------------------------------------------------
# SCF counts
# ---------------------------------------------------------------------------


class TestOneScfPerLaserSweep:
    @pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
    @pytest.mark.parametrize("name", sorted(LASER_SWEEPS))
    def test_laser_axis_sweep_is_one_group_and_one_scf(
        self, tiny_config, count_scf_solves, tmp_path, name, with_store
    ):
        spec = laser_sweep(tiny_config, name)
        runner = BatchRunner(spec, store=tmp_path / "store" if with_store else None)
        assert len(runner.groups()) == 1
        report = runner.run()
        assert not report.failed
        assert len(report.results) == spec.n_jobs
        assert len(count_scf_solves) == 1
        # every job ran under its own pulse: the stamped config is the job's
        for job, result in zip(spec.expand(), report.results):
            assert result.trajectory.metadata["config"]["laser"] == job.config.to_dict()["laser"]

    def test_every_pulse_of_a_material_adopts_the_stored_scf(
        self, tiny_config, count_scf_solves, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        for name in sorted(LASER_SWEEPS):
            assert not BatchRunner(laser_sweep(tiny_config, name), store=store).run().failed
        assert len(count_scf_solves) == 1
        assert store.ledger()["ground_state_manifests"] == 1

    def test_two_tenants_with_different_pulses_run_one_scf(
        self, tiny_config, count_scf_solves, tmp_path
    ):
        one_node = Budget(max_nodes=1)
        tenants = {
            "tenant-a": CampaignSpec({"amp": laser_sweep(tiny_config, "amplitude")}, budget=one_node),
            "tenant-b": CampaignSpec({"delay": laser_sweep(tiny_config, "delay")}, budget=one_node),
        }
        service = CampaignService(NodePool("summit", n_nodes=2), store=tmp_path / "store")

        async def body():
            handles = [service.submit(spec, name=name) for name, spec in tenants.items()]
            return await asyncio.gather(*(handle.report() for handle in handles))

        reports = asyncio.run(body())
        assert all(report.ok for report in reports)
        assert sum(report.n_jobs for report in reports) == 6
        assert len(count_scf_solves) == 1

    def test_store_serves_the_ground_state_of_every_group(self, tiny_config, tmp_path):
        spec = SweepSpec(
            tiny_config.with_overrides({"laser": GAUSSIAN}),
            {"basis.ecut": [1.8, 2.0], "laser.params.amplitude": [0.002, 0.004]},
        )
        runner = BatchRunner(spec, store=tmp_path / "store")
        assert [len(jobs) for jobs in runner.groups().values()] == [2, 2]
        assert not runner.run().failed
        for key in runner.groups():
            loaded = runner.store.load_ground_state(key)
            assert loaded is not None and loaded.converged


# ---------------------------------------------------------------------------
# Bit-identity of a mixed-pulse lockstep group
# ---------------------------------------------------------------------------


class TestMixedPulseLockstep:
    @pytest.fixture(scope="class")
    def jobs(self):
        ptcn = {"name": "ptcn", "params": {"scf_tolerance": 1e-8}}
        rk4 = {"name": "rk4", "params": {}}
        spec = SweepSpec(
            SimulationConfig.from_dict(TINY),
            {
                "laser": [GAUSSIAN, GAUSSIAN, DELTA_KICK, DELTA_KICK, NO_PULSE, NO_PULSE],
                "propagator": [ptcn, rk4] * 3,
                "run": [{"time_step_as": 10.0, "n_steps": 2}, {"time_step_as": 1.0, "n_steps": 3}] * 3,
            },
            mode="zip",
        )
        (jobs,) = spec.groups().values()
        return jobs

    @pytest.mark.parametrize("precision", ["complex128", "complex64"])
    def test_each_job_is_bit_identical_to_itself_alone(self, jobs, precision):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a width-1 fallback would warn
            together = execute_group(jobs, None, raise_on_error=True, precision=precision)
        for job, grouped in zip(jobs, together):
            (alone,) = execute_group([job], None, raise_on_error=True, precision=precision)
            assert grouped.trajectory.metadata == alone.trajectory.metadata
            for column in alone.trajectory._ARRAY_FIELDS:
                assert np.array_equal(
                    getattr(grouped.trajectory, column),
                    getattr(alone.trajectory, column),
                    equal_nan=True,
                ), (job.job_id, column)
            assert np.array_equal(
                grouped.trajectory.final_wavefunction.coefficients,
                alone.trajectory.final_wavefunction.coefficients,
            ), job.job_id

    def test_the_pulses_really_differ(self, jobs):
        results = execute_group(jobs, None, raise_on_error=True)
        gaussian, _, kicked, _, free, _ = (r.trajectory for r in results)
        # the kick acts on the initial state, the Gaussian field during the run
        assert not np.array_equal(kicked.dipoles[0], free.dipoles[0])
        assert np.array_equal(gaussian.dipoles[0], free.dipoles[0])
        assert not np.array_equal(gaussian.dipoles[-1], free.dipoles[-1])


# ---------------------------------------------------------------------------
# The key: invariant under the laser, sensitive to what the SCF reads
# ---------------------------------------------------------------------------

BASE = SimulationConfig.from_dict(
    {
        "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
        "basis": {"ecut": 2.0},
        "xc": {"hybrid_mixing": 0.25, "screening_length": 0.106},
        "laser": GAUSSIAN,
    }
)

_positive = st.floats(min_value=1e-3, max_value=50.0, allow_nan=False)
_unit_vector = st.sampled_from([[1, 0, 0], [0, 1, 0], [0.0, 0.0, 1.0], [1, 1, 0]])

LASER_SECTIONS = st.one_of(
    st.just(NO_PULSE),
    st.fixed_dictionaries(
        {
            "pulse": st.just("gaussian"),
            "params": st.fixed_dictionaries(
                {"amplitude": _positive, "omega": _positive, "t0_as": _positive, "sigma_as": _positive},
                optional={"polarization": _unit_vector, "phase": _positive},
            ),
        }
    ),
    st.fixed_dictionaries(
        {
            "pulse": st.sampled_from(["delta_kick", "kick"]),
            "params": st.fixed_dictionaries({"strength": _positive}, optional={"polarization": _unit_vector}),
        }
    ),
    st.fixed_dictionaries(
        {
            "pulse": st.sampled_from(["paper", "pump_probe"]),
            "params": st.fixed_dictionaries({"amplitude": _positive, "duration_fs": _positive}),
        }
    ),
)

#: one override of everything the field-free SCF reads, never the base value
SCF_OVERRIDES = st.one_of(
    st.tuples(st.just("system.params.box"), _positive),
    st.tuples(st.just("system.params.bond_length"), _positive),
    st.tuples(st.just("system.structure"), st.just("hydrogen_chain")),
    st.tuples(st.just("basis.ecut"), _positive),
    st.tuples(st.just("basis.grid_factor"), _positive),
    st.tuples(st.just("xc.hybrid_mixing"), st.floats(0.0, 1.0)),
    st.tuples(st.just("xc.gs_hybrid_mixing"), st.floats(0.0, 1.0)),
    st.tuples(st.just("xc.screening_length"), st.one_of(st.none(), _positive)),
    st.tuples(st.just("xc.include_nonlocal"), st.just(False)),
    st.tuples(st.just("run.gs_scf_tolerance"), _positive),
    st.tuples(st.just("run.gs_max_scf_iterations"), st.integers(1, 500)),
)


def _value_at(config: SimulationConfig, path: str):
    node = config.to_dict()
    for key in path.split("."):
        node = node[key]
    return node


class TestGroupKeyProperty:
    @given(laser=LASER_SECTIONS)
    @settings(max_examples=60, deadline=None)
    def test_key_is_invariant_under_any_laser_override(self, laser):
        assert ground_state_group_key(BASE.with_overrides({"laser": laser})) == ground_state_group_key(BASE)

    @given(override=SCF_OVERRIDES, laser=LASER_SECTIONS)
    @settings(max_examples=60, deadline=None)
    def test_key_changes_with_anything_the_scf_reads(self, override, laser):
        path, value = override
        assume(value != _value_at(BASE, path))
        if path == "system.structure":
            changed = BASE.with_overrides({"system": {"structure": value, "params": {}}})
        else:
            changed = BASE.with_overrides({path: value})
        # of the basis section the SCF reads the grid shape and plane-wave set
        # a cutoff selects: a cutoff or grid factor that selects the same ones
        # is the same ground state
        reads_a_change = (not path.startswith("basis.")
                          or discretisation(changed)[1:] != discretisation(BASE)[1:])
        assert (ground_state_group_key(changed) != ground_state_group_key(BASE)) == reads_a_change
        # ... and whatever pulse rides along does not bring them back together
        assert ground_state_group_key(changed.with_overrides({"laser": laser})) == ground_state_group_key(changed)
