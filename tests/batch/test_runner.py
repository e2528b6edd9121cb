"""BatchRunner: shared ground states, fig6 reproduction, crash/resume, backends.

Contains the acceptance tests of the batch engine: a one-call
{PT-CN, RK4} x {2 dt} sweep reproduces the fig6-style comparison while
converging exactly one SCF, and a sweep that crashes mid-way resumes from its
checkpoints without recomputing the finished jobs.
"""

import json
import re

import numpy as np
import pytest

from repro.api import PROPAGATORS, Session, SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.batch.sweep import config_hash
from repro.exec import ExecutionSettings
from repro.store import ResultStore


@pytest.fixture()
def ptcn_rk4_spec(tiny_config):
    """The acceptance sweep: {PT-CN, RK4} x {2 dt values}."""
    return SweepSpec(
        tiny_config,
        {"propagator.name": ["ptcn", "rk4"], "run.time_step_as": [1.0, 2.0]},
    )


# ---------------------------------------------------------------------------
# Acceptance: one-call fig6 sweep with a single shared SCF
# ---------------------------------------------------------------------------


class TestSharedGroundState:
    def test_one_scf_for_propagator_times_dt_sweep(self, ptcn_rk4_spec, count_scf_solves):
        report = BatchRunner(ptcn_rk4_spec).run()
        assert len(count_scf_solves) == 1
        assert [r.status for r in report] == ["completed"] * 4

    def test_fig6_pivot_matches_direct_session_runs(self, ptcn_rk4_spec, tiny_config):
        report = BatchRunner(ptcn_rk4_spec).run()

        # the same four runs, hand-driven through one session
        session = Session(tiny_config)
        reference = {
            (name, dt): session.propagate_many([dict(propagator=name, time_step_as=dt)])[0]
            for name in ("ptcn", "rk4")
            for dt in (1.0, 2.0)
        }
        for result in report:
            ref = reference[(result.summary["propagator"], result.summary["time_step_as"])]
            np.testing.assert_array_equal(result.trajectory.energies, ref.energies)
            assert result.summary["hamiltonian_applications"] == ref.total_hamiltonian_applications
            assert result.summary["energy_drift"] == ref.energy_drift

        # the Fig. 6 grid: one row per propagator, one column per time step
        lines = report.pivot("hamiltonian_applications").splitlines()
        assert re.split(r"\s{2,}", lines[0].strip()) == ["propagator", "dt=1 as", "dt=2 as"]
        cells = {row.split()[0]: row.split()[1:] for row in lines[2:]}
        assert cells == {
            name: [str(reference[(name, dt)].total_hamiltonian_applications) for dt in (1.0, 2.0)]
            for name in ("ptcn", "rk4")
        }

    def test_prepare_ground_states_runs_scf_ahead_of_run(self, ptcn_rk4_spec, count_scf_solves):
        runner = BatchRunner(ptcn_rk4_spec)
        assert runner.prepare_ground_states() == 1
        assert len(count_scf_solves) == 1
        runner.run()
        assert len(count_scf_solves) == 1  # run() reused the warm session

    def test_distinct_ground_states_get_distinct_scfs(self, tiny_config, count_scf_solves):
        spec = SweepSpec(tiny_config, {"basis.ecut": [1.5, 2.0]})
        report = BatchRunner(spec).run()
        assert len(count_scf_solves) == 2
        energies = [r.summary["final_energy"] for r in report]
        assert energies[0] != energies[1]


# ---------------------------------------------------------------------------
# Acceptance: checkpointing and resume-after-crash
# ---------------------------------------------------------------------------


def _register_exploding_propagator(name="exploding_prop"):
    """Register ``name`` as a propagator that crashes while its returned
    switch is on, and steps as RK4 once it is cleared."""
    crashing = [True]

    def explode(hamiltonian, **params):
        if crashing[0]:
            raise RuntimeError("simulated mid-sweep crash")
        return PROPAGATORS.get("rk4")(hamiltonian, **params)

    PROPAGATORS.register(name, explode)
    return name, crashing


class TestCheckpointResume:
    def test_resume_after_simulated_crash(self, tiny_config, tmp_path, count_scf_solves, registries):
        name, crashing = _register_exploding_propagator()
        spec = SweepSpec(
            tiny_config,
            {"propagator.name": ["ptcn", name], "run.time_step_as": [1.0, 2.0]},
        )
        crashed = BatchRunner(spec, store=tmp_path).run()
        assert [r.status for r in crashed] == ["completed", "completed", "failed", "failed"]
        assert all("simulated mid-sweep crash" in r.error for r in crashed.failed)
        store = ResultStore(tmp_path)
        first_energies = {
            job.job_id: store.load(job).trajectory.energies
            for job in spec.expand()
            if store.has(job)
        }
        assert len(first_energies) == 2  # both ptcn jobs got checkpointed
        scf_after_crash = len(count_scf_solves)
        assert scf_after_crash == 1

        # "fix the bug" and resume: finished jobs load, only the rest runs —
        # and the crashed run persisted the group's converged SCF, so the
        # resumed half adopts it instead of reconverging (zero new SCFs)
        crashing[0] = False
        report = BatchRunner(spec, store=tmp_path).run()
        assert [r.status for r in report] == ["cached", "cached", "completed", "completed"]
        assert len(count_scf_solves) == scf_after_crash  # shared SCF adopted from the store
        for result in report:
            if result.status == "cached":
                np.testing.assert_array_equal(
                    result.trajectory.energies, first_energies[result.job_id]
                )

    def test_a_kill_in_a_lockstep_pass_loses_only_that_group(
        self, tiny_config, tmp_path, monkeypatch, count_scf_solves
    ):
        """A hard kill (``KeyboardInterrupt`` is no ``Exception``, so no
        width-1 fallback catches it) inside the second group's lockstep
        ``propagate_many`` leaves that group with no stored job and the first
        group stored; the resume serves the first group and computes only the
        killed one, on the SCF the killed pass had already persisted."""
        spec = SweepSpec(tiny_config, {"basis.ecut": [1.5, 2.0], "run.time_step_as": [1.0, 2.0]})
        first, second = spec.groups().values()
        lockstep_passes = []
        real = Session.propagate_many

        def killed_in_the_second_pass(self, requests, **kwargs):
            if len(requests) > 1:
                lockstep_passes.append(len(requests))
                if len(lockstep_passes) == 2:
                    raise KeyboardInterrupt
            return real(self, requests, **kwargs)

        monkeypatch.setattr(Session, "propagate_many", killed_in_the_second_pass)
        with pytest.raises(KeyboardInterrupt):
            BatchRunner(spec, store=tmp_path).run()
        store = ResultStore(tmp_path)
        assert [store.has(job) for job in first + second] == [True, True, False, False]
        assert len(count_scf_solves) == 2

        monkeypatch.setattr(Session, "propagate_many", real)
        report = BatchRunner(spec, store=tmp_path).run()
        assert [r.job_id for r in report] == [job.job_id for job in first + second]
        assert [r.status for r in report] == ["cached", "cached", "completed", "completed"]
        assert len(count_scf_solves) == 2  # the killed group's SCF was stored before its propagation

    def test_full_rerun_is_all_cached_with_zero_scf(self, ptcn_rk4_spec, tmp_path, count_scf_solves):
        BatchRunner(ptcn_rk4_spec, store=tmp_path).run()
        scf_first = len(count_scf_solves)
        report = BatchRunner(ptcn_rk4_spec, store=tmp_path).run()
        assert [r.status for r in report] == ["cached"] * 4
        assert len(count_scf_solves) == scf_first  # fully checkpointed: no physics at all
        assert BatchRunner(ptcn_rk4_spec, store=tmp_path).prepare_ground_states() == 0

    def test_stale_checkpoint_is_recomputed(self, tiny_config, tmp_path):
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0]})
        BatchRunner(spec, store=tmp_path).run()
        job = spec.expand()[0]
        store = ResultStore(tmp_path)
        manifest_path = store.job_manifest_path(config_hash(job.config))
        manifest = json.loads(manifest_path.read_text())
        manifest["config_hash"] = "deadbeef0000"
        manifest_path.write_text(json.dumps(manifest))
        assert not store.has(job)
        assert store.load(job) is None
        report = BatchRunner(spec, store=tmp_path).run()
        assert report.results[0].status == "completed"  # recomputed, not trusted

    def test_cached_trajectory_keeps_metadata_provenance(self, ptcn_rk4_spec, tmp_path):
        BatchRunner(ptcn_rk4_spec, store=tmp_path).run()
        report = BatchRunner(ptcn_rk4_spec, store=tmp_path).run()
        for result in report:
            assert result.status == "cached"
            metadata = result.trajectory.metadata
            # every job's archive embeds its *own* effective config, not the
            # shared session's base config — archived runs are reproducible
            assert metadata["config"] == result.config
            assert metadata["config"]["propagator"]["name"] == result.summary["propagator"]
            assert metadata["config"]["run"]["time_step_as"] == result.summary["time_step_as"]
            assert metadata["integrator"] == result.summary["integrator"]


    def test_numpy_axis_values_checkpoint_cleanly(self, tiny_config, tmp_path):
        """Axes built from np.arange/np.linspace (numpy scalars) must survive
        every JSON sink: metadata npz, manifest, report export."""
        spec = SweepSpec(
            tiny_config,
            {"run.n_steps": np.arange(1, 3), "run.time_step_as": np.linspace(1.0, 2.0, 2)},
        )
        report = BatchRunner(spec, store=tmp_path).run()
        assert [r.status for r in report] == ["completed"] * 4
        assert all(r.error is None for r in report)
        json.loads(report.to_json())
        resumed = BatchRunner(spec, store=tmp_path).run()
        assert [r.status for r in resumed] == ["cached"] * 4

    def test_checkpoint_write_failure_keeps_completed_result(self, tiny_config, tmp_path, monkeypatch):
        """Persistence failures degrade to completed-but-unsaved, never to a
        discarded trajectory or an aborted sweep."""
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})

        def boom(self, result):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(ResultStore, "save", boom)
        with pytest.warns(UserWarning, match="checkpoint write failed"):
            report = BatchRunner(spec, store=tmp_path).run()
        assert [r.status for r in report] == ["completed", "completed"]
        assert all(r.trajectory is not None for r in report)
        assert all("No space left" in r.error for r in report)


# ---------------------------------------------------------------------------
# Failure capture
# ---------------------------------------------------------------------------


class TestFailureCapture:
    def test_failed_jobs_are_recorded_and_the_rest_completes(self, tiny_config, registries):
        name, _ = _register_exploding_propagator()
        spec = SweepSpec(tiny_config, {"propagator.name": ["ptcn", name]})
        report = BatchRunner(spec).run()
        assert [r.status for r in report] == ["completed", "failed"]
        failed = report.failed[0]
        assert "RuntimeError" in failed.error and "crash" in failed.error
        assert failed.trajectory is None
        assert "failed" in report.to_table()
        # failed jobs never enter the physics tables
        assert len(report.pivot("hamiltonian_applications").splitlines()) == 2 + 1


# ---------------------------------------------------------------------------
# Process-pool backend
# ---------------------------------------------------------------------------


class TestProcessBackend:
    def test_process_backend_matches_serial(self, tiny_config):
        spec = SweepSpec(tiny_config, {"basis.ecut": [1.5, 2.0]})
        serial = BatchRunner(spec).run()
        parallel = BatchRunner(spec, settings=ExecutionSettings(backend="process", max_workers=2)).run()
        assert [r.status for r in parallel] == ["completed", "completed"]
        for a, b in zip(serial, parallel):
            assert a.job_id == b.job_id
            np.testing.assert_allclose(a.trajectory.energies, b.trajectory.energies, rtol=0, atol=1e-12)
            assert a.summary["hamiltonian_applications"] == b.summary["hamiltonian_applications"]

    def test_single_group_process_sweep_stays_in_process(self, ptcn_rk4_spec, count_scf_solves):
        # one ground-state group: nothing to parallelise over, serial path used
        report = BatchRunner(ptcn_rk4_spec, settings=ExecutionSettings(backend="process")).run()
        assert [r.status for r in report] == ["completed"] * 4
        assert len(count_scf_solves) == 1

    def test_unknown_backend_raises(self, ptcn_rk4_spec):
        with pytest.raises(ValueError, match="serial"):
            BatchRunner(ptcn_rk4_spec, settings=ExecutionSettings(backend="threads"))


# ---------------------------------------------------------------------------
# Report export round trip on real results
# ---------------------------------------------------------------------------


def test_report_json_round_trips_on_real_sweep(ptcn_rk4_spec):
    report = BatchRunner(ptcn_rk4_spec).run()
    data = json.loads(report.to_json())
    assert data["n_jobs"] == 4 and data["n_completed"] == 4 and data["n_failed"] == 0
    assert [j["job_id"] for j in data["jobs"]] == [r.job_id for r in report]
    # a config round-trips back into a valid SimulationConfig
    restored = SimulationConfig.from_dict(data["jobs"][0]["config"])
    assert restored.propagator.name == "ptcn"
