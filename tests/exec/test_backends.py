"""Execution backends: distributed equivalence, comm accounting, gs sharing.

Acceptance tests of the backend layer: ``BatchRunner(spec,
settings=ExecutionSettings(backend="distributed", ranks=4))`` runs a
>=4-group sweep over the simulated MPI runtime, reports per-rank
communication volume, and its deterministic report export is bit-identical
to the serial backend's; the process-pool fallback warning names the original
error and the fallback backend; ground states shared through the store let
resumed sweeps skip every SCF.
"""

import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.batch import BatchRunner, SweepSpec
from repro.cost import sweep_execution_point
from repro.exec import (
    DistributedBackend,
    ExecutionSettings,
    ProcessPoolBackend,
    Scheduler,
    SerialBackend,
)
from repro.store import ResultStore
from repro.parallel import SimCommunicator


def _distributed(ranks: int, schedule: str = "fifo") -> ExecutionSettings:
    return ExecutionSettings(backend="distributed", ranks=ranks, schedule=schedule)


@pytest.fixture()
def four_group_spec(tiny_config):
    """A sweep with four distinct ground-state groups x two dts (8 jobs)."""
    return SweepSpec(
        tiny_config,
        {"basis.ecut": [1.5, 1.8, 2.0, 2.2], "run.time_step_as": [1.0, 2.0]},
    )


# ---------------------------------------------------------------------------
# Acceptance: distributed backend over 4 simulated ranks
# ---------------------------------------------------------------------------


class TestDistributedBackend:
    def test_distributed_matches_serial_bit_for_bit(self, four_group_spec):
        serial = BatchRunner(four_group_spec).run()
        distributed = BatchRunner(four_group_spec, settings=_distributed(4)).run()

        assert [r.status for r in distributed] == ["completed"] * 8
        assert distributed.to_json(exclude_timings=True) == serial.to_json(exclude_timings=True)
        assert distributed.fig6_table(include_wall=False) == serial.fig6_table(include_wall=False)
        for a, b in zip(serial, distributed):
            assert a.job_id == b.job_id
            np.testing.assert_array_equal(a.trajectory.energies, b.trajectory.energies)
            np.testing.assert_array_equal(a.trajectory.dipoles, b.trajectory.dipoles)

    def test_per_rank_communication_volume_is_reported(self, four_group_spec):
        report = BatchRunner(four_group_spec, settings=_distributed(4)).run()
        execution = report.execution

        assert execution["backend"] == "distributed"
        assert execution["ranks"] == 4
        per_rank = execution["per_rank"]
        assert [s["rank"] for s in per_rank] == [0, 1, 2, 3]
        assert sum(s["groups"] for s in per_rank) == 4
        assert sum(s["jobs"] for s in per_rank) == 8
        # every rank got work, and both directions of traffic were logged
        assert all(s["groups"] == 1 for s in per_rank)
        assert all(s["dispatch_bytes"] > 0 and s["result_bytes"] > 0 for s in per_rank)

        comm = execution["comm"]
        assert comm["calls"]["sendrecv"] == 2 * 4  # dispatch + results per group
        assert comm["total_bytes"] == sum(
            s["dispatch_bytes"] + s["result_bytes"] for s in per_rank
        )
        # the execution summary renders, one row per rank
        table = report.execution_table()
        assert len(table.splitlines()) == 2 + 4 + 1
        assert "dispatch" in table and "distributed" in table

    def test_execution_summary_json_exports_on_request(self, four_group_spec):
        report = BatchRunner(four_group_spec, settings=_distributed(2)).run()
        plain = json.loads(report.to_json())
        assert "execution" not in plain
        full = json.loads(report.to_json(include_execution=True))
        assert full["execution"]["ranks"] == 2
        assert full["execution"]["schedule"] == "fifo"

    def test_makespan_balanced_packing_assigns_ranks(self, tiny_config):
        spec = SweepSpec(
            tiny_config,
            {"xc.hybrid_mixing": [0.25, 0.0], "basis.ecut": [2.0, 1.5]},
        )
        runner = BatchRunner(spec, settings=_distributed(2, "makespan_balanced"))
        report = runner.run()
        per_rank = report.execution["per_rank"]
        assert sum(s["groups"] for s in per_rank) == 4
        assert all(s["groups"] > 0 for s in per_rank)
        # cost-aware packing: the per-rank predicted costs are closer together
        # than the single most expensive group (the LPT balance property)
        costs = [s["predicted_cost"] for s in per_rank]
        assert max(costs) > 0
        assert min(costs) > 0

    def test_external_communicator_accumulates_stats(self, four_group_spec):
        comm = SimCommunicator(4, keep_event_log=True)
        scheduler = Scheduler("fifo")
        scheduled = scheduler.schedule(BatchRunner(four_group_spec).groups())
        backend = DistributedBackend(comm=comm)
        results = backend.run(scheduled)
        assert len(results) == 8
        assert comm.stats.total_bytes() > 0
        assert len(comm.events) == 8  # 2 sendrecvs x 4 groups
        assert all("group" in event.description for event in comm.events)

    def test_single_rank_distributed_still_works(self, tiny_config):
        spec = SweepSpec(tiny_config, {"basis.ecut": [1.5, 2.0]})
        report = BatchRunner(spec, settings=_distributed(1)).run()
        assert [r.status for r in report] == ["completed", "completed"]
        assert report.execution["per_rank"][0]["groups"] == 2

    def test_invalid_ranks_raise(self, four_group_spec):
        with pytest.raises(ValueError, match="ranks"):
            BatchRunner(four_group_spec, settings=_distributed(0))

    def test_distributed_respects_checkpoints(self, four_group_spec, tmp_path, count_scf_solves):
        BatchRunner(four_group_spec, store=tmp_path, settings=_distributed(4)).run()
        scf_first = len(count_scf_solves)
        assert scf_first == 4
        resumed = BatchRunner(
            four_group_spec, store=tmp_path, settings=_distributed(4)
        ).run()
        assert [r.status for r in resumed] == ["cached"] * 8
        assert len(count_scf_solves) == scf_first


# ---------------------------------------------------------------------------
# Node placement and link-attributed transfer costs (repro.cost integration)
# ---------------------------------------------------------------------------


class TestPlacementCosting:
    def test_ranks_below_one_rejected_with_actionable_error(self):
        """Satellite: the backend itself rejects bad rank counts instead of
        failing deep inside SimCommunicator."""
        with pytest.raises(ValueError, match="ranks >= 1.*virtual MPI ranks"):
            DistributedBackend(ranks=0)
        with pytest.raises(ValueError, match="ranks >= 1"):
            DistributedBackend(ranks=-3)

    def test_undersized_placement_rejected_with_fix(self):
        from repro.cost import NodePlacement

        with pytest.raises(ValueError, match=r"NodePlacement\(n_ranks=4\)"):
            DistributedBackend(ranks=4, placement=NodePlacement(n_ranks=2))

    def test_every_transfer_attributed_to_a_modeled_link(self, four_group_spec):
        """Acceptance: 8 ranks span both sockets and a second node, and every
        rank that received work logs link-attributed traffic with a nonzero
        predicted wall cost."""
        report = BatchRunner(four_group_spec, settings=_distributed(8)).run()
        per_rank = report.execution["per_rank"]
        # Summit geometry: 3 ranks per socket, 6 per node
        assert [s["link"] for s in per_rank] == (
            ["nvlink"] * 3 + ["xbus"] * 3 + ["ib"] * 2
        )
        assert [s["node"] for s in per_rank] == [0] * 6 + [1] * 2
        busy = [s for s in per_rank if s["groups"] > 0]
        assert len(busy) == 4
        for stats in busy:
            assert stats["comm_seconds"] > 0
            assert stats["dispatch_bytes"] > 0 and stats["result_bytes"] > 0
            assert stats["predicted_seconds"] > 0
            assert stats["predicted_energy_j"] > 0
            assert stats["observed_seconds"] > 0
        assert report.execution["placement"] == {"ranks_per_node": 6, "n_nodes": 2}

    def test_sparse_placement_moves_traffic_to_infiniband(self, four_group_spec):
        """A 2-ranks-per-node placement puts rank 2+ on other nodes: the same
        sweep's traffic crosses IB instead of NVLink and costs more wall."""
        from repro.cost import NodePlacement

        dense = BatchRunner(four_group_spec, settings=_distributed(4)).run()
        sparse = BatchRunner(
            four_group_spec,
            settings=_distributed(4),
            placement=NodePlacement(n_ranks=4, ranks_per_node=2),
        ).run()
        dense_links = [s["link"] for s in dense.execution["per_rank"]]
        sparse_links = [s["link"] for s in sparse.execution["per_rank"]]
        assert dense_links == ["nvlink", "nvlink", "nvlink", "xbus"]
        # 2 ranks per node: one per socket (x-bus), the rest across nodes
        assert sparse_links == ["nvlink", "xbus", "ib", "ib"]
        # same bytes, slower wires -> strictly larger predicted transfer cost
        total = lambda r, k: sum(s[k] for s in r.execution["per_rank"])  # noqa: E731
        assert total(sparse, "dispatch_bytes") == total(dense, "dispatch_bytes")
        assert total(sparse, "comm_seconds") > total(dense, "comm_seconds")

    def test_exports_identical_across_placements_and_policies(self, four_group_spec):
        """Acceptance: the deterministic export is bit-identical across
        backends, placements and scheduling policies."""
        from repro.cost import NodePlacement

        serial = BatchRunner(four_group_spec).run()
        variants = [
            BatchRunner(four_group_spec, settings=_distributed(4)).run(),
            BatchRunner(
                four_group_spec,
                settings=_distributed(4),
                placement=NodePlacement(n_ranks=4, ranks_per_node=1),
            ).run(),
            BatchRunner(
                four_group_spec, settings=_distributed(3, "energy_aware")
            ).run(),
            BatchRunner(
                four_group_spec, settings=_distributed(2, "makespan_balanced")
            ).run(),
        ]
        reference = serial.to_json(exclude_timings=True)
        for report in variants:
            assert report.to_json(exclude_timings=True) == reference

    def test_execution_summary_is_strict_json(self, four_group_spec):
        report = BatchRunner(
            four_group_spec, settings=_distributed(4, "energy_aware")
        ).run()
        text = json.dumps(report.execution, allow_nan=False)
        decoded = json.loads(text)
        assert decoded["placement"]["ranks_per_node"] == 6
        group = decoded["groups"][0]
        assert group["predicted_seconds"] > 0
        assert group["predicted_energy_j"] > 0


# ---------------------------------------------------------------------------
# Process-pool fallback warning (satellite fix)
# ---------------------------------------------------------------------------


class TestProcessFallbackWarning:
    def test_fallback_warning_names_error_and_backend(self, tiny_config, monkeypatch):
        """The warning must carry the originating exception (type and message)
        and the backend the sweep fell back to."""
        import repro.exec.backends as backends_module

        def refuse(*args, **kwargs):
            raise OSError("no child processes allowed in this sandbox")

        monkeypatch.setattr(backends_module, "ProcessPoolExecutor", refuse)
        spec = SweepSpec(tiny_config, {"basis.ecut": [1.5, 2.0]})
        with pytest.warns(
            UserWarning,
            match=r"OSError: no child processes allowed in this sandbox.*'serial'",
        ):
            report = BatchRunner(spec, settings=ExecutionSettings(backend="process")).run()
        assert [r.status for r in report] == ["completed", "completed"]
        assert report.execution["used_fallback"] is True

    def test_no_warning_on_single_group_sweep(self, tiny_config, recwarn):
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        report = BatchRunner(spec, settings=ExecutionSettings(backend="process")).run()
        assert [r.status for r in report] == ["completed", "completed"]
        assert not [w for w in recwarn.list if "process pool" in str(w.message)]


# ---------------------------------------------------------------------------
# Ground-state checkpoint sharing (satellite)
# ---------------------------------------------------------------------------


class TestGroundStateSharing:
    def test_new_sweep_over_same_systems_runs_zero_scf(self, tiny_config, tmp_path, count_scf_solves):
        """A *different* sweep over the same ground states adopts the persisted
        SCFs: zero solves, identical physics to a cold run."""
        first = SweepSpec(tiny_config, {"run.time_step_as": [1.0]})
        BatchRunner(first, store=tmp_path).run()
        assert len(count_scf_solves) == 1

        second = SweepSpec(tiny_config, {"run.time_step_as": [2.0, 3.0]})
        report = BatchRunner(second, store=tmp_path).run()
        assert [r.status for r in report] == ["completed", "completed"]
        assert len(count_scf_solves) == 1  # both new jobs rode the stored SCF

        reference = BatchRunner(SweepSpec(tiny_config, {"run.time_step_as": [2.0, 3.0]})).run()
        for warm, cold in zip(report, reference):
            np.testing.assert_array_equal(warm.trajectory.energies, cold.trajectory.energies)
            np.testing.assert_array_equal(warm.trajectory.dipoles, cold.trajectory.dipoles)

    def test_prepare_ground_states_adopts_persisted_scf(self, tiny_config, tmp_path, count_scf_solves):
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        warm = BatchRunner(spec, store=tmp_path)
        assert warm.prepare_ground_states() == 1
        assert len(count_scf_solves) == 1

        # a fresh runner (new process, conceptually) warms from disk instead
        resumed_spec = SweepSpec(tiny_config, {"run.time_step_as": [3.0]})
        resumed = BatchRunner(resumed_spec, store=tmp_path)
        assert resumed.prepare_ground_states() == 0
        assert len(count_scf_solves) == 1
        report = resumed.run()
        assert [r.status for r in report] == ["completed"]
        assert len(count_scf_solves) == 1

    def test_store_round_trips_ground_state(self, tiny_config, tmp_path):
        from repro.api import Session

        session = Session(tiny_config)
        result = session.ground_state()
        store = ResultStore(tmp_path)
        key = "some-group-key"
        assert not store.has_ground_state(key)
        store.save_ground_state(key, result)
        assert store.has_ground_state(key)

        loaded = store.load_ground_state(key, basis=session.basis)
        assert loaded.converged == result.converged
        assert loaded.total_energy == result.total_energy
        np.testing.assert_array_equal(
            loaded.wavefunction.coefficients, result.wavefunction.coefficients
        )
        # a different key does not alias onto the stored entry
        assert store.load_ground_state("another-group") is None

    def test_gs_entries_do_not_pollute_job_ids(self, tiny_config, tmp_path):
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0]})
        BatchRunner(spec, store=tmp_path).run()
        store = ResultStore(tmp_path)
        assert store.completed_ids() == {spec.expand()[0].job_id}
        assert store.has_ground_state(spec.expand()[0].group_key)

    def test_warm_run_does_not_rewrite_persisted_ground_state(self, tiny_config, tmp_path):
        """prepare_ground_states persists the SCF; run() must not rewrite the
        (large) orbital archive it already finds on disk."""
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        runner = BatchRunner(spec, store=tmp_path)
        assert runner.prepare_ground_states() == 1
        store = ResultStore(tmp_path)
        manifest = json.loads(
            store.ground_state_manifest_path(spec.expand()[0].group_key).read_text()
        )
        gs_path = store.object_path(manifest["artifact"]["sha256"])
        before = gs_path.stat().st_mtime_ns
        runner.run()
        assert gs_path.stat().st_mtime_ns == before

    def test_adopt_ground_state_validates_orbitals(self, tiny_config, tmp_path):
        from repro.api import Session

        session = Session(tiny_config)
        store = ResultStore(tmp_path)
        store.save_ground_state("k", session.ground_state())
        without_basis = store.load_ground_state("k")  # no basis: no orbitals
        fresh = Session(tiny_config)
        with pytest.raises(ValueError, match="wavefunction"):
            fresh.adopt_ground_state(without_basis)

    def test_distributed_and_process_share_ground_states_too(self, tiny_config, tmp_path, count_scf_solves):
        spec = SweepSpec(tiny_config, {"basis.ecut": [1.5, 2.0]})
        BatchRunner(spec, store=tmp_path, settings=_distributed(2)).run()
        assert len(count_scf_solves) == 2
        follow_up = SweepSpec(
            tiny_config, {"basis.ecut": [1.5, 2.0], "run.time_step_as": [2.0]}
        )
        report = BatchRunner(follow_up, store=tmp_path, settings=_distributed(2)).run()
        assert [r.status for r in report] == ["completed", "completed"]
        assert len(count_scf_solves) == 2  # adopted on the simulated ranks


# ---------------------------------------------------------------------------
# Backend construction / protocol surface
# ---------------------------------------------------------------------------


class TestBackendSurface:
    def test_unknown_backend_raises_listing_choices(self, four_group_spec):
        with pytest.raises(ValueError, match="serial.*process.*distributed"):
            BatchRunner(four_group_spec, settings=ExecutionSettings(backend="threads"))

    def test_serial_backend_reuses_warm_sessions(self, four_group_spec, count_scf_solves):
        runner = BatchRunner(four_group_spec)
        assert runner.prepare_ground_states() == 4
        runner.run()
        assert len(count_scf_solves) == 4  # run() did not reconverge anything

    def test_backends_report_their_placement(self, tiny_config):
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        serial = BatchRunner(spec).run()
        assert serial.execution["backend"] == "serial"
        assert serial.execution["n_groups"] == 1
        assert serial.execution["n_jobs"] == 2
        assert serial.execution["schedule"] == "fifo"
        assert "serial" in serial.execution_table()

    def test_unknown_costs_export_as_null_not_nan(self, tiny_config):
        """A failing cost model leaves NaN sentinels on the scheduled groups;
        the execution export must stay strict JSON (null, not NaN)."""
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        runner = BatchRunner(spec)
        scheduled = Scheduler("fifo", cost_fn=lambda configs: float("nan")).schedule(runner.groups())
        backend = SerialBackend()
        backend.run(scheduled)
        text = json.dumps(backend.execution_summary(), allow_nan=False)  # strict
        assert json.loads(text)["groups"][0]["predicted_cost"] is None

    def test_execute_group_via_backend_matches_runner(self, tiny_config):
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        runner = BatchRunner(spec)
        scheduled = Scheduler("fifo").schedule(runner.groups())
        results = SerialBackend().run(scheduled)
        reference = runner.run()
        assert [r.job_id for r in results] == [r.job_id for r in reference]
        for a, b in zip(results, reference):
            np.testing.assert_array_equal(a.trajectory.energies, b.trajectory.energies)


# ---------------------------------------------------------------------------
# What run() leaves behind: placement and the group records
# ---------------------------------------------------------------------------


def _stub_execute_group(monkeypatch) -> list[int]:
    """Replace the physics with instant stub results; returns the list each
    executed group appends its job count to."""
    from repro.batch import JobResult

    calls: list[int] = []

    def fake(jobs, store, raise_on_error, session=None, precision="complex128", notes=None):
        calls.append(len(jobs))
        return [JobResult.from_failure(job, RuntimeError("stubbed")) for job in jobs]

    monkeypatch.setattr("repro.exec.backends.execute_group", fake)
    return calls


def _scheduled(spec):
    return Scheduler("fifo").schedule(BatchRunner(spec).groups())


class TestProcessPoolSingleGroup:
    def test_single_group_runs_in_process_on_the_base_loop(self, tiny_config, monkeypatch):
        """A single-group process sweep has nothing to parallelise: it runs
        the base class's own loop in-process, and that is no fallback."""
        calls = _stub_execute_group(monkeypatch)
        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
        backend = ProcessPoolBackend(max_workers=2)

        assert len(backend.run(_scheduled(spec))) == 2
        assert calls == [2]  # in-process: the stubbed module global was reached
        assert backend.execution_summary()["used_fallback"] is False


class TestProcessPoolWorkerDeath:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the stubbed execute_group reaches the workers only through fork",
    )
    def test_a_dead_worker_is_named_and_the_store_resumes(
        self, four_group_spec, tmp_path, monkeypatch
    ):
        """A worker that dies mid-group breaks the pool: the error names the
        job ids of that group, and a serial re-run on the same store exports
        what a clean serial run does."""
        import repro.exec.backends as backends_module

        real = backends_module.execute_group
        groups = _scheduled(four_group_spec)
        doomed = {job.job_id for job in groups[1].jobs}

        def dies_on_one_group(jobs, *args, **kwargs):
            if {job.job_id for job in jobs} == doomed:
                os._exit(1)
            return real(jobs, *args, **kwargs)

        monkeypatch.setattr(backends_module, "execute_group", dies_on_one_group)
        with pytest.raises(BrokenProcessPool, match="did not come back") as raised:
            ProcessPoolBackend(max_workers=2, store=tmp_path).run(groups)
        assert isinstance(raised.value.__cause__, BrokenProcessPool)
        assert all(job_id in str(raised.value) for job_id in doomed)

        monkeypatch.undo()
        resumed = BatchRunner(four_group_spec, store=tmp_path).run()
        clean = BatchRunner(four_group_spec).run()
        assert resumed.to_json(exclude_timings=True) == clean.to_json(exclude_timings=True)


class TestRunLedger:
    def test_unplaced_groups_are_dispatched_round_robin(self, four_group_spec, monkeypatch):
        """Groups the scheduler never packed (or packed for more ranks than
        the backend has) go round-robin in run order, and keep that rank."""
        calls = _stub_execute_group(monkeypatch)
        backend = DistributedBackend(ranks=2)
        groups = _scheduled(four_group_spec)
        assert all(g.rank is None for g in groups)
        groups[1].rank = 5  # out of range for two ranks

        assert len(backend.run(groups)) == 8
        assert backend.groups == groups
        assert calls == [2, 2, 2, 2]
        assert [g.rank for g in backend.groups] == [0, 1, 0, 1]
        summary = backend.execution_summary()
        assert [s["groups"] for s in summary["per_rank"]] == [2, 2]
        assert [g["rank"] for g in summary["groups"]] == [0, 1, 0, 1]

    def test_execution_summary_exports_the_group_records(self, four_group_spec, monkeypatch):
        """The summary's ``groups`` are the scheduler's own records, one per
        group run, in run order, stamped after the run."""
        _stub_execute_group(monkeypatch)
        backend = SerialBackend()
        backend.run(_scheduled(four_group_spec))

        summary = json.loads(json.dumps(backend.execution_summary(), allow_nan=False))
        assert summary["groups"] == [group.as_dict() for group in backend.groups]
        assert [g["index"] for g in summary["groups"]] == [0, 1, 2, 3]
        assert summary["n_groups"] == 4 and summary["n_jobs"] == 8


# ---------------------------------------------------------------------------
# Sweep traffic and the sweep-level analogues of Figs. 7 and 8
# ---------------------------------------------------------------------------


def _in_order_sum(values) -> float:
    total = 0.0
    for value in values:
        total += 0.0 if value is None else value
    return total


class TestSweepDispatch:
    """A balanced pack over four ranks, the process pool's export, and the
    rank-count series that :func:`~repro.cost.sweep_execution_point` reduces
    to predicted makespans: fixed groups over more ranks (Fig. 7's strong
    scaling) and one equal-cost group per rank (Fig. 8's weak scaling)."""

    def test_a_balanced_pack_ships_configs_not_results(self, four_group_spec):
        report = BatchRunner(four_group_spec, settings=_distributed(4, "makespan_balanced")).run()
        per_rank = report.execution["per_rank"]
        assert sum(s["jobs"] for s in per_rank) == 8
        assert all(s["groups"] >= 1 for s in per_rank)
        assert report.execution["comm"]["calls"]["sendrecv"] == 8
        # compute-shipping, as the paper's propagation: configs out are
        # smaller than the observables back
        assert sum(s["dispatch_bytes"] for s in per_rank) < sum(s["result_bytes"] for s in per_rank)
        # each rank's ledger is the in-order sum of the group records it ran,
        # float for float (an unpriced group adds 0)
        for stats in per_rank:
            ran = [g for g in report.execution["groups"] if g["rank"] == stats["rank"]]
            assert stats["groups"] == len(ran)
            assert stats["jobs"] == _in_order_sum(g["n_jobs"] for g in ran)
            for key in ("predicted_cost", "predicted_seconds", "predicted_energy_j", "observed_seconds"):
                assert stats[key] == _in_order_sum(g[key] for g in ran), key

    def test_the_process_pool_exports_the_serial_bytes(self, four_group_spec):
        serial = BatchRunner(four_group_spec).run()
        settings = ExecutionSettings(backend="process", schedule="cheapest_first", max_workers=2)
        process = BatchRunner(four_group_spec, settings=settings).run()
        assert process.to_json(exclude_timings=True) == serial.to_json(exclude_timings=True)
        assert all(group["predicted_seconds"] > 0 for group in process.execution["groups"])

    @pytest.mark.parametrize("schedule", ["makespan_balanced", "energy_aware"])
    def test_four_ranks_predict_and_observe_a_makespan(self, four_group_spec, schedule):
        serial = BatchRunner(four_group_spec).run()
        serial_makespan = sum(group["predicted_seconds"] for group in serial.execution["groups"])
        report = BatchRunner(four_group_spec, settings=_distributed(4, schedule)).run()
        point = sweep_execution_point(report.execution)
        assert 0 < point["predicted_makespan_s"]
        assert 0 < point["observed_makespan_s"]
        if schedule == "makespan_balanced":
            assert point["predicted_makespan_s"] < serial_makespan

    def test_fixed_groups_over_more_ranks_strong_scale(self, four_group_spec):
        points = [
            sweep_execution_point(
                BatchRunner(four_group_spec, settings=_distributed(ranks, "makespan_balanced")).run().execution
            )
            for ranks in (1, 2, 4)
        ]
        assert len({point["n_jobs"] for point in points}) == 1
        makespans = [point["predicted_makespan_s"] for point in points]
        assert makespans[0] > makespans[1] > makespans[2]
        assert makespans[0] / makespans[2] > 2.0
        assert all(point["comm_seconds"] > 0 for point in points)

    def test_one_group_per_rank_weak_scales(self, tiny_config):
        bond_lengths = [1.3, 1.4, 1.5, 1.6]
        points = {
            ranks: sweep_execution_point(
                BatchRunner(
                    SweepSpec(tiny_config, {"system.params.bond_length": bond_lengths[:ranks]}),
                    settings=_distributed(ranks, "makespan_balanced"),
                ).run().execution
            )
            for ranks in (1, 2, 4)
        }
        assert all(point["n_groups"] == ranks for ranks, point in points.items())
        makespans = [point["predicted_makespan_s"] for point in points.values()]
        assert max(makespans) <= 1.2 * min(makespans)
        energies = [point["predicted_energy_j"] for point in points.values()]
        assert energies[0] < energies[1] < energies[2]
