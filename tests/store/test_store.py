"""ResultStore behavior: layout, round-trips, content addressing, dedup,
cross-sweep cache hits, ``store=<path>`` vs ``store=<ResultStore>``,
concurrent writers racing on one artifact, and a store written under the
previous ground-state key convention.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
import threading

import pytest

import repro.pw.ground_state as ground_state_module
from repro.api import Session
from repro.batch import BatchRunner, SweepSpec
from repro.batch.sweep import ground_state_group_key
from repro.store import ResultStore, ground_state_hash


class TestLayoutAndRoundTrip:
    def test_cold_run_populates_objects_and_verified_manifests(self, warm_report, store):
        ledger = store.ledger()
        assert ledger["result_manifests"] == 2
        assert ledger["ground_state_manifests"] == 1
        assert ledger["objects"] >= 1
        # every manifest names an existing sha256 object of the recorded size
        for path in sorted(store.manifests_dir.glob("*.json")):
            manifest = json.loads(path.read_text())
            artifact = manifest["artifact"]
            obj = store.object_path(artifact["sha256"])
            assert obj.exists()
            assert obj.stat().st_size == artifact["size"]
            assert store._file_digest(obj) == artifact["sha256"]

    def test_warm_rerun_serves_every_job_without_any_compute(
        self, warm_report, dt_spec, store, count_scf_solves, count_propagation_steps
    ):
        report = BatchRunner(dt_spec, store=store).run()
        assert [r.status for r in report.results] == ["cached", "cached"]
        assert report.n_cached == 2
        assert count_scf_solves == []  # zero SCF solves
        assert count_propagation_steps == []  # zero propagation steps
        assert report.execution["store"]["hits"] == 2
        assert report.execution["store"]["computed"] == 0

    def test_warm_export_is_bit_identical_to_cold(self, warm_report, dt_spec, store):
        cold = warm_report.to_json(exclude_timings=True)
        warm = BatchRunner(dt_spec, store=store).run()
        assert warm.to_json(exclude_timings=True) == cold

    def test_ledger_counts_session_hits_and_writes(self, warm_report, dt_spec, store):
        BatchRunner(dt_spec, store=store).run()
        session = store.ledger()["session"]
        assert session["hits"] == 2
        assert session["writes"] >= 1
        assert session["quarantined"] == 0


class TestContentAddressing:
    def test_hit_crosses_sweeps_with_different_axes(self, tiny_config, store, count_propagation_steps):
        # run.time_step_as [1.0] and run.n_steps [2] both expand to the base
        # config — different sweep axes, same physics, same store key
        BatchRunner(SweepSpec(tiny_config, {"run.time_step_as": [1.0]}), store=store).run()
        steps_cold = sum(count_propagation_steps)
        assert steps_cold > 0
        report = BatchRunner(SweepSpec(tiny_config, {"run.n_steps": [2]}), store=store).run()
        assert sum(count_propagation_steps) == steps_cold  # nothing recomputed
        (result,) = report.results
        assert result.status == "cached"
        # point/config come from the *requesting* sweep, not the producer
        assert result.point == {"run.n_steps": 2}

    def test_identical_ground_states_are_stored_once(self, store, h2_ground_state):
        _, result = h2_ground_state
        store.save_ground_state("group-a", result)
        store.save_ground_state("group-b", result)
        assert store.ledger()["objects"] == 1  # content-addressed: one payload
        assert store.ledger()["ground_state_manifests"] == 2
        assert store.stats["deduplicated"] == 1
        for key in ("group-a", "group-b"):
            loaded = store.load_ground_state(key)
            assert loaded is not None
            assert float(loaded.total_energy) == float(result.total_energy)

    def test_gs_key_collision_is_not_trusted(self, store, h2_ground_state):
        _, result = h2_ground_state
        store.save_ground_state("group-a", result)
        # forge a colliding 12-char hash by renaming the manifest
        manifest_path = store.ground_state_manifest_path("group-a")
        forged = store.manifests_dir / f"gs-{ground_state_hash('group-b')}.json"
        forged.write_text(manifest_path.read_text())  # still says group_key=group-a
        assert not store.has_ground_state("group-b")
        assert store.load_ground_state("group-b") is None

    def test_diff_splits_jobs_into_hits_and_misses(self, warm_report, dt_spec, tiny_config, store):
        known = dt_spec.expand()
        fresh = SweepSpec(tiny_config, {"run.time_step_as": [3.0]}).expand()
        hits, misses = store.diff(known + fresh)
        assert [job.job_id for job in hits] == [job.job_id for job in known]
        assert [job.job_id for job in misses] == [job.job_id for job in fresh]

    def test_completed_ids_reports_recorded_job_ids(self, warm_report, dt_spec, store):
        assert store.completed_ids() == {job.job_id for job in dt_spec.expand()}


class TestObjectWrites:
    """An object is serialised once, in memory, and written once: its bytes
    are the archive ``save_npz`` writes (so content addresses did not move),
    and an archive that fails to serialise leaves nothing on disk."""

    def test_stored_trajectory_is_the_saved_archive(self, warm_report, tmp_path):
        result = warm_report.results[0]
        store = ResultStore(tmp_path / "fresh")
        store.save(result)
        result.trajectory.save_npz(tmp_path / "trajectory.npz")
        archive = (tmp_path / "trajectory.npz").read_bytes()
        artifact = json.loads(store.job_manifest_path(result.config_hash).read_text())["artifact"]
        assert artifact == {"sha256": hashlib.sha256(archive).hexdigest(), "size": len(archive)}
        assert store.object_path(artifact["sha256"]).read_bytes() == archive

    def test_stored_ground_state_is_the_saved_archive(self, store, h2_ground_state, tmp_path):
        _, result = h2_ground_state
        store.save_ground_state("group", result)
        result.save_npz(tmp_path / "gs.npz")
        archive = (tmp_path / "gs.npz").read_bytes()
        artifact = json.loads(store.ground_state_manifest_path("group").read_text())["artifact"]
        assert artifact == {"sha256": hashlib.sha256(archive).hexdigest(), "size": len(archive)}
        assert store.object_path(artifact["sha256"]).read_bytes() == archive

    def test_failed_serialisation_leaves_neither_object_nor_manifest(
        self, warm_report, h2_ground_state, tmp_path, monkeypatch
    ):
        _, ground_state = h2_ground_state
        store = ResultStore(tmp_path / "fresh")
        npy_bytes = ground_state_module._npy_bytes
        members = []

        def torn_member(array):
            members.append(array)
            if len(members) % 3 == 0:  # mid-archive: earlier members serialised
                raise OSError("disk full")
            return npy_bytes(array)

        monkeypatch.setattr(ground_state_module, "_npy_bytes", torn_member)
        with pytest.raises(OSError):
            store.save(warm_report.results[0])
        with pytest.raises(OSError):
            store.save_ground_state("group", ground_state)
        assert len(members) == 6
        assert list(store.objects_dir.iterdir()) == []
        assert list(store.manifests_dir.iterdir()) == []
        assert not store.tmp_dir.exists() or list(store.tmp_dir.iterdir()) == []
        assert store.stats["writes"] == 0

    def test_directories_removed_under_a_live_store_are_made_again(
        self, warm_report, dt_spec, h2_ground_state, tmp_path
    ):
        _, ground_state = h2_ground_state
        store = ResultStore(tmp_path / "fresh")
        for directory in (store.objects_dir, store.manifests_dir):
            shutil.rmtree(directory)
        store.save(warm_report.results[0])
        shutil.rmtree(store.tmp_dir)
        store.save_ground_state("group", ground_state)
        assert store.stats["writes"] == 2
        assert store.ledger()["objects"] == 2
        assert list(store.tmp_dir.iterdir()) == []  # every tmp file renamed away
        assert store.load(dt_spec.expand()[0]) is not None
        assert store.load_ground_state("group") is not None

    def test_a_failed_rename_leaves_no_tmp_file(self, store, h2_ground_state, monkeypatch):
        _, ground_state = h2_ground_state

        def refused(source, target):
            raise PermissionError("read-only objects/")

        monkeypatch.setattr("repro.store.store.os.replace", refused)
        with pytest.raises(PermissionError):
            store.save_ground_state("group", ground_state)
        assert list(store.tmp_dir.iterdir()) == []
        assert list(store.objects_dir.iterdir()) == []
        assert store.stats["writes"] == 0


class TestStorePathArgument:
    """``store=`` is the one persistence argument; a root directory and a
    :class:`ResultStore` over it are the same store."""

    def test_path_runs_through_the_store(self, dt_spec, tmp_path, job_entry, gs_entry):
        runner = BatchRunner(dt_spec, store=tmp_path / "root")
        assert isinstance(runner.store, ResultStore)
        runner.run()
        store = ResultStore(tmp_path / "root")
        job = dt_spec.expand()[0]
        manifest_path, trajectory = job_entry(store, job)
        assert json.loads(manifest_path.read_text())["job_id"] == job.job_id
        assert trajectory.exists() and trajectory.parent == store.objects_dir
        _, gs = gs_entry(store, job.group_key)
        assert gs.exists() and gs.parent == store.objects_dir

    def test_path_and_store_object_share_results(self, dt_spec, store):
        # a sweep persisted through the root path is a warm store for a sweep
        # passed the store object, and vice versa
        BatchRunner(dt_spec, store=store.root).run()
        report = BatchRunner(dt_spec, store=store).run()
        assert [r.status for r in report.results] == ["cached", "cached"]


class TestConcurrentWriters:
    def test_two_runners_writing_the_same_artifact_is_safe(self, store, h2_ground_state):
        _, result = h2_ground_state
        barrier = threading.Barrier(2)
        errors = []

        def writer():
            try:
                mine = ResultStore(store.root)  # each runner opens its own handle
                barrier.wait()
                for _ in range(5):
                    mine.save_ground_state("shared-group", result)
            except Exception as exc:  # pragma: no cover - failure evidence
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.ledger()["objects"] == 1  # one content-named payload
        assert store.ledger()["quarantined"] == 0
        assert list(store.tmp_dir.glob("*")) == []  # no leaked in-flight files
        loaded = store.load_ground_state("shared-group")
        assert loaded is not None
        assert float(loaded.total_energy) == float(result.total_energy)


class TestParentWrittenStore:
    """A store written before the ground state became field-free (fixture
    ``fixtures/pr16_store``: one Gaussian-pulse job and its SCF, written by
    the PR 16 code under the key that still carried the ``laser`` section).

    Job results are keyed by ``config_hash``, which did not change, so they
    keep being served; the ground state sits under a key nobody asks for any
    more — one miss, one fresh SCF, and the old object is left where it is.
    """

    GAUSSIAN = {
        "pulse": "gaussian",
        "params": {"amplitude": 0.005, "omega": 0.35, "t0_as": 20.0, "sigma_as": 10.0},
    }

    @pytest.fixture()
    def parent_store(self, tmp_path):
        root = tmp_path / "parent-store"
        shutil.copytree(pathlib.Path(__file__).parent / "fixtures" / "pr16_store", root)
        return ResultStore(root)

    def test_parent_written_trajectory_is_served_warm(
        self, tiny_config, parent_store, count_scf_solves, count_propagation_steps
    ):
        spec = SweepSpec(tiny_config.with_overrides({"laser": self.GAUSSIAN}), {"run.time_step_as": [1.0]})
        (result,) = BatchRunner(spec, store=parent_store).run().results
        assert result.status == "cached"
        assert count_scf_solves == [] and count_propagation_steps == []
        assert parent_store.stats["quarantined"] == 0

    def test_the_carried_hash_is_the_key_the_parent_filed_the_result_under(self, tiny_config, parent_store):
        """The store reads ``SweepJob.config_hash`` instead of hashing the
        config: it must be, byte for byte, the name PR 16 wrote."""
        (manifest,) = parent_store.manifests_dir.glob("job-*.json")
        spec = SweepSpec(tiny_config.with_overrides({"laser": self.GAUSSIAN}), {"run.time_step_as": [1.0]})
        (job,) = spec.expand()
        assert manifest.name == f"job-{job.config_hash}.json"
        assert json.loads(manifest.read_text())["config_hash"] == job.config_hash
        hits, misses = parent_store.diff(spec.expand())
        assert hits == [job] and misses == []

    def test_parent_ground_state_is_a_one_time_miss_not_a_quarantine(
        self, tiny_config, parent_store, count_scf_solves
    ):
        (old_manifest,) = parent_store.manifests_dir.glob("gs-*.json")
        old_object = parent_store.object_path(json.loads(old_manifest.read_text())["artifact"]["sha256"])
        base = tiny_config.with_overrides({"laser": self.GAUSSIAN})

        report = BatchRunner(SweepSpec(base, {"run.time_step_as": [1.0, 2.0]}), store=parent_store).run()
        assert [r.status for r in report.results] == ["cached", "completed"]
        assert len(count_scf_solves) == 1
        assert (parent_store.stats["gs_misses"], parent_store.stats["gs_hits"]) == (1, 0)
        # ignored, not quarantined: the parent's entry is still in place
        assert parent_store.stats["quarantined"] == 0
        assert not parent_store.quarantine_dir.exists()
        assert old_manifest.exists() and old_object.exists()
        assert parent_store.ledger()["ground_state_manifests"] == 2

        # one-time: the next sweep of the material adopts the new entry
        again = ResultStore(parent_store.root)
        assert not BatchRunner(SweepSpec(base, {"run.time_step_as": [3.0]}), store=again).run().failed
        assert len(count_scf_solves) == 1
        assert (again.stats["gs_misses"], again.stats["gs_hits"]) == (0, 1)

    def test_ground_state_of_the_previous_key_version_is_a_one_time_miss(
        self, tiny_config, tmp_path, count_scf_solves
    ):
        """Version 3 (PRs 19/20: every density update the linear step) to 4
        (Anderson-mixed after a three-iteration warm-up): same rule as above
        for a ground state written under the version-3 key."""
        key = ground_state_group_key(tiny_config)
        assert '"ground_state_key_version": 4' in key
        old_key = key.replace('"ground_state_key_version": 4', '"ground_state_key_version": 3')
        store = ResultStore(tmp_path / "store")
        store.save_ground_state(old_key, Session(tiny_config).ground_state())
        del count_scf_solves[:]

        spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0]})
        assert not BatchRunner(spec, store=store).run().failed
        assert len(count_scf_solves) == 1
        assert (store.stats["gs_misses"], store.stats["gs_hits"]) == (1, 0)
        assert store.has_ground_state(old_key) and store.stats["quarantined"] == 0
        assert store.ledger()["ground_state_manifests"] == 2
