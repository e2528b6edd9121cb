"""Fault injection against the result store.

Every scenario corrupts the on-disk store between a cold run and a warm
re-run — flipped bytes, truncation, deleted or tampered manifests, digest
mismatches — and asserts the same contract each time: the damaged entry is
quarantined (never silently trusted, never deleted as evidence), the job is
recomputed, and the re-run's physics export is bit-identical to the cold
one. Wrong physics is never served.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.batch import BatchRunner
from repro.store import ResultStore


def _corrupt_object_flip(manifest_path, object_path, helpers):
    helpers["flip_byte"](object_path)


def _corrupt_object_truncate(manifest_path, object_path, helpers):
    helpers["truncate"](object_path)


def _corrupt_object_delete(manifest_path, object_path, helpers):
    object_path.unlink()


def _corrupt_manifest_digest(manifest_path, object_path, helpers):
    manifest = json.loads(manifest_path.read_text())
    manifest["artifact"]["sha256"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))


def _corrupt_manifest_size(manifest_path, object_path, helpers):
    manifest = json.loads(manifest_path.read_text())
    manifest["artifact"]["size"] = int(manifest["artifact"]["size"]) + 1
    manifest_path.write_text(json.dumps(manifest))


def _corrupt_manifest_json(manifest_path, object_path, helpers):
    helpers["truncate"](manifest_path, keep=20)


def _corrupt_manifest_key(manifest_path, object_path, helpers):
    manifest = json.loads(manifest_path.read_text())
    manifest["config_hash"] = "deadbeef0000"
    manifest_path.write_text(json.dumps(manifest))


def _delete_manifest(manifest_path, object_path, helpers):
    manifest_path.unlink()


#: scenario -> (corruption, whether the read path must quarantine something)
SCENARIOS = {
    "object-byte-flip": (_corrupt_object_flip, True),
    "object-truncated": (_corrupt_object_truncate, True),
    "object-deleted": (_corrupt_object_delete, True),
    "manifest-wrong-digest": (_corrupt_manifest_digest, True),
    "manifest-wrong-size": (_corrupt_manifest_size, True),
    "manifest-unparseable": (_corrupt_manifest_json, True),
    "manifest-wrong-key": (_corrupt_manifest_key, True),
    "manifest-deleted": (_delete_manifest, False),  # a clean miss, not corruption
}


class TestCorruptJobEntries:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_corruption_recomputes_and_never_serves_wrong_physics(
        self, scenario, warm_report, dt_spec, store, job_entry, flip_byte, truncate
    ):
        corrupt, expects_quarantine = SCENARIOS[scenario]
        baseline = warm_report.to_json()
        manifest_path, object_path = job_entry(store, dt_spec.expand()[0])
        corrupt(manifest_path, object_path, {"flip_byte": flip_byte, "truncate": truncate})

        rerun_store = ResultStore(store.root)  # a later session opens the root
        report = BatchRunner(dt_spec, store=rerun_store).run()
        # damaged entry recomputed, intact sibling still served from the store
        assert [r.status for r in report.results] == ["completed", "cached"]
        assert report.to_json() == baseline
        if expects_quarantine:
            assert rerun_store.stats["quarantined"] >= 1
            quarantined = list(rerun_store.quarantine_dir.iterdir())
            assert quarantined, "corrupt files must be moved aside, not deleted"
        else:
            assert rerun_store.ledger()["quarantined"] == 0
        # the recompute healed the store: a further re-run is all hits
        healed = BatchRunner(dt_spec, store=ResultStore(store.root)).run()
        assert [r.status for r in healed.results] == ["cached", "cached"]
        assert healed.to_json() == baseline

    def test_entry_vanishing_between_has_and_load_is_a_miss(
        self, warm_report, dt_spec, store, job_entry
    ):
        # manifests deleted mid-sequence: has() said yes, load() must still
        # degrade to a miss instead of raising or serving a stale object
        job = dt_spec.expand()[0]
        fresh = ResultStore(store.root)
        assert fresh.has(job)
        manifest_path, _ = job_entry(store, job)
        manifest_path.unlink()
        assert fresh.load(job) is None
        report = BatchRunner(dt_spec, store=fresh).run()
        assert [r.status for r in report.results] == ["completed", "cached"]

    def test_unreadable_archive_with_valid_digest_is_quarantined(
        self, warm_report, dt_spec, store, job_entry
    ):
        # satellite regression: a manifest whose digest check passes but whose
        # archive np.load cannot decode must quarantine + miss, not crash
        job = dt_spec.expand()[0]
        manifest_path, object_path = job_entry(store, job)
        garbage = b"PK corrupt archive that is not an npz payload"
        forged_object = store.object_path(hashlib.sha256(garbage).hexdigest())
        forged_object.write_bytes(garbage)
        manifest = json.loads(manifest_path.read_text())
        manifest["artifact"] = {
            "sha256": hashlib.sha256(garbage).hexdigest(),
            "size": len(garbage),
        }
        manifest_path.write_text(json.dumps(manifest))

        fresh = ResultStore(store.root)
        assert fresh.load(job) is None
        assert fresh.stats["quarantined"] == 1
        assert not manifest_path.exists() and not forged_object.exists()
        assert len(list(fresh.quarantine_dir.iterdir())) == 2  # both moved aside


class TestCorruptGroundStates:
    def test_corrupt_gs_archive_is_quarantined_not_loaded(
        self, warm_report, dt_spec, store, gs_entry, flip_byte
    ):
        group_key = dt_spec.expand()[0].group_key
        _, gs_object = gs_entry(store, group_key)
        flip_byte(gs_object)
        fresh = ResultStore(store.root)
        assert fresh.load_ground_state(group_key) is None
        assert fresh.stats["gs_misses"] == 1
        assert fresh.stats["quarantined"] == 1
        assert list(fresh.quarantine_dir.iterdir())

    def test_unreadable_gs_archive_beside_valid_manifest_returns_none(
        self, warm_report, dt_spec, store, gs_entry
    ):
        # satellite regression: GroundStateResult.load_npz raising on a
        # decode error must not propagate out of the store
        group_key = dt_spec.expand()[0].group_key
        gs_manifest, _ = gs_entry(store, group_key)
        garbage = b"not a zip archive"
        forged_object = store.object_path(hashlib.sha256(garbage).hexdigest())
        forged_object.write_bytes(garbage)
        manifest = json.loads(gs_manifest.read_text())
        manifest["artifact"] = {
            "sha256": hashlib.sha256(garbage).hexdigest(),
            "size": len(garbage),
        }
        gs_manifest.write_text(json.dumps(manifest))
        fresh = ResultStore(store.root)
        assert fresh.load_ground_state(group_key) is None
        assert fresh.stats["quarantined"] == 1

    def test_corrupt_gs_reconverges_scf_exactly_once(
        self, warm_report, dt_spec, store, gs_entry, job_entry, flip_byte, count_scf_solves
    ):
        # end to end: gs archive rotted AND one job entry lost — the re-run
        # reconverges one SCF, recomputes one propagation, physics unchanged
        baseline = warm_report.to_json()
        jobs = dt_spec.expand()
        _, gs_object = gs_entry(store, jobs[0].group_key)
        flip_byte(gs_object)
        manifest_path, _ = job_entry(store, jobs[0])
        manifest_path.unlink()

        report = BatchRunner(dt_spec, store=ResultStore(store.root)).run()
        assert [r.status for r in report.results] == ["completed", "cached"]
        assert len(count_scf_solves) == 1
        assert report.to_json() == baseline


_ENOSPC = "OSError: [Errno 28] No space left on device"


class TestFullDisk:
    """A checkpoint write that meets a full disk never discards finished
    physics or aborts the sweep: the job stays completed, and the group's
    record names what was not saved (a rerun recomputes it)."""

    def test_a_full_disk_under_job_checkpoints_leaves_them_unsaved_and_named(self, dt_spec, store, disk_full):
        disk_full("save")
        jobs = dt_spec.expand()
        with pytest.warns(UserWarning, match="checkpoint write failed"):
            report = BatchRunner(dt_spec, store=store).run()
        assert [r.status for r in report.results] == ["completed", "completed"]
        assert all(r.trajectory is not None for r in report.results)
        assert not any(store.has(job) for job in jobs)
        assert list(store.objects_dir.iterdir()) != []  # the SCF's own checkpoint landed
        (group,) = report.execution["groups"]
        assert group["notes"] == [f"job {job.job_id}: checkpoint write failed: {_ENOSPC}" for job in jobs]
        assert [r.error for r in report.results] == [f"checkpoint write failed: {_ENOSPC}"] * 2

    def test_a_full_disk_under_the_ground_state_checkpoint_leaves_it_unsaved_and_named(
        self, dt_spec, store, disk_full
    ):
        disk_full("save_ground_state")
        jobs = dt_spec.expand()
        with pytest.warns(UserWarning, match="ground-state checkpoint write failed"):
            report = BatchRunner(dt_spec, store=store).run()
        assert [r.status for r in report.results] == ["completed", "completed"]
        assert all(r.error is None for r in report.results)
        assert all(store.has(job) for job in jobs)
        assert not store.has_ground_state(jobs[0].group_key)
        (group,) = report.execution["groups"]
        assert group["notes"] == [f"ground-state checkpoint write failed: {_ENOSPC}"]

    def test_a_fault_that_is_no_disk_error_propagates(self, dt_spec, store, monkeypatch):
        """Only ``OSError`` is a persistence failure; anything else a save
        raises is a bug, and is not recorded as an unsaved job."""

        def broken(self, result):
            raise TypeError("an array the archive cannot hold")

        monkeypatch.setattr(ResultStore, "save", broken)
        with pytest.raises(TypeError, match="archive cannot hold"):
            BatchRunner(dt_spec, store=store).run()

    def test_a_ground_state_write_fault_that_is_no_disk_error_propagates(self, dt_spec, store, monkeypatch):
        """The same holds for the group's SCF checkpoint: a ``save_ground_state``
        that raises anything but an ``OSError`` fails the sweep, instead of
        being reported as a failed lockstep pass whose jobs then run width 1."""

        def broken(self, group_key, result):
            raise TypeError("an array the archive cannot hold")

        monkeypatch.setattr(ResultStore, "save_ground_state", broken)
        with pytest.raises(TypeError, match="archive cannot hold"):
            BatchRunner(dt_spec, store=store).run()
