"""The ``.npz`` write discipline under the store: atomic and deterministic.

Archives are written to a sibling tmp file and ``os.replace``d into place, so
a crash mid-save can never tear an existing archive; and the zip member
timestamps are pinned, so equal arrays give byte-identical files (the
property sha256 content addressing depends on).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.pw.ground_state as ground_state


class TestAtomicWrites:
    def test_failed_gs_save_leaves_existing_archive_intact(
        self, tmp_path, h2_ground_state, monkeypatch
    ):
        _, result = h2_ground_state
        target = tmp_path / "gs.npz"
        result.save_npz(target)
        before = target.read_bytes()

        def torn_member(array):
            raise OSError("disk full")

        # tears while the archive is serialised: nothing reaches the disk
        monkeypatch.setattr(ground_state, "_npy_bytes", torn_member)
        with pytest.raises(OSError):
            result.save_npz(target)
        assert target.read_bytes() == before  # old archive untouched
        assert list(tmp_path.glob("*.tmp")) == []  # no tmp litter

    def test_failed_trajectory_save_leaves_existing_archive_intact(
        self, warm_report, tmp_path, monkeypatch
    ):
        trajectory = warm_report.results[0].trajectory
        target = tmp_path / "trajectory.npz"
        trajectory.save_npz(target)
        before = target.read_bytes()

        def torn_member(array):
            raise OSError("disk full")

        # tears while the archive is serialised: nothing reaches the disk
        monkeypatch.setattr(ground_state, "_npy_bytes", torn_member)
        with pytest.raises(OSError):
            trajectory.save_npz(target)
        assert target.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_bare_path_still_gains_the_npz_extension(self, tmp_path, h2_ground_state):
        # np.savez appends ".npz" to extensionless paths; the atomic writer
        # must keep that legacy behavior for pre-store call sites
        _, result = h2_ground_state
        result.save_npz(tmp_path / "bare")
        assert (tmp_path / "bare.npz").exists()


class TestDeterministicBytes:
    def test_equal_ground_states_save_byte_identically(self, tmp_path, h2_ground_state):
        _, result = h2_ground_state
        result.save_npz(tmp_path / "a.npz")
        result.save_npz(tmp_path / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_saved_archive_round_trips(self, tmp_path, h2_ground_state, h2_basis):
        from repro.pw.ground_state import GroundStateResult

        _, result = h2_ground_state
        result.save_npz(tmp_path / "gs.npz")
        loaded = GroundStateResult.load_npz(tmp_path / "gs.npz", basis=h2_basis)
        assert float(loaded.total_energy) == float(result.total_energy)
        np.testing.assert_array_equal(
            loaded.wavefunction.coefficients, result.wavefunction.coefficients
        )
