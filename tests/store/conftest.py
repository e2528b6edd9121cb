"""Fixtures and corruption helpers for the result-store suite.

The sweeps here reuse the tiny semi-local H2 config from the root conftest,
so a cold two-job sweep (SCF + two 2-step propagations) runs in well under a
second; everything interesting — content addressing, fault injection,
incremental re-execution — happens at the store layer on top of it.
"""

from __future__ import annotations

import errno
import json
import os

import pytest

import repro.store.store as store_module
from repro.batch import BatchRunner, SweepSpec
from repro.batch.sweep import config_hash
from repro.store import ResultStore


@pytest.fixture()
def dt_spec(tiny_config):
    """A two-job dt sweep over the tiny H2 config (one ground-state group)."""
    return SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})


@pytest.fixture()
def store(tmp_path):
    """A fresh content-addressed store rooted in the test's tmp dir."""
    return ResultStore(tmp_path / "store")


@pytest.fixture()
def warm_report(dt_spec, store):
    """The dt sweep executed once (cold) against ``store``."""
    report = BatchRunner(dt_spec, store=store).run()
    assert [r.status for r in report.results] == ["completed", "completed"]
    return report


@pytest.fixture()
def job_entry():
    """``(manifest_path, object_path)`` of a job's stored result."""

    def _entry(store: ResultStore, job):
        manifest_path = store.job_manifest_path(config_hash(job.config))
        manifest = json.loads(manifest_path.read_text())
        return manifest_path, store.object_path(manifest["artifact"]["sha256"])

    return _entry


@pytest.fixture()
def gs_entry():
    """``(manifest_path, object_path)`` of a group's stored ground state."""

    def _entry(store: ResultStore, group_key: str):
        manifest_path = store.ground_state_manifest_path(group_key)
        manifest = json.loads(manifest_path.read_text())
        return manifest_path, store.object_path(manifest["artifact"]["sha256"])

    return _entry


@pytest.fixture()
def flip_byte():
    """Flip one byte of a file in place (silent bit-rot)."""

    def _flip(path, offset: int = -8):
        data = bytearray(path.read_bytes())
        data[offset % len(data)] ^= 0xFF
        path.write_bytes(bytes(data))

    return _flip


@pytest.fixture()
def truncate():
    """Truncate a file to its first bytes (torn write / full disk)."""

    def _truncate(path, keep: int = 16):
        path.write_bytes(path.read_bytes()[:keep])

    return _truncate


@pytest.fixture()
def disk_full(monkeypatch):
    """Make one :class:`ResultStore` writer (``"save"`` for job results,
    ``"save_ground_state"`` for shared SCFs) meet a full disk: each of its
    durable writes raises ``ENOSPC``, as the kernel does, and nothing lands."""

    def enospc(final, data, tmp_dir=None):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def _fill(writer: str):
        original = getattr(ResultStore, writer)

        def full(self, *args, **kwargs):
            with monkeypatch.context() as patch:
                patch.setattr(store_module, "write_durably", enospc)
                return original(self, *args, **kwargs)

        monkeypatch.setattr(ResultStore, writer, full)

    return _fill
