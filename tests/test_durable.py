"""Every durable writer goes through :func:`repro.durable.write_durably`: a
write that fails part-way — torn while the bytes go down, or refused at the
rename — leaves the previous file intact and no tmp file behind, for each of
the four callers (store, ``.npz`` archive, calibration log, asset library)."""

from __future__ import annotations

import dataclasses
import os
import pathlib

import pytest

from repro.assets import default_library
from repro.calib import Observation, ObservationLog
from repro.store import ResultStore


def _store(root, ground_state, n):
    ResultStore(root / "store").save_ground_state("group", _variant(ground_state, n))


def _archive(root, ground_state, n):
    _variant(ground_state, n).save_npz(root / "gs.npz")


def _calibration_log(root, ground_state, n):
    ObservationLog(root).append([Observation(machine="summit", predicted_seconds=1.0 + n,
                                             observed_seconds=2.0)])


def _asset_library(root, ground_state, n):
    default_library().materialize(root / "assets")


def _variant(ground_state, n):
    return dataclasses.replace(ground_state, total_energy=ground_state.total_energy + n)


def _torn_write(monkeypatch):
    def torn(path, data):
        with open(path, "wb") as handle:
            handle.write(bytes(data)[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(pathlib.Path, "write_bytes", torn)


def _refused_rename(monkeypatch):
    def refused(source, target):
        raise PermissionError("read-only directory")

    monkeypatch.setattr(os, "replace", refused)


def _files(root: pathlib.Path) -> dict:
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("fault", [_torn_write, _refused_rename], ids=lambda f: f.__name__[1:])
@pytest.mark.parametrize("write", [_store, _archive, _calibration_log, _asset_library],
                         ids=lambda f: f.__name__[1:])
def test_a_failed_write_leaves_the_previous_file_and_no_tmp_file(
    write, fault, h2_ground_state, tmp_path, monkeypatch
):
    _, ground_state = h2_ground_state
    write(tmp_path, ground_state, 0)
    before = _files(tmp_path)
    fault(monkeypatch)
    with pytest.raises(OSError):
        write(tmp_path, ground_state, 1)
    monkeypatch.undo()
    assert _files(tmp_path) == before

