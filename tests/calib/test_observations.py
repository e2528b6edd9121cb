"""Observation extraction from real reports and the append-only log."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.batch import BatchRunner, SweepSpec
from repro.calib import CalibrationModel, Observation, ObservationLog, extract_observations
from repro.exec import ExecutionSettings
from repro.store import ResultStore


@pytest.fixture()
def executed_report(tiny_config):
    """A really-executed two-group sweep whose execution summary carries the
    stamped identity + observed-seconds fields."""
    spec = SweepSpec(tiny_config, {"basis.ecut": [1.5, 2.0]})
    settings = ExecutionSettings(machine="summit", schedule="makespan_balanced")
    return BatchRunner(spec, settings=settings).run()


class TestExtraction:
    def test_sweep_report_observations_are_self_describing(self, executed_report):
        observations = extract_observations(executed_report, sweep="cutoff")
        assert len(observations) == 2
        for obs in observations:
            assert obs.ok
            assert obs.machine == "summit"
            assert obs.propagator == "ptcn"  # the tiny config's default
            assert obs.n_bands and obs.n_bands > 0
            assert obs.n_grid and obs.n_grid > 0
            assert obs.n_jobs == 1
            assert obs.sweep == "cutoff"
            assert obs.predicted_seconds > 0
            assert obs.observed_seconds > 0

    def test_extraction_feeds_a_fit(self, executed_report):
        model = CalibrationModel.fit(extract_observations(executed_report))
        assert not model.is_empty
        assert model.scale_for("summit", "ptcn") > 0

    def test_raw_execution_dict(self, executed_report):
        observations = extract_observations(executed_report.execution)
        assert len(observations) == 2

    def test_unusable_groups_are_skipped(self):
        execution = {
            "groups": [
                {"index": 0, "predicted_seconds": 1.0},  # no observation
                {"index": 1, "predicted_seconds": 1.0, "observed_seconds": 0.0},
                {"index": 2, "predicted_seconds": 2.0, "observed_seconds": 3.0,
                 "machine": "summit"},
                None,  # malformed record
            ]
        }
        observations = extract_observations(execution)
        assert [obs.group_index for obs in observations] == [2]

    def test_groups_not_computed_in_full_are_skipped(self):
        """A served or failed job leaves the group's wall short of the work
        its prediction priced, so the group is no observation."""
        pair = {"predicted_seconds": 2.0, "observed_seconds": 1.0}
        execution = {
            "groups": [
                {"index": 0, "n_served": 1, "n_failed": 0, **pair},
                {"index": 1, "n_served": 0, "n_failed": 1, **pair},
                {"index": 2, "n_served": 0, "n_failed": 0, **pair},
                {"index": 3, **pair},  # a record written before the counts
            ]
        }
        assert [obs.group_index for obs in extract_observations(execution)] == [2, 3]


class TestObservationLog:
    def test_append_load_round_trip(self, tmp_path):
        log = ObservationLog(tmp_path)
        first = [
            Observation(machine="summit", propagator="ptcn",
                        predicted_seconds=1.0, observed_seconds=2.0),
        ]
        second = [
            Observation(machine="summit", propagator="rk4",
                        predicted_seconds=3.0, observed_seconds=3.0, sweep="dt"),
        ]
        assert log.append(first) == 1
        assert log.append(second) == 1
        loaded = log.load()
        assert loaded == first + second
        assert len(log) == 2
        assert log.path == tmp_path / "calibration" / "observations.jsonl"

    def test_accepts_a_result_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        log = store.observation_log()
        assert isinstance(log, ObservationLog)
        assert log.path.parent == store.root / "calibration"
        log.append([Observation(machine="summit", predicted_seconds=1.0,
                                observed_seconds=1.5)])
        # a second handle over the same store reads the same log
        assert len(ObservationLog(store)) == 1

    def test_empty_append_is_a_no_op(self, tmp_path):
        log = ObservationLog(tmp_path)
        assert log.append([]) == 0
        assert not log.path.exists()

    def test_corrupt_lines_are_skipped(self, tmp_path):
        log = ObservationLog(tmp_path)
        log.append([Observation(machine="summit", predicted_seconds=1.0,
                                observed_seconds=2.0)])
        with log.path.open("a") as fh:
            fh.write("{this is not json\n")
            fh.write(json.dumps({"machine": "frontier", "predicted_seconds": 2.0,
                                 "observed_seconds": 2.0}) + "\n")
        loaded = log.load()
        assert len(loaded) == 2
        assert {obs.machine for obs in loaded} == {"summit", "frontier"}

    def test_unknown_keys_are_ignored_on_load(self, tmp_path):
        log = ObservationLog(tmp_path)
        log.directory.mkdir(parents=True)
        log.path.write_text(json.dumps({
            "machine": "summit", "predicted_seconds": 1.0,
            "observed_seconds": 2.0, "future_field": [1, 2, 3],
        }) + "\n")
        (loaded,) = log.load()
        assert loaded.machine == "summit"
        assert loaded.ratio == pytest.approx(2.0)


def _append_one_at_a_time(root, machine, start, n):
    log = ObservationLog(root)
    start.wait()
    for i in range(n):
        log.append([Observation(machine=machine, predicted_seconds=1.0, observed_seconds=1.0 + i)])


def test_two_processes_appending_at_once_keep_every_line(tmp_path):
    """Each append reads, extends and replaces the whole file; the lock makes
    that one step, so neither process's lines are lost to the other's."""
    context = multiprocessing.get_context("fork")
    start = context.Barrier(2)
    workers = [
        context.Process(target=_append_one_at_a_time, args=(tmp_path, machine, start, 100))
        for machine in ("a", "b")
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert [worker.exitcode for worker in workers] == [0, 0]
    loaded = ObservationLog(tmp_path).load()
    assert len(loaded) == 200
    for machine in ("a", "b"):
        observed = [obs.observed_seconds for obs in loaded if obs.machine == machine]
        assert observed == [1.0 + i for i in range(100)]
