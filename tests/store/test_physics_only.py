"""Results carry physics only.

A trajectory, its archive and a sweep's export hold no clock: two cold
computations of one job write the same bytes under the same digest, and a job
the store serves exports exactly as a computed one. What a pass cost is on the
group ledger of the report's execution section. The one degraded physics path
of a propagation — an implicit step that stops at its iteration cap — is
recorded per step (``Trajectory.converged``) and counted by the reports,
fresh or served.
"""

from __future__ import annotations

import json

import pytest

from repro.api import SimulationConfig
from repro.batch import BatchRunner, SweepReport, SweepSpec
from repro.store import ResultStore

PROPAGATORS = {
    "rk4": {"name": "rk4", "params": {}},
    "ptcn": {"name": "ptcn", "params": {"scf_tolerance": 1e-6}},
}


def _archives(store: ResultStore) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(store.objects_dir.glob("*.npz"))}


@pytest.mark.parametrize("exchange", [0.0, 0.25], ids=["semilocal", "hybrid"])
@pytest.mark.parametrize("propagator", sorted(PROPAGATORS))
def test_two_cold_computations_write_byte_identical_archives(tiny_config, tmp_path, propagator, exchange):
    config = tiny_config.with_overrides(
        {"xc": {"hybrid_mixing": exchange}, "propagator": PROPAGATORS[propagator]}
    )
    spec = SweepSpec(config, {"run.time_step_as": [1.0, 2.0]})
    first, second = ResultStore(tmp_path / "first"), ResultStore(tmp_path / "second")
    cold = BatchRunner(spec, store=first).run()
    again = BatchRunner(spec, store=second).run()
    assert [r.status for r in cold] == [r.status for r in again] == ["completed", "completed"]

    assert _archives(first) == _archives(second)  # same names (digests), same bytes
    for job in spec.expand():
        assert first.job_manifest_path(job.config_hash).read_bytes() == \
            second.job_manifest_path(job.config_hash).read_bytes()
    assert again.to_json() == cold.to_json()
    for result in cold:
        assert "wall_time" not in result.summary
        assert not hasattr(result.trajectory, "wall_time")
    # the pass's time is on the ledger instead
    assert all(group["observed_seconds"] > 0.0 for group in cold.execution["groups"])


def test_unconverged_steps_are_recorded_fresh_and_served(tiny_config, tmp_path):
    """A PT-CN step held to one inner iteration at a tolerance it cannot meet
    stops unconverged: every step says so, and the fresh and the store-served
    report count them alike and export alike."""
    capped = tiny_config.with_overrides(
        {"propagator": {"name": "ptcn", "params": {"scf_tolerance": 1e-14, "max_scf_iterations": 1}},
         "run": {"n_steps": 3}}
    )
    spec = SweepSpec(capped, {"run.time_step_as": [5.0]})
    fresh = BatchRunner(spec, store=tmp_path / "store").run()
    served = BatchRunner(spec, store=tmp_path / "store").run()
    assert [r.status for r in served] == ["cached"]

    for report in (fresh, served):
        (result,) = report.results
        assert result.trajectory.converged.tolist() == [True, False, False, False]
        assert result.summary["unconverged_steps"] == 3
        assert report.n_unconverged_steps == 3
        assert report.to_dict()["n_unconverged_steps"] == 3
    assert served.to_json() == fresh.to_json()
    assert fresh.to_dict()["jobs"][0]["trajectory"]["converged"] == [True, False, False, False]


def test_the_si8_hse06_ptcn_step_capped_at_three_iterations_is_counted_fresh_and_served(tmp_path):
    """The ``si8_hse_ptcn`` benchmark config (Si8, HSE06, PT-CN at 50 as) with
    ``max_scf_iterations=3``: none of its three steps converges."""
    config = SimulationConfig.from_dict({
        "system": {"structure": "diamond_silicon", "params": {"empirical": False, "include_nonlocal": True}},
        "basis": {"ecut": 2.5, "grid_factor": 1.0},
        "xc": {"hybrid_mixing": 0.25, "screening_length": 0.106, "include_nonlocal": True,
               "gs_hybrid_mixing": 0.0},
        "laser": {"pulse": "paper", "params": {"amplitude": 0.002, "duration_fs": 1.2}},
        "propagator": {"name": "ptcn", "params": {"scf_tolerance": 1e-5, "max_scf_iterations": 3}},
        "run": {"time_step_as": 50.0, "n_steps": 3, "gs_scf_tolerance": 1.5e-2, "gs_max_scf_iterations": 40},
    })
    spec = SweepSpec(config)
    fresh = BatchRunner(spec, store=tmp_path).run()
    served = BatchRunner(spec, store=tmp_path).run()
    assert [r.status for r in served] == ["cached"]
    assert fresh.n_unconverged_steps == served.n_unconverged_steps == 3
    assert served.to_json() == fresh.to_json()


def test_served_and_computed_jobs_export_alike_and_the_ledger_tells_them_apart(tiny_config, tmp_path):
    spec = SweepSpec(tiny_config, {"run.time_step_as": [1.0, 2.0]})
    cold = BatchRunner(spec, store=tmp_path / "store").run()
    warm = BatchRunner(spec, store=tmp_path / "store").run()
    assert [r.status for r in warm] == ["cached", "cached"]  # in memory
    assert warm.to_json() == cold.to_json()
    assert all(job["status"] == "completed" for job in warm.to_dict()["jobs"])

    for report, status in ((cold, "completed"), (warm, "cached")):
        assert report.execution["n_cached"] == (2 if status == "cached" else 0)
        assert report.execution["settings"] == report.settings
        records = report.execution["jobs"]
        assert [records[r.job_id]["status"] for r in report] == [status, status]
    assert all(record["observed_seconds"] > 0.0 for record in cold.execution["jobs"].values())
    assert all(record["observed_seconds"] == 0.0 for record in warm.execution["jobs"].values())
    assert warm.execution["groups"][0]["observed_seconds"] == 0.0  # it computed nothing

    # the execution section carries the provenance through a round trip
    rebuilt = SweepReport.from_dict({**json.loads(warm.to_json()), "execution": json.loads(json.dumps(warm.execution))})
    assert [r.status for r in rebuilt] == ["cached", "cached"]
    assert rebuilt.to_json() == warm.to_json() and rebuilt.execution == warm.execution
