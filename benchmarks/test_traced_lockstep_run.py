"""A traced ``BatchRunner`` run of the one propagation engine, through the
layered benchmark's own tracer.

``layers/test_harness.py::test_traced_run_exports_the_same_bytes_as_an_untraced_one``
looks for a ``core.propagators.step`` span under the runner; a group's jobs
advance through ``step_many`` (the system path never calls ``step``, which
would count every job-step twice), and ``benchmarks/layers`` is frozen between
re-baselines. Until it moves, this is the check that every layer under the
runner is entered and that the harness's derived job-step count is exact.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_traced_lockstep_run.py``.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "layers"))

from layers import HARNESS_SPAN, layer_metrics, tracing  # noqa: E402

from repro.api import SimulationConfig  # noqa: E402
from repro.batch import BatchRunner, SweepSpec  # noqa: E402

N_STEPS = 2
TIME_STEPS_AS = [10.0, 20.0]


def _h2_spec() -> SweepSpec:
    base = SimulationConfig.from_dict({
        "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
        "basis": {"ecut": 1.5},
        "xc": {"hybrid_mixing": 0.0},
        "propagator": {"name": "ptcn", "params": {"scf_tolerance": 1e-6}},
        "run": {"time_step_as": 10.0, "n_steps": N_STEPS, "gs_scf_tolerance": 1e-5},
    })
    return SweepSpec(base, {"run.time_step_as": TIME_STEPS_AS})


def test_traced_lockstep_group_enters_every_layer_and_counts_each_job_step_once(tmp_path):
    untraced = BatchRunner(_h2_spec(), store=tmp_path / "untraced").run()
    with tracing() as tracer:
        with tracer.record(HARNESS_SPAN):
            traced = BatchRunner(_h2_spec(), store=tmp_path / "traced").run()
    assert traced.to_json(exclude_timings=True) == untraced.to_json(exclude_timings=True)
    totals = tracer.totals()
    # the layers under the runner were entered, through from-imported names too
    for name in ("batch.runner.run", "exec.backends.execute_group", "api.session.propagate",
                 "core.dynamics.run", "core.propagators.step_many", "core.batching.apply_many",
                 "core.batching.update_potentials_many", "pw.density", "pw.fft", "store.save"):
        assert totals[name]["calls"] > 0, name
    assert totals["pw.ground_state.solve"]["calls"] == 1  # one group, one SCF
    # one width-2 stack: a step_many call per step, each worth two job-steps,
    # and no `step` span on top of it
    assert "core.propagators.step" not in totals
    assert totals["core.propagators.step_many"]["calls"] == N_STEPS
    metrics = layer_metrics(tracer, totals[HARNESS_SPAN]["busy_s"], 0.0, {})
    assert metrics["core.propagators.step_calls"] == N_STEPS * len(TIME_STEPS_AS)
    # every recorded second is some span's self time
    assert sum(tracer.self_times()) == pytest.approx(totals[HARNESS_SPAN]["busy_s"])
