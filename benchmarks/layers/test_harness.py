"""Tests of the benchmark's own machinery (not of ``repro``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/layers``; the directory
is not under ``testpaths``, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import trace as span_trace  # noqa: E402  (this directory's trace.py, not the stdlib's)
from layers import HARNESS_SPAN, PACKAGE, import_all, tracing  # noqa: E402

from repro.api import SimulationConfig  # noqa: E402
from repro.batch import BatchRunner, SweepSpec  # noqa: E402


@pytest.fixture
def ticking(monkeypatch):
    """A tracer whose clock advances only when the test says so."""
    assert hasattr(span_trace, "Tracer"), "stdlib trace shadowed this directory's trace.py"
    now = [0.0]
    monkeypatch.setattr(span_trace, "_clock", lambda: now[0])
    tracer = span_trace.Tracer()
    tracer.recording = True

    def tick(seconds: float) -> None:
        now[0] += seconds

    return tracer, tick


def test_self_time_is_duration_minus_child_spans(ticking):
    tracer, tick = ticking
    outer = tracer.begin("outer")
    tick(1.0)
    first = tracer.begin("child")
    tick(2.0)
    grandchild = tracer.begin("grandchild")
    tick(4.0)
    tracer.end(grandchild)
    tracer.end(first)
    tick(8.0)
    sibling = tracer.begin("child")
    tick(16.0)
    tracer.end(sibling)
    tick(32.0)
    tracer.end(outer)

    totals = tracer.totals()
    assert totals["outer"] == {"calls": 1, "work": 1.0, "busy_s": 63.0, "self_s": 41.0}
    assert totals["child"] == {"calls": 2, "work": 2.0, "busy_s": 22.0, "self_s": 18.0}
    assert totals["grandchild"]["self_s"] == 4.0
    # self times partition the root span
    assert sum(tracer.self_times()) == 63.0
    # a span nested in another span of the set is covered once
    assert tracer.union_busy(["child", "grandchild"]) == 22.0
    assert tracer.union_busy(["grandchild"]) == 4.0


def test_same_name_nesting_is_not_counted_twice(ticking):
    tracer, tick = ticking
    outer = tracer.begin("recursive")
    tick(1.0)
    inner = tracer.begin("recursive")
    tick(2.0)
    tracer.end(inner)
    tracer.end(outer)
    assert tracer.totals()["recursive"] == {"calls": 2, "work": 2.0, "busy_s": 3.0, "self_s": 3.0}


def test_closing_a_span_out_of_order_raises(ticking):
    tracer, _tick = ticking
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def _bindings() -> dict:
    """id of everything bound in every loaded ``repro`` module and class."""
    import inspect

    seen = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == PACKAGE or module_name.startswith(PACKAGE + ".")):
            continue
        for name, value in vars(module).items():
            seen[(module_name, name)] = id(value)
            if inspect.isclass(value) and value.__module__ == module_name:
                for attribute, member in vars(value).items():
                    seen[(module_name, name, attribute)] = id(member)
    return seen


def test_patching_is_by_identity_and_restore_leaves_repro_untouched():
    import_all()
    from repro.core.propagators import pt_cn
    from repro.pw import density

    before = _bindings()
    original = density.compute_density
    with tracing() as tracer:
        # pt_cn.py did `from ...pw.density import compute_density`: both
        # namespaces must hold the same wrapper, not only the defining one
        assert density.compute_density is not original
        assert pt_cn.compute_density is density.compute_density
        assert not tracer.spans
    assert density.compute_density is original
    assert pt_cn.compute_density is original
    assert _bindings() == before


def _h2_spec() -> SweepSpec:
    base = SimulationConfig.from_dict({
        "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
        "basis": {"ecut": 1.5},
        "xc": {"hybrid_mixing": 0.0},
        "propagator": {"name": "ptcn", "params": {"scf_tolerance": 1e-6}},
        "run": {"time_step_as": 10.0, "n_steps": 2, "gs_scf_tolerance": 1e-5},
    })
    return SweepSpec(base, {"run.time_step_as": [10.0, 20.0]})


def test_traced_run_exports_the_same_bytes_as_an_untraced_one(tmp_path):
    untraced = BatchRunner(_h2_spec(), store=tmp_path / "untraced").run()
    with tracing() as tracer:
        with tracer.record(HARNESS_SPAN):
            traced = BatchRunner(_h2_spec(), store=tmp_path / "traced").run()
    assert traced.to_json(exclude_timings=True) == untraced.to_json(exclude_timings=True)
    totals = tracer.totals()
    # the layers under the runner were entered, through from-imported names too
    for name in ("batch.runner.run", "exec.backends.execute_group", "api.session.propagate",
                 "core.propagators.step", "pw.density", "pw.fft", "store.save"):
        assert totals[name]["calls"] > 0, name
    assert totals["pw.ground_state.solve"]["calls"] == 1  # one group, one SCF
    # every recorded second is some span's self time
    assert sum(tracer.self_times()) == pytest.approx(totals[HARNESS_SPAN]["busy_s"])


def test_benchmark_json_lists_what_a_workload_run_prints():
    import json

    import harness
    import run
    from layers import LAYER_METRICS, LOCKSTEP_METRICS, WARM_METRICS

    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert contract["command"][1] == str(pathlib.Path(run.__file__).relative_to(run.ROOT))
    assert contract["paths"] == [str(run.HERE.relative_to(run.ROOT))]
    assert contract["run_seconds"] == run.DEFAULT_SECONDS
    assert [entry["name"] for entry in contract["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(harness.WORKLOADS)
    assert {e["name"]: (e["unit"], e["better"], e["bound"]) for e in contract["end_to_end"]} == {
        name: (unit, better, bound or harness.CONTRACT_EXACT_BOUND)
        for name, (unit, better, bound) in harness.END_TO_END.items()
        if name in harness.CONTRACT_END_TO_END
    }
    units = dict(LAYER_METRICS)
    expected = dict(units)
    expected.update({f"warm.{name}": units[name] for name in WARM_METRICS})
    expected.update({f"lockstep.{name}": units[name] for name in LOCKSTEP_METRICS})
    assert {e["name"]: e["unit"] for e in contract["per_layer"]} == expected
