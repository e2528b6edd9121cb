"""``benchmarks/check_pins.py`` on verdicts built from ``benchmarks/pins.json``'s own values.

The checker is the one reader of the pins and otherwise runs only on a traced
benchmark run in CI; here it runs on synthetic verdict lines whose counters
put every gate exactly at its pin, or one step past a single gate.
"""

import importlib.util
import json
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "check_pins.py"
_spec = importlib.util.spec_from_file_location("check_pins", _SCRIPT)
check_pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_pins)

PINS = json.loads(check_pins.PINS.read_text())

#: one step past each kind of gate
_PAST = {"min": -0.01, "max": 1, "equal": 1}
#: a width-1 trace: every apply_many call is one Hamiltonian application
_SPANS = [["core.propagators.step_many", 0.0, 1.0, None, 1.0]]
#: the run the derived ratios are spread over
_STEPS, _APPLICATIONS = 2, 10


def _verdict(pins: dict, past: str | None = None, correct: bool = True) -> dict:
    """A verdict line at every pin of ``pins``, one step past the gate named ``past``."""
    values = {name: bound + (_PAST[kind] if name == past else 0)
              for kind in _PAST for name, bound in pins.get(kind, {}).items()}
    if "pair_solves_per_application" in pins:
        solves = values.pop("exact_fock_applications_per_step") * pins["pair_solves_per_application"] * _STEPS
        values.update({
            "pw.exchange.poisson_solves": solves,
            "core.propagators.step_calls": _STEPS,
            "core.anderson.update_calls": values.pop("inner_iterations_per_step") * _STEPS,
            "core.batching.apply_many_calls": _APPLICATIONS,
            "pw.fft.transforms": values.pop("transforms_per_application") * _APPLICATIONS + 2 * solves,
        })
    return {"correct": correct, "failed": 0, "metrics": {name: {"value": v} for name, v in values.items()}}


_GATES = [(workload, name)
          for workload in sorted(PINS) for kind in _PAST for name in PINS[workload].get(kind, {})]


@pytest.mark.parametrize("workload", sorted(PINS))
def test_a_run_at_every_pin_passes(workload):
    assert check_pins.check(PINS[workload], _verdict(PINS[workload]), _SPANS) == []


@pytest.mark.parametrize("workload, gate", _GATES)
def test_one_step_past_a_gate_fails_naming_it(workload, gate):
    assert check_pins.check(PINS[workload], _verdict(PINS[workload], past=gate), _SPANS) == [gate]


@pytest.mark.parametrize("workload", sorted(PINS))
def test_an_incorrect_run_fails(workload):
    assert check_pins.check(PINS[workload], _verdict(PINS[workload], correct=False), _SPANS) == ["correct"]


def test_a_wider_stack_or_no_trace_fails_the_width_gate():
    pins = PINS["si8_hse_ptcn"]
    wider = _SPANS + [["core.propagators.step_many", 1.0, 2.0, None, 2.0]]
    assert check_pins.check(pins, _verdict(pins), wider) == ["stack_widths"]
    assert check_pins.check(pins, _verdict(pins)) == ["stack_widths"]


def test_a_missing_metric_fails_its_gate():
    pins = PINS["h2_campaign"]
    verdict = _verdict(pins)
    del verdict["metrics"]["store.save_calls"]
    assert check_pins.check(pins, verdict) == ["store.save_calls"]


def test_the_command_reads_the_last_line_and_names_the_failed_gates(tmp_path, capsys):
    out = tmp_path / "h2.out"
    failing = _verdict(PINS["h2_campaign"], past="pw.fft.calls")
    out.write_text("a progress line\n" + json.dumps(failing) + "\n")
    assert check_pins.main(["h2_campaign", str(out)]) == 1
    assert "pw.fft.calls" in capsys.readouterr().err
    out.write_text(json.dumps(_verdict(PINS["h2_campaign"])) + "\n")
    assert check_pins.main(["h2_campaign", str(out)]) == 0
