#!/usr/bin/env python3
"""Check a traced layered-benchmark run against its pins in ``benchmarks/pins.json``.

Usage:
    python3 benchmarks/layers/run.py --workload W --seed 1 --seconds 6 --trace 1 | tee W.out
    python3 benchmarks/check_pins.py W W.out [benchmarks/layers/out/trace-W.json]

The last line of the verdict file is the run's JSON verdict. The trace file
(the span dump a traced run writes) is needed where the pins name the
``core.propagators.step_many`` stack widths: an ``apply_many`` call is one
Hamiltonian application only in a width-1 stack. Every gate is a count or a
coverage ratio, so nothing is timed: the run must say ``correct``, reach
each ``min``, stay within each ``max`` and hit each ``equal`` exactly. Three
gates are ratios no single counter holds (see :func:`derived`). Prints every
gate with its value and exits 1 naming each gate that failed.
"""

from __future__ import annotations

import json
import operator
import pathlib
import sys

PINS = pathlib.Path(__file__).with_name("pins.json")

_GATES = {"min": (operator.ge, ">="), "max": (operator.le, "<="), "equal": (operator.eq, "==")}


def derived(metrics: dict, pair_solves_per_application: int) -> dict:
    """Orbital transforms per Hamiltonian application (a Fock pair solve is
    two transforms), and PT-CN inner iterations and exact Fock applications
    per step."""
    solves = metrics["pw.exchange.poisson_solves"]
    steps = metrics["core.propagators.step_calls"]
    return {
        "transforms_per_application":
            (metrics["pw.fft.transforms"] - 2 * solves) / metrics["core.batching.apply_many_calls"],
        "inner_iterations_per_step": metrics["core.anderson.update_calls"] / steps,
        "exact_fock_applications_per_step": solves / pair_solves_per_application / steps,
    }


def check(pins: dict, verdict: dict, spans: list | None = None) -> list[str]:
    """Print each gate of ``pins`` with its value; return the failed gates' names."""
    metrics = {name: entry["value"] for name, entry in verdict["metrics"].items()}
    if "pair_solves_per_application" in pins:
        metrics.update(derived(metrics, pins["pair_solves_per_application"]))
    gates = [("correct", verdict["correct"], "is", True, verdict["correct"] is True)]
    for kind, (compare, symbol) in _GATES.items():
        for name, bound in pins.get(kind, {}).items():
            value = metrics.get(name)
            gates.append((name, value, symbol, bound, value is not None and compare(value, bound)))
    if "stack_widths" in pins:
        widths = None if spans is None else sorted(
            {work for name, _start, _end, _parent, work in spans if name == "core.propagators.step_many"}
        )
        gates.append(("stack_widths", widths, "==", pins["stack_widths"], widths == pins["stack_widths"]))
    for name, value, symbol, bound, ok in gates:
        shown = f"{value:g}" if isinstance(value, float) else value
        print(f"{'ok' if ok else 'FAILED':<6} {name} = {shown} ({symbol} {bound})")
    return [name for name, *_rest, ok in gates if not ok]


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    workload, verdict_path, *trace_path = argv
    pins = json.loads(PINS.read_text())[workload]
    verdict = json.loads(pathlib.Path(verdict_path).read_text().strip().splitlines()[-1])
    spans = json.loads(pathlib.Path(trace_path[0]).read_text())["spans"] if trace_path else None
    print(f"{workload}: gates pinned at seed {pins['seed']}")
    failed = check(pins, verdict, spans)
    if failed:
        print(f"{workload}: pins FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
