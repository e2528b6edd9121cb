"""Runs one workload in this process: set-up, bracketed timed sections with
tracing off, or traced sections for the per-layer numbers.

A timed section is always bracketed by two host reference measurements and
its ``hru`` value is ``wall / mean(bracket)`` — see hostref.py. A metric's
value for the run is the median over its sections.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

from hostref import HostReference, spread
from layers import (
    HARNESS_SPAN, LAYER_METRICS, LOCKSTEP_METRICS, WARM_METRICS,
    component_shares, ground_state_table, import_all, layer_metrics, ratio, step_percentiles, step_samples,
    tracing,
)
from workloads import WORKLOADS, Outcome, Workload

#: set-up repetitions per run; ``setup_s`` reports their median
SETUP_REPS = 3
#: what one reference measurement takes on this class of host when it is not
#: in a slow spell. ``setup_s`` is set-up hru times this: seconds on a host
#: of nominal speed, so that a slow quarter of an hour does not read as work
#: moved into set-up (raw seconds are reported as ``setup_wall_s``).
HRU_NOMINAL_S = 0.15
#: share of ``--seconds`` the cold sections get (the warm samples get the rest)
COLD_SHARE = 0.7
#: untraced (overhead baseline) and traced repetitions of a ``--trace 1`` run
TRACE_REPS = 3
#: median disagreement of a section's two bracketing reference walls beyond
#: which the run's host-normalised values are marked ``unresolved``
MAX_BRACKET_DISAGREEMENT = 0.25

#: name -> (unit, better, bound). ``bound`` is the share of the other run's
#: median a metric may worsen by before ``--compare`` calls it regressed:
#: about three times the run-to-run spread measured on this host (README,
#: "Bounds"). ``0.0`` means exact: a count that repeats exactly at a fixed
#: seed. ``None`` means informational: raw seconds, which move with the
#: host by more than any bound worth setting, are printed and never gated.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "setup_wall_s": ("s", "lower", None),
    "wall_hru_per_fs": ("hru/fs", "lower", 0.20),
    "lockstep_wall_hru_per_fs": ("hru/fs", "lower", 0.20),
    "wall_s_per_fs": ("s/fs", "lower", None),
    "h_apps_per_fs": ("1/fs", "lower", 0.0),
    "scf_iters_per_step": ("1/step", "lower", 0.0),
    "steps_failed_frac": ("ratio", "lower", 0.0),
    "cold_wall_hru": ("hru", "lower", 0.20),
    "cold_wall_s": ("s", "lower", None),
    "warm_mhru_per_job": ("mhru/job", "lower", 0.25),
    "warm_ms_per_job": ("ms", "lower", None),
    "gs_solves": ("count", "lower", 0.0),
    "jobs_failed_frac": ("ratio", "lower", 0.0),
    "peak_rss_mb": ("MB", "lower", 0.10),
}
#: the metrics divided by the host reference: the ones a run marks
#: ``unresolved`` when its bracketing reference measurements disagree
HOST_NORMALISED = frozenset(name for name in END_TO_END if "hru" in name) | {"setup_s"}
#: the end-to-end metrics every workload reports and none reports as 0: the
#: set BENCHMARK.json lists and a ``--trace 0`` run prints on its last line
CONTRACT_END_TO_END = ("setup_s", "wall_hru_per_fs", "warm_mhru_per_job", "h_apps_per_fs", "peak_rss_mb")
#: BENCHMARK.json's bound where :data:`END_TO_END` says exact: the driver's
#: runs differ in seed, and the seeded time-step jitter moves a per-fs count
CONTRACT_EXACT_BOUND = 0.05


class _Bracketed:
    """Timed sections bracketed by host reference measurements."""

    def __init__(self, reference: HostReference):
        self.reference = reference
        self.samples: dict[str, list[dict]] = {}
        self._before = reference.measure()

    def run(self, label: str, section) -> Outcome:
        """Run ``section()`` -> ``(wall, outcome)`` and record it under
        ``label`` with the mean of the reference walls on either side."""
        wall, outcome = section()
        after = self.reference.measure()
        mean = 0.5 * (self._before + after)
        self.samples.setdefault(label, []).append({
            "wall_s": wall,
            "ref_s": mean,
            "hru": wall / mean,
            "disagreement": abs(after - self._before) / mean,
            "outcome": outcome,
        })
        self._before = after
        return outcome

    def rebracket(self) -> None:
        """Take a fresh 'before' measurement after untimed work."""
        self._before = self.reference.measure()

    def hru(self, label: str) -> float:
        """Median host-normalised wall of the sections under ``label``."""
        return statistics.median(sample["hru"] for sample in self.samples[label])

    def outcomes(self) -> list[Outcome]:
        return [sample["outcome"] for samples in self.samples.values() for sample in samples]


def _end_to_end(workload: Workload, bracketed: _Bracketed, setup: dict[str, list[float]]) -> dict:
    """Per-metric sample lists from the recorded sections."""
    cold = bracketed.samples["default"]
    warm = bracketed.samples["warm"]
    samples: dict[str, list[float]] = {
        **setup,
        "wall_hru_per_fs": [s["hru"] / s["outcome"].fs for s in cold],
        "wall_s_per_fs": [s["wall_s"] / s["outcome"].fs for s in cold],
        "h_apps_per_fs": [s["outcome"].h_apps / s["outcome"].fs for s in cold],
        "warm_mhru_per_job": [1e3 * s["hru"] / s["outcome"].jobs for s in warm],
        "warm_ms_per_job": [1e3 * s["wall_s"] / s["outcome"].jobs for s in warm],
        "steps_failed_frac": [ratio(s["outcome"].steps_failed, s["outcome"].steps) for s in cold],
        "jobs_failed_frac": [ratio(s["outcome"].jobs_failed, s["outcome"].jobs) for s in cold + warm],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }
    if any(s["outcome"].ptcn_steps for s in cold):
        samples["scf_iters_per_step"] = [s["outcome"].scf_iters / s["outcome"].ptcn_steps for s in cold]
    if "lockstep" in bracketed.samples:
        lockstep = bracketed.samples["lockstep"]
        samples["lockstep_wall_hru_per_fs"] = [s["hru"] / s["outcome"].fs for s in lockstep]
    if workload.reports_cold_pass:
        samples["cold_wall_hru"] = [s["hru"] for s in cold]
        samples["cold_wall_s"] = [s["wall_s"] for s in cold]
        samples["gs_solves"] = [float(s["outcome"].gs_solves) for s in cold]
    return samples


def _verdict(outcomes: list[Outcome]) -> dict:
    """Problems (each once), and jobs attempted / failed over ``outcomes``; a
    section with a failed check counts all of its jobs as failed."""
    problems = list(dict.fromkeys(p for outcome in outcomes for p in outcome.problems))
    return {
        "problems": problems,
        "attempted": sum(outcome.jobs for outcome in outcomes),
        "failed": sum(outcome.jobs if outcome.problems else outcome.jobs_failed for outcome in outcomes),
    }


def run_untraced(workload: Workload, reference: HostReference, seconds: float,
                 setup: dict[str, list[float]]) -> dict:
    """The end-to-end measurement: tracing off, every section bracketed."""
    for section in workload.cold_sections:  # one discarded warm-up rep
        workload.cold(section)
    bracketed = _Bracketed(reference)
    started = time.perf_counter()
    reps = 0
    while reps < workload.min_cold_reps or time.perf_counter() - started < COLD_SHARE * seconds:
        for section in workload.cold_sections:
            bracketed.run(section, lambda section=section: workload.cold(section))
        reps += 1
    workload.prepare_warm()
    workload.warm()  # discarded warm-up sample
    bracketed.rebracket()
    started = time.perf_counter()
    taken = 0
    while taken < workload.min_warm_samples or time.perf_counter() - started < (1.0 - COLD_SHARE) * seconds:
        bracketed.run("warm", workload.warm)
        taken += 1

    disagreement = statistics.median(
        sample["disagreement"] for samples in bracketed.samples.values() for sample in samples
    )
    return {
        "samples": _end_to_end(workload, bracketed, setup),
        "sections": {
            label: [{key: value for key, value in sample.items() if key != "outcome"} for sample in samples]
            for label, samples in bracketed.samples.items()
        },
        "bracket_disagreement": disagreement,
        "hru_unresolved": disagreement > MAX_BRACKET_DISAGREEMENT,
        **_verdict(bracketed.outcomes()),
    }


def _traced_phase(workload: Workload, reference: HostReference, section):
    """``TRACE_REPS`` untraced repetitions of ``section`` (the overhead
    baseline), then as many with every layer boundary wrapped, each under a
    tracer of its own that records only inside the timed call. Returns
    (per-metric stats over the traced reps, outcomes, first rep's tracer)."""
    bracketed = _Bracketed(reference)
    for _ in range(TRACE_REPS):
        bracketed.run("untraced", section)
    untraced_hru = bracketed.hru("untraced")
    per_rep, steps, first_tracer = [], [], None
    for _ in range(TRACE_REPS):
        with tracing() as tracer:
            workload.timed_section = lambda: tracer.record(HARNESS_SPAN)
            try:
                outcome = bracketed.run("traced", section)
            finally:
                workload.timed_section = contextlib.nullcontext
        sample = bracketed.samples["traced"][-1]
        per_rep.append(layer_metrics(
            tracer,
            traced_wall=sample["wall_s"],
            overhead=sample["hru"] / untraced_hru - 1.0,
            ledger=outcome.ledger,
            preemptions=outcome.preemptions,
        ))
        steps += step_samples(tracer)
        first_tracer = first_tracer or tracer
    stats = {name: spread([metrics[name] for metrics in per_rep]) for name, _unit in LAYER_METRICS}
    for name, value in step_percentiles(steps).items():  # pooled over the reps
        stats[name] = {"median": value, "iqr": stats[name]["iqr"], "n": len(steps)}
    return stats, bracketed.outcomes(), first_tracer


def run_traced(workload: Workload, reference: HostReference, out_dir: pathlib.Path) -> dict:
    """The per-layer measurement: each cold section and the warm sample, traced."""
    import_all()  # before any bracket: the first patch would otherwise pay for it
    for section in workload.cold_sections:  # one discarded warm-up rep
        workload.cold(section)
    layers, outcomes, tracer = _traced_phase(workload, reference, lambda: workload.cold("default"))
    tracer.dump(out_dir / f"trace-{workload.name}.json")
    result = {
        "layers": layers,
        "components": component_shares(tracer),
        "ground_state_solves": ground_state_table(tracer),
        "gs_solves_ledger": outcomes[-1].gs_solves,
        "sections": {},
    }
    for other in workload.cold_sections[1:]:
        result["sections"][other], more, _ = _traced_phase(
            workload, reference, lambda other=other: workload.cold(other)
        )
        outcomes += more
    workload.prepare_warm()
    workload.warm()  # discarded warm-up sample
    result["warm_layers"], more, _ = _traced_phase(workload, reference, workload.warm)
    result.update(_verdict(outcomes + more))
    result["problems"] += trace_checks(workload, result)
    return result


def trace_checks(workload: Workload, traced: dict) -> list[str]:
    """The per-workload predictions a traced run must confirm."""
    def medians(stats: dict) -> dict:
        return {name: entry["median"] for name, entry in stats.items()}

    cold, warm = medians(traced["layers"]), medians(traced["warm_layers"])
    problems = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    for phase, metrics in (("cold", cold), ("warm", warm)):
        expect(metrics["trace.coverage"] >= 0.95,
               f"{phase} trace.coverage {metrics['trace.coverage']:.3f} < 0.95")
    expect(warm["pw.ground_state.solve_calls"] == 0, "warm sample solved a ground state")
    expect(warm["core.propagators.step_calls"] == 0, "warm sample took propagation steps")
    expect(warm["store.hit_ratio"] == 1.0, f"warm store.hit_ratio {warm['store.hit_ratio']:.3f} != 1")
    for label, metrics in [("default", cold)] + [(k, medians(v)) for k, v in traced["sections"].items()]:
        for name in workload.idle_counts:
            expect(metrics[name] == 0, f"{label}: {name} = {metrics[name]:g}, this workload keeps it idle")
    solves, ledger = cold["pw.ground_state.solve_calls"], traced["gs_solves_ledger"]
    expect(solves == ledger, f"traced section counted {solves:g} ground-state solves, its outcome {ledger}")
    return problems


def contract_layer_metrics(traced: dict) -> dict[str, dict]:
    """The flat per-layer metric set of BENCHMARK.json: every cold-phase
    metric, plus the ``warm.``- and ``lockstep.``-prefixed subsets (the
    latter 0 on a workload without a lockstep section)."""
    units = dict(LAYER_METRICS)
    flat = {name: {"value": traced["layers"][name]["median"], "unit": units[name]} for name in units}
    lockstep = traced["sections"].get("lockstep", {})
    for prefix, names, phase in (("warm", WARM_METRICS, traced["warm_layers"]),
                                 ("lockstep", LOCKSTEP_METRICS, lockstep)):
        for name in names:
            value = phase[name]["median"] if name in phase else 0.0
            flat[f"{prefix}.{name}"] = {"value": value, "unit": units[name]}
    return flat


def _import_in_fresh_interpreter() -> None:
    """What a workload run pays before its first line: a new interpreter
    importing numpy, scipy, ``repro`` and this directory's modules, resolved
    through this process's import path."""
    subprocess.run(
        [sys.executable, "-c", "import harness"], check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: pathlib.Path) -> dict:
    """Set up and measure one workload; returns its result record."""
    scratch = out_dir / f"scratch-{name}-{seed}-{int(trace)}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        reference = HostReference(scratch)
        setups = _Bracketed(reference)

        def build(rep: int):
            start = time.perf_counter()
            _import_in_fresh_interpreter()
            workload = WORKLOADS[name](seed, scratch / f"setup-{rep}")
            failed_checks = workload.setup()
            return time.perf_counter() - start, (workload, failed_checks)

        setup_problems: list[str] = []
        for rep in range(1 if trace else SETUP_REPS):  # only the untraced run reports set-up time
            workload, failed_checks = setups.run("setup", lambda rep=rep: build(rep))
            setup_problems += failed_checks
        setup = {
            "setup_s": [HRU_NOMINAL_S * s["hru"] for s in setups.samples["setup"]],
            "setup_wall_s": [s["wall_s"] for s in setups.samples["setup"]],
        }
        record = {"workload": name, "seed": seed, "trace": trace, "why": workload.why}
        if trace:
            record.update(run_traced(workload, reference, out_dir))
        else:
            record.update(run_untraced(workload, reference, seconds, setup))
            record["stats"] = {metric: spread(values) for metric, values in record["samples"].items()}
        record["problems"] = list(dict.fromkeys(setup_problems)) + record["problems"]
        if record["problems"]:
            record["failed"] = max(record["failed"], 1)
        record["correct"] = not record["problems"]
        record["hostref"] = reference.summary()
        return record
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
