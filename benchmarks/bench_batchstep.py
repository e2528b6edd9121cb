"""Lockstep group width: the ``BENCH_batchstep`` artifact.

The paper propagates many related rt-TDDFT runs (dt sweeps, pulse scans) whose
jobs share one ground-state group. There is one propagation engine — lockstep
``step_many`` through ``Session.propagate_many`` — and the width of the stack
it advances is the only thing that varies: per-stage transforms stacked across
jobs, the end-of-step transform and potential reused by the next step's first
stage, record observables evaluated from the already-consistent densities,
with every job getting exactly the floats it gets alone. This benchmark
measures what stacking buys on the silicon reference system: the same w jobs
on one shared ground state, advanced as w width-1 ``propagate_many`` calls
("solo") vs one width-w call ("batched"), checks on every repetition that the
two give bit-identical trajectories, and emits the ``BENCH_batchstep.json``
perf artifact uploaded by CI.

Measurement protocol: the two sides alternate inside one process and each
takes its best-of-N per-step wall clock — per-step wall is the sum of the
jobs' trajectory wall times over the total steps taken, so both sides are
charged exactly for their propagation loops (the shared ground state is
converged once, outside the timing, and adopted by every session).
"""

import hashlib
import json
import os

from repro.analysis import format_table
from repro.api import Session, SimulationConfig
from repro.perf.sweep_cost import BATCH_STEPPING_EFFICIENCY

#: the silicon reference system: the 8-atom diamond cell with the empirical
#: local pseudopotential, semi-local LDA, RK4 at a conservative step —
#: complex128 throughout (the default precision tier)
_SI_BASE = {
    "system": {"structure": "diamond_silicon", "params": {"empirical": True}},
    "basis": {"ecut": 2.5, "grid_factor": 1.0},
    "xc": {"hybrid_mixing": 0.0},
    "propagator": {"name": "rk4"},
    "run": {"time_step_as": 1.0, "n_steps": 40, "gs_scf_tolerance": 1e-6},
}

_SMOKE = bool(int(os.environ.get("BENCH_BATCHSTEP_SMOKE", "0")))
#: alternating solo/batched repetitions per row after the warming pair; each
#: side keeps its best
_REPEATS = 2 if _SMOKE else 3
_WIDTHS = (1, 4) if _SMOKE else (1, 2, 4, 8)
_N_STEPS = 12 if _SMOKE else 40


def _jobs(width: int, propagator: str, n_steps: int) -> tuple[SimulationConfig, list[dict]]:
    """The group's shared config and its ``width`` propagation requests (a dt sweep)."""
    config = json.loads(json.dumps(_SI_BASE))
    config["propagator"] = {"name": propagator}
    config["run"]["n_steps"] = n_steps
    if propagator == "ptcn":
        config["run"]["time_step_as"] = 10.0
    base_dt = config["run"]["time_step_as"]
    dts = [round(base_dt * (1.0 + 0.02 * k), 6) for k in range(width)]
    return SimulationConfig.from_dict(config), [{"time_step_as": dt} for dt in dts]


def _per_step_wall(trajectories) -> float:
    """Seconds of propagation wall clock per job-step across the group."""
    return sum(t.wall_time for t in trajectories) / sum(t.n_steps for t in trajectories)


def _export(trajectories) -> str:
    """Everything deterministic about a group's trajectories, as one string."""
    rows = []
    for trajectory in trajectories:
        row = trajectory.to_dict()
        del row["wall_time"]
        coefficients = trajectory.final_wavefunction.coefficients
        row["final_coefficients"] = hashlib.sha256(coefficients.tobytes()).hexdigest()
        rows.append(row)
    return json.dumps(rows, sort_keys=True)


def _measure(width: int, propagator: str = "rk4", n_steps: int = _N_STEPS) -> dict:
    """One artifact row: interleaved best-of-N per-step walls of ``width``
    width-1 calls vs one width-``width`` call."""
    config, requests = _jobs(width, propagator, n_steps)
    ground_state = Session(config).ground_state()

    def session() -> Session:
        fresh = Session(config)  # sessions cache trajectories: a new one per run
        fresh.adopt_ground_state(ground_state)
        return fresh

    def solo():
        one = session()
        return [one.propagate_many([request])[0] for request in requests]

    def batched():
        return session().propagate_many(requests)

    solo_walls, batched_walls = [], []
    identical = True
    for _ in range(_REPEATS + 1):  # the first pair warms FFT plans, memoised operators, BLAS
        alone, together = solo(), batched()
        solo_walls.append(_per_step_wall(alone))
        batched_walls.append(_per_step_wall(together))
        identical = identical and _export(alone) == _export(together)

    solo_best = min(solo_walls)
    batched_best = min(batched_walls)
    return {
        "propagator": propagator,
        "width": width,
        "precision": "complex128",
        "n_steps": n_steps,
        "solo_per_step_ms": 1e3 * solo_best,
        "batched_per_step_ms": 1e3 * batched_best,
        "speedup": solo_best / batched_best,
        "exports_identical": identical,
        "model_efficiency": BATCH_STEPPING_EFFICIENCY,
    }


def test_batchstep_width_scaling(results_dir, report_writer):
    """Emit ``BENCH_batchstep.json``: per-step wall vs group width, w width-1
    calls ("solo") against one width-w call ("batched").

    Schema: ``{"schema": "bench_batchstep/1", "rows": [{propagator, width,
    precision, n_steps, solo_per_step_ms, batched_per_step_ms, speedup,
    exports_identical, model_efficiency}, ...]}``. The width-4 RK4 row is the
    headline number backing ``BATCH_STEPPING_EFFICIENCY`` in the sweep cost
    model; PT-CN rides along to document the implicit propagator's smaller
    (inner-iteration-bound) amortization.
    """
    rows = [_measure(width) for width in _WIDTHS]
    rows.append(_measure(4, propagator="ptcn"))

    artifact = {"schema": "bench_batchstep/1", "rows": rows}
    path = results_dir / "BENCH_batchstep.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"\n[BENCH_batchstep] wrote {path}")

    report_writer(
        "batchstep_width_scaling",
        format_table(
            ["propagator", "width", "precision", "solo [ms/step]",
             "batched [ms/step]", "speedup", "identical"],
            [
                [r["propagator"], r["width"], r["precision"], r["solo_per_step_ms"],
                 r["batched_per_step_ms"], f"{r['speedup']:.2f}x", r["exports_identical"]]
                for r in rows
            ],
        ),
    )

    # physics must be bit-identical at every width. The timing check is
    # relative to this session: the width-1 row makes the same call on both
    # sides, so its ratio is the noise band, and stacking four jobs must not
    # come out slower than solo by more than that band. A fixed speedup floor
    # measured the host instead (the width-4 row reads 0.92-1.32x across
    # 2-core hosts)
    assert all(r["exports_identical"] for r in rows)
    width1 = next(r for r in rows if r["width"] == 1)
    assert width1["speedup"] > 0.5  # the same call on both sides: noise only
    noise_floor = min(width1["speedup"], 1.0 / width1["speedup"])
    width4 = next(r for r in rows if r["width"] == 4 and r["propagator"] == "rk4")
    assert width4["speedup"] > noise_floor, (width4["speedup"], noise_floor)
