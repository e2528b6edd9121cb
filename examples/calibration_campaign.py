#!/usr/bin/env python
"""Online cost-model calibration and adaptive mid-campaign re-planning.

The cost stack predicts every group's seconds from a hand-pinned model
(``repro.cost.MachineCostModel``); nothing ever consumed the observed wall
times sitting next to those predictions in every execution summary. This
example closes that loop twice over (``repro.calib``):

**Phase A — observe → fit → re-plan.** A skewed two-sweep campaign (ptcn
groups next to rk4 groups) runs through a ``CampaignService`` holding a
``ResultStore``: every finished sweep's predicted-vs-observed pairs are
appended to the store's ``calibration/observations.jsonl``. A second service
over the same store with ``calibration="store"`` fits a
``CalibrationModel`` from the log and admits the same campaign re-priced.
The check is the PR's acceptance inequality: the calibrated model's median
relative prediction error on the cold run's observations is **strictly
below** the uncalibrated model's — while the warm re-run is served 100%
from the store with a bit-identical physics export (calibration never
touches group keys or config hashes) and leaves the observation log
byte-identical (a served job is no observation).

A last sweep at a time step the store has never seen runs under
``calibration="store"`` too, so this pass computes: every observation it
logs must carry the *uncalibrated* model's predicted seconds. Calibration
re-prices the plan, never the prediction the log pairs with reality — a
re-priced prediction fed back into the log would skew every later fit.

**Phase B — drift-triggered work stealing.** The service runner re-packs a
sweep mid-flight: with a deterministic synthetic observer (every ptcn group
runs 3x its prediction, rk4 exactly 1x) the observed/predicted drift crosses
the threshold after two groups, a calibration is fitted from the completed
groups, and the remaining unstarted groups are re-priced and re-packed LPT
across the ranks. The check: the re-packed makespan is **strictly below**
the static plan's, both priced with the final fitted seconds.

The smoke mode is the CI harness (the ``examples`` job): a cold pass
(``--smoke --store DIR``), then a calibrated pass (``--smoke --store DIR
--calibrated``) against the same store.

Usage:
    python examples/calibration_campaign.py                      # walkthrough
    python examples/calibration_campaign.py --smoke --store DIR  # CI cold pass
    python examples/calibration_campaign.py --smoke --store DIR --calibrated
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import pathlib
import statistics
import sys
import tempfile

from repro.api import SimulationConfig
from repro.batch import SweepSpec
from repro.calib import CalibrationModel, ObservationLog
from repro.campaign import Budget, CampaignSpec
from repro.exec import ExecutionSettings, Scheduler
from repro.service import CampaignService, NodePool
from repro.service.runner import run_sweep
from repro.store import ResultStore

#: the tiny semi-local H2 base config every sweep starts from
BASE = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}

#: the time step of the calibrated pass's computing sweep (no other pass uses it)
NEW_DT = 2.0

#: Phase B's synthetic truth — ptcn groups run 3x their prediction
SKEW = {"ptcn": 3.0, "rk4": 1.0}


def build_campaign() -> CampaignSpec:
    """Two skewed sweeps: ptcn cutoff groups next to rk4 dt groups, so the
    calibration fits two distinct (machine, propagator) buckets. The axes
    avoid the base-config point, so a cold run computes everything."""
    base = SimulationConfig.from_dict(BASE)
    return CampaignSpec(
        {
            "ptcn-cutoffs": SweepSpec(base, {"basis.ecut": [1.5, 1.8]}),
            "rk4-cutoffs": SweepSpec(
                base,
                {"propagator.name": ["rk4"], "basis.ecut": [2.2, 2.6]},
            ),
        },
        budget=Budget(max_nodes=1),
    )


def run_campaign(store: ResultStore, *, calibration=None, campaign=None):
    """One campaign pass (default: :func:`build_campaign`) through a
    CampaignService over ``store``."""
    service = CampaignService(
        NodePool("summit", n_nodes=1), store=store, calibration=calibration
    )

    async def body():
        handle = service.submit(campaign or build_campaign(), name="calibration-demo")
        return handle, await handle.report()

    return asyncio.run(body())


def computing_calibrated_pass(store: ResultStore) -> int:
    """One sweep at :data:`NEW_DT` under ``calibration="store"``: it computes
    every job, and each observation it logs must carry the uncalibrated
    scheduler's predicted seconds for its group."""
    spec = SweepSpec(
        SimulationConfig.from_dict(BASE),
        {"basis.ecut": [1.5, 1.8], "run.time_step_as": [NEW_DT]},
    )
    campaign = CampaignSpec({"new-dt": spec}, budget=Budget(max_nodes=1))
    n_logged = len(ObservationLog(store).load())
    handle, report = run_campaign(store, calibration="store", campaign=campaign)
    if not check(report.ok and report.n_cached == 0, "the new-dt sweep did not compute every job"):
        return 1
    if not check("calibration" in handle.plan.as_dict(), "the new-dt sweep was planned uncalibrated"):
        return 1
    settings = handle.plan.settings
    model = Scheduler(settings.schedule, machine=settings.machine_model())
    predicted = {g.index: g.predicted_seconds for g in model.schedule(spec.groups())}
    logged = ObservationLog(store).load()[n_logged:]
    if not check(len(logged) == len(predicted), f"{len(logged)} observations logged, not {len(predicted)}"):
        return 1
    for obs in logged:
        if not check(
            obs.predicted_seconds == predicted[obs.group_index],
            f"group {obs.group_index} logged predicted_seconds {obs.predicted_seconds!r}, "
            f"the uncalibrated model predicts {predicted[obs.group_index]!r}",
        ):
            return 1
    print(
        f"calibrated computing pass: {len(logged)} observations logged at the "
        "uncalibrated model's predicted seconds"
    )
    return 0


def physics_digests(report) -> dict[str, str]:
    """Per-sweep sha256 of the deterministic physics export."""
    return {
        name: hashlib.sha256(report[name].to_json().encode()).hexdigest()
        for name in report.sweep_names
    }


def median_relative_error(observations, model: CalibrationModel) -> float:
    """Median of ``|scale x predicted - observed| / observed`` over the log —
    the uncalibrated error is the same formula with the empty model."""
    errors = [
        abs(model.scale_for(o.machine, o.propagator) * o.predicted_seconds - o.observed_seconds)
        / o.observed_seconds
        for o in observations
        if o.ok
    ]
    return statistics.median(errors) if errors else float("nan")


def adaptive_demo(*, verbose: bool = True) -> dict:
    """Phase B: deterministic drift → re-pack → strictly smaller makespan.

    Four single-propagator groups (propagator zipped against cutoff), two
    ranks; the static LPT pack pairs the two ptcn groups on one rank, so
    once the 3x ptcn skew is observed, stealing one of them is a strict win.
    """
    base = SimulationConfig.from_dict(BASE)
    spec = SweepSpec(
        base,
        {
            "basis.ecut": [2.6, 2.1, 1.8, 1.5],  # four distinct plane-wave sets
            "propagator.name": ["rk4", "ptcn", "ptcn", "rk4"],
        },
        mode="zip",
    )
    settings = ExecutionSettings(machine="summit", ranks=2, schedule="makespan_balanced")

    async def body():
        pool = NodePool("summit", n_nodes=1)
        return await run_sweep(
            spec,
            settings,
            pool,
            name="adaptive-demo",
            adaptive=True,
            observe=lambda g: g.predicted_seconds * SKEW[g.propagator],
        )

    record = asyncio.run(body()).report.execution["adaptive"]
    if verbose:
        static = record.get("static_modeled_makespan_s", float("nan"))
        adaptive = record.get("adaptive_modeled_makespan_s", float("nan"))
        print(
            f"adaptive demo: {record['repacks']} re-pack(s); modeled makespan "
            f"{static:.3g} s static -> {adaptive:.3g} s re-packed"
        )
    return record


def check(condition: bool, message: str) -> bool:
    if not condition:
        print(f"smoke FAILED: {message}", file=sys.stderr)
    return condition


def cold_pass(store: ResultStore) -> int:
    """Run the campaign uncalibrated; populate the observation log."""
    _, report = run_campaign(store)
    print(report.plan_table())
    if not check(report.ok, f"{report.n_failed} job(s) failed"):
        return 1
    observations = ObservationLog(store).load()
    if not check(len(observations) >= 4, f"only {len(observations)} observations logged"):
        return 1
    digests = physics_digests(report)
    (store.root / "physics-digest.json").write_text(json.dumps(digests, indent=2) + "\n")
    uncalibrated_error = median_relative_error(observations, CalibrationModel())
    print(
        f"cold pass: {len(observations)} observations logged; uncalibrated "
        f"median relative prediction error {uncalibrated_error:.3g}"
    )
    return 0


def calibrated_pass(store: ResultStore) -> int:
    """Re-run calibrated from the store's log; check the PR's inequalities."""
    observations = ObservationLog(store).load()
    if not check(bool(observations), "no observations in the store (run the cold pass first)"):
        return 1
    fitted = CalibrationModel.fit(observations)
    uncalibrated_error = median_relative_error(observations, CalibrationModel())
    calibrated_error = median_relative_error(observations, fitted)
    print(f"fit: {fitted.describe()}")
    print(
        f"median relative prediction error on the cold observations: "
        f"{uncalibrated_error:.3g} uncalibrated -> {calibrated_error:.3g} calibrated"
    )
    if not check(
        calibrated_error < uncalibrated_error,
        "calibration did not shrink the median relative prediction error",
    ):
        return 1

    log_before = ObservationLog(store).path.read_bytes()
    handle, report = run_campaign(store, calibration="store")
    print(report.plan_table())
    if not check(report.ok, f"{report.n_failed} job(s) failed"):
        return 1
    if not check(
        "calibration" in handle.plan.as_dict(),
        "the calibrated pass admitted an uncalibrated plan",
    ):
        return 1
    if not check(
        report.n_cached == report.n_jobs,
        f"warm re-run served {report.n_cached}/{report.n_jobs} from the store",
    ):
        return 1
    digest_path = store.root / "physics-digest.json"
    if not check(digest_path.exists(), "no cold-pass digest to compare against"):
        return 1
    if not check(
        json.loads(digest_path.read_text()) == physics_digests(report),
        "calibrated physics export differs from the cold run",
    ):
        return 1
    if not check(
        ObservationLog(store).path.read_bytes() == log_before,
        "the fully served re-run changed calibration/observations.jsonl",
    ):
        return 1
    print("warm re-run: 100% store hits, physics bit-identical to the cold pass, calibration log unchanged")

    adaptive = adaptive_demo()
    if not check(adaptive["repacks"] >= 1, "the adaptive demo never re-packed"):
        return 1
    if not check(
        adaptive["adaptive_modeled_makespan_s"] < adaptive["static_modeled_makespan_s"],
        "re-packing did not beat the static plan's modeled makespan",
    ):
        return 1
    return computing_calibrated_pass(store)


def main(store_root: pathlib.Path | None) -> int:
    """Full walkthrough: cold pass, calibrated pass, adaptive demo."""
    if store_root is None:
        store_root = pathlib.Path(tempfile.mkdtemp(prefix="repro-calib-")) / "store"
    print(f"store root: {store_root}\n")
    print("=== cold pass (uncalibrated; populating the observation log) ===\n")
    if cold_pass(ResultStore(store_root)):
        return 1
    print("\n=== calibrated pass (fit from the log; adaptive demo) ===\n")
    return calibrated_pass(ResultStore(store_root))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="run one CI smoke pass")
    parser.add_argument(
        "--store",
        type=pathlib.Path,
        default=None,
        help="store root directory (required for --smoke; temp dir otherwise)",
    )
    parser.add_argument(
        "--calibrated",
        action="store_true",
        help="smoke: fit from the store's log, re-run calibrated, run the adaptive demo "
        "and one calibrated sweep that computes",
    )
    args = parser.parse_args()
    if args.smoke:
        if args.store is None:
            parser.error("--smoke requires --store DIR (the CI job reuses it across passes)")
        store = ResultStore(args.store)
        sys.exit(calibrated_pass(store) if args.calibrated else cold_pass(store))
    sys.exit(main(args.store))
