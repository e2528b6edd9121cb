#!/usr/bin/env python
"""Incremental campaigns over the content-addressed result store.

``repro.store.ResultStore`` keys every job result by the hash of its expanded
config and every ground state by its sharing group, so *any* sweep, campaign
or service tenant pointed at the same store root serves completed work as
cache hits instead of recomputing it. This example runs one budget-planned
campaign against a store and reports the hit ledger; pointed at the same
store a second time it performs **zero** SCF solves and **zero** propagation
steps while producing a physics export bit-identical to the cold run — the
acceptance contract of the store layer, counted and checked in-process.

The smoke mode is the CI harness: the ``examples`` job runs it twice against
one store directory (second pass with ``--expect-warm``).

Usage:
    python examples/incremental_campaign.py                      # walkthrough (cold + warm)
    python examples/incremental_campaign.py --smoke --store DIR  # one CI pass (cold)
    python examples/incremental_campaign.py --smoke --store DIR --expect-warm
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import tempfile

from repro.api import Budget, SimulationConfig, plan
from repro.batch import SweepSpec
from repro.store import ResultStore

#: the tiny semi-local H2 base every sweep of the demo campaign starts from
BASE = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}


def build_campaign() -> dict[str, SweepSpec]:
    """Two sweeps, five jobs, four ground-state groups on three SCFs (2.2 Ha
    selects the base's 2.0 Ha plane waves, so the dt sweep adopts that SCF);
    the axes avoid the base-config point so the sweeps do not overlap and a
    cold run is 0 hits."""
    base = SimulationConfig.from_dict(BASE)
    return {
        "cutoff-scan": SweepSpec(base, {"basis.ecut": [1.5, 1.8, 2.2]}),
        "dt-scan": SweepSpec(base, {"run.time_step_as": [2.0, 3.0]}),
    }


def install_counters() -> dict:
    """Wrap the SCF solver and the propagation driver with call counters — the
    smoke's 'zero recompute on a warm store' claim is measured, not assumed."""
    import repro.api.session
    import repro.core.dynamics
    from repro.pw.ground_state import GroundStateSolver

    counts = {"scf_solves": 0, "propagation_steps": 0}
    original_solve = GroundStateSolver.solve
    original_run_batched = repro.core.dynamics.run_batched

    def counting_solve(self, *args, **kwargs):
        counts["scf_solves"] += 1
        return original_solve(self, *args, **kwargs)

    def counting_run_batched(runs):
        counts["propagation_steps"] += sum(int(run.n_steps) for run in runs)
        return original_run_batched(runs)

    GroundStateSolver.solve = counting_solve
    # every job propagates through run_batched: patch the driver module's own
    # binding (TDDFTSimulation.run resolves it there) and the session's
    # from-import of it
    repro.core.dynamics.run_batched = counting_run_batched
    repro.api.session.run_batched = counting_run_batched
    return counts


def physics_digests(report) -> dict[str, str]:
    """Per-sweep sha256 of the physics export (timings/provenance excluded) —
    what 'bit-identical across cold and warm' is checked against."""
    return {
        name: hashlib.sha256(report[name].to_json().encode()).hexdigest()
        for name in report.sweep_names
    }


def run_pass(store: ResultStore, *, verbose: bool = True):
    """Plan and execute the demo campaign against ``store``."""
    counts = install_counters()
    budget = Budget(max_wall_seconds=60.0, max_ranks=4)
    report = plan(build_campaign(), budget).execute(store=store)
    if verbose:
        print(report.plan_table())
        print()
    return report, counts


def smoke(store_root: pathlib.Path, expect_warm: bool) -> int:
    """One CI pass; with ``--expect-warm`` it must be 100% hits, zero SCF
    solves, zero propagation steps, bit-identical to the cold pass, and leave
    the calibration log byte-identical (a served job is no observation)."""
    store = ResultStore(store_root)
    log = store.observation_log().path
    log_before = log.read_bytes() if log.exists() else None
    report, counts = run_pass(store)
    if not report.ok:
        print(f"smoke FAILED: {report.n_failed} job(s) failed", file=sys.stderr)
        return 1

    digests = physics_digests(report)
    digest_path = store.root / "physics-digest.json"
    if expect_warm:
        if report.n_cached != report.n_jobs:
            print(
                f"smoke FAILED: warm pass served {report.n_cached}/{report.n_jobs} "
                "jobs from the store",
                file=sys.stderr,
            )
            return 1
        if counts["scf_solves"] or counts["propagation_steps"]:
            print(
                f"smoke FAILED: warm pass recomputed ({counts['scf_solves']} SCF "
                f"solves, {counts['propagation_steps']} propagation steps)",
                file=sys.stderr,
            )
            return 1
        if not digest_path.exists():
            print("smoke FAILED: no cold-pass digest to compare against", file=sys.stderr)
            return 1
        if json.loads(digest_path.read_text()) != digests:
            print(
                "smoke FAILED: warm physics export differs from the cold run",
                file=sys.stderr,
            )
            return 1
        if (log.read_bytes() if log.exists() else None) != log_before:
            print(
                "smoke FAILED: the fully served pass changed calibration/observations.jsonl",
                file=sys.stderr,
            )
            return 1
        print(
            "warm pass: 100% hits, zero SCF solves, zero propagation steps, physics "
            "bit-identical, calibration log unchanged"
        )
    else:
        if report.n_cached < report.n_jobs and not counts["propagation_steps"]:
            # a pass that computed jobs must have stepped: a dead counter
            # would let the warm pass's zero-steps check pass vacuously
            print(
                f"smoke FAILED: cold pass computed {report.n_jobs - report.n_cached} "
                "job(s) but counted 0 propagation steps",
                file=sys.stderr,
            )
            return 1
        digest_path.write_text(json.dumps(digests, indent=2) + "\n")
        print(
            f"cold pass: {report.n_jobs} jobs computed "
            f"({counts['scf_solves']} SCF solves, {counts['propagation_steps']} steps)"
        )

    ledger = store.ledger()
    print(
        f"smoke ok: store at {store.root} holds {ledger['objects']} objects "
        f"({ledger['object_bytes']} bytes), {ledger['result_manifests']} results, "
        f"{ledger['ground_state_manifests']} ground states"
    )
    return 0


def main(store_root: pathlib.Path | None) -> int:
    """Full walkthrough: cold pass, then a warm pass against the same store."""
    if store_root is None:
        store_root = pathlib.Path(tempfile.mkdtemp(prefix="repro-store-")) / "store"
    print(f"store root: {store_root}\n")
    print("=== cold pass (everything computed) ===\n")
    store = ResultStore(store_root)
    cold_report, cold_counts = run_pass(store)

    print("\n=== warm pass (same campaign, same store) ===\n")
    warm_report, warm_counts = run_pass(ResultStore(store_root))

    identical = physics_digests(warm_report) == physics_digests(cold_report)
    print(
        f"\nwarm pass served {warm_report.n_cached}/{warm_report.n_jobs} jobs from the store "
        f"({warm_counts['scf_solves']} SCF solves, {warm_counts['propagation_steps']} propagation "
        f"steps); physics bit-identical to cold: {identical}"
    )
    return 0 if identical else 1


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
        "--expect-warm",
        action="store_true",
        help="smoke: require 100%% hits / zero compute / bit-identical physics",
    )
    args = parser.parse_args()
    if args.smoke:
        if args.store is None:
            parser.error("--smoke requires --store DIR (the CI job reuses it across passes)")
        sys.exit(smoke(args.store, args.expect_warm))
    sys.exit(main(args.store))
