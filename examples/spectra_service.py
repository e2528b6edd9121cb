#!/usr/bin/env python
"""(material, pulse) absorption queries served by assets + campaigns + store.

The :mod:`repro.assets` library turns *scenario count* into a growth axis:
every material and pulse is an ``asset:`` id whose content digest flows into
job hashes, so any (material, pulse) combination is addressable, cacheable,
and reproducible. This example runs a **pump-probe fluence sweep over three
materials** through a :class:`~repro.service.CampaignService` backed by a
:class:`~repro.store.ResultStore`, then answers individual (material, pulse)
queries from the same store — a warm query is a pure cache hit: zero SCF
solves, zero propagation steps, bit-identical physics.

The ground state is field-free, so each material's fluence sweep is one group
sharing one SCF: a cold pass solves exactly as many ground states as there are
materials (the smoke fails otherwise).

The smoke mode is the CI harness: the ``examples`` job runs it twice against
one store directory (second pass with ``--expect-warm``).

Usage:
    python examples/spectra_service.py                           # walkthrough (cold + warm + query)
    python examples/spectra_service.py --smoke --store DIR       # one CI pass (cold)
    python examples/spectra_service.py --smoke --store DIR --expect-warm
    python examples/spectra_service.py --query asset:structure/h2-box@1 \\
        --pulse asset:pulse/pump-probe-380+760@1 --store DIR
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import pathlib
import sys
import tempfile

from repro.api import SimulationConfig
from repro.batch import SweepSpec
from repro.campaign import Budget, CampaignSpec
from repro.service import CampaignService, NodePool
from repro.store import ResultStore

#: the three materials of the demo campaign — all tiny enough for CI
MATERIALS = (
    "asset:structure/h2-box@1",
    "asset:structure/h4-chain@1",
    "asset:structure/n2-box@1",
)

#: the pump-probe pulse asset driving every scenario
PULSE = "asset:pulse/pump-probe-380+760@1"

#: pump fluences swept per material (Hartree/Bohr^2)
FLUENCES = (1.0e-7, 4.0e-7)

#: every job: semi-local XC, tiny basis, a handful of 1 as steps
BASE = {
    "system": {"structure": MATERIALS[0]},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "laser": {"pulse": PULSE, "params": {"fluence": FLUENCES[0], "duration_fs": 0.005}},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}


def build_campaign() -> CampaignSpec:
    """One sweep per material, each sweeping the pump fluence — 3 materials x
    2 fluences = 6 scenarios."""
    sweeps = {}
    for material in MATERIALS:
        name = material.split("/")[-1].split("@")[0]
        base = SimulationConfig.from_dict(BASE).with_overrides({"system.structure": material})
        sweeps[f"spectra-{name}"] = SweepSpec(base, {"laser.params.fluence": list(FLUENCES)})
    return CampaignSpec(sweeps, budget=Budget(max_nodes=1))


def install_counters() -> dict:
    """Wrap the SCF solver and the propagation driver with call counters — the
    'zero recompute on a warm store' claim is measured, not assumed."""
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


def run_campaign(store: ResultStore):
    """One campaign pass through a CampaignService over ``store``."""
    counts = install_counters()
    service = CampaignService(NodePool("summit", n_nodes=1), store=store)

    async def body():
        handle = service.submit(build_campaign(), name="spectra-demo")
        return await handle.report()

    return asyncio.run(body()), counts


def physics_digests(report) -> dict[str, str]:
    """Per-sweep sha256 of the physics export (timings/provenance excluded) —
    what 'bit-identical across cold and warm' is checked against."""
    return {
        name: hashlib.sha256(report[name].to_json().encode()).hexdigest()
        for name in report.sweep_names
    }


def missing_asset_provenance(report) -> list[str]:
    """Job ids whose summary lacks the asset id -> digest provenance stamp
    (must be empty: every scenario is asset-driven)."""
    missing = []
    for name in report.sweep_names:
        for result in report[name].results:
            assets = result.summary.get("assets", {})
            if not (result.config["system"]["structure"] in assets and
                    result.config["laser"]["pulse"] in assets):
                missing.append(result.job_id)
    return missing


def answer_query(store: ResultStore, material: str, pulse: str, fluence: float) -> dict:
    """Answer one (material, pulse) absorption query through the service.

    A scenario already computed against this store is served as a cache hit;
    a new combination is computed and stored, extending the library of
    answered scenarios monotonically.
    """
    base = SimulationConfig.from_dict(BASE).with_overrides(
        {"system.structure": material, "laser.pulse": pulse, "laser.params.fluence": fluence}
    )
    spec = CampaignSpec({"query": SweepSpec(base)}, budget=Budget(max_nodes=1))
    service = CampaignService(NodePool("summit", n_nodes=1), store=store)

    async def body():
        handle = service.submit(spec, name="spectra-query")
        return await handle.report()

    report = asyncio.run(body())
    result = report["query"].results[0]
    return {
        "material": material,
        "pulse": pulse,
        "fluence": fluence,
        "status": result.status,
        "final_dipole": result.summary.get("final_dipole"),
        "final_energy": result.summary.get("final_energy"),
        "assets": result.summary.get("assets", {}),
    }


def smoke(store_root: pathlib.Path, expect_warm: bool) -> int:
    """One CI pass; with ``--expect-warm`` it must be 100% hits, zero SCF
    solves, zero propagation steps, and bit-identical to the cold pass."""
    store = ResultStore(store_root)
    report, counts = run_campaign(store)
    if not report.ok:
        print(f"smoke FAILED: {report.n_failed} job(s) failed", file=sys.stderr)
        return 1

    missing = missing_asset_provenance(report)
    if missing:
        print(f"smoke FAILED: jobs missing asset provenance: {missing}", file=sys.stderr)
        return 1

    digests = physics_digests(report)
    digest_path = store.root / "spectra-digest.json"
    if expect_warm:
        if report.n_cached != report.n_jobs:
            print(
                f"smoke FAILED: warm pass served {report.n_cached}/{report.n_jobs} "
                "scenarios from the store",
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
            print("smoke FAILED: warm physics export differs from the cold run", file=sys.stderr)
            return 1
        print("warm pass: 100% hits, zero SCF solves, zero propagation steps, physics bit-identical")
    else:
        if report.n_cached == 0 and counts["scf_solves"] != len(MATERIALS):
            # the ground state is field-free: a fluence sweep shares its material's SCF
            print(
                f"smoke FAILED: cold pass ran {counts['scf_solves']} SCF solves "
                f"for {len(MATERIALS)} distinct materials",
                file=sys.stderr,
            )
            return 1
        if report.n_cached < report.n_jobs and not counts["propagation_steps"]:
            # a pass that computed scenarios must have stepped: a dead counter
            # would let the warm pass's zero-steps check pass vacuously
            print(
                f"smoke FAILED: cold pass computed {report.n_jobs - report.n_cached} "
                "scenario(s) but counted 0 propagation steps",
                file=sys.stderr,
            )
            return 1
        digest_path.write_text(json.dumps(digests, indent=2) + "\n")
        print(
            f"cold pass: {report.n_jobs} scenarios over {len(MATERIALS)} materials "
            f"({counts['scf_solves']} SCF solves, {counts['propagation_steps']} steps)"
        )
    return 0


def main(store_root: pathlib.Path | None) -> int:
    """Walkthrough: cold campaign, warm campaign, then a cached query."""
    if store_root is None:
        store_root = pathlib.Path(tempfile.mkdtemp(prefix="repro-spectra-")) / "store"
    print(f"store root: {store_root}\n")

    print("=== cold pass: pump-probe fluence sweep over 3 materials ===\n")
    store = ResultStore(store_root)
    cold_report, cold_counts = run_campaign(store)
    print(cold_report.plan_table())

    print("\n=== warm pass (same campaign, same store) ===\n")
    warm_report, warm_counts = run_campaign(ResultStore(store_root))
    identical = physics_digests(warm_report) == physics_digests(cold_report)
    print(
        f"warm pass served {warm_report.n_cached}/{warm_report.n_jobs} scenarios from the store "
        f"({warm_counts['scf_solves']} SCF solves, {warm_counts['propagation_steps']} steps); "
        f"physics bit-identical to cold: {identical}"
    )

    print("\n=== query: (h2-box, pump-probe) from the warm store ===\n")
    answer = answer_query(ResultStore(store_root), MATERIALS[0], PULSE, FLUENCES[0])
    print(json.dumps(answer, indent=2))
    return 0 if identical and answer["status"] == "cached" else 1


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
    parser.add_argument("--query", default=None, help="material asset id to query")
    parser.add_argument("--pulse", default=PULSE, help="pulse asset id for --query")
    parser.add_argument("--fluence", type=float, default=FLUENCES[0], help="pump fluence for --query")
    args = parser.parse_args()
    if args.query:
        if args.store is None:
            parser.error("--query requires --store DIR (the store is the answer cache)")
        print(json.dumps(answer_query(ResultStore(args.store), args.query, args.pulse, args.fluence), indent=2))
        sys.exit(0)
    if args.smoke:
        if args.store is None:
            parser.error("--smoke requires --store DIR (the CI job reuses it across passes)")
        sys.exit(smoke(args.store, args.expect_warm))
    sys.exit(main(args.store))
