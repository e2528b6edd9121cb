#!/usr/bin/env python3
"""The repo's benchmark: four workloads through the whole stack, end-to-end
metrics with tracing off, per-layer metrics from separate traced reps.

    python3 benchmarks/layers/run.py --seed 0            # everything, one JSON result
    python3 benchmarks/layers/run.py --seed 0 --repeat 2 # ... twice, then compared
    python3 benchmarks/layers/run.py --compare A.json B.json
    python3 benchmarks/layers/run.py --workload si8_hse_ptcn --seed 3 --seconds 18 --trace 0

The last form measures one workload in this process and prints one JSON
object on its last line (the BENCHMARK.json contract); the first runs it once
per workload and trace setting, each in a fresh subprocess, one at a time.
Metrics, workloads and the ``hru`` unit are defined in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
SCHEMA = "repro.bench.layers/1"
THREAD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "REPRO_FFT_WORKERS": "1",
}
WORKLOAD_NAMES = ("si8_hse_ptcn", "si8_hse_rk4", "si8_lda_sweep", "h2_campaign")
DEFAULT_SECONDS = 18.0


def _enter() -> None:
    """Pin every math library to one thread and put ``src/`` and this
    directory on the import path — before numpy is first imported."""
    os.environ.update(THREAD_ENV)
    for path in (ROOT / "src", HERE):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------


def _row(name: str, unit: str, stats: dict) -> str:
    return f"  {name:<42} {unit:<9} {stats['median']:>14.6g} {stats['iqr']:>12.3g} {stats['n']:>5}"


def _print_end_to_end(record: dict) -> None:
    from harness import END_TO_END, HOST_NORMALISED

    print(f"\n[{record['workload']}] end-to-end, tracing off (seed {record['seed']})")
    print(f"  {'metric':<42} {'unit':<9} {'median':>14} {'IQR':>12} {'n':>5}")
    for name, (unit, _better, _bound) in END_TO_END.items():
        if name in record["stats"]:
            flag = "  unresolved" if record["hru_unresolved"] and name in HOST_NORMALISED else ""
            print(_row(name, unit, record["stats"][name]) + flag)
    hostref = record["hostref"]
    print(f"  host reference: median {hostref['median_s']:.4f} s, "
          f"IQR/median {hostref['iqr_over_median']:.3f}, "
          f"bracket disagreement {record['bracket_disagreement']:.3f}")


def _print_layers(record: dict, units: dict, always: dict[str, list[str]]) -> None:
    """Every per-layer metric of the cold section; of the other sections the
    ``always`` rows plus whatever is not zero."""
    phases = [("cold", record["layers"])]
    phases += [(label, stats) for label, stats in record["sections"].items()]
    phases.append(("warm", record["warm_layers"]))
    print(f"\n[{record['workload']}] per layer, traced reps (seed {record['seed']})")
    for label, stats in phases:
        print(f" {label}:")
        print(f"  {'metric':<42} {'unit':<9} {'median':>14} {'IQR':>12} {'n':>5}")
        for name, unit in units.items():
            if label == "cold" or name in always.get(label, ()) or stats[name]["median"]:
                print(_row(name, unit, stats[name]))


def _print_component_shares(record: dict) -> None:
    """Executed Table 1 / Fig. 9 shares beside the ``repro.perf`` modeled ones."""
    from repro.perf import PWDFTPerformanceModel, SiliconWorkload

    def modeled(natoms: int, n_gpus: int) -> dict:
        times = PWDFTPerformanceModel(SiliconWorkload.from_atom_count(natoms)).scf_component_times(n_gpus)
        return {
            "Fock exchange": times.fock_total / times.per_scf_total,
            "local + FFT": times.local_semilocal / times.per_scf_total,  # the model's row includes nonlocal
            "Anderson mixing": times.anderson_total / times.per_scf_total,
            "density/Poisson/xc": times.density_total / times.per_scf_total,
            "other (residual GEMMs, step glue)": (times.residual_total + times.others) / times.per_scf_total,
        }

    si8, paper = modeled(8, 1), modeled(1536, 768)
    print(f"\n[{record['workload']}] share of the time under core.dynamics.run (Table 1 / Fig. 9)")
    print(f"  {'component':<36} {'executed':>9} {'model Si8, 1 GPU':>18} {'model Si1536, 768 GPUs':>24}")
    for name, share in record["components"].items():
        columns = "".join(
            f"{100 * model[name]:>{width - 2}.1f} %" if name in model else f"{'-':>{width}}"
            for model, width in ((si8, 18), (paper, 24))
        )
        print(f"  {name:<36} {100 * share:>7.1f} %{columns}")


def _print_ground_state_solves(record: dict) -> None:
    rows = record["ground_state_solves"]
    repeated = sum(1 for row in rows if row["repeats"] is not None)
    print(f"\n[{record['workload']}] ground-state solves of one cold pass: {len(rows)}, "
          f"{repeated} of them repeat an identical (structure, basis, xc)")
    print(f"  {'#':>3} {'identity':<10} {'ecut':>6} {'npw':>6} {'SCF its':>8} {'seconds':>9}  repeats")
    for number, row in enumerate(rows, start=1):
        repeats = "" if row["repeats"] is None else f"#{row['repeats']}"
        print(f"  {number:>3} {row['identity']:<10} {row['ecut']:>6.2f} {row['npw']:>6} "
              f"{row['scf_iterations']:>8} {row['seconds']:>9.4f}  {repeats}")


def run_one(args: argparse.Namespace) -> int:
    """``--workload``: measure it here; last stdout line is the contract's JSON."""
    _enter()
    import harness  # numpy, scipy and repro are first imported here
    from layers import LAYER_METRICS, LOCKSTEP_METRICS, WARM_METRICS

    OUT_DIR.mkdir(exist_ok=True)
    record = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    if args.trace:
        _print_layers(record, dict(LAYER_METRICS), {"warm": WARM_METRICS, "lockstep": LOCKSTEP_METRICS})
        if args.workload == "si8_hse_ptcn":
            _print_component_shares(record)
        if args.workload == "h2_campaign":
            _print_ground_state_solves(record)
        metrics = harness.contract_layer_metrics(record)
    else:
        _print_end_to_end(record)
        metrics = {
            name: {"value": record["stats"][name]["median"], "unit": harness.END_TO_END[name][0]}
            for name in harness.CONTRACT_END_TO_END
        }
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}")
    if args.record:
        pathlib.Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


# ---------------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ---------------------------------------------------------------------------


def _command_output(*command: str) -> str | None:
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else None


def env_stamp(seed: int, seconds: float) -> dict:
    """Where and with what the numbers were taken."""
    import numpy
    import scipy
    from repro.pw.fft import plan_cache_info

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    return {
        "git_commit": _command_output("git", "rev-parse", "HEAD"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "fft_backend": plan_cache_info()["backend"],
        "thread_env": THREAD_ENV,
        "cpu_model": cpu or platform.processor() or None,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "seconds": seconds,
    }


def run_all(seed: int, seconds: float, out_path: pathlib.Path) -> bool:
    """Run every workload untraced and traced, print as they go, write one
    JSON result; returns whether every check passed."""
    _enter()
    from hostref import spread  # imports numpy: after the thread pinning

    OUT_DIR.mkdir(exist_ok=True)
    result = {"schema": SCHEMA, "env": env_stamp(seed, seconds), "workloads": {}}
    print(f"env: {json.dumps(result['env'], sort_keys=True)}")
    reference_walls, correct = [], True
    for name in WORKLOAD_NAMES:
        entry = result["workloads"][name] = {}
        for trace in (0, 1):
            record_path = OUT_DIR / f"record-{name}-{seed}-{trace}.json"
            record_path.unlink(missing_ok=True)
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace), "--record", str(record_path)],
                cwd=ROOT,
            )
            if not record_path.exists():
                print(f"[{name}] --trace {trace} exited with code {done.returncode} and no record")
                correct = False
                continue
            record = json.loads(record_path.read_text())
            record_path.unlink()
            correct = correct and done.returncode == 0 and record["correct"]
            entry["traced" if trace else "untraced"] = record
            reference_walls.append(record["hostref"])
    # the children's reference summaries, pooled by their medians
    pooled = spread([summary["median_s"] for summary in reference_walls])
    result["env"]["hostref"] = {
        "median_s": pooled["median"], "iqr_s": pooled["iqr"], "per_run": reference_walls,
    }
    result["env"]["reps"] = {  # timed sections per workload, by kind (default / lockstep / warm)
        name: {label: len(sections) for label, sections in entry["untraced"]["sections"].items()}
        for name, entry in result["workloads"].items() if "untraced" in entry
    }
    result["env"]["loadavg_end"] = list(os.getloadavg())
    result["correct"] = correct
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"\n{'every check passed' if correct else 'CHECKS FAILED'}; result written to {out_path}")
    return correct


# ---------------------------------------------------------------------------
# Comparing two results
# ---------------------------------------------------------------------------


def compare(path_a: pathlib.Path, path_b: pathlib.Path) -> bool:
    """Per (workload, end-to-end metric): both medians and IQRs, B's relative
    difference from A, the bound and a verdict. Returns whether all are ok.

    ``regressed``: B's median is worse than A's by more than the bound (an
    exact metric: differs at all). ``unresolved``: not regressed, but either
    run flagged its host-normalised values, or the spread of either median
    (IQR / sqrt(n), as a share of the median) is wider than the bound.
    ``info``: a raw-second metric, shown and not judged.
    """
    _enter()
    from harness import END_TO_END, HOST_NORMALISED

    a, b = (json.loads(path.read_text()) for path in (path_a, path_b))
    print(f"A = {path_a} (commit {a['env']['git_commit']}, seed {a['env']['seed']})")
    print(f"B = {path_b} (commit {b['env']['git_commit']}, seed {b['env']['seed']})")
    print(f"{'workload':<14} {'metric':<26} {'median A':>12} {'IQR A':>10} {'median B':>12} {'IQR B':>10} "
          f"{'B vs A':>8} {'bound':>6}  verdict")
    all_ok = True
    for name in WORKLOAD_NAMES:
        runs = [side["workloads"][name].get("untraced") for side in (a, b)]
        if None in runs:
            print(f"{name:<14} missing from one of the results")
            all_ok = False
            continue
        for metric, (_unit, better, bound) in END_TO_END.items():
            if metric not in runs[0]["stats"] or metric not in runs[1]["stats"]:
                continue
            (sa, sb) = (run["stats"][metric] for run in runs)
            base = abs(sa["median"])
            worse = (sb["median"] - sa["median"]) * (1.0 if better == "lower" else -1.0)
            relative = worse / base if base else (0.0 if worse == 0 else float("inf"))
            if bound is None:
                verdict = "info"
            elif bound == 0.0:
                verdict = "ok" if sa["median"] == sb["median"] else "regressed"
            elif relative > bound:
                verdict = "regressed"
            elif metric in HOST_NORMALISED and (runs[0]["hru_unresolved"] or runs[1]["hru_unresolved"]):
                verdict = "unresolved"
            elif any(s["median"] and s["iqr"] / s["n"] ** 0.5 / abs(s["median"]) > bound for s in (sa, sb)):
                verdict = "unresolved"
            else:
                verdict = "ok"
            all_ok = all_ok and verdict in ("ok", "info")
            bound_text = "-" if bound is None else "exact" if bound == 0.0 else f"{bound:.2f}"
            print(f"{name:<14} {metric:<26} {sa['median']:>12.6g} {sa['iqr']:>10.3g} {sb['median']:>12.6g} "
                  f"{sb['iqr']:>10.3g} {100 * relative:>+7.1f}% {bound_text:>6}  {verdict}")
    print("all ok" if all_ok else "NOT all ok")
    return all_ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="measure one workload in this process")
    parser.add_argument("--seed", type=int, default=0, help="draws dt jitter, amplitudes, tenant order")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the traced per-layer run")
    parser.add_argument("--record", help="with --workload: also write the full record to this file")
    parser.add_argument("--out", type=pathlib.Path, help="result file (default: out/layers-seed<seed>.json)")
    parser.add_argument("--repeat", type=int, default=1, help="run everything this often, compare 1 with 2")
    parser.add_argument("--compare", nargs=2, type=pathlib.Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return 0 if compare(*args.compare) else 1
    if args.workload:
        return run_one(args)
    out = args.out or OUT_DIR / f"layers-seed{args.seed}.json"
    paths = [out] if args.repeat == 1 else [
        out.with_name(f"{out.stem}-{index}{out.suffix}") for index in range(1, args.repeat + 1)
    ]
    correct = all([run_all(args.seed, args.seconds, path) for path in paths])
    if len(paths) >= 2:
        correct = compare(paths[0], paths[1]) and correct
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
