#!/usr/bin/env python3
"""Which definitions under ``src/`` the shipped entry points execute.

    python benchmarks/reach.py

Runs every example command CI runs and every benchmark workload (untraced,
seed 1, three seconds each) in a fresh interpreter, one at a time, from a work
directory ``benchmarks/reach-out/`` it empties first (the example stores stay
there afterwards). A ``sitecustomize.py`` put first on ``PYTHONPATH`` installs
a profile hook in each interpreter and in every interpreter those start, on
every thread: the first call of each code object under ``src/`` appends its
file and first line to a log at once, so a worker that leaves by
``os._exit`` loses nothing.

A function or method under ``src/`` ran when a code object starting on its
``def`` line (its first decorator line, when it has one) was called. The
probe prints the ones that never ran. It exits non-zero when a command fails,
or when that set and ``benchmarks/reach.json`` differ in either direction:
each never-executed definition is listed there with a class from ``CLASSES``
and a reason, and nothing that runs, or is gone, is listed. Standard library
only.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LISTED = ROOT / "benchmarks" / "reach.json"
WORK = ROOT / "benchmarks" / "reach-out"
WORKLOADS = ("si8_hse_ptcn", "si8_hse_rk4", "si8_lda_sweep", "h2_campaign")

#: why a definition may stay under ``src/`` although no shipped command runs it
CLASSES = {
    "error_path": "runs only when something fails",
    "user_api": "the README, an example's non-CI mode or an assets CLI subcommand names it",
    "language_hook": "a dunder or pickling hook the interpreter calls",
    "paper_kernel": "the paper's Alg. 2/3 kernels, fenced off the system (ROADMAP item 5)",
    "tracer_target": "a benchmarks/layers/layers.py _TARGETS definition (until ROADMAP item 1b)",
    "precision_tier": "the reduced-precision tier (ROADMAP item 3(b))",
    "fine_grid": "the fine density grid (ROADMAP item 17)",
    "process_pool": "the process-pool backend (ROADMAP item 18)",
}

#: the example commands CI runs, in its order; the second cold pass into a
#: fresh store is there for the objects/ listing check that follows the probe
EXAMPLES = [
    ["examples/quickstart.py"],
    ["examples/silicon_supercell.py", "--fast"],
    ["examples/summit_scaling_report.py"],
    ["examples/pt_vs_rk4.py"],
    ["examples/dt_sweep.py", "--smoke"],
    ["examples/dt_sweep.py", "--smoke", "--backend", "distributed", "--ranks", "4",
     "--schedule", "makespan_balanced"],
    ["examples/absorption_spectrum.py", "--sweep", "--smoke"],
    ["examples/campaign.py", "--smoke", "--machine", "summit"],
    ["examples/campaign.py", "--smoke", "--machine", "frontier"],
    ["examples/campaign_service.py", "--smoke"],
    ["examples/incremental_campaign.py", "--smoke", "--store", "store-ckpt"],
    ["examples/incremental_campaign.py", "--smoke", "--store", "store-ckpt-again"],
    ["examples/incremental_campaign.py", "--smoke", "--store", "store-ckpt", "--expect-warm"],
    ["-m", "repro.assets", "verify"],
    ["-m", "repro.assets", "inventory"],
    ["examples/spectra_service.py", "--smoke", "--store", "spectra-ckpt"],
    ["examples/spectra_service.py", "--smoke", "--store", "spectra-ckpt", "--expect-warm"],
    ["examples/calibration_campaign.py", "--smoke", "--store", "calib-ckpt"],
    ["examples/calibration_campaign.py", "--smoke", "--store", "calib-ckpt", "--calibrated"],
]

_HOOK = '''\
import os
import sys
import threading

_SRC = {src!r}
_LOG = {log!r}
_seen = set()
_fd = []


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if not code.co_filename.startswith(_SRC):
        return
    key = (code.co_filename, code.co_firstlineno)
    if key in _seen:
        return
    _seen.add(key)
    if not _fd:
        _fd.append(os.open(_LOG, os.O_WRONLY | os.O_APPEND | os.O_CREAT))
    os.write(_fd[0], ("%s\\t%d\\n" % key).encode())


sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def commands() -> list[list[str]]:
    """Every command the probe runs, as arguments to the interpreter."""
    return [[str(ROOT / part) if part.startswith("examples/") else part for part in command]
            for command in EXAMPLES] + [
        [str(ROOT / "benchmarks" / "layers" / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "3", "--trace", "0"] for name in WORKLOADS]


def defined(tree: ast.AST):
    """``(qualname, node)`` for every function, method and class in ``tree``,
    nested ones included (a nested function is ``outer.inner``)."""
    scopes = [(tree, "")]
    while scopes:
        scope, prefix = scopes.pop()
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}{node.name}", node
                scopes.append((node, f"{prefix}{node.name}."))
            elif not isinstance(node, ast.expr):
                scopes.append((node, prefix))


def first_line(node: ast.AST) -> int:
    """Where a definition's code object starts: its first decorator's line
    when it has one, its ``def`` or ``class`` line otherwise."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def definitions(root: pathlib.Path = ROOT) -> dict[str, tuple[pathlib.Path, int, int]]:
    """``"src/<path>:<qualname>"`` → ``(file, first line, line count)`` for every
    function and method under ``src/``, nested ones included."""
    found = {}
    for path in sorted((root / "src").rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        relative = path.relative_to(root).as_posix()
        for qualname, node in defined(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                first = first_line(node)
                found[f"{relative}:{qualname}"] = (path, first, node.end_lineno - first + 1)
    return found


def listed(path: pathlib.Path) -> dict[str, dict]:
    """A ``reach.json``'s entries by definition."""
    return {entry.get("definition"): entry for entry in json.loads(path.read_text())}


def probe() -> set[str] | None:
    """Run every command under the hook; the definitions that never ran, or
    ``None`` when a command failed."""
    if WORK.exists():
        shutil.rmtree(WORK)
    hook_dir = WORK / "hook"
    hook_dir.mkdir(parents=True)
    log = WORK / "executed.log"
    (hook_dir / "sitecustomize.py").write_text(_HOOK.format(src=str(SRC) + os.sep, log=str(log)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(hook_dir), str(SRC), env.get("PYTHONPATH")]))
    for command in commands():
        shown = " ".join(pathlib.Path(part).relative_to(ROOT).as_posix() if part.startswith(str(ROOT))
                         else part for part in command)
        print(f"$ python {shown}", flush=True)
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *command], cwd=WORK, env=env)
        print(f"  ({time.perf_counter() - start:.1f} s, exit {done.returncode})", flush=True)
        if done.returncode != 0:
            return None
    executed = set()
    for line in log.read_text().splitlines():
        filename, first = line.rsplit("\t", 1)
        executed.add((pathlib.Path(filename).resolve(), int(first)))
    return {name for name, (path, first, _) in definitions().items() if (path.resolve(), first) not in executed}


def main() -> int:
    start = time.perf_counter()
    never = probe()
    if never is None:
        print("reach: a command failed; the executed set is incomplete")
        return 1
    every = definitions()
    entries = listed(LISTED)
    lines = sum(every[name][2] for name in never)
    print(f"\nreach: {len(every) - len(never)} of {len(every)} definitions under src/ ran; "
          f"{len(never)} never ran ({lines} of {sum(n for *_, n in every.values())} lines), "
          f"{time.perf_counter() - start:.0f} s")
    unlisted = sorted(never - set(entries))
    stale = sorted(set(entries) - never)
    for name in sorted(never):
        print(f"  {entries.get(name, {}).get('class', 'UNLISTED'):<15} {name} ({every[name][2]} lines)")
    for name in unlisted:
        print(f"reach: {name} never ran and is not in benchmarks/reach.json")
    for name in stale:
        state = "is gone" if name not in every else "ran"
        print(f"reach: {name} is in benchmarks/reach.json but {state}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
