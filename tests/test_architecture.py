"""Architecture rules of the package, checked over the source tree.

Each rule is a function over a repository root that returns the offending
lines (``path:line: text``), none when the rule holds; its docstring says why
the rule exists. ``test_rule_holds`` runs every rule on this checkout, and
``test_rule_detects_a_break`` runs it on a small tree that breaks it, so a rule
whose pattern stops matching anything fails too (as
``tests/pw/test_layering.py`` tests its import scanner).
"""

import ast
import importlib.util
import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "benchmarks" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def _grep(root: pathlib.Path, pattern: str, tops: list[str], *, python_only: bool = True,
          allowed: tuple[str, ...] = ()) -> list[str]:
    """``grep -rnE pattern tops`` under ``root`` (``--include=*.py`` when
    ``python_only``), skipping files whose relative path starts with one of
    ``allowed``."""
    regex = re.compile(pattern)
    hits = []
    for top in tops:
        start = root / top
        if not start.exists():
            continue
        files = [start] if start.is_file() else sorted(start.rglob("*.py" if python_only else "*"))
        for path in files:
            relative = path.relative_to(root).as_posix()
            if not path.is_file() or "__pycache__" in path.parts or relative.startswith(allowed):
                continue
            try:
                lines = path.read_text().splitlines()
            except UnicodeDecodeError:
                continue
            hits += [f"{relative}:{n}: {line.strip()}"
                     for n, line in enumerate(lines, 1) if regex.search(line)]
    return hits


def no_shim_names(root):
    """``store=`` is the one persistence argument and ``settings=`` the one way
    to place a sweep: the removed ``checkpoint_dir`` / ``CheckpointStore``
    shims and their deprecation warnings stay out of shipped code and docs."""
    return _grep(root, r"checkpoint_dir|CheckpointStore|DeprecationWarning", ["src", "examples", "README.md"],
                 python_only=False)


def no_rayleigh_ritz(root):
    """``block_davidson`` holds ``V`` and ``H V`` side by side and applies ``H``
    to new directions only; the helper that re-applied ``H`` to the whole
    search space every iteration lives on as the written-out reference in
    ``tests/pw/test_eigensolver.py``, not under ``src/``."""
    return _grep(root, r"_rayleigh_ritz", ["src"])


def identity_is_carried(root):
    """``SweepJob.group_key`` / ``.config_hash`` are fields filled in by
    ``SweepSpec.expand`` (the property re-serialised the config on every
    access), and grouping is ``SweepSpec.groups()`` on the shared expansion:
    neither the per-access property body nor a second grouping function may
    come back."""
    return _grep(root, r"return ground_state_group_key\(self\.config\)|group_jobs", ["src"])


def transforms_are_fftplan_calls(root):
    """``FFTPlan`` binds pocketfft's kernel (``_c2c``) and is what the tracer
    and the transform-budget tests count; the sphere-aware forward path runs
    inside ``FFTPlan.fftn``. Tests may patch the binding, shipped code may not
    call it anywhere else."""
    return _grep(root, r"_c2c", ["src", "examples", "benchmarks"], allowed=("src/repro/pw/fft.py",))


def one_hpsi_kernel(root):
    """``HΨ`` has one body, ``repro.pw.hamiltonian.apply_many``
    (``Hamiltonian.apply`` is its width-1 call), and the Fock pair solve one
    loop, ``ExchangeOperator._pair_sum`` (Alg. 2 runs each rank's pairs
    through it): a second body would apply the projectors or solve pair
    densities somewhere else."""
    projectors = _grep(root, r"nonlocal_psp\.apply\(", ["src"])
    found = [] if len(projectors) == 1 else [f"{len(projectors)} projector applications, not 1"] + projectors
    return found + _grep(root, r"apply_to_density\(", ["src"],
                         allowed=("src/repro/pw/exchange.py", "src/repro/pw/poisson.py"))


#: (pattern, file, function): each pattern has one site under ``src/``, inside
#: that function, apart from the files allowed with it
OBSERVABLE_BODIES = [
    (r"(^|[^\w.])EnergyBreakdown\(", "src/repro/pw/hamiltonian.py", "energies_many", ()),
    (r"nonlocal_psp\.energy\(", "src/repro/pw/hamiltonian.py", "energies_many", ()),
    (r"sawtooth_position\(", "src/repro/core/observables.py", "dipoles_many", ("src/repro/pw/laser.py",)),
]


def one_observables_body(root):
    """The recorded energy, dipole and electron number have one body each,
    stacked over a group: ``repro.pw.hamiltonian.energies_many`` and
    ``repro.core.observables.dipoles_many`` / ``electron_numbers_many``.
    ``Hamiltonian.energy`` and ``dipole_moment`` are width-1 calls of the
    first two, and the trajectory records pick their rows and call them,
    integrating nothing themselves: a second body would let a job's
    recorded energy depend on which body computed it. The laser builds its
    field from the sawtooth, not a dipole."""
    found = []
    for pattern, path, function, allowed in OBSERVABLE_BODIES:
        body = _function_lines(root / path, function)
        sites = _grep(root, pattern, ["src"], allowed=allowed)
        if len(sites) != 1 or not (sites[0].startswith(f"{path}:") and int(sites[0].split(":")[1]) in body):
            found += [f"{len(sites)} sites of {pattern}, not one inside {function}"] + sites
    return found + _grep(root, r"integrate\(", ["src/repro/core/dynamics.py"])


def one_density_mixer(root):
    """Linear mixing is the warm-up / history-1 case of the ground state's one
    mixer (``repro.pw.density.DensityMixer``), not a second class beside it;
    PT-CN's wavefunction mixer is ``repro.core.anderson.AndersonMixer``."""
    mixers = _grep(root, r"^class \w*Mix\w*", ["src"])
    if len(mixers) == 2 and sum("Density" in line for line in mixers) == 1:
        return []
    return [f"{len(mixers)} mixer classes, not DensityMixer and one wavefunction mixer"] + mixers


def one_group_ledger(root):
    """``repro.exec.scheduler`` owns the arithmetic of a scheduled group: one
    greedy least-loaded loop and the one machine-model pricing of a group's
    predicted fields. A calibration re-prices a group only by stamping its
    ``repriced_seconds`` (``Scheduler.order`` under ``calibration=``, and the
    service runner's adaptive re-pack), so predictions stay the model's;
    observations are built only by ``repro.calib``, from
    ``ScheduledGroup.as_dict`` records."""
    scheduler = ("src/repro/exec/scheduler.py",)
    return (_grep(root, r"min\(range\(", ["src"], allowed=scheduler)
            + _grep(root, r"\.predicted_(seconds|energy_j)\s*=(?!=)", ["src"], allowed=scheduler)
            + _grep(root, r"\.repriced_seconds\s*=(?!=)", ["src"],
                    allowed=scheduler + ("src/repro/service/runner.py",))
            + _grep(root, r"(^|[^A-Za-z0-9_])Observation\(", ["src"], allowed=("src/repro/calib/",)))


def one_pair_solve_count(root):
    """The FLOPs of one pair solve of Eq. 3 (two FFTs plus pointwise work) are
    counted once, by ``repro.perf.flops.pair_solve_flops``: the Fock, ``HΨ``,
    step and CPU-baseline counts call it instead of restating it, so the
    scheduler's relative cost and the paper's FLOP accounting cannot drift
    apart."""
    return _grep(root, r"2\.0 \* fft_flops\(", ["src"], allowed=("src/repro/perf/flops.py",))


def _function_lines(path: pathlib.Path, name: str) -> range:
    """The line numbers of the first function ``name`` defined in ``path``."""
    if path.is_file():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == name:
                return range(node.lineno, node.end_lineno + 1)
    return range(0)


def one_execution_settings_reader(root):
    """The five execution fields of ``run.schedule`` / ``run.machine`` are
    checked, coerced and defaulted by one function,
    ``repro.api.config.execution_fields``, which ``RunConfig`` and
    ``ExecutionSettings`` both call: a second reader of a section would
    restate a default or a domain. The one other read is the per-config slice
    override, ``MachineCostModel.gpus_for``."""
    model = "src/repro/cost/model.py"
    gpus_for = _function_lines(root / model, "gpus_for")
    hits = _grep(root, r'(schedule|machine)\.get\(|getattr\([\w.]+\.run, "(schedule|machine)"',
                 ["src", "examples"], allowed=("src/repro/api/config.py",))
    return [hit for hit in hits if not (hit.startswith(f"{model}:") and int(hit.split(":")[1]) in gpus_for)]


def one_canonical_encoder(root):
    """Store keys, group keys, the sweep-cost memo key, calibration log lines
    and asset digests are ``repro.canonical.canonical_json``: a second
    ``sort_keys=True`` encoding could spell a value another way, and
    ``default=str`` spells what JSON cannot (configs are coerced to JSON at
    construction instead). The asset library's manifest file and the asset
    CLI's output are sorted for people, not keyed."""
    allowed = ("src/repro/canonical.py", "src/repro/assets/library.py", "src/repro/assets/cli.py")
    return _grep(root, r"sort_keys=True", ["src"], allowed=allowed) + _grep(root, r"default=str", ["src"])


def results_carry_no_clock(root):
    """Trajectories, their archives and the physics export hold no wall time,
    so nothing strips one out again: ``exclude_timings`` survives only as
    ``SweepReport.to_json``'s inert keyword, which no caller passes. Time is
    measured once, around a group (``repro.exec.backends``), and stamped on
    the group ledger; reports, tables and calibration read it from there."""
    report = ("src/repro/batch/report.py", "tests/test_architecture.py")
    return (_grep(root, r"exclude_timings", ["src", "examples", "tests"], allowed=report)
            + _grep(root, r"exclude_timings\s*=", ["src"])
            + _grep(root, r"\bwall_time\b", ["src"])
            + _grep(root, r"perf_counter|time\.time\(|monotonic\(", ["src"],
                    allowed=("src/repro/exec/backends.py",)))


#: imports under ``src/`` their module never names, each with its reason
BOUND_FOR_THE_HARNESS = {
    "src/repro/core/batching.py:apply_many":
        "benchmarks/layers resolves its core.batching.apply_many span on this binding",
    "src/repro/core/batching.py:update_potentials_many":
        "benchmarks/layers resolves its core.batching.update_potentials_many span on this binding",
    "src/repro/core/propagators/pt_cn.py:compute_density":
        "benchmarks/layers/test_harness.py pins the tracer's by-identity patching on this binding",
}


def every_import_is_named(root):
    """Every name a module under ``src/`` imports is named in that module's
    code (a ``Name``, an ``Attribute``, or an identifier string such as an
    ``__all__`` entry), or is on ``BOUND_FOR_THE_HARNESS`` with its reason: an
    import nothing names is dead code the lint job does not see. An entry
    whose import is named, or gone, leaves the list."""
    found, kept = [], set()
    for relative, tree in _python_files(root, ["src"]):
        named = {name for name, _ in _names_referenced(tree, exports=True)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name == "*" or name in named:
                    continue
                if f"{relative}:{name}" in BOUND_FOR_THE_HARNESS:
                    kept.add(f"{relative}:{name}")
                else:
                    found.append(f"{relative}:{node.lineno}: {name}")
    return found + [f"{key}: on BOUND_FOR_THE_HARNESS, but named or gone" for key in BOUND_FOR_THE_HARNESS
                    if (root / key.split(":")[0]).is_file() and key not in kept]


def _python_files(root: pathlib.Path, tops: list[str]):
    for top in tops:
        for path in sorted((root / top).rglob("*.py")) if (root / top).is_dir() else ():
            if "__pycache__" not in path.parts:
                yield path.relative_to(root).as_posix(), ast.parse(path.read_text())


def _inert_strings(tree: ast.AST) -> set[int]:
    """The ids of the string constants of ``tree`` that name nothing: the
    docstrings of its module, classes and functions, and the values of its
    ``Enum`` members (``ALLGATHERV = "allgatherv"`` calls no ``allgatherv``)."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    inert = {id(node.body[0].value) for node in ast.walk(tree)
             if isinstance(node, owners) and node.body and isinstance(node.body[0], ast.Expr)
             and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)}
    enums = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             and any(getattr(base, "id", getattr(base, "attr", "")).endswith("Enum") for base in node.bases)]
    return inert | {id(member.value) for enum in enums for member in enum.body
                    if isinstance(member, ast.Assign) and isinstance(member.value, ast.Constant)}


def _exported_strings(tree: ast.AST) -> set[int]:
    """The ids of the string constants of ``tree``'s ``__all__`` lists."""
    exported = set()
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if isinstance(node, (ast.Assign, ast.AugAssign)) and any(getattr(t, "id", None) == "__all__" for t in targets):
            exported |= {id(item) for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
    return exported


def _names_referenced(tree: ast.AST, exports: bool):
    """``(name, line)`` for every name ``tree``'s code refers to: a ``Name``, an
    ``Attribute``, or a string constant spelled as a (dotted) identifier, as
    ``getattr`` and tracer targets spell one, and as ``__all__`` does (counted
    only when ``exports`` is true). Import statements, docstrings, comments and
    ``Enum`` member values refer to nothing."""
    inert = _inert_strings(tree) | (set() if exports else _exported_strings(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        else:
            for part in _identifier_parts(node, inert):
                yield part, node.lineno


def _identifier_parts(node: ast.AST, inert: set[int]) -> list[str]:
    """The parts of a string constant spelled as a (dotted) identifier, such as
    ``"laser.params.amplitude"``; none for a string in ``inert``
    (:func:`_inert_strings`) or any other node."""
    if (isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in inert
            and all(part.isidentifier() for part in node.value.split(".") if part)):
        return [part for part in node.value.split(".") if part]
    return []


def _registered(node) -> bool:
    """Whether a ``@register_*(...)`` decorator registers ``node`` (the registry's builders)."""
    calls = [d.func for d in node.decorator_list if isinstance(d, ast.Call)]
    return any(getattr(func, "id", getattr(func, "attr", "")).startswith("register_") for func in calls)


#: at most this many ``benchmarks/reach.json`` entries may name a definition no shipped code names
STATICALLY_UNCALLED_CAP = 10


def src_holds_what_the_system_calls(root):
    """Every function, method, property and class under ``src/`` is there
    because the system calls it: shipped code (``src/``, ``examples/``,
    ``benchmarks/``) names it outside its own body, a ``@register_*``
    decorator registers it, or ``benchmarks/reach.json`` lists it with its
    class and reason. A definition only tests call belongs in ``tests/``; a
    mention in a docstring, an ``__all__`` entry or an import is not a call
    (a use of an import's ``as`` name is a use of the name it imports).
    Dunders are the language's. At most ``STATICALLY_UNCALLED_CAP`` of the
    listed definitions may go uncalled this way (``benchmarks/reach.py``
    checks the whole list against what the shipped commands execute)."""
    definitions = []
    references: dict[str, list[tuple[str, int]]] = {}
    for relative, tree in _python_files(root, ["src", "examples", "benchmarks"]):
        renamed = {alias.asname: alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.asname}
        for name, line in _names_referenced(tree, exports=False):
            for called in {name, renamed.get(name, name)}:
                references.setdefault(called, []).append((relative, line))
        if relative.startswith("src/"):
            definitions += [(relative, qualname, node) for qualname, node in reach.defined(tree)]
    path = root / "benchmarks" / "reach.json"
    listed = reach.listed(path) if path.is_file() else {}
    found, kept = [], []
    for relative, qualname, node in definitions:
        name = node.name
        first = reach.first_line(node)
        if (name.startswith("__") and name.endswith("__")) or _registered(node) \
                or any(path != relative or not first <= line <= node.end_lineno
                       for path, line in references.get(name, ())):
            continue
        if f"{relative}:{qualname}" in listed:
            kept.append(f"{relative}:{qualname}")
        else:
            found.append(f"{relative}:{node.lineno}: {qualname}")
    if len(kept) > STATICALLY_UNCALLED_CAP:
        found.append(f"benchmarks/reach.json: {len(kept)} statically uncalled entries, "
                     f"more than {STATICALLY_UNCALLED_CAP}: {', '.join(kept)}")
    return found


def reach_list_is_well_formed(root):
    """``benchmarks/reach.json`` lists each definition the shipped commands
    never execute once, by an existing function or method under ``src/``,
    with a class from ``benchmarks/reach.py``'s ``CLASSES`` and a reason.
    "Only tests call it" is no class: such a definition belongs in
    ``tests/``. Whether the list matches what runs is the probe's own check
    (``python benchmarks/reach.py``, in CI's examples job)."""
    path = root / "benchmarks" / "reach.json"
    if not path.is_file():
        return []
    defined = reach.definitions(root)
    found, seen = [], set()
    for entry in json.loads(path.read_text()):
        name = entry.get("definition")
        where = f"benchmarks/reach.json:{name}"
        if name in seen:
            found.append(f"{where}: listed twice")
        seen.add(name)
        if name not in defined:
            found.append(f"{where}: no such function or method under src/")
        if entry.get("class") not in reach.CLASSES:
            found.append(f"{where}: class {entry.get('class')!r} is not one of {sorted(reach.CLASSES)}")
        if not str(entry.get("reason") or "").strip():
            found.append(f"{where}: no reason")
    return found


#: defaulted parameters under ``src/`` kept although no shipped call passes them, each with its reason
PASSED_FROM_OUTSIDE = {
    "src/repro/pw/pseudopotential.py:ewald_energy(eta)":
        "tests/pw/test_pseudopotential.py varies it to check that the Ewald energy does not depend on it",
    "src/repro/core/propagators/rk4.py:RK4Propagator.__init__(self_consistent_stages)":
        "the frozen-potential RK4 a physics test checks against the exact exp(-iH dt) and a written-out step",
    "src/repro/parallel/comm.py:SimCommunicator.__init__(single_precision)":
        "the paper's single-precision MPI: tests/parallel bound what it does to the exchange result and bytes",
    "src/repro/pw/ground_state.py:GroundStateSolver.__init__(nbands)":
        "ROADMAP item 12's Casida check solves for unoccupied states with nbands = n_occ + k",
    "src/repro/perf/components.py:PWDFTPerformanceModel.__init__(system)":
        "the paper's closing what-if (tests/paper/test_machine_whatif.py) prices the step on every preset",
    "src/repro/cost/model.py:MachineCostModel.estimate(seconds)":
        "the same what-if prices the component model's step wall on each preset's slice through it",
    "src/repro/pw/structures.py:diatomic_molecule(species_b)":
        "passed by position: the asset library's CO payload reaches it through recipe(*species, **params)",
    "src/repro/service/service.py:CampaignService.submit(on_sweep_complete)":
        "the sweep-boundary hook tests/service cancel and fail a campaign through (ROADMAP item 4)",
}


def _callees(call: ast.Call, cls: ast.ClassDef | None) -> list[str]:
    """The names a call is judged by: ``f(...)`` and ``x.f(...)`` call ``f``;
    inside a class, ``cls(...)`` calls the class and ``super().__init__(...)``
    its bases."""
    func = call.func
    if isinstance(func, ast.Name):
        return [cls.name if func.id == "cls" and cls is not None else func.id]
    if not isinstance(func, ast.Attribute):
        return []
    if func.attr == "__init__" and cls is not None and isinstance(func.value, ast.Call) \
            and getattr(func.value.func, "id", "") == "super":
        return [getattr(base, "id", getattr(base, "attr", "")) for base in cls.bases]
    return [func.attr]


def _shipped_calls(root: pathlib.Path):
    """What shipped code (``src/``, ``examples/``, ``benchmarks/``) passes:
    per callee name, ``(keywords, positional count, splat)`` of each call;
    the names it dispatches by name, registered by ``<REGISTRY>.register(name,
    fn)`` or never called by name but spelled as a plain identifier string
    outside ``__all__`` (the asset library's generator table); and the
    identifier parts of its strings (config ``params`` keys, sweep paths)."""
    calls: dict[str, list[tuple[set[str], int, bool]]] = {}
    registered, named, strings = set(), set(), set()

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                keywords = {k.arg for k in child.keywords if k.arg}
                positional = sum(not isinstance(a, ast.Starred) for a in child.args)
                splat = len(keywords) + positional < len(child.keywords) + len(child.args)
                passed = (keywords, positional, splat)
                for name in _callees(child, cls):
                    calls.setdefault(name, []).append(passed)
                if getattr(child.func, "attr", "") == "register" and len(child.args) >= 2:
                    registered.add(getattr(child.args[1], "id", getattr(child.args[1], "attr", "")))
            visit(child, child if isinstance(child, ast.ClassDef) else cls)

    for _, tree in _python_files(root, ["src", "examples", "benchmarks"]):
        inert = _inert_strings(tree)
        exported = {id(node) for statement in ast.walk(tree) if isinstance(statement, ast.Assign)
                    and any(getattr(target, "id", "") == "__all__" for target in statement.targets)
                    for node in ast.walk(statement.value)}
        for node in ast.walk(tree):
            parts = _identifier_parts(node, inert)
            strings.update(parts)
            if id(node) not in exported and len(parts) == 1:
                named.update(parts)
        visit(tree, None)
    return calls, registered | (named - set(calls)), strings


def _defaulted(node: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """``(parameter, position)`` of each defaulted parameter of ``node``: the
    position counts the arguments a call spells (``self`` / ``cls`` aside),
    ``None`` for a keyword-only one."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = method and not any(getattr(d, "id", "") == "staticmethod" for d in node.decorator_list)
    first = len(positional) - len(args.defaults)
    return ([(p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
            + [(p.arg, None) for p, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None])


def every_parameter_is_passed(root):
    """Every defaulted parameter of a function or method under ``src/`` is
    there because shipped code passes it: a call in ``src/``, ``examples/``
    or ``benchmarks/`` to a callee of its name (the class, for ``__init__``)
    names it as a keyword, spells enough positional arguments to reach it, or
    unpacks ``*`` / ``**`` into it; a factory's parameter (a ``@register_*``
    builder, one ``<REGISTRY>.register(name, fn)`` registers, or one shipped
    code dispatches by its name) also counts as passed when a string names it,
    as config ``params`` keys and sweep paths such as
    ``laser.params.amplitude`` do.
    Anything else is a setting only tests vary, which doubles what tests
    must cover: fold it into its default, or put it on
    ``PASSED_FROM_OUTSIDE`` with its reason. The allowlist stays short (at
    most 10 entries) and current: an entry whose parameter is passed, or
    gone, leaves it."""
    calls, dispatched, strings = _shipped_calls(root)
    found, kept = [], set()
    for relative, tree in _python_files(root, ["src"]):
        scopes = [(tree, "", None)]
        while scopes:
            scope, prefix, cls = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.ClassDef):
                    scopes.append((node, f"{prefix}{node.name}.", node))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scopes.append((node, f"{prefix}{node.name}.", None))
                    callee = cls.name if cls is not None and node.name == "__init__" else node.name
                    factory = _registered(node) or callee in dispatched
                    for param, position in _defaulted(node, cls is not None):
                        if any(param in keywords or splat or (position is not None and count > position)
                               for keywords, count, splat in calls.get(callee, ())) \
                                or (factory and param in strings):
                            continue
                        key = f"{relative}:{prefix}{node.name}({param})"
                        if key in PASSED_FROM_OUTSIDE:
                            kept.add(key)
                        else:
                            found.append(f"{relative}:{node.lineno}: {prefix}{node.name}({param})")
                elif not isinstance(node, ast.expr):
                    scopes.append((node, prefix, cls))
    found += [f"{key}: on PASSED_FROM_OUTSIDE, but passed or gone" for key in PASSED_FROM_OUTSIDE
              if (root / key.split(":")[0]).is_file() and key not in kept]
    if len(PASSED_FROM_OUTSIDE) > 10:
        found.append(f"PASSED_FROM_OUTSIDE: {len(PASSED_FROM_OUTSIDE)} entries, more than 10")
    return found


#: module-level names under ``src/repro/pw/`` and ``src/repro/core/`` that a
#: function mutates, each with its reason
PROCESS_WIDE = {
    "src/repro/pw/pseudopotential.py:_PROJECTOR_CACHE":
        "keyed on the bytes of its inputs and bounded (4): carries Si8's ~5 ms projector tables across Sessions",
    "src/repro/pw/pseudopotential.py:_EWALD_CACHE":
        "keyed on the bytes of its inputs and bounded (16): carries the Ewald sum across Sessions",
}

#: the method calls that change the container they are made on
_MUTATING_METHODS = {"clear", "pop", "popitem", "move_to_end", "setdefault", "update", "append"}


def _mutations(nodes, names: set[str]) -> set[tuple[str, int]]:
    """``(name, line)`` of each place inside ``nodes`` that changes one of
    ``names``: a subscript store or ``del``, a ``global`` rebinding, or a
    mutating method call."""
    found = set()
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Global):
            found |= {(name, sub.lineno) for name in sub.names if name in names}
            continue
        if isinstance(sub, ast.Subscript) and isinstance(sub.ctx, (ast.Store, ast.Del)):
            target = sub.value
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) and sub.func.attr in _MUTATING_METHODS:
            target = sub.func.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id in names:
            found.add((target.id, sub.lineno))
    return found


def transform_state_lives_on_its_owner(root):
    """Derived state lives on the object it is derived from and is freed with
    it: a grid holds its FFT plans, bare Coulomb kernel and sawtooth
    positions, a basis its scatter workspaces. A module-level name under
    ``src/repro/pw/`` or ``src/repro/core/`` that a function mutates (see
    ``_mutations``; passing it to a module function that mutates that
    parameter counts too) outlives every Session that filled it, so it is on
    ``PROCESS_WIDE`` with its reason. The allowlist stays short (at most 4
    entries) and current: an entry whose name is gone, or no longer mutated,
    leaves it."""
    found, kept = [], set()
    for relative, tree in _python_files(root, ["src/repro/pw", "src/repro/core"]):
        module = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                  for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                  if isinstance(target, ast.Name)}
        functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        mutated_parameters = {}  # module function -> positions of the parameters it mutates
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                params = [arg.arg for arg in node.args.posonlyargs + node.args.args]
                changed = {name for name, _ in _mutations(node.body, set(params))}
                mutated_parameters[node.name] = [i for i, name in enumerate(params) if name in changed]
        sites = _mutations([statement for node in functions for statement in node.body], module)
        for call in (sub for node in functions for sub in ast.walk(node) if isinstance(sub, ast.Call)):
            for i in mutated_parameters.get(getattr(call.func, "id", None), ()):
                if i < len(call.args) and isinstance(call.args[i], ast.Name) and call.args[i].id in module:
                    sites.add((call.args[i].id, call.lineno))
        for name, line in sorted(sites, key=lambda site: site[1]):
            if f"{relative}:{name}" in PROCESS_WIDE:
                kept.add(f"{relative}:{name}")
            else:
                found.append(f"{relative}:{line}: {name}")
    found += [f"{key}: on PROCESS_WIDE, but not mutated or gone" for key in PROCESS_WIDE
              if (root / key.split(":")[0]).is_file() and key not in kept]
    if len(PROCESS_WIDE) > 4:
        found.append(f"PROCESS_WIDE: {len(PROCESS_WIDE)} entries, more than 4")
    return found


RULES = [no_shim_names, no_rayleigh_ritz, identity_is_carried, transforms_are_fftplan_calls,
         one_hpsi_kernel, one_density_mixer, one_group_ledger, one_pair_solve_count,
         one_execution_settings_reader, one_canonical_encoder, results_carry_no_clock,
         src_holds_what_the_system_calls, one_observables_body, every_import_is_named,
         every_parameter_is_passed, transform_state_lives_on_its_owner, reach_list_is_well_formed]

#: a method whose name only an ``Enum`` member's value spells
_ENUM_NAMED_METHOD = ('class CollectiveKind(str, Enum):\n    GATHER = "gather"\n\n\n'
                      "class SimCommunicator:\n    def gather(self, data):\n        return data\n")

def _reach_json(*entries: tuple) -> str:
    """A ``benchmarks/reach.json`` text of ``(definition, class, reason)`` entries."""
    return json.dumps([{"definition": d, "class": c, "reason": r} for d, c, r in entries])


#: the listed writers of the break trees below
_LISTED_WRITERS = _reach_json(
    ("src/repro/core/dynamics.py:Trajectory.save_npz", "user_api", "the README names it"),
    ("src/repro/service/handle.py:CampaignHandle.cancel", "user_api", "the README names it"))

#: per rule, a tree that breaks it (the allowed sites included) and the file(s) it must name
BREAKS = {
    no_shim_names: ({"README.md": "Pass `checkpoint_dir=` to resume.\n"}, "README.md"),
    no_rayleigh_ritz: ({"src/repro/pw/eigensolver.py": "def _rayleigh_ritz(h, v):\n    pass\n"},
                       "src/repro/pw/eigensolver.py"),
    identity_is_carried: ({"src/repro/service/runner.py": "groups = group_jobs(spec)\n"},
                          "src/repro/service/runner.py"),
    transforms_are_fftplan_calls: ({"src/repro/pw/fft.py": "_c2c = pocketfft.c2c\n",
                                    "examples/fast_fft.py": "from repro.pw.fft import _c2c\n"},
                                   "examples/fast_fft.py"),
    one_hpsi_kernel: ({"src/repro/pw/hamiltonian.py": "out = h.nonlocal_psp.apply(psi)\n",
                       "src/repro/core/fast.py": "out = h.nonlocal_psp.apply(psi)\n"},
                      "src/repro/core/fast.py"),
    one_density_mixer: ({"src/repro/pw/density.py": "class DensityMixer:\n    pass\n",
                         "src/repro/core/anderson.py": "class AndersonMixer:\n    pass\n",
                         "src/repro/pw/linear.py": "class LinearMixer:\n    pass\n"},
                        "src/repro/pw/linear.py"),
    one_group_ledger: ({"src/repro/exec/scheduler.py": "rank = min(range(n), key=loads.__getitem__)\n"
                                                       "group.predicted_seconds = estimate.seconds\n"
                                                       "group.repriced_seconds = group.repriced(fit)\n",
                        "src/repro/exec/backends.py": "rank = min(range(n), key=loads.__getitem__)\n",
                        "src/repro/service/runner.py": "group.repriced_seconds = group.repriced(fit)\n"
                                                       "group.predicted_seconds = seconds * scale\n",
                        "src/repro/campaign/planner.py": "group.repriced_seconds = wall * scale\n"},
                       ("src/repro/exec/backends.py", "src/repro/service/runner.py",
                        "src/repro/campaign/planner.py")),
    one_pair_solve_count: ({"src/repro/perf/flops.py": "return 2.0 * fft_flops(n) + 6.0 * n\n",
                            "src/repro/perf/sweep_cost.py": "per_solve = 2.0 * fft_flops(n) + 6.0 * n\n"},
                           "src/repro/perf/sweep_cost.py"),
    one_execution_settings_reader: (
        {"src/repro/api/config.py": 'policy = self.schedule.get("policy", "fifo")\n',
         "src/repro/cost/model.py": "class MachineCostModel:\n"
                                    "    def gpus_for(self, config):\n"
                                    '        return int(config.run.machine.get("gpus_per_group", 1))\n'
                                    "    def from_config(cls, config):\n"
                                    '        return cls(config.run.machine.get("name", "summit"))\n',
         "src/repro/exec/scheduler.py": 'machine = getattr(config.run, "machine", {})\n'},
        ("src/repro/exec/scheduler.py", "src/repro/cost/model.py")),
    one_canonical_encoder: (
        {"src/repro/canonical.py": "return json.dumps(data, sort_keys=True, allow_nan=False)\n",
         "src/repro/assets/cli.py": "print(json.dumps(report, indent=2, sort_keys=True))\n",
         "src/repro/batch/sweep.py": "text = json.dumps(data, sort_keys=True, default=str)\n"},
        "src/repro/batch/sweep.py"),
    results_carry_no_clock: (
        {"src/repro/batch/report.py": "    def to_json(self, indent=2, exclude_timings: bool = False):\n"
                                      "        data = self.to_dict(exclude_timings=exclude_timings)\n",
         "src/repro/exec/backends.py": "start = time.perf_counter()\n",
         "examples/sweep.py": "text = report.to_json(exclude_timings=True)\n",
         "src/repro/core/dynamics.py": 'out["wall_time"] = float(self.wall_time)\n',
         "src/repro/calib/observations.py": "observed = time.perf_counter() - start\n",
         "src/repro/service/service.py": "start = time.perf_counter()\n"},
        ("src/repro/batch/report.py", "examples/sweep.py", "src/repro/core/dynamics.py",
         "src/repro/calib/observations.py", "src/repro/service/service.py")),
    src_holds_what_the_system_calls: (
        {"src/repro/pw/basis.py": "class Wavefunction:\n    def rotate(self, matrix):\n        return self\n",
         "tests/pw/test_basis.py": "def test_rotate(wavefunction):\n    assert wavefunction.rotate(None)\n",
         "src/repro/store/store.py": "class ResultStore:\n"
                                     "    def completed_ids(self):\n"
                                     "        return set()\n"
                                     "    def has(self, job):\n"
                                     '        """Whether ``job`` is stored (see ``completed_ids``)."""\n'
                                     "        return False\n",
         "src/repro/api/registry.py": '@register_pulse("none")\ndef _build_no_pulse():\n    return None\n',
         "src/repro/pw/lattice.py": "class Cell:\n    pass\n",
         "src/repro/pw/__init__.py": 'from .lattice import Cell\n\n__all__ = ["Cell"]\n',
         "src/repro/core/dynamics.py": "class Trajectory:\n    def save_npz(self, path):\n        pass\n",
         "src/repro/service/handle.py": "class CampaignHandle:\n    def cancel(self):\n        pass\n",
         "src/repro/parallel/comm.py": _ENUM_NAMED_METHOD,
         "benchmarks/reach.json": _LISTED_WRITERS,
         "examples/quickstart.py": "from repro.core.dynamics import Trajectory\n"
                                   "from repro.parallel.comm import CollectiveKind, SimCommunicator\n"
                                   "from repro.pw.basis import Wavefunction\n"
                                   "from repro.service.handle import CampaignHandle\n"
                                   "from repro.store.store import ResultStore\n"
                                   "served = ResultStore().has(Trajectory(Wavefunction()))\n"
                                   "print(CollectiveKind, SimCommunicator, CampaignHandle)\n"},
        ("src/repro/pw/basis.py", "src/repro/store/store.py", "src/repro/pw/lattice.py",
         "src/repro/parallel/comm.py")),
    one_observables_body: (
        {"src/repro/pw/hamiltonian.py": "def energies_many(hams, wfs):\n"
                                        "    nl = [h.nonlocal_psp.energy(wf.c, wf.f) for h, wf in zip(hams, wfs)]\n"
                                        "    return [EnergyBreakdown(nonlocal_psp=e) for e in nl]\n",
         "src/repro/core/observables.py": "def dipoles_many(grid, rho):\n"
                                          "    return grid.integrate(rho * sawtooth_position(grid, z))\n",
         "src/repro/pw/laser.py": "position = sawtooth_position(grid, self.polarization)\n",
         "src/repro/core/dynamics.py": "energy = EnergyBreakdown(\n"
                                       "    kinetic=kinetic, nonlocal_psp=ham.nonlocal_psp.energy(wf.c, wf.f),\n"
                                       "    hartree=0.5 * grid.integrate(rho * v_h)).total\n"},
        "src/repro/core/dynamics.py"),
    every_parameter_is_passed: (
        {"src/repro/pw/eigensolver.py": "def block_davidson(apply_h, guess, nbands, tolerance=1e-7, max_iterations=60):\n"
                                        "    pass\n",
         "src/repro/pw/scf.py": "def solve(h):\n"
                                         "    return block_davidson(h, None, 1, tolerance=1e-3)\n",
         "tests/pw/test_eigensolver.py": "block_davidson(h, g, 2, max_iterations=200)\n",
         "src/repro/exec/scheduler.py": "class Scheduler:\n"
                                        "    def __init__(self, policy='fifo', cost_fn=None):\n"
                                        "        pass\n",
         "src/repro/batch/runner.py": "scheduler = Scheduler('fifo')\n",
         "src/repro/pw/pseudopotential.py": "def ewald_energy(cell, positions, charges, eta=None):\n    pass\n",
         "examples/ewald.py": "energy = ewald_energy(cell, positions, charges, eta=0.5)\n"},
        ("src/repro/pw/eigensolver.py", "src/repro/exec/scheduler.py", "src/repro/pw/pseudopotential.py")),
    every_import_is_named: (
        {"src/repro/store/store.py": "import os\nimport json\n\ntext = json.dumps({})\n",
         "src/repro/pw/hamiltonian.py": "from dataclasses import dataclass, field\n\n\n@dataclass\nclass E:\n    pass\n",
         "src/repro/pw/__init__.py": '"""Re-exports."""\nfrom .grid import FFTGrid\n\n__all__ = ["FFTGrid"]\n',
         "src/repro/core/batching.py": "from ..pw.hamiltonian import apply_many, update_potentials_many\n",
         "src/repro/core/propagators/pt_cn.py": "from ...pw.density import compute_density\n"},
        ("src/repro/store/store.py", "src/repro/pw/hamiltonian.py")),
    reach_list_is_well_formed: (
        {"src/repro/pw/lattice.py": "class Cell:\n    @property\n    def volume(self):\n        return 1.0\n\n"
                                    "    def __eq__(self, other):\n        return True\n",
         "benchmarks/reach.json": _reach_json(
             ("src/repro/pw/lattice.py:Cell.volume", "error_path", "raises on a degenerate cell"),
             ("src/repro/pw/lattice.py:Cell.volume", "user_api", "the README names it"),
             ("src/repro/pw/lattice.py:Cell.area", "user_api", "the README names it"),
             ("src/repro/pw/lattice.py:Cell", "user_api", "the README names it"),
             ("src/repro/pw/lattice.py:Cell.__eq__", "only_tests", "tests compare cells"),
             ("src/repro/pw/lattice.py:Cell.__eq__", "language_hook", " "))},
        "benchmarks/reach.json"),
    transform_state_lives_on_its_owner: (
        {"src/repro/pw/fft.py": "_PLANS = {}\n_generation = 0\n_workers = 1\n_AXES = (-3, -2, -1)\n\n\n"
                                "def set_fft_workers(n):\n    global _workers\n    _workers = n\n\n\n"
                                "def get_plan(grid):\n    plan = _PLANS.get(grid, _AXES)\n"
                                "    _PLANS[grid] = plan\n    return plan\n\n\n"
                                "def clear_plan_cache():\n    global _generation\n    _PLANS.clear()\n",
         "src/repro/pw/poisson.py": "_BARE_KERNELS = {}\n\n\n"
                                    "def bare_coulomb_kernel(grid):\n    _BARE_KERNELS[grid] = grid\n",
         "src/repro/pw/laser.py": "_SAWTOOTH_CACHE = OrderedDict()\n\n\n"
                                  "def sawtooth_position(grid):\n    del _SAWTOOTH_CACHE[grid]\n",
         "src/repro/pw/pseudopotential.py": "_PROJECTOR_CACHE = {}\n_EWALD_CACHE = {}\n\n\n"
                                            "def _memoised(cache, key, build):\n"
                                            "    cache[key] = build()\n    return cache[key]\n\n\n"
                                            "def ewald_energy(cell):\n"
                                            "    return _memoised(_EWALD_CACHE, cell, float)\n",
         "src/repro/core/observables.py": "_SEEN = []\n\n\nclass Recorder:\n"
                                          "    def record(self, value):\n        _SEEN.append(value)\n",
         "src/repro/perf/sweep_cost.py": "_DISCRETISATIONS = {}\n\n\n"
                                         "def discretisation(config):\n    _DISCRETISATIONS[config] = 1\n"},
        ("src/repro/pw/fft.py", "src/repro/pw/poisson.py", "src/repro/pw/laser.py",
         "src/repro/pw/pseudopotential.py", "src/repro/core/observables.py")),
}


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_rule_holds(rule):
    found = rule(ROOT)
    assert not found, f"{rule.__name__}: {rule.__doc__}\n" + "\n".join(found)


def _plant(root: pathlib.Path, files: dict[str, str]) -> pathlib.Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_rule_detects_a_break(rule, tmp_path):
    files, offenders = BREAKS[rule]
    found = rule(_plant(tmp_path, files))
    for offender in (offenders,) if isinstance(offenders, str) else offenders:
        assert any(line.startswith(f"{offender}:") for line in found), found


def test_uncalled_definitions_are_the_only_ones_flagged(tmp_path):
    """In its break tree, ``src_holds_what_the_system_calls`` flags the helper
    only a test calls, the method only a docstring names, the method only an
    ``Enum`` member's value spells and the class only an import and an
    ``__all__`` entry name, and passes the registered builder, the listed
    writer and the listed method an example calls."""
    found = src_holds_what_the_system_calls(_plant(tmp_path, BREAKS[src_holds_what_the_system_calls][0]))
    assert sorted(found) == [
        "src/repro/parallel/comm.py:6: SimCommunicator.gather",
        "src/repro/pw/basis.py:2: Wavefunction.rotate",
        "src/repro/pw/lattice.py:1: Cell",
        "src/repro/store/store.py:2: ResultStore.completed_ids",
    ]


def test_malformed_reach_entries_are_the_only_ones_flagged(tmp_path):
    """In its break tree, ``reach_list_is_well_formed`` passes the first
    ``Cell.volume`` entry and flags its second listing, a method gone from its
    file, a class (the probe lists functions and methods only), a class that
    is not in ``CLASSES`` and a blank reason."""
    found = reach_list_is_well_formed(_plant(tmp_path, BREAKS[reach_list_is_well_formed][0]))
    assert found == [
        "benchmarks/reach.json:src/repro/pw/lattice.py:Cell.volume: listed twice",
        "benchmarks/reach.json:src/repro/pw/lattice.py:Cell.area: no such function or method under src/",
        "benchmarks/reach.json:src/repro/pw/lattice.py:Cell: no such function or method under src/",
        "benchmarks/reach.json:src/repro/pw/lattice.py:Cell.__eq__: class 'only_tests' is not one of "
        f"{sorted(reach.CLASSES)}",
        "benchmarks/reach.json:src/repro/pw/lattice.py:Cell.__eq__: listed twice",
        "benchmarks/reach.json:src/repro/pw/lattice.py:Cell.__eq__: no reason",
    ]


def test_unowned_state_is_the_only_state_flagged(tmp_path):
    """In its break tree, ``transform_state_lives_on_its_owner`` flags the
    parent commit's process-wide transform state (``_PLANS``, ``_generation``,
    ``_workers``, ``_BARE_KERNELS``, ``_SAWTOOTH_CACHE``), a list a method
    appends to and the allowlisted table nothing mutates any more, and passes
    a module constant only read, the allowlisted table a helper mutates
    through its parameter, and a memo outside ``pw`` and ``core``."""
    found = transform_state_lives_on_its_owner(_plant(tmp_path, BREAKS[transform_state_lives_on_its_owner][0]))
    assert sorted(found) == [
        "src/repro/core/observables.py:6: _SEEN",
        "src/repro/pw/fft.py:14: _PLANS",
        "src/repro/pw/fft.py:19: _generation",
        "src/repro/pw/fft.py:20: _PLANS",
        "src/repro/pw/fft.py:8: _workers",
        "src/repro/pw/laser.py:5: _SAWTOOTH_CACHE",
        "src/repro/pw/poisson.py:5: _BARE_KERNELS",
        "src/repro/pw/pseudopotential.py:_PROJECTOR_CACHE: on PROCESS_WIDE, but not mutated or gone",
    ]


def test_the_process_wide_allowlist_stays_short(tmp_path, monkeypatch):
    """A fifth ``PROCESS_WIDE`` entry fails the rule, however good its reason."""
    for n in range(5 - len(PROCESS_WIDE)):
        monkeypatch.setitem(PROCESS_WIDE, f"src/repro/pw/extra.py:_TABLE_{n}", "a reason")
    found = transform_state_lives_on_its_owner(_plant(tmp_path, {_CALLER: "print()\n"}))
    assert found == ["PROCESS_WIDE: 5 entries, more than 4"]


_CALLER = "examples/run.py"

#: one definition each, judged alone: the tree and what the rule must report for it
DEFINITION_CASES = {
    "a_helper_only_a_test_calls": (
        {"src/repro/pw/grid.py": "def wrap(x):\n    return x\n",
         "tests/pw/test_grid.py": "from repro.pw.grid import wrap\nassert wrap(1) == 1\n"},
        ["src/repro/pw/grid.py:1: wrap"]),
    "a_method_only_a_docstring_names": (
        {"src/repro/store/store.py": "class ResultStore:\n"
                                     "    def ids(self):\n"
                                     "        return set()\n",
         _CALLER: '"""ResultStore.ids"""\ndef main():\n    """ids"""\n# ids\nmain()\n'},
        ["src/repro/store/store.py:1: ResultStore", "src/repro/store/store.py:2: ResultStore.ids"]),
    "a_function_only_its_own_body_calls": (
        {"src/repro/pw/lattice.py": "def depth(n):\n    return 0 if n == 0 else depth(n - 1)\n"},
        ["src/repro/pw/lattice.py:1: depth"]),
    "a_method_only_an_enum_value_names": (
        {"src/repro/parallel/comm.py": _ENUM_NAMED_METHOD,
         _CALLER: "from repro.parallel.comm import CollectiveKind, SimCommunicator\n"
                  "print(CollectiveKind, SimCommunicator)\n"},
        ["src/repro/parallel/comm.py:6: SimCommunicator.gather"]),
    "a_string_that_is_not_an_identifier": (
        {"src/repro/pw/lattice.py": "def volume():\n    return 1.0\n",
         _CALLER: 'print("cell volume ()")\n'},
        ["src/repro/pw/lattice.py:1: volume"]),
    "a_function_an_example_calls": (
        {"src/repro/pw/lattice.py": "def volume():\n    return 1.0\n",
         _CALLER: "from repro.pw.lattice import volume\nprint(volume())\n"},
        []),
    "a_method_a_benchmark_calls": (
        {"src/repro/pw/lattice.py": "class Cell:\n    def volume(self):\n        return 1.0\n",
         "benchmarks/bench_cell.py": "from repro.pw.lattice import Cell\nCell().volume()\n"},
        []),
    "a_method_named_by_a_getattr_string": (
        {"src/repro/pw/lattice.py": "class Cell:\n    def volume(self):\n        return 1.0\n",
         _CALLER: 'from repro.pw.lattice import Cell\nprint(getattr(Cell(), "volume")())\n'},
        []),
    "a_registered_builder": (
        {"src/repro/api/registry.py": '@register_pulse("none")\ndef _build_no_pulse():\n    return None\n'},
        []),
    "an_all_export": (
        {"src/repro/pw/lattice.py": "class Cell:\n    pass\n",
         "src/repro/pw/__init__.py": '__all__ = ["Cell"]\n'},
        ["src/repro/pw/lattice.py:1: Cell"]),
    "an_import_alias": (
        {"src/repro/pw/lattice.py": "class Cell:\n    pass\n",
         _CALLER: "from repro.pw.lattice import Cell as UnitCell\n"},
        ["src/repro/pw/lattice.py:1: Cell"]),
    "an_import_alias_an_example_calls": (
        {"src/repro/pw/lattice.py": "class Cell:\n    pass\n",
         _CALLER: "from repro.pw.lattice import Cell as UnitCell\nprint(UnitCell())\n"},
        []),
    "an_import_an_example_uses": (
        {"src/repro/pw/lattice.py": "class Cell:\n    pass\n",
         _CALLER: "from repro.pw.lattice import Cell\nprint(Cell())\n"},
        []),
    "a_dunder": (
        {"src/repro/pw/lattice.py": "class Cell:\n    def __len__(self):\n        return 3\n",
         _CALLER: "from repro.pw.lattice import Cell\nprint(len(Cell()))\n"},
        []),
    "an_allowlisted_writer": (
        {"src/repro/core/dynamics.py": "class Trajectory:\n    def save_npz(self, path):\n        pass\n",
         "benchmarks/reach.json": _LISTED_WRITERS,
         _CALLER: "from repro.core.dynamics import Trajectory\nprint(Trajectory)\n"},
        []),
    "an_unlisted_writer": (
        {"src/repro/core/dynamics.py": "class Trajectory:\n    def save_npz(self, path):\n        pass\n",
         _CALLER: "from repro.core.dynamics import Trajectory\nprint(Trajectory)\n"},
        ["src/repro/core/dynamics.py:2: Trajectory.save_npz"]),
    # a listed definition that runs, or is gone, is the probe's finding
    # (benchmarks/reach.py), and a gone one reach_list_is_well_formed's too
    "an_allowlisted_writer_an_example_calls": (
        {"src/repro/core/dynamics.py": "class Trajectory:\n    def save_npz(self, path):\n        pass\n",
         "benchmarks/reach.json": _LISTED_WRITERS,
         _CALLER: "from repro.core.dynamics import Trajectory\nTrajectory().save_npz('t.npz')\n"},
        []),
    "an_allowlisted_writer_gone_from_its_file": (
        {"src/repro/core/dynamics.py": "class Trajectory:\n    pass\n",
         "benchmarks/reach.json": _LISTED_WRITERS,
         _CALLER: "from repro.core.dynamics import Trajectory\nprint(Trajectory)\n"},
        []),
}


@pytest.mark.parametrize("case", DEFINITION_CASES)
def test_each_definition_is_judged_by_its_callers(case, tmp_path):
    files, expected = DEFINITION_CASES[case]
    assert sorted(src_holds_what_the_system_calls(_plant(tmp_path, files))) == expected


def test_the_allowlist_stays_short(tmp_path):
    """An eleventh statically uncalled definition fails the rule, however good
    its ``reach.json`` class and reason."""
    helpers = [f"helper_{n}" for n in range(STATICALLY_UNCALLED_CAP + 1)]
    found = src_holds_what_the_system_calls(_plant(tmp_path, {
        "src/repro/extra.py": "".join(f"def {name}():\n    pass\n" for name in helpers),
        "benchmarks/reach.json": _reach_json(*[(f"src/repro/extra.py:{name}", "user_api", "a reason")
                                               for name in helpers])}))
    assert len(found) == 1 and found[0].startswith("benchmarks/reach.json: 11 statically uncalled entries, more than 10")


def test_unpassed_parameters_are_the_only_ones_flagged(tmp_path):
    """In its break tree, ``every_parameter_is_passed`` flags the keyword only
    a test passes, the positional parameter no call reaches and the allowlist
    entry an example now passes, and passes the keyword ``src/`` passes and
    the positional one the call reaches."""
    found = every_parameter_is_passed(_plant(tmp_path, BREAKS[every_parameter_is_passed][0]))
    assert sorted(found) == [
        "src/repro/exec/scheduler.py:2: Scheduler.__init__(cost_fn)",
        "src/repro/pw/eigensolver.py:1: block_davidson(max_iterations)",
        "src/repro/pw/pseudopotential.py:ewald_energy(eta): on PASSED_FROM_OUTSIDE, but passed or gone",
    ]


_SOURCE = "src/repro/pw/lattice.py"

#: one parameter each, judged alone: the tree and what the rule must report for it
PARAMETER_CASES = {
    "a_keyword_a_caller_passes": (
        {_SOURCE: "def scaled(x, factor=1.0):\n    return x * factor\n",
         _CALLER: "print(scaled(2.0, factor=3.0))\n"},
        []),
    "a_keyword_only_a_test_passes": (
        {_SOURCE: "def scaled(x, factor=1.0):\n    return x * factor\n",
         _CALLER: "print(scaled(2.0))\n",
         "tests/pw/test_lattice.py": "assert scaled(2.0, factor=3.0) == 6.0\n"},
        [f"{_SOURCE}:1: scaled(factor)"]),
    "a_keyword_passed_to_another_callee": (
        {_SOURCE: "def scaled(x, factor=1.0):\n    return x * factor\n",
         _CALLER: "print(scaled(2.0), shifted(2.0, factor=3.0))\n"},
        [f"{_SOURCE}:1: scaled(factor)"]),
    "a_positional_a_caller_reaches": (
        {_SOURCE: "def scaled(x, factor=1.0, shift=0.0):\n    return x * factor + shift\n",
         _CALLER: "print(scaled(2.0, 3.0))\n"},
        [f"{_SOURCE}:1: scaled(shift)"]),
    "a_method_reached_past_self": (
        {_SOURCE: "class Cell:\n    def scaled(self, factor=1.0):\n        return factor\n",
         _CALLER: "print(Cell().scaled(3.0))\n"},
        []),
    "an_init_reached_through_its_class": (
        {_SOURCE: "class Cell:\n    def __init__(self, a, b=1.0):\n        self.a, self.b = a, b\n",
         _CALLER: "print(Cell(2.0, 3.0))\n"},
        []),
    "an_init_reached_through_cls": (
        {_SOURCE: "class Cell:\n"
                  "    def __init__(self, a=1.0):\n"
                  "        self.a = a\n"
                  "    @classmethod\n"
                  "    def cubic(cls, a):\n"
                  "        return cls(a)\n"},
        []),
    "an_init_reached_through_super": (
        {_SOURCE: "class Cell:\n"
                  "    def __init__(self, a=1.0):\n"
                  "        self.a = a\n"
                  "class Cubic(Cell):\n"
                  "    def __init__(self):\n"
                  "        super().__init__(a=2.0)\n"},
        []),
    "a_splat_into_the_callee": (
        {_SOURCE: "def scaled(x, factor=1.0, shift=0.0):\n    return x * factor + shift\n",
         _CALLER: "options = {'factor': 3.0}\nprint(scaled(2.0, **options))\n"},
        []),
    "a_registered_factorys_parameter_named_in_a_config": (
        {"src/repro/pw/molecules.py": "def hydrogen_molecule(box=12.0, bond_length=1.4):\n    pass\n",
         "src/repro/api/registry.py": "STRUCTURES.register('hydrogen_molecule', hydrogen_molecule)\n",
         _CALLER: "config = {'system': {'structure': 'hydrogen_molecule', 'params': {'box': 8.0}}}\n"},
        ["src/repro/pw/molecules.py:1: hydrogen_molecule(bond_length)"]),
    "a_decorated_factorys_parameter_in_a_sweep_path": (
        {"src/repro/api/registry.py": "@register_pulse('gaussian')\n"
                                      "def _build_gaussian_pulse(amplitude, phase=0.0):\n"
                                      "    pass\n",
         _CALLER: "axes = {'laser.params.phase': [0.0, 1.0]}\n"},
        []),
    "a_factory_dispatched_by_its_name": (
        {"src/repro/pw/molecules.py": "def atom_chain(species, n_atoms=4, spacing=2.0):\n    pass\n",
         "src/repro/assets/builtin.py": "payload = {'generator': 'atom_chain', 'n_atoms': 4}\n"},
        ["src/repro/pw/molecules.py:1: atom_chain(spacing)"]),
    "a_string_names_no_parameter_of_a_plain_function": (
        {_SOURCE: "def scaled(x, factor=1.0):\n    return x * factor\n",
         _CALLER: "print(scaled(2.0), 'factor')\n"},
        [f"{_SOURCE}:1: scaled(factor)"]),
    "an_allowlisted_parameter": (
        {"src/repro/pw/pseudopotential.py": "def ewald_energy(cell, positions, charges, eta=None):\n    pass\n"},
        []),
    "an_allowlisted_parameter_a_caller_passes": (
        {"src/repro/pw/pseudopotential.py": "def ewald_energy(cell, positions, charges, eta=None):\n    pass\n",
         _CALLER: "print(ewald_energy(cell, positions, charges, 0.5))\n"},
        ["src/repro/pw/pseudopotential.py:ewald_energy(eta): on PASSED_FROM_OUTSIDE, but passed or gone"]),
    "an_allowlisted_parameter_gone_from_its_file": (
        {"src/repro/pw/pseudopotential.py": "def ewald_energy(cell, positions, charges):\n    pass\n"},
        ["src/repro/pw/pseudopotential.py:ewald_energy(eta): on PASSED_FROM_OUTSIDE, but passed or gone"]),
}


@pytest.mark.parametrize("case", PARAMETER_CASES)
def test_each_parameter_is_judged_by_its_callers(case, tmp_path):
    files, expected = PARAMETER_CASES[case]
    assert sorted(every_parameter_is_passed(_plant(tmp_path, files))) == expected


def test_the_parameter_allowlist_stays_short(tmp_path, monkeypatch):
    """An eleventh ``PASSED_FROM_OUTSIDE`` entry fails the rule, however good its reason."""
    for n in range(11 - len(PASSED_FROM_OUTSIDE)):
        monkeypatch.setitem(PASSED_FROM_OUTSIDE, f"src/repro/extra.py:helper(option_{n})", "a reason")
    found = every_parameter_is_passed(_plant(tmp_path, {_CALLER: "print()\n"}))
    assert found == ["PASSED_FROM_OUTSIDE: 11 entries, more than 10"]
