"""Which public callables of ``repro`` the traced rep wraps, and how the
recorded spans turn into the per-layer metrics of the README glossary.

The span names are ``<package>.<module>[.<operation>]`` of the layer the call
*enters*; the metric names in :func:`layer_metrics` are the ones later issues
cite, so neither may be renamed without a new baseline.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import math
import pkgutil
import statistics

from trace import Tracer

PACKAGE = "repro"
#: the harness's own root span around each timed section; its self time is
#: the part of the timed wall no layer span covers
HARNESS_SPAN = "bench.section"

#: (span name, module, attribute path) — plain timed wrappers
_TARGETS = [
    ("pw.hamiltonian.apply", "repro.pw.hamiltonian", "Hamiltonian.apply"),
    ("pw.hamiltonian.update_potential", "repro.pw.hamiltonian", "Hamiltonian.update_potential"),
    ("pw.hamiltonian.energy", "repro.pw.hamiltonian", "Hamiltonian.energy"),
    ("pw.pseudopotential.nonlocal", "repro.pw.pseudopotential", "NonlocalPotential.apply"),
    ("pw.pseudopotential.nonlocal", "repro.pw.pseudopotential", "NonlocalPotential.energy"),
    ("pw.poisson.hartree", "repro.pw.poisson", "hartree_potential"),
    ("pw.xc.evaluate", "repro.pw.xc", "LDAFunctional.evaluate"),
    ("pw.xc.evaluate", "repro.pw.xc", "LDAFunctional.evaluate_many"),
    ("pw.density", "repro.pw.density", "compute_density"),
    ("pw.density", "repro.pw.density", "compute_density_many"),
    ("pw.orthogonalization", "repro.pw.orthogonalization", "cholesky_orthonormalize"),
    ("pw.orthogonalization", "repro.pw.orthogonalization", "lowdin_orthonormalize"),
    ("pw.orthogonalization", "repro.pw.orthogonalization", "orthonormality_error"),
    ("core.anderson.update", "repro.core.anderson", "AndersonMixer.update"),
    ("core.propagators.step", "repro.core.propagators.pt_cn", "PTCNPropagator.step"),
    ("core.propagators.step", "repro.core.propagators.rk4", "RK4Propagator.step"),
    ("core.batching.apply_many", "repro.core.batching", "apply_many"),
    ("core.batching.update_potentials_many", "repro.core.batching", "update_potentials_many"),
    ("core.dynamics.run", "repro.core.dynamics", "TDDFTSimulation.run"),
    ("core.dynamics.run", "repro.core.dynamics", "run_batched"),
    ("pw.eigensolver.davidson", "repro.pw.eigensolver", "block_davidson"),
    ("api.session.ground_state", "repro.api.session", "Session.ground_state"),
    ("api.session.propagate", "repro.api.session", "Session.propagate"),
    ("api.session.propagate", "repro.api.session", "Session.propagate_many"),
    ("api.config.hash", "repro.batch.sweep", "config_hash"),
    ("api.config.hash", "repro.batch.sweep", "ground_state_group_key"),
    ("batch.runner.run", "repro.batch.runner", "BatchRunner.run"),
    ("batch.runner.prepare", "repro.batch.runner", "BatchRunner.prepare_ground_states"),
    ("batch.report.build", "repro.batch.report", "SweepReport.__init__"),
    ("batch.report.build", "repro.batch.report", "SweepReport.to_dict"),
    ("batch.report.build", "repro.batch.report", "JobResult.from_trajectory"),
    ("exec.scheduler.schedule", "repro.exec.scheduler", "Scheduler.schedule"),
    ("exec.scheduler.pack", "repro.exec.scheduler", "Scheduler.pack"),
    ("exec.backends.execute_group", "repro.exec.backends", "execute_group"),
    ("campaign.planner.plan", "repro.campaign.planner", "CampaignPlanner.plan"),
    ("campaign.report.build", "repro.campaign.report", "CampaignReport.__init__"),
    ("campaign.report.build", "repro.campaign.report", "CampaignReport.to_dict"),
    ("service.service.submit", "repro.service.service", "CampaignService.submit"),
    ("service.runner.run_sweep", "repro.service.runner", "run_sweep"),
    ("service.pool.acquire", "repro.service.pool", "NodePool.acquire"),
    ("service.pool.release", "repro.service.pool", "NodePool.release"),
    ("store.load", "repro.store.store", "ResultStore.load"),
    ("store.load", "repro.store.store", "ResultStore.load_ground_state"),
    ("store.save", "repro.store.store", "ResultStore.save"),
    ("store.save", "repro.store.store", "ResultStore.save_ground_state"),
    ("store.has", "repro.store.store", "ResultStore.has"),
    ("store.has", "repro.store.store", "ResultStore.has_ground_state"),
    ("calib.append", "repro.calib.observations", "ObservationLog.append"),
    ("cost.predict", "repro.cost.model", "MachineCostModel.group_estimate"),
    ("cost.predict", "repro.perf.sweep_cost", "predict_group_cost"),
]


def _fft_batch(plan, values, *args, **kwargs) -> float:
    """Transforms in one batched FFT call: the product of the leading axes."""
    return float(math.prod(getattr(values, "shape", (1, 1, 1))[:-3]))


def _lockstep_width(cls, propagators, *args, **kwargs) -> float:
    return float(len(propagators))


def _exchange(tracer: Tracer, span: str):
    """``ExchangeOperator.apply`` / ``set_orbitals``: a span plus the deltas
    of the operator's own (exact) Poisson-solve and FFT counters."""

    def wrapper_for(original):
        def traced(self, *args, **kwargs):
            counters = self.counters
            solves, ffts = counters.poisson_solves, counters.ffts
            index = tracer.begin(span)
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.end(index)
                tracer.add("pw.exchange.poisson_solves", counters.poisson_solves - solves)
                tracer.add("pw.exchange.ffts", counters.ffts - ffts)

        return traced

    return wrapper_for


def _ground_state_solve(tracer: Tracer):
    """``GroundStateSolver.solve``: a span plus one event row with the SCF
    iterations it took and the (structure, basis, xc) identity of what it
    solved — a campaign that solves one identity twice wasted the second."""

    def wrapper_for(original):
        def traced(self, *args, **kwargs):
            if not tracer.recording:
                return original(self, *args, **kwargs)
            ham = self.hamiltonian
            exchange = ham.exchange
            identity = (
                ham.structure.positions.tobytes(),
                ham.structure.valence_charges.tobytes(),
                ham.grid.shape,
                float(ham.basis.ecut),
                ham.hybrid_mixing,
                None if exchange is None else exchange.screening_length,
                ham.nonlocal_psp.n_projectors,
            )
            index = tracer.begin("pw.ground_state.solve")
            try:
                result = original(self, *args, **kwargs)
            finally:
                tracer.end(index)
            tracer.events["pw.ground_state.solve"].append({
                "identity": hashlib.sha256(repr(identity).encode()).hexdigest()[:8],
                "ecut": float(ham.basis.ecut),
                "npw": int(ham.basis.npw),
                "scf_iterations": int(result.scf_iterations),
                "seconds": tracer.spans[index][2] - tracer.spans[index][1],
            })
            return result

        return traced

    return wrapper_for


def _store_bytes(tracer: Tracer, counter: str, size_of):
    """Byte counters on the store's object write/verify primitives (no span:
    their time belongs to the ``store.save`` / ``store.load`` that called)."""

    def wrapper_for(original):
        def counted(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            tracer.add(counter, size_of(result))
            return result

        return counted

    return wrapper_for


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute


def import_all() -> None:
    """Import every module of the package, so identity patching sees every
    namespace a function was ``from``-imported into."""
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.walk_packages(package.__path__, PACKAGE + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


@contextlib.contextmanager
def tracing():
    """Patch every layer boundary, yield the :class:`Tracer`, restore. Spans
    are only recorded inside ``tracer.record(HARNESS_SPAN)`` blocks."""
    import_all()
    tracer = Tracer()

    def patch(module_name, path, wrapper_for):
        owner, attribute = _resolve(module_name, path)
        tracer.patch(owner, attribute, wrapper_for, PACKAGE)

    try:
        for span, module_name, path in _TARGETS:
            patch(module_name, path, lambda original, span=span: tracer.wrap(span, original))
        for method in ("fftn", "ifftn"):
            patch("repro.pw.fft", f"FFTPlan.{method}",
                  lambda original: tracer.wrap("pw.fft", original, work=_fft_batch))
        for module_name, cls in (("repro.core.propagators.pt_cn", "PTCNPropagator"),
                                 ("repro.core.propagators.rk4", "RK4Propagator")):
            patch(module_name, f"{cls}.step_many",
                  lambda original: tracer.wrap("core.propagators.step_many", original, work=_lockstep_width))
        patch("repro.pw.exchange", "ExchangeOperator.apply", _exchange(tracer, "pw.exchange.apply"))
        patch("repro.pw.exchange", "ExchangeOperator.set_orbitals",
              _exchange(tracer, "pw.exchange.set_orbitals"))
        patch("repro.pw.ground_state", "GroundStateSolver.solve", _ground_state_solve(tracer))
        patch("repro.store.store", "ResultStore._write_object",
              _store_bytes(tracer, "store.bytes_written", lambda entry: entry["size"]))
        patch("repro.store.store", "ResultStore._verified_object",
              _store_bytes(tracer, "store.bytes_read",
                           lambda path: 0 if path is None else path.stat().st_size))
        yield tracer
    finally:
        tracer.restore()


# ---------------------------------------------------------------------------
# Spans -> metrics
# ---------------------------------------------------------------------------

#: (metric, unit) in glossary order; values come from :func:`layer_metrics`
LAYER_METRICS = [
    ("pw.fft.calls", "count"), ("pw.fft.transforms", "count"),
    ("pw.fft.mean_batch", "count"), ("pw.fft.busy_s", "s"),
    ("pw.exchange.apply_calls", "count"), ("pw.exchange.poisson_solves", "count"),
    ("pw.exchange.ffts", "count"), ("pw.exchange.busy_s", "s"),
    ("pw.exchange.self_s", "s"), ("pw.exchange.set_orbitals_s", "s"),
    ("pw.hamiltonian.apply_calls", "count"), ("pw.hamiltonian.apply_busy_s", "s"),
    ("pw.hamiltonian.apply_self_s", "s"), ("pw.hamiltonian.update_potential_calls", "count"),
    ("pw.hamiltonian.update_potential_busy_s", "s"), ("pw.hamiltonian.energy_calls", "count"),
    ("pw.hamiltonian.energy_busy_s", "s"),
    ("pw.pseudopotential.nonlocal_calls", "count"), ("pw.pseudopotential.nonlocal_busy_s", "s"),
    ("pw.poisson.hartree_calls", "count"), ("pw.poisson.busy_s", "s"),
    ("pw.xc.evaluate_calls", "count"), ("pw.xc.busy_s", "s"),
    ("pw.density.calls", "count"), ("pw.density.busy_s", "s"),
    ("pw.orthogonalization.calls", "count"), ("pw.orthogonalization.busy_s", "s"),
    ("core.anderson.update_calls", "count"), ("core.anderson.busy_s", "s"),
    ("core.propagators.step_calls", "count"), ("core.propagators.step_busy_s", "s"),
    ("core.propagators.step_self_s", "s"), ("core.propagators.step_ms_p50", "ms"),
    ("core.propagators.step_ms_p85", "ms"),
    ("core.batching.apply_many_calls", "count"), ("core.batching.busy_s", "s"),
    ("core.dynamics.run_busy_s", "s"), ("core.dynamics.self_s", "s"),
    ("pw.ground_state.solve_calls", "count"), ("pw.ground_state.solve_busy_s", "s"),
    ("pw.ground_state.scf_iterations", "count"), ("pw.ground_state.distinct_ratio", "ratio"),
    ("pw.eigensolver.davidson_calls", "count"), ("pw.eigensolver.busy_s", "s"),
    ("api.session.ground_state_busy_s", "s"), ("api.session.propagate_busy_s", "s"),
    ("api.session.self_s", "s"),
    ("api.config.hash_calls", "count"), ("api.config.hash_busy_s", "s"),
    ("batch.runner.run_busy_s", "s"), ("batch.runner.self_s", "s"),
    ("batch.report.build_busy_s", "s"),
    ("exec.scheduler.schedule_busy_s", "s"), ("exec.scheduler.pack_busy_s", "s"),
    ("exec.backends.execute_group_calls", "count"), ("exec.backends.busy_s", "s"),
    ("exec.backends.self_s", "s"),
    ("campaign.planner.plan_busy_s", "s"), ("campaign.report.build_busy_s", "s"),
    ("service.service.submit_busy_s", "s"),
    ("service.runner.run_sweep_busy_s", "s"), ("service.runner.self_s", "s"),
    ("service.pool.leases", "count"), ("service.pool.acquire_wait_s", "s"),
    ("service.pool.preemptions", "count"),
    ("store.load_calls", "count"), ("store.load_busy_s", "s"),
    ("store.save_calls", "count"), ("store.save_busy_s", "s"),
    ("store.hits", "count"), ("store.misses", "count"), ("store.hit_ratio", "ratio"),
    ("store.bytes_written", "bytes"), ("store.bytes_read", "bytes"),
    ("store.deduplicated", "count"), ("store.quarantined", "count"),
    ("calib.append_calls", "count"), ("calib.busy_s", "s"),
    ("cost.predict_calls", "count"), ("cost.busy_s", "s"),
    ("orchestration_frac", "ratio"),
    ("trace.coverage", "ratio"), ("trace.overhead_frac", "ratio"),
]

#: the lockstep section of ``si8_lda_sweep`` repeats these under a
#: ``lockstep.`` prefix — what `lockstep_wall_hru_per_fs` should move with
LOCKSTEP_METRICS = [
    "pw.fft.calls", "pw.fft.mean_batch", "pw.fft.busy_s",
    "core.propagators.step_ms_p50", "core.batching.apply_many_calls", "core.batching.busy_s",
    "exec.backends.busy_s", "trace.coverage",
]

#: the warm (store-served) sample repeats these under a ``warm.`` prefix — the
#: layers `warm_mhru_per_job` is made of, plus the counts that must be zero
WARM_METRICS = [
    "pw.ground_state.solve_calls", "core.propagators.step_calls",
    "store.load_calls", "store.load_busy_s", "store.hit_ratio", "store.bytes_read",
    "api.config.hash_calls", "api.config.hash_busy_s",
    "batch.report.build_busy_s", "exec.backends.busy_s", "exec.scheduler.schedule_busy_s",
    "campaign.planner.plan_busy_s", "service.runner.self_s", "cost.busy_s",
    "orchestration_frac", "trace.coverage",
]


def ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    """``numerator / denominator``, or ``empty`` when there was nothing to divide by."""
    return numerator / denominator if denominator else empty


def step_samples(tracer: Tracer) -> list[float]:
    """Seconds per job-step: a lockstep call advances ``work`` jobs by one
    step each, so it contributes ``work`` samples of ``duration / work``."""
    samples = tracer.durations("core.propagators.step")
    for name, start, end, _parent, work in tracer.spans:
        if name == "core.propagators.step_many":
            samples += [(end - start) / work] * int(work)
    return samples


def step_percentiles(samples: list[float]) -> dict[str, float]:
    """The two per-step metrics, from step samples pooled over traced reps."""
    ordered = sorted(samples)
    p85 = ordered[min(len(ordered) - 1, int(0.85 * len(ordered)))] if ordered else 0.0
    return {
        "core.propagators.step_ms_p50": 1e3 * (statistics.median(ordered) if ordered else 0.0),
        "core.propagators.step_ms_p85": 1e3 * p85,
    }


def layer_metrics(tracer: Tracer, traced_wall: float, overhead: float, ledger: dict,
                  preemptions: int = 0) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one traced section.

    ``traced_wall`` is the harness-timed wall of the section, ``overhead``
    its host-normalised wall over that of the same section with tracing off,
    minus 1, and ``ledger`` the ``ResultStore.stats`` of the stores it used.
    """
    totals = tracer.totals()
    counters = tracer.counters

    def of(name: str, key: str) -> float:
        return float(totals.get(name, {}).get(key, 0.0))

    def busy(*names: str) -> float:
        return sum(of(name, "busy_s") for name in names)

    def self_s(*names: str) -> float:
        return sum(of(name, "self_s") for name in names)

    def calls(*names: str) -> float:
        return sum(of(name, "calls") for name in names)

    solves = tracer.events["pw.ground_state.solve"]
    distinct = {solve["identity"] for solve in solves}
    hits, misses = ledger.get("hits", 0), ledger.get("misses", 0)
    physics = tracer.union_busy(["api.session.ground_state", "api.session.propagate"])
    values = {
        "pw.fft.calls": calls("pw.fft"),
        "pw.fft.transforms": of("pw.fft", "work"),
        "pw.fft.mean_batch": ratio(of("pw.fft", "work"), calls("pw.fft")),
        "pw.fft.busy_s": busy("pw.fft"),
        "pw.exchange.apply_calls": calls("pw.exchange.apply"),
        "pw.exchange.poisson_solves": counters.get("pw.exchange.poisson_solves", 0.0),
        "pw.exchange.ffts": counters.get("pw.exchange.ffts", 0.0),
        "pw.exchange.busy_s": busy("pw.exchange.apply"),
        "pw.exchange.self_s": self_s("pw.exchange.apply"),
        "pw.exchange.set_orbitals_s": busy("pw.exchange.set_orbitals"),
        "pw.hamiltonian.apply_calls": calls("pw.hamiltonian.apply"),
        "pw.hamiltonian.apply_busy_s": busy("pw.hamiltonian.apply"),
        "pw.hamiltonian.apply_self_s": self_s("pw.hamiltonian.apply"),
        "pw.hamiltonian.update_potential_calls": calls("pw.hamiltonian.update_potential"),
        "pw.hamiltonian.update_potential_busy_s": busy("pw.hamiltonian.update_potential"),
        "pw.hamiltonian.energy_calls": calls("pw.hamiltonian.energy"),
        "pw.hamiltonian.energy_busy_s": busy("pw.hamiltonian.energy"),
        "pw.pseudopotential.nonlocal_calls": calls("pw.pseudopotential.nonlocal"),
        "pw.pseudopotential.nonlocal_busy_s": busy("pw.pseudopotential.nonlocal"),
        "pw.poisson.hartree_calls": calls("pw.poisson.hartree"),
        "pw.poisson.busy_s": busy("pw.poisson.hartree"),
        "pw.xc.evaluate_calls": calls("pw.xc.evaluate"),
        "pw.xc.busy_s": busy("pw.xc.evaluate"),
        "pw.density.calls": calls("pw.density"),
        "pw.density.busy_s": busy("pw.density"),
        "pw.orthogonalization.calls": calls("pw.orthogonalization"),
        "pw.orthogonalization.busy_s": busy("pw.orthogonalization"),
        "core.anderson.update_calls": calls("core.anderson.update"),
        "core.anderson.busy_s": busy("core.anderson.update"),
        "core.propagators.step_calls":
            calls("core.propagators.step") + of("core.propagators.step_many", "work"),
        "core.propagators.step_busy_s": busy("core.propagators.step", "core.propagators.step_many"),
        "core.propagators.step_self_s": self_s("core.propagators.step", "core.propagators.step_many"),
        **step_percentiles(step_samples(tracer)),
        "core.batching.apply_many_calls": calls("core.batching.apply_many"),
        "core.batching.busy_s": busy("core.batching.apply_many", "core.batching.update_potentials_many"),
        "core.dynamics.run_busy_s": busy("core.dynamics.run"),
        "core.dynamics.self_s": self_s("core.dynamics.run"),
        "pw.ground_state.solve_calls": calls("pw.ground_state.solve"),
        "pw.ground_state.solve_busy_s": busy("pw.ground_state.solve"),
        "pw.ground_state.scf_iterations": float(sum(solve["scf_iterations"] for solve in solves)),
        "pw.ground_state.distinct_ratio": ratio(len(distinct), len(solves), 1.0),
        "pw.eigensolver.davidson_calls": calls("pw.eigensolver.davidson"),
        "pw.eigensolver.busy_s": busy("pw.eigensolver.davidson"),
        "api.session.ground_state_busy_s": busy("api.session.ground_state"),
        "api.session.propagate_busy_s": busy("api.session.propagate"),
        "api.session.self_s": self_s("api.session.ground_state", "api.session.propagate"),
        "api.config.hash_calls": calls("api.config.hash"),
        "api.config.hash_busy_s": busy("api.config.hash"),
        "batch.runner.run_busy_s": busy("batch.runner.run"),
        "batch.runner.self_s": self_s("batch.runner.run", "batch.runner.prepare"),
        "batch.report.build_busy_s": busy("batch.report.build"),
        "exec.scheduler.schedule_busy_s": busy("exec.scheduler.schedule"),
        "exec.scheduler.pack_busy_s": busy("exec.scheduler.pack"),
        "exec.backends.execute_group_calls": calls("exec.backends.execute_group"),
        "exec.backends.busy_s": busy("exec.backends.execute_group"),
        "exec.backends.self_s": self_s("exec.backends.execute_group"),
        "campaign.planner.plan_busy_s": busy("campaign.planner.plan"),
        "campaign.report.build_busy_s": busy("campaign.report.build"),
        "service.service.submit_busy_s": busy("service.service.submit"),
        "service.runner.run_sweep_busy_s": busy("service.runner.run_sweep"),
        "service.runner.self_s": self_s("service.runner.run_sweep"),
        "service.pool.leases": counters.get("service.pool.acquire.calls", 0.0),
        "service.pool.acquire_wait_s": counters.get("service.pool.acquire.wall_s", 0.0),
        "service.pool.preemptions": float(preemptions),
        "store.load_calls": calls("store.load"),
        "store.load_busy_s": busy("store.load"),
        "store.save_calls": calls("store.save"),
        "store.save_busy_s": busy("store.save"),
        "store.hits": float(hits),
        "store.misses": float(misses),
        "store.hit_ratio": ratio(hits, hits + misses),
        "store.bytes_written": counters.get("store.bytes_written", 0.0),
        "store.bytes_read": counters.get("store.bytes_read", 0.0),
        "store.deduplicated": float(ledger.get("deduplicated", 0)),
        "store.quarantined": float(ledger.get("quarantined", 0)),
        "calib.append_calls": calls("calib.append"),
        "calib.busy_s": busy("calib.append"),
        "cost.predict_calls": calls("cost.predict"),
        "cost.busy_s": busy("cost.predict"),
        "orchestration_frac": 1.0 - ratio(physics, traced_wall),
        "trace.coverage": 1.0 - ratio(self_s(HARNESS_SPAN), traced_wall),
        "trace.overhead_frac": overhead,
    }
    if list(values) != [name for name, _ in LAYER_METRICS]:
        raise RuntimeError("layer_metrics and LAYER_METRICS disagree")
    return values


def ground_state_table(tracer: Tracer) -> list[dict]:
    """The ground-state solves of a traced section, in call order, each
    marked with the earlier solve of the same identity it repeats."""
    rows, first_seen = [], {}
    for solve in tracer.events["pw.ground_state.solve"]:
        number = len(rows) + 1
        first = first_seen.setdefault(solve["identity"], number)
        row = {key: solve[key] for key in ("identity", "ecut", "npw", "scf_iterations", "seconds")}
        row["repeats"] = None if first == number else first
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Executed Table 1 / Fig. 9 shares
# ---------------------------------------------------------------------------

#: span name -> component; a span without an entry inherits its parent's
_COMPONENT = {
    "pw.exchange.apply": "Fock exchange",
    "pw.exchange.set_orbitals": "Fock exchange",
    "pw.hamiltonian.apply": "local + FFT",
    "core.batching.apply_many": "local + FFT",
    "pw.pseudopotential.nonlocal": "nonlocal",
    "core.anderson.update": "Anderson mixing",
    "pw.density": "density/Poisson/xc",
    "pw.poisson.hartree": "density/Poisson/xc",
    "pw.xc.evaluate": "density/Poisson/xc",
    "pw.hamiltonian.update_potential": "density/Poisson/xc",
    "core.batching.update_potentials_many": "density/Poisson/xc",
    "pw.orthogonalization": "orthogonalisation",
    "pw.hamiltonian.energy": "observables",
    "core.dynamics.run": "observables",
    "core.propagators.step": "other (residual GEMMs, step glue)",
    "core.propagators.step_many": "other (residual GEMMs, step glue)",
}
COMPONENTS = list(dict.fromkeys(_COMPONENT.values()))


def component_shares(tracer: Tracer) -> dict[str, float]:
    """Share of the time under ``core.dynamics.run`` each component's self
    time takes (FFTs count toward the component that asked for them)."""
    own = tracer.self_times()
    component: list[str | None] = []
    seconds = dict.fromkeys(COMPONENTS, 0.0)
    for index, (name, _start, _end, parent, _work) in enumerate(tracer.spans):
        inherited = component[parent] if parent >= 0 else None
        if name == "core.dynamics.run" or inherited is not None:
            inherited = _COMPONENT.get(name, inherited)
        component.append(inherited)
        if inherited is not None:
            seconds[inherited] += own[index]
    total = sum(seconds.values())
    return {name: value / total if total else 0.0 for name, value in seconds.items()}
