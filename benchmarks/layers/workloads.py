"""The four workloads: what each one builds in set-up, what one timed section
runs, and what it counts from the results.

Every workload is closed-loop with one client: the next rep starts when the
previous one returned. ``--seed`` draws the +-1 % time-step jitter, the laser
amplitudes and the tenant submission order; the program only ever sees the
generated configs. Each workload has *cold* sections (compute) and a *warm*
sample (the same jobs served from a filled :class:`~repro.store.ResultStore`).

Why these four, and which layer is busy or idle in each, is in README.md.
"""

from __future__ import annotations

import asyncio
import contextlib
import pathlib
import random
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import Session, SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.batch.report import JobResult, SweepReport
from repro.campaign import Budget, CampaignSpec
from repro.exec import ExecutionSettings
from repro.service import CampaignService, NodePool
from repro.store import ResultStore

#: |N_e(t) - N_e(0)| every trajectory must stay within. RK4 is not unitary
#: (it loses ~dt^6 of the norm a step), so the RK4 time steps below are the
#: largest that keep this with a 10x margin.
ELECTRON_DRIFT_TOLERANCE = 1e-10

#: Si8's linear-mixing SCF never gets below a density change of ~8e-3 (local
#: pseudopotential) / ~1.2e-2 (nonlocal): it settles into a two-cycle whatever
#: the iteration count (README, "Known limits"). This is the tightest
#: tolerance the solver meets with margin on both; it stops after 2-3
#: iterations, which is as close to the fixed point as iteration 40 is.
SI8_GS_TOLERANCE = 1.5e-2


@dataclass
class Outcome:
    """What one timed section did, counted from the results it returned."""

    fs: float = 0.0  # simulated job-femtoseconds
    jobs: int = 0
    jobs_failed: int = 0
    cached: int = 0
    steps: int = 0
    steps_failed: int = 0
    ptcn_steps: int = 0
    scf_iters: int = 0
    h_apps: int = 0
    gs_solves: int = 0
    preemptions: int = 0
    export: str = ""  # deterministic physics export, for identity checks
    ledger: dict = field(default_factory=dict)  # summed ResultStore.stats
    problems: list[str] = field(default_factory=list)

    def add_trajectory(self, label: str, trajectory, dt_as: float, ptcn: bool, fresh: bool) -> None:
        steps = trajectory.n_steps
        self.fs += steps * dt_as * 1e-3
        self.steps += steps
        self.h_apps += trajectory.total_hamiltonian_applications
        if ptcn:
            self.ptcn_steps += steps
            self.scf_iters += int(np.sum(trajectory.scf_iterations[1:]))
        if fresh:  # a store-served trajectory carries no per-step statistics
            unconverged = sum(1 for stats in trajectory.step_statistics if not stats.converged)
            self.steps_failed += unconverged
            if unconverged:
                self.problems.append(f"{label}: {unconverged} PT-CN step(s) did not converge")
        drift = float(np.max(np.abs(trajectory.electron_numbers - trajectory.electron_numbers[0])))
        if not drift <= ELECTRON_DRIFT_TOLERANCE:
            self.problems.append(f"{label}: electron number drifted by {drift:.3g}")

    def add_report(self, label: str, report: SweepReport) -> None:
        for result in report.results:
            self.jobs += 1
            if result.status == "failed":
                self.jobs_failed += 1
                self.problems.append(f"{label}/{result.job_id}: {result.error}")
                continue
            self.cached += result.status == "cached"
            self.add_trajectory(
                f"{label}/{result.job_id}",
                result.trajectory,
                result.summary["time_step_as"],
                ptcn=result.summary["propagator"] == "ptcn",
                fresh=result.status == "completed",
            )
        self.preemptions += int(report.execution.get("preemptions", 0))

    def add_ledger(self, stats: dict) -> None:
        """Add a ``ResultStore.stats`` ledger to this section's."""
        for key, value in stats.items():
            self.ledger[key] = self.ledger.get(key, 0) + value

    def merge(self, other: "Outcome") -> None:
        """Add another section's counts, ledger and problems to this one."""
        for name in ("fs", "jobs", "jobs_failed", "cached", "steps", "steps_failed",
                     "ptcn_steps", "scf_iters", "h_apps", "gs_solves", "preemptions"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.add_ledger(other.ledger)
        self.problems += other.problems


class Workload:
    """Base: seeded inputs, a scratch directory, the section protocol."""

    name = ""
    why = ""
    cold_sections: tuple[str, ...] = ("default",)
    min_cold_reps = 12
    min_warm_samples = 20
    #: traced call counts that must be 0 in every cold section: the layers
    #: this workload exists to keep idle
    idle_counts: tuple[str, ...] = ()
    #: whether a cold section is a whole campaign pass, reported on its own
    #: as ``cold_wall_hru`` / ``cold_wall_s`` / ``gs_solves``
    reports_cold_pass = False
    #: store-served passes timed together as one warm sample (~0.15 s of work,
    #: about as long as the reference measurements that bracket it)
    warm_passes = 1

    def __init__(self, seed: int, scratch: pathlib.Path):
        self.rng = random.Random(seed)
        self.scratch = pathlib.Path(scratch)
        self.scratch.mkdir(parents=True, exist_ok=True)
        self._fresh = 0
        #: context manager entered around exactly the timed call of a section;
        #: a traced run puts the tracer's recording window here
        self.timed_section = contextlib.nullcontext

    def _timed(self, function):
        with self.timed_section():
            start = time.perf_counter()
            result = function()
            wall = time.perf_counter() - start
        return wall, result

    def jitter(self, value: float) -> float:
        """``value`` moved by a seeded +-1 %."""
        return round(value * (1.0 + self.rng.uniform(-0.01, 0.01)), 6)

    def amplitude(self, value: float) -> float:
        """A laser amplitude within a seeded +-5 % of ``value``."""
        return round(value * (1.0 + self.rng.uniform(-0.05, 0.05)), 6)

    def fresh_dir(self, stem: str) -> pathlib.Path:
        self._fresh += 1
        return self.scratch / f"{stem}-{self._fresh}"

    def setup(self) -> list[str]:
        """Build what the timed sections start from; returns failed checks."""
        raise NotImplementedError

    def cold(self, section: str) -> tuple[float, Outcome]:
        """One timed cold section: ``(wall seconds, outcome)``."""
        raise NotImplementedError

    def prepare_warm(self) -> None:
        """Untimed: make sure a filled store exists for :meth:`warm`."""

    def warm_pass(self, outcome: Outcome) -> float:
        """One store-served pass, counted into ``outcome``; its timed wall."""
        raise NotImplementedError

    def warm(self) -> tuple[float, Outcome]:
        """One timed warm sample: :attr:`warm_passes` passes in which every
        job must come from the filled store, bit-identical to the cold run."""
        outcome = Outcome()
        wall = sum(self.warm_pass(outcome) for _ in range(self.warm_passes))
        if outcome.cached != outcome.jobs:
            outcome.problems.append(f"warm sample served {outcome.cached}/{outcome.jobs} jobs from the store")
        return wall, outcome

    def _runner_warm_pass(self, outcome: Outcome, root: pathlib.Path, cold_export: str) -> float:
        """A warm pass through ``BatchRunner(self.spec, store=root).run()``."""
        runner = BatchRunner(self.spec, store=root)
        wall, report = self._timed(runner.run)
        outcome.add_report(self.name, report)
        outcome.add_ledger(runner.store.stats)
        if report.to_json(exclude_timings=True) != cold_export:
            outcome.problems.append("warm physics export differs from the cold one")
        return wall


# ---------------------------------------------------------------------------
# Si8 hybrid: one job through Session.propagate
# ---------------------------------------------------------------------------


class _Si8Hybrid(Workload):
    """Si8, ecut 2.5, nonlocal pseudopotential, HSE06 propagation from a
    semi-local ground state (the ``examples/silicon_supercell.py`` config)."""

    propagator: dict = {}
    time_step_as = 0.0
    n_steps = 0

    def __init__(self, seed: int, scratch: pathlib.Path):
        super().__init__(seed, scratch)
        self.config = SimulationConfig.from_dict(
            {
                "system": {
                    "structure": "diamond_silicon",
                    "params": {"empirical": False, "include_nonlocal": True},
                },
                "basis": {"ecut": 2.5, "grid_factor": 1.0},
                "xc": {
                    "hybrid_mixing": 0.25,
                    "screening_length": 0.106,
                    "include_nonlocal": True,
                    "gs_hybrid_mixing": 0.0,
                },
                "laser": {
                    "pulse": "paper",
                    "params": {"amplitude": self.amplitude(0.002), "duration_fs": 1.2},
                },
                "propagator": self.propagator,
                "run": {
                    "time_step_as": self.jitter(self.time_step_as),
                    "n_steps": self.n_steps,
                    "gs_scf_tolerance": SI8_GS_TOLERANCE,
                    "gs_max_scf_iterations": 40,
                },
            }
        )
        self.spec = SweepSpec(self.config)
        self.job = self.spec.expand()[0]
        self.ground_state = None
        self._last = None
        self._store_root = None
        self._cold_export = ""

    def setup(self) -> list[str]:
        self.ground_state = Session(self.config).ground_state()
        return [] if self.ground_state.converged else ["ground state did not converge"]

    def cold(self, section: str) -> tuple[float, Outcome]:
        session = Session(self.config)  # sessions cache trajectories: a new one per rep
        session.adopt_ground_state(self.ground_state)
        wall, trajectory = self._timed(session.propagate)
        self._last = trajectory
        outcome = Outcome(jobs=1)
        outcome.add_trajectory(
            self.name, trajectory, self.config.run.time_step_as,
            ptcn=self.config.propagator.name == "ptcn", fresh=True,
        )
        return wall, outcome

    def prepare_warm(self) -> None:
        result = JobResult.from_trajectory(self.job, self._last)
        self._store_root = self.fresh_dir("warm-store")
        ResultStore(self._store_root).save(result)
        self._cold_export = SweepReport([result], axes=self.spec.axis_paths).to_json(exclude_timings=True)

    def warm_pass(self, outcome: Outcome) -> float:
        return self._runner_warm_pass(outcome, self._store_root, self._cold_export)


class Si8HsePtcn(_Si8Hybrid):
    name = "si8_hse_ptcn"
    why = ("the paper's production case: pw.exchange does most of the work, inside PT-CN's implicit "
           "inner SCF (Anderson, densities, orthogonalisation on top)")
    propagator = {"name": "ptcn", "params": {"scf_tolerance": 1e-5, "max_scf_iterations": 25}}
    time_step_as = 50.0
    n_steps = 2
    warm_passes = 40


class Si8HseRk4(_Si8Hybrid):
    name = "si8_hse_rk4"
    why = ("the paper's baseline: the same pw.exchange layer with exactly 4 Fock applications a step, "
           "no inner SCF, no Anderson - an inner-loop reuse trick must show no change here")
    idle_counts = ("core.anderson.update_calls", "pw.orthogonalization.calls")
    propagator = {"name": "rk4", "params": {}}
    time_step_as = 0.5
    n_steps = 4
    warm_passes = 40


# ---------------------------------------------------------------------------
# Si8 semi-local: one ground-state group of 8 jobs through BatchRunner
# ---------------------------------------------------------------------------


class Si8LdaSweep(Workload):
    name = "si8_lda_sweep"
    why = ("semi-local Si8, 8 jobs sharing one ground state through BatchRunner and a store: pw.exchange "
           "idle; fft/poisson/xc/anderson/batching plus batch/exec orchestration and store writes carry it")
    cold_sections = ("default", "lockstep")
    idle_counts = ("pw.exchange.apply_calls",)
    warm_passes = 8
    _settings = {"default": ExecutionSettings(), "lockstep": ExecutionSettings(batch_stepping=True)}

    def __init__(self, seed: int, scratch: pathlib.Path):
        super().__init__(seed, scratch)
        base = SimulationConfig.from_dict(
            {
                "system": {
                    "structure": "diamond_silicon",
                    "params": {"empirical": True, "include_nonlocal": False},
                },
                "basis": {"ecut": 2.5, "grid_factor": 1.0},
                "xc": {"hybrid_mixing": 0.0, "include_nonlocal": False},
                "laser": {
                    "pulse": "paper",
                    "params": {"amplitude": self.amplitude(0.002), "duration_fs": 1.2},
                },
                "run": {"gs_scf_tolerance": SI8_GS_TOLERANCE, "gs_max_scf_iterations": 40},
            }
        )
        rk4 = {"name": "rk4", "params": {}}
        ptcn = {"name": "ptcn", "params": {"scf_tolerance": 1e-5, "max_scf_iterations": 25}}
        self.spec = SweepSpec(
            base,
            {
                "propagator": [rk4] * 4 + [ptcn] * 4,
                "run": [{"time_step_as": self.jitter(0.5), "n_steps": 4} for _ in range(4)]
                + [{"time_step_as": self.jitter(10.0), "n_steps": 3} for _ in range(4)],
            },
            mode="zip",
        )
        self._seed_root = None
        self._exports: dict[str, str] = {}
        self._warm_root = None

    def setup(self) -> list[str]:
        self._seed_root = self.fresh_dir("seed-store")
        runner = BatchRunner(self.spec, store=self._seed_root)
        solved = runner.prepare_ground_states()
        (key,) = runner.groups()
        seeded = runner.store.load_ground_state(key)
        problems = []
        if solved != 1:
            problems.append(f"set-up ran {solved} ground-state solves for one group")
        if seeded is None or not seeded.converged:
            problems.append("seeded ground state missing or not converged")
        return problems

    def cold(self, section: str) -> tuple[float, Outcome]:
        root = self.fresh_dir(f"{section}-store")
        shutil.copytree(self._seed_root, root)  # the seeded ground state only
        runner = BatchRunner(self.spec, store=root, settings=self._settings[section])
        solved = runner.prepare_ground_states()  # untimed: adopts the seeded SCF
        wall, report = self._timed(runner.run)
        outcome = Outcome(gs_solves=solved, export=report.to_json(exclude_timings=True))
        outcome.add_report(f"{self.name}:{section}", report)
        outcome.add_ledger(runner.store.stats)
        if solved:
            outcome.problems.append(f"{section}: re-solved {solved} seeded ground state(s)")
        self._exports[section] = outcome.export
        if section == "lockstep" and outcome.export != self._exports.get("default"):
            outcome.problems.append("lockstep physics export differs from the default one")
        if section == "default":
            if self._warm_root is not None:
                shutil.rmtree(self._warm_root)
            self._warm_root = root
        else:
            shutil.rmtree(root)
        return wall, outcome

    def warm_pass(self, outcome: Outcome) -> float:
        return self._runner_warm_pass(outcome, self._warm_root, self._exports["default"])


# ---------------------------------------------------------------------------
# H2: two tenants through CampaignService on a shared pool and store
# ---------------------------------------------------------------------------


class H2Campaign(Workload):
    name = "h2_campaign"
    why = ("16 tiny H2 jobs from two tenants through service/planner/runner/exec/session/store/calib: "
           "physics small enough that orchestration shows; cold is SCF- and store-write-bound, warm "
           "is hashing/planning/store-read-bound with zero physics")
    # a cold pass is 8 SCFs and 16 Session builds (~1.5 s)
    min_cold_reps = 6
    reports_cold_pass = True

    def __init__(self, seed: int, scratch: pathlib.Path):
        super().__init__(seed, scratch)
        base = {
            "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
            "basis": {"ecut": 2.0},
            "xc": {"hybrid_mixing": 0.0},
            "laser": {
                "pulse": "gaussian",
                "params": {"amplitude": 0.005, "omega": 0.35, "t0_as": 20.0, "sigma_as": 10.0},
            },
            "propagator": {"name": "rk4", "params": {}},
            "run": {"time_step_as": 1.0, "n_steps": 6, "gs_scf_tolerance": 1e-5},
        }
        self._base = base
        self._dts_rk4 = [self.jitter(1.0), self.jitter(1.5)]
        self._amplitudes = [self.amplitude(a) for a in (0.002, 0.004, 0.006, 0.008)]
        self._dts_ptcn = [self.jitter(dt) for dt in (5.0, 10.0, 20.0, 25.0)]
        self._order = ["tenant-a", "tenant-b"]
        self.rng.shuffle(self._order)
        self.tenants: dict[str, CampaignSpec] = {}
        self._cold_exports = None
        self._warm_root = None

    def setup(self) -> list[str]:
        rk4 = SimulationConfig.from_dict(self._base)
        ptcn = rk4.with_overrides(
            {"propagator": {"name": "ptcn", "params": {"scf_tolerance": 1e-6}},
             "run": {"time_step_as": 10.0}}
        )
        one_node = Budget(max_nodes=1)
        tenants = {
            "tenant-a": CampaignSpec(
                {"cutoff-dt": SweepSpec(rk4, {"basis.ecut": [1.5, 1.7, 2.0, 2.2],
                                              "run.time_step_as": self._dts_rk4})},
                budget=one_node,
            ),
            "tenant-b": CampaignSpec(
                {"amplitude": SweepSpec(ptcn, {"laser.params.amplitude": self._amplitudes}),
                 "dt": SweepSpec(ptcn, {"run.time_step_as": self._dts_ptcn})},
                budget=one_node,
            ),
        }
        self.tenants = {name: tenants[name] for name in self._order}
        n_jobs = sum(spec.n_jobs for spec in self.tenants.values())
        return [] if n_jobs == 16 else [f"campaign expands to {n_jobs} jobs, not 16"]

    async def _serve(self, root: pathlib.Path):
        store = ResultStore(root)
        service = CampaignService(NodePool("summit", n_nodes=2), store=store)
        handles = [service.submit(spec, name=name) for name, spec in self.tenants.items()]
        reports = await asyncio.gather(*(handle.report() for handle in handles))
        return store, dict(zip(self.tenants, reports))

    def _pass(self, root: pathlib.Path) -> tuple[float, Outcome]:
        wall, (store, reports) = self._timed(lambda: asyncio.run(self._serve(root)))
        outcome = Outcome(gs_solves=store.stats["gs_misses"])
        exports = {}
        for tenant, campaign in sorted(reports.items()):
            for sweep in campaign.sweep_names:
                outcome.add_report(f"{tenant}/{sweep}", campaign[sweep])
                exports[f"{tenant}/{sweep}"] = campaign[sweep].to_json(exclude_timings=True)
        outcome.export = "\n".join(f"{key}\n{text}" for key, text in sorted(exports.items()))
        outcome.add_ledger(store.stats)
        return wall, outcome

    def cold(self, section: str) -> tuple[float, Outcome]:
        root = self.fresh_dir("cold-store")
        wall, outcome = self._pass(root)
        if outcome.cached:
            outcome.problems.append(f"cold pass found {outcome.cached} job(s) already stored")
        if self._warm_root is not None:
            shutil.rmtree(self._warm_root)
        self._warm_root, self._cold_exports = root, outcome.export
        return wall, outcome

    def warm_pass(self, outcome: Outcome) -> float:
        wall, served = self._pass(self._warm_root)
        outcome.merge(served)
        if served.export != self._cold_exports:
            outcome.problems.append("warm physics export differs from the cold one")
        if served.gs_solves:
            outcome.problems.append(f"warm pass looked for {served.gs_solves} ground state(s)")
        return wall


WORKLOADS = {cls.name: cls for cls in (Si8HsePtcn, Si8HseRk4, Si8LdaSweep, H2Campaign)}
