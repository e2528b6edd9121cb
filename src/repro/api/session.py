"""The config-driven simulation driver: build once, compute on demand.

:class:`Session` turns a :class:`~repro.api.config.SimulationConfig` into the
live object graph (structure → grid → basis → pulse → Hamiltonian) lazily and
caches every intermediate result, so a batch driver can ask for the ground
state once and then fan out propagation runs, or request a performance report
without recomputing physics. The one-call conveniences :func:`run_tddft` and
:func:`compare_propagators` cover the two workflows every example and
benchmark in this repository used to hand-wire.
"""

from __future__ import annotations

from .. import __version__ as _repro_version
from ..analysis import format_table
from ..constants import attoseconds_to_au
from ..core.dynamics import BatchedRun, TDDFTSimulation, Trajectory, run_batched
from ..core.precision import DEFAULT_PRECISION, precision_dtype, resolve_precision
from ..pw.basis import Wavefunction
from ..pw.grid import FFTGrid, PlaneWaveBasis, choose_grid_shape
from ..pw.ground_state import GroundStateResult, GroundStateSolver
from ..pw.hamiltonian import Hamiltonian
from ..pw.laser import DeltaKick
from .config import LaserConfig, SimulationConfig
from .registry import PROPAGATORS, PULSES, STRUCTURES

__all__ = ["Session", "run_tddft", "compare_propagators"]


def _params_key(params: dict) -> tuple:
    """A hashable, order-independent cache key of a ``params`` dict."""
    return tuple(sorted((k, repr(v)) for k, v in params.items()))


class Session:
    """A lazily-built, caching simulation driven by a :class:`SimulationConfig`.

    All heavy objects (grid, basis, Hamiltonian, ground state, trajectories)
    are built on first access and reused afterwards; calling
    :meth:`ground_state` twice runs one SCF, and every :meth:`propagate` /
    :meth:`propagate_many` request with the same arguments returns the cached
    trajectory.

    The ground state is field-free and the field is switched on by the
    propagation at *t* = 0 (the usual rt-TDDFT convention), so one session
    serves every pulse of its material: a request may carry its own ``laser``.

    Every propagation — one request or many — runs on its own
    :meth:`~repro.pw.hamiltonian.Hamiltonian.clone` of :attr:`hamiltonian`
    carrying the request's pulse, so :attr:`hamiltonian` is never stepped: it
    holds neither the end-of-run time and potential nor the apply / Fock
    counts of a run. The counts of a run are on its trajectory
    (``total_hamiltonian_applications``, the per-step statistics).

    Parameters
    ----------
    config:
        The declarative simulation description; validated on construction.
    """

    def __init__(self, config: SimulationConfig):
        self.config = config.validate()
        self._structure = None
        self._grid: FFTGrid | None = None
        self._basis: PlaneWaveBasis | None = None
        self._pulses: dict[tuple, object] = {}
        self._hamiltonian: Hamiltonian | None = None
        self._ground_state: GroundStateResult | None = None
        self._trajectories: dict[tuple, Trajectory] = {}
        self._trajectory_labels: dict[tuple, str] = {}

    # ------------------------------------------------------------------
    # Lazily-built object graph
    # ------------------------------------------------------------------
    @property
    def structure(self):
        """The atomic :class:`~repro.pw.structures.Structure`."""
        if self._structure is None:
            cfg = self.config.system
            self._structure = STRUCTURES.create(cfg.structure, **cfg.params)
        return self._structure

    @property
    def grid(self) -> FFTGrid:
        """The FFT grid chosen for the configured cutoff."""
        if self._grid is None:
            cfg = self.config.basis
            cell = self.structure.cell
            self._grid = FFTGrid(cell, choose_grid_shape(cell, cfg.ecut, factor=cfg.grid_factor))
        return self._grid

    @property
    def basis(self) -> PlaneWaveBasis:
        """The plane-wave sphere on :attr:`grid`."""
        if self._basis is None:
            self._basis = PlaneWaveBasis(self.grid, self.config.basis.ecut)
        return self._basis

    def _pulse_for(self, laser: LaserConfig):
        """The pulse object of a ``laser`` section, built once per session."""
        key = (laser.pulse, _params_key(laser.params))
        if key not in self._pulses:
            self._pulses[key] = PULSES.create(laser.pulse, **laser.params)
        return self._pulses[key]

    def _external_field(self, pulse):
        """A pulse's length-gauge potential ``t -> V_ext(r, t)`` on this
        session's grid; ``None`` for no pulse and for a delta kick."""
        if pulse is None or not hasattr(pulse, "potential_factory"):
            return None
        return pulse.potential_factory(self.grid)

    def _build_hamiltonian(self, hybrid_mixing: float, external_field=None) -> Hamiltonian:
        xc = self.config.xc
        return Hamiltonian(
            self.basis,
            self.structure,
            hybrid_mixing=hybrid_mixing,
            screening_length=xc.screening_length,
            external_field=external_field,
            include_nonlocal=xc.include_nonlocal,
        )

    @property
    def pulse(self):
        """The configured pulse object (``None`` for field-free runs)."""
        return self._pulse_for(self.config.laser)

    @property
    def hamiltonian(self) -> Hamiltonian:
        """The propagation Hamiltonian: ``xc.hybrid_mixing`` and the
        configured pulse's field.

        A template — the ground state is solved on a field-free Hamiltonian
        of its own (:meth:`ground_state`) and every propagation runs on a
        clone of this one that carries the request's pulse — so it stays in
        its as-built state unless a caller steps it by hand.
        """
        if self._hamiltonian is None:
            self._hamiltonian = self._build_hamiltonian(
                self.config.xc.hybrid_mixing, self._external_field(self.pulse)
            )
        return self._hamiltonian

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def ground_state(self) -> GroundStateResult:
        """Converge (once) and return the field-free ground state.

        The SCF runs on a field-free Hamiltonian of its own, with
        ``xc.gs_hybrid_mixing`` if set (the paper's silicon workflow:
        semi-local ground state, hybrid propagation) and ``xc.hybrid_mixing``
        otherwise. No pulse enters it — the field is switched on by the
        propagation — so the result depends on exactly what
        :func:`~repro.batch.sweep.ground_state_group_key` carries.
        """
        if self._ground_state is None:
            xc = self.config.xc
            run = self.config.run
            mixing = xc.hybrid_mixing if xc.gs_hybrid_mixing is None else xc.gs_hybrid_mixing
            solver = GroundStateSolver(
                self._build_hamiltonian(mixing),
                scf_tolerance=run.gs_scf_tolerance,
                max_scf_iterations=run.gs_max_scf_iterations,
            )
            self._ground_state = solver.solve()
        return self._ground_state

    @property
    def ground_state_ready(self) -> bool:
        """Whether a ground state is already available (converged or adopted)
        — probing this never triggers an SCF."""
        return self._ground_state is not None

    def adopt_ground_state(self, result: GroundStateResult) -> None:
        """Inject a precomputed ground state instead of converging one.

        This is the session-reuse hook the execution backends rely on: a
        stored SCF (:meth:`~repro.pw.ground_state.GroundStateResult.save_npz`
        round-tripped through a :class:`~repro.store.ResultStore`) is
        adopted bit-for-bit, so a propagation from it is identical to one from
        an in-session SCF — the propagator re-synchronises the Hamiltonian
        potential from the initial orbitals in its ``prepare`` hook.

        Raises :class:`ValueError` if the result carries no orbitals (loaded
        without a basis) or its orbitals do not match this session's basis.
        """
        if result.wavefunction is None:
            raise ValueError(
                "cannot adopt ground state: result has no wavefunction "
                "(load it with the session's basis)"
            )
        npw = result.wavefunction.coefficients.shape[1]
        if npw != self.basis.npw:
            raise ValueError(
                f"cannot adopt ground state: orbitals have {npw} plane-wave "
                f"coefficients but this session's basis has {self.basis.npw}"
            )
        self._ground_state = result

    def initial_wavefunction(self) -> Wavefunction:
        """The propagation starting state: the ground state, kicked if the
        configured pulse is a :class:`~repro.pw.laser.DeltaKick`."""
        return self._initial_state(self.pulse)

    def _initial_state(self, pulse) -> Wavefunction:
        """The ground state, kicked if ``pulse`` is a delta kick."""
        wavefunction = self.ground_state().wavefunction
        if isinstance(pulse, DeltaKick):
            kicked = pulse.apply(self.grid, wavefunction.to_real_space())
            wavefunction = Wavefunction.from_real_space(
                self.basis, kicked, wavefunction.occupations
            )
        return wavefunction

    # ------------------------------------------------------------------
    def _resolve_propagation(
        self,
        propagator: str | None = None,
        time_step_as: float | None = None,
        n_steps: int | None = None,
        params: dict | None = None,
        precision: str | None = None,
        laser: LaserConfig | dict | None = None,
    ) -> dict:
        """Resolve one propagation request against the config: registry
        factory, effective params/step settings/laser and the cache key."""
        cfg = self.config
        name = cfg.propagator.name if propagator is None else propagator
        factory = PROPAGATORS.get(name)
        if params is None:
            # compare resolved factories, not strings, so registry aliases
            # (e.g. "pt-cn" for "ptcn") pick up the configured params too
            configured = factory is PROPAGATORS.get(cfg.propagator.name)
            params = dict(cfg.propagator.params) if configured else {}
        dt_as = cfg.run.time_step_as if time_step_as is None else float(time_step_as)
        steps = cfg.run.n_steps if n_steps is None else int(n_steps)
        precision = resolve_precision(precision)
        if laser is None:
            laser = cfg.laser
        elif isinstance(laser, dict):
            laser = LaserConfig(**laser)
        # keyed by factory identity so aliases share one cache entry
        key = (
            factory,
            dt_as,
            steps,
            _params_key(params),
            precision,
            laser.pulse,
            _params_key(laser.params),
        )
        return {
            "name": name,
            "factory": factory,
            "params": params,
            "dt_as": dt_as,
            "steps": steps,
            "precision": precision,
            "laser": laser,
            "key": key,
        }

    def _run_metadata(self, request: dict, scheme) -> dict:
        """Provenance stamped on a trajectory: the *effective* config of the
        run (overrides folded in), not the session's base config, so archived
        trajectories can be reproduced from their own metadata even when a
        batch driver ran many variants through one shared session."""
        laser = request["laser"]
        effective = self.config.with_overrides(
            {
                "laser": {"pulse": laser.pulse, "params": dict(laser.params)},
                "propagator": {"name": request["name"], "params": dict(request["params"])},
                "run": {"time_step_as": request["dt_as"], "n_steps": request["steps"]},
            }
        )
        metadata = {
            "propagator": request["name"],
            "integrator": scheme.name,
            "propagator_params": dict(request["params"]),
            "time_step_as": request["dt_as"],
            "n_steps": request["steps"],
            # run_batched deep-copies the metadata onto the trajectory, and
            # nothing else holds this config: its plain dict is copy enough
            "config": effective._plain(),
            "repro_version": _repro_version,
        }
        if request["precision"] != DEFAULT_PRECISION:
            # stamped only off the default tier: complex128 provenance stays
            # byte-identical to what stores and goldens already hold
            metadata["precision"] = request["precision"]
        assets = self._asset_provenance(laser)
        if assets:
            # asset-driven configs carry id -> content digest, so archived
            # trajectories pin exactly which payload versions produced them
            metadata["assets"] = assets
        return metadata

    def _asset_provenance(self, laser: LaserConfig) -> dict:
        """``asset:`` reference -> sha256 for every asset a run of ``laser``
        on this system names (``{}`` for registry-only configs, keeping their
        metadata unchanged)."""
        refs = [self.config.system.structure, laser.pulse]
        provenance = {}
        for name in refs:
            if not isinstance(name, str) or not name.startswith("asset:"):
                continue
            from ..assets import default_library

            provenance[name] = default_library().digest(name[len("asset:"):])
        return provenance

    def _store_trajectory(self, request: dict, scheme, trajectory: Trajectory) -> None:
        self._trajectories[request["key"]] = trajectory
        base = f"{scheme.name} @ {request['dt_as']:g} as"
        if request["precision"] != DEFAULT_PRECISION:
            base += f" ({request['precision']})"
        label, suffix = base, 2
        while label in self._trajectory_labels.values():
            label = f"{base} #{suffix}"
            suffix += 1
        self._trajectory_labels[request["key"]] = label

    def propagate(
        self,
        propagator: str | None = None,
        *,
        time_step_as: float | None = None,
        n_steps: int | None = None,
        params: dict | None = None,
        precision: str | None = None,
    ) -> Trajectory:
        """Run (or return the cached) propagation: :meth:`propagate_many` of
        this one request, so it too runs on a clone and leaves
        :attr:`hamiltonian` (state and counters) untouched.

        Parameters
        ----------
        propagator:
            Registry name of the integrator; defaults to the configured one.
            When the configured name is used, the configured propagator params
            apply as well (explicit ``params`` always win).
        time_step_as, n_steps:
            Optional overrides of the configured run parameters — useful for
            comparing integrators at their own natural step sizes.
        params:
            Optional propagator keyword arguments overriding the configured
            ones.
        precision:
            Precision tier of the orbital algebra: ``"complex128"`` (default)
            or the opt-in ``"complex64"`` screening tier (see
            :mod:`repro.core.precision`). Tiers cache separately.
        """
        (trajectory,) = self.propagate_many(
            [
                {
                    "propagator": propagator,
                    "time_step_as": time_step_as,
                    "n_steps": n_steps,
                    "params": params,
                    "precision": precision,
                }
            ]
        )
        return trajectory

    def propagate_many(
        self,
        requests: list[dict],
        *,
        precision: str | None = None,
    ) -> list[Trajectory]:
        """Run several propagations of this session's system in lockstep.

        Parameters
        ----------
        requests:
            One dict per job with any of the keys ``propagator``,
            ``time_step_as``, ``n_steps``, ``params``, ``precision`` — the
            same arguments (and defaulting, ``None`` meaning "as configured")
            as :meth:`propagate` — and ``laser``, the job's own
            :class:`~repro.api.LaserConfig` (or its dict form) in place of the
            configured one: its field drives the job's clone, a
            :class:`~repro.pw.laser.DeltaKick` kicks the job's initial state.
        precision:
            Default precision tier for requests that don't carry their own.

        All jobs share this session's field-free ground state and basis; each
        gets its own Hamiltonian clone (with its own pulse) and propagator so
        per-job time-dependent state never interferes. Jobs not yet cached
        advance through :func:`~repro.core.dynamics.run_batched` — stacked
        FFTs across jobs — and every resulting trajectory is bit-identical
        (``complex128``) to what the same request gets alone or in any other
        group, cached under one key either way. Returns the trajectories in
        request order.
        """
        resolved = [
            self._resolve_propagation(
                request.get("propagator"),
                request.get("time_step_as"),
                request.get("n_steps"),
                request.get("params"),
                request.get("precision", precision),
                request.get("laser"),
            )
            for request in requests
        ]
        pending: dict[tuple, dict] = {}
        for request in resolved:
            if request["key"] not in self._trajectories and request["key"] not in pending:
                pending[request["key"]] = request
        if pending:
            runs = []
            schemes = []
            for request in pending.values():
                pulse = self._pulse_for(request["laser"])
                ham = self.hamiltonian.clone()
                ham.external_field = self._external_field(pulse)
                scheme = request["factory"](ham, **request["params"])
                schemes.append(scheme)
                simulation = TDDFTSimulation(
                    ham,
                    scheme,
                    record_energy=self.config.run.record_energy,
                    record_dipole=self.config.run.record_dipole,
                )
                runs.append(
                    BatchedRun(
                        simulation=simulation,
                        initial_state=self._initial_state(pulse).astype(
                            precision_dtype(request["precision"])
                        ),
                        time_step=attoseconds_to_au(request["dt_as"]),
                        n_steps=request["steps"],
                        metadata=self._run_metadata(request, scheme),
                    )
                )
            trajectories = run_batched(runs)
            for request, scheme, trajectory in zip(pending.values(), schemes, trajectories):
                self._store_trajectory(request, scheme, trajectory)
        return [self._trajectories[request["key"]] for request in resolved]

    @property
    def trajectories(self) -> dict[str, Trajectory]:
        """All propagations run so far, keyed by a human-readable label."""
        return {
            self._trajectory_labels[key]: traj for key, traj in self._trajectories.items()
        }

    # ------------------------------------------------------------------
    def performance_report(self) -> str:
        """A plain-text table summarising every propagation of this session.

        Runs the configured default propagation first if nothing has been
        propagated yet, so the one-liner
        ``Session(config).performance_report()`` works.
        """
        if not self._trajectories:
            self.propagate()
        headers = [
            "integrator",
            "steps",
            "dt [as]",
            "Fock applies",
            "avg SCF/step",
            "energy drift [Ha]",
            "wall [s]",
        ]
        rows = []
        for key, trajectory in self._trajectories.items():
            rows.append(
                [
                    self._trajectory_labels[key],
                    trajectory.n_steps,
                    key[1],
                    trajectory.total_hamiltonian_applications,
                    trajectory.average_scf_iterations,
                    trajectory.energy_drift,
                    trajectory.wall_time,
                ]
            )
        gs = self._ground_state
        lines = [format_table(headers, rows)]
        if gs is not None:
            lines.append(
                f"ground state: E = {gs.total_energy:.8f} Ha, "
                f"{gs.scf_iterations} SCF iterations, converged={gs.converged}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# One-call conveniences
# ---------------------------------------------------------------------------


def run_tddft(config: SimulationConfig) -> Trajectory:
    """Ground state + propagation in one call, per the config. Returns the
    :class:`~repro.core.dynamics.Trajectory`."""
    return Session(config).propagate()


def compare_propagators(config: SimulationConfig, names: list[str]) -> dict[str, Trajectory]:
    """Propagate the same system/ground state with several integrators.

    The ground state and Hamiltonian are shared across all runs (one SCF
    total); every integrator uses the config's run parameters. Returns a
    mapping from registry name to trajectory, in the order given.
    """
    session = Session(config)
    return {name: session.propagate(name) for name in names}
