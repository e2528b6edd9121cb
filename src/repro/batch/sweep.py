"""Parameter-sweep expansion over declarative simulation configs.

A :class:`SweepSpec` turns one base :class:`~repro.api.SimulationConfig` plus
a set of *axes* into a flat list of :class:`SweepJob`\\ s — the unit of work
the :class:`~repro.batch.runner.BatchRunner` executes. An axis maps a
dotted-path override (the :meth:`~repro.api.SimulationConfig.with_overrides`
hook) to the values it sweeps over:

.. code-block:: python

    spec = SweepSpec(
        base_config,
        axes={
            "propagator.name": ["ptcn", "rk4"],
            # a bare section name pairs coupled fields (fixed time window):
            "run": [{"time_step_as": 10.0, "n_steps": 6},
                    {"time_step_as": 20.0, "n_steps": 3}],
        },
    )
    jobs = spec.expand()   # 4 jobs, Cartesian product

``mode="zip"`` pairs the axes element-wise instead of taking their product
(all axes must then have equal length) — the natural encoding of the paper's
PT-CN-at-50-as vs RK4-at-0.5-as comparisons, where each propagator runs at
its own step size.

A job's identity is fixed at expansion: :meth:`SweepSpec.expand` computes each
job's :func:`config_hash` and :func:`ground_state_group_key` once and the
:class:`SweepJob` carries them (``job_id`` embeds the hash), so the planner,
the scheduler, the backends and the store read fields instead of re-deriving
them from the config. A spec is a value — ``base``, ``axes`` and ``mode`` are
read-only — so it is expanded once however many layers (or submissions) ask;
re-expanding reproduces the same ids, the property resume relies on.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType

from ..api.config import ConfigError, SimulationConfig
from ..canonical import canonical_json
from ..perf.sweep_cost import discretisation

__all__ = ["SweepJob", "SweepSpec", "ground_state_group_key", "config_hash"]

#: run-section fields that only affect the propagation (or, for ``schedule``
#: and ``machine``, only how/where the sweep is modeled to run), never the
#: shared ground state — jobs differing in nothing else can share one SCF
_PROPAGATION_ONLY_RUN_FIELDS = ("time_step_as", "n_steps", "schedule", "machine")

#: run-section fields that never affect what a job computes, only when and on
#: which modeled hardware it runs — excluded from job identity entirely
_EXECUTION_ONLY_RUN_FIELDS = ("schedule", "machine")


def _asset_digests(names) -> dict:
    """``asset:`` reference -> the library's current content digest, for the
    references among ``names`` (a manifest lookup each, no payload read)."""
    overlay = {}
    for name in names:
        if not isinstance(name, str) or not name.startswith("asset:"):
            continue
        from ..assets import default_library

        overlay[name] = default_library().digest(name[len("asset:"):])
    return overlay


def _asset_digest_overlay(data: dict) -> dict:
    """:func:`_asset_digests` of the structure and pulse a config dict names.

    Folded into :func:`config_hash` and :func:`ground_state_group_key`, they
    keep store keys *content-true*: an asset whose payload changes gives new
    keys though the config text is unchanged. Configs without ``asset:``
    references hash exactly as before.
    """
    sections = zip((data.get("system"), data.get("laser")), ("structure", "pulse"))
    return _asset_digests([section.get(key) for section, key in sections if isinstance(section, dict)])


def config_hash(config: SimulationConfig | dict) -> str:
    """Short stable hash of a config (dict form), for checkpoint staleness checks.

    The hash is of :func:`repro.canonical.canonical_json` of the config's
    values, which are coerced to their declared types when the config is
    built, so configs that compare ``==`` hash alike: ``ecut`` 2, 2.0 and
    ``np.int64(2)`` are one key, the float-spelled one stores have always
    used. A dict is hashed as given (a :meth:`~repro.api.SimulationConfig.to_dict`).

    The ``run.schedule`` and ``run.machine`` sections are excluded: scheduling
    and machine modeling only decide *when* and *on what modeled hardware* a
    job runs, never what it computes, so rerunning a sweep under a different
    policy or machine must keep every job id and checkpoint valid.

    Configs referencing ``asset:`` ids additionally fold the assets' content
    digests into the hash (see :func:`_asset_digest_overlay`), so store keys
    track asset *content*, not just the id string.

    This is the *definition*; a :class:`SweepJob` carries the value
    (:attr:`SweepJob.config_hash`), which is what every layer reads.
    """
    data = config._plain() if isinstance(config, SimulationConfig) else config
    if isinstance(data.get("run"), dict):
        data = {**data, "run": {k: v for k, v in data["run"].items() if k not in _EXECUTION_ONLY_RUN_FIELDS}}
    assets = _asset_digest_overlay(data)
    if assets:
        data = {**data, "assets": assets}
    return hashlib.sha1(canonical_json(data).encode()).hexdigest()[:12]


#: bumped whenever the meaning of :func:`ground_state_group_key` changes, so a
#: store never serves a ground state solved under an older convention (1: the
#: key carried the ``laser`` section and the SCF saw the pulse's t = 0 tail;
#: 2: field-free SCF, the laser is not part of the key; 3: the SCF's Davidson
#: tolerance follows the density error, so orbitals differ from a version-2
#: solve at the level of ``gs_scf_tolerance``; 4: densities are Anderson-mixed
#: after a three-iteration linear warm-up; an SCF that needs more than three
#: iterations ends on orbitals that differ from a version-3 solve at the level
#: of ``gs_scf_tolerance``; 5: discretisation — the key carries the grid shape
#: and plane-wave set a cutoff selects, not the spelled ``ecut`` /
#: ``grid_factor``, so a store written under version 4 still serves its
#: trajectories, keyed by :func:`config_hash`, but not its ground states)
_GROUND_STATE_KEY_VERSION = 5


def ground_state_group_key(config: SimulationConfig) -> str:
    """Canonical key identifying the ground state a config propagates from.

    The ground state is field-free — the laser is switched on by the
    propagation — so the key carries the structure, the discretisation, the
    XC treatment, the ``run`` fields a group's session reads once (the
    ``gs_*`` SCF parameters and the recording flags) and
    :data:`_GROUND_STATE_KEY_VERSION`, and nothing of the ``laser`` or
    ``propagator`` sections or the propagation-only run fields. The
    discretisation is what the physics reads of the ``basis`` section: the
    grid shape and plane-wave set of :func:`~repro.perf.sweep_cost.discretisation`,
    so two cutoffs that select the same plane waves on the same mesh are one
    ground state. A config that cannot be discretised — a cutoff too small
    to build a basis, a structure that cannot be built or occupied — keeps its spelled
    ``basis`` section, and its jobs fail at execution, as a group of their
    own. Jobs with equal keys share one converged SCF, one
    :class:`~repro.api.Session` and one lockstep stack, whatever their
    pulses, integrators, time steps and spelled cutoffs; the same string
    keys the scheduling group and the store's ground-state object. The
    structure asset's content digest is folded in like :func:`config_hash`
    does, and the text is the same canonical encoding, so configs that
    compare ``==`` share a key. Carried by every job as :attr:`SweepJob.group_key`.
    """
    data = config._plain()
    data.pop("propagator")
    data.pop("laser")
    for name in _PROPAGATION_ONLY_RUN_FIELDS:
        data["run"].pop(name)
    try:
        _, shape, plane_waves = discretisation(config)
    except ValueError:  # a structure that cannot be built or occupied
        plane_waves = None
    if plane_waves is not None:
        data["basis"] = {"grid_shape": list(shape), "plane_waves": plane_waves}
    assets = _asset_digest_overlay(data)
    if assets:
        data["assets"] = assets
    data["ground_state_key_version"] = _GROUND_STATE_KEY_VERSION
    return canonical_json(data)


@dataclass(frozen=True)
class SweepJob:
    """One expanded point of a sweep, with its identity.

    Built by :meth:`SweepSpec.expand`, which is the one moment a job's
    identity is fixed: ``config_hash`` and ``group_key`` are computed there
    (for ``asset:`` configs, from the asset content the library held *then*)
    and read as fields by every layer afterwards — the store keys a result by
    the carried hash on the way in and on the way out, so the two cannot
    disagree.

    Attributes
    ----------
    index:
        Position in the expansion order (stable across re-expansions).
    job_id:
        Deterministic identifier, ``job<index>-<config_hash>``.
    point:
        The axis overrides that produced this job, path -> value (shared by
        every reader of the expansion: treat it as read-only).
    config:
        The fully expanded, validated simulation config (a value: its
        ``params`` mappings are read-only).
    config_hash:
        :func:`config_hash` of ``config`` — the store key of the job's result.
    group_key:
        :func:`ground_state_group_key` of ``config`` — the scheduling group,
        the shared session and the store key of the ground state.
    """

    index: int
    job_id: str
    point: dict = field(compare=False)
    config: SimulationConfig = field(compare=False)
    config_hash: str
    group_key: str


class SweepSpec:
    """A base config swept over named axes — an immutable value.

    ``base``, ``axes`` and ``mode`` are read-only after construction (the
    axis values are copied in), so the spec's expansion is a function of the
    spec alone and is computed once: :meth:`expand` and :meth:`groups` serve
    the :class:`~repro.campaign.CampaignPlanner`,
    :func:`repro.service.run_sweep`, :class:`~repro.batch.BatchRunner` and
    the store from the same :class:`SweepJob`\\ s, on every submission of the
    spec. The one outside input of a job's identity is the content of the
    ``asset:`` references it names; a reused spec re-expands when the
    library's digest of one of them is no longer the one it expanded with.

    Parameters
    ----------
    base:
        The :class:`~repro.api.SimulationConfig` (or config dict) every job
        starts from.
    axes:
        Mapping from an override path (see
        :meth:`~repro.api.SimulationConfig.with_overrides`) to the sequence of
        values it takes. Insertion order defines the expansion order: the
        *last* axis varies fastest in ``"product"`` mode. An empty mapping
        yields a single job of the base config.
    mode:
        ``"product"`` (default) expands the Cartesian product of all axes;
        ``"zip"`` pairs them element-wise (equal lengths required).
    """

    def __init__(self, base: SimulationConfig | dict, axes: dict | None = None, mode: str = "product"):
        if isinstance(base, dict):
            base = SimulationConfig.from_dict(base)
        if not isinstance(base, SimulationConfig):
            raise ConfigError(f"base must be a SimulationConfig or config dict, got {type(base).__name__}")
        if mode not in ("product", "zip"):
            raise ConfigError(f"mode must be 'product' or 'zip', got {mode!r}")
        axes = {} if axes is None else dict(axes)
        for path, values in axes.items():
            if not isinstance(path, str) or not path:
                raise ConfigError(f"axis path must be a non-empty string, got {path!r}")
            if isinstance(values, (str, bytes)) or not hasattr(values, "__len__"):
                raise ConfigError(
                    f"axis {path!r} must map to a sequence of values, got {values!r}"
                )
            if len(values) == 0:
                raise ConfigError(f"axis {path!r} has no values")
        if mode == "zip" and axes:
            lengths = {path: len(values) for path, values in axes.items()}
            if len(set(lengths.values())) > 1:
                raise ConfigError(f"zip-mode axes must have equal lengths, got {lengths}")
        self._base = base
        self._axes = MappingProxyType(
            {path: tuple(copy.deepcopy(value) for value in values) for path, values in axes.items()}
        )
        self._mode = mode
        self._jobs: tuple[SweepJob, ...] | None = None
        #: asset reference -> content digest the jobs were expanded with
        self._asset_digests: dict[str, str] = {}

    # ------------------------------------------------------------------
    @property
    def base(self) -> SimulationConfig:
        """The config every job starts from."""
        return self._base

    @property
    def axes(self):
        """Override path -> tuple of values, read-only, in expansion order."""
        return self._axes

    @property
    def mode(self) -> str:
        """``"product"`` or ``"zip"``."""
        return self._mode

    @property
    def axis_paths(self) -> list[str]:
        """The axis override paths, in expansion order."""
        return list(self.axes)

    @property
    def n_jobs(self) -> int:
        """Number of jobs the spec expands to."""
        lengths = [len(values) for values in self.axes.values()]
        return lengths[0] if lengths and self.mode == "zip" else math.prod(lengths)

    def __len__(self) -> int:
        return self.n_jobs

    # ------------------------------------------------------------------
    def points(self):
        """Yield the axis-override dict of every job, in expansion order."""
        combine = zip if self.mode == "zip" and self.axes else itertools.product  # product() is one ()
        for values in combine(*self.axes.values()):
            yield dict(zip(self.axes, values))

    def expand(self) -> list[SweepJob]:
        """The full, validated job list (a fresh list of the shared jobs).

        The first call expands: every point is applied to the base config,
        hashed and keyed, once. Invalid override values fail here — before
        anything runs — with the usual actionable
        :class:`~repro.api.ConfigError` / :class:`~repro.api.UnknownNameError`
        messages. Later calls return the same jobs, unless an asset they name
        changed content in the library since (then identity is fixed anew).
        """
        if self._jobs is None or _asset_digests(self._asset_digests) != self._asset_digests:
            jobs, assets = [], {}
            for index, point in enumerate(self.points()):
                config = self.base.with_overrides(point)
                digest = config_hash(config)
                jobs.append(
                    SweepJob(
                        index=index,
                        job_id=f"job{index:04d}-{digest}",
                        point=point,
                        config=config,
                        config_hash=digest,
                        group_key=ground_state_group_key(config),
                    )
                )
                assets.update(_asset_digests([config.system.structure, config.laser.pulse]))
            self._jobs, self._asset_digests = tuple(jobs), assets
        return list(self._jobs)

    def groups(self) -> dict[str, list[SweepJob]]:
        """The expanded jobs grouped by :attr:`SweepJob.group_key`, groups and
        jobs in expansion order.

        The unit of scheduling and dispatch throughout :mod:`repro.exec` and
        :mod:`repro.campaign`: all jobs of one group share one converged SCF.
        """
        grouped: dict[str, list[SweepJob]] = {}
        for job in self.expand():
            grouped.setdefault(job.group_key, []).append(job)
        return grouped
