"""One frozen object describing *how* a sweep executes: ``ExecutionSettings``.

Before this module, execution placement was threaded through three packages as
loose keywords: per-field ``BatchRunner`` arguments (since removed), the
``run.schedule`` / ``run.machine`` config sections consumed by
:mod:`repro.exec` and :mod:`repro.cost`, and per-backend constructor
arguments. :class:`ExecutionSettings` collapses all of it into a single frozen,
JSON-round-trippable value — the thing a :class:`~repro.campaign.CampaignPlanner`
emits and a :class:`~repro.batch.BatchRunner` consumes:

.. code-block:: python

    settings = ExecutionSettings(backend="distributed", ranks=4,
                                 schedule="makespan_balanced",
                                 machine="frontier", gpus_per_group=8)
    report = BatchRunner(spec, settings=settings).run()

Everything in a settings object is *execution-only*: like the config sections
it mirrors, it never affects job identity — group keys, ``config_hash`` and
store keys are computed with ``run.schedule`` / ``run.machine`` excluded,
so the same sweep re-run under any settings reuses its stored results
bit-for-bit.

Resolution order (what :class:`~repro.batch.BatchRunner` applies):

1. an explicit ``settings=`` object (e.g. from a campaign plan) wins whole;
2. the base config's ``run.schedule`` / ``run.machine`` sections
   (:meth:`ExecutionSettings.from_config`);
3. the defaults (serial backend, 4 ranks, ``fifo``, Summit, 1 GPU/group).

A caller building the ``settings=`` object itself layers per-field values
over 2 and 3 as ``from_config`` keyword overrides.

The five fields a config section can also set are checked, coerced and
defaulted for this class and ``RunConfig`` alike by one function,
:func:`repro.api.config.execution_fields`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..api.config import EXECUTION_FIELDS, execution_fields, positive_integer
from ..cost.model import MachineCostModel, resolve_machine
from ..cost.placement import NodePlacement

__all__ = ["BACKEND_NAMES", "ExecutionSettings"]

#: the ``backend=`` names accepted by :class:`ExecutionSettings` /
#: :class:`~repro.batch.BatchRunner`
BACKEND_NAMES = ("serial", "process", "distributed")

#: the five execution fields' defaults, as :data:`EXECUTION_FIELDS` states them
_DEFAULT = execution_fields()


@dataclass(frozen=True)
class ExecutionSettings:
    """Where and how a sweep runs, as one frozen value.

    Parameters
    ----------
    backend:
        ``"serial"``, ``"process"`` or ``"distributed"`` (see
        :mod:`repro.exec.backends`).
    ranks:
        Virtual MPI ranks of the distributed backend (ignored by the others).
    schedule:
        Scheduling policy, one of :data:`repro.api.SCHEDULE_POLICIES`
        (``run.schedule.policy``).
    machine:
        A :data:`repro.cost.MACHINES` preset name (``run.machine.name``);
        ``None`` disables the machine model entirely (relative-FLOP
        scheduling, no wall-clock or energy predictions).
    gpus_per_group:
        Modeled GPUs each ground-state group occupies on the machine
        (``run.machine.gpus_per_group``; an integral float is coerced).
    max_workers:
        Process-pool size (process backend only; ``None`` = CPU count).
    batch_stepping:
        Accepted, validated and round-tripped, with **no effect**: every
        group's jobs always advance in lockstep through the one ``step_many``
        engine (stacked FFTs across jobs). The field is inert provenance kept
        so stored reports, configs carrying ``run.schedule.batch_stepping``
        and the layered benchmark's settings keep loading; it goes at the
        benchmark's next re-baseline.
    precision:
        Propagation precision tier, ``"complex128"`` (default) or the
        opt-in ``"complex64"`` screening tier (see
        :mod:`repro.core.precision`). Unlike every other field this changes
        the numbers — complex64 results are stamped in provenance and never
        written to or served from the result store.
    """

    backend: str = "serial"
    ranks: int = 4
    schedule: str = _DEFAULT["schedule"]
    machine: str | None = _DEFAULT["machine"]
    gpus_per_group: int = _DEFAULT["gpus_per_group"]
    max_workers: int | None = None
    batch_stepping: bool = _DEFAULT["batch_stepping"]
    precision: str = _DEFAULT["precision"]

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {list(BACKEND_NAMES)} "
                f"('serial', 'process' or 'distributed'), got {self.backend!r}"
            )
        # integral floats are coerced (the pre-settings BatchRunner accepted
        # ranks=4.0, and JSON-sourced settings dicts may carry 4.0 too)
        object.__setattr__(self, "ranks", positive_integer("ranks", self.ranks))
        given = {name: getattr(self, name) for name in EXECUTION_FIELDS}
        for name, value in execution_fields(**given).items():
            object.__setattr__(self, name, value)
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1 or None, got {self.max_workers}")

    # ------------------------------------------------------------------
    # Construction: from configs, with explicit overrides layered on top
    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config, **overrides) -> "ExecutionSettings":
        """The settings a config's ``run.schedule`` / ``run.machine`` sections
        describe, with any keyword overrides applied on top.

        ``None`` means "not given": the value falls through to the config's
        sections, then to the defaults — what a CLI with optional
        ``--backend`` / ``--ranks`` / ``--schedule`` flags wants. (A section's
        ``machine.name: null`` is given: it turns the machine model off.)
        """
        given = {name: value for name, value in overrides.items() if value is not None}
        return cls(**{**execution_fields(config.run), **given})

    # ------------------------------------------------------------------
    # The objects the settings describe
    # ------------------------------------------------------------------
    def machine_model(self) -> MachineCostModel | None:
        """The :class:`~repro.cost.MachineCostModel` these settings select
        (``None`` when the machine model is disabled)."""
        if self.machine is None:
            return None
        return MachineCostModel(
            system=resolve_machine(self.machine), gpus_per_group=self.gpus_per_group
        )

    def placement(self) -> NodePlacement | None:
        """A dense :class:`~repro.cost.NodePlacement` of ``ranks`` on the
        machine (``None`` without a machine model or for local backends)."""
        if self.machine is None or self.backend != "distributed":
            return None
        return NodePlacement(n_ranks=self.ranks, system=resolve_machine(self.machine))

    # ------------------------------------------------------------------
    # Round-trip
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-able record (reports and campaign plans embed it)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
