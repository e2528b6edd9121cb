"""What a campaign *is*: named sweeps plus the machine budget they must fit.

The paper's production runs were planned against hard machine budgets — a
Summit allocation is wall-clock hours and a power envelope, not an unlimited
queue (Section 6 compares whole runs by energy to solution). A
:class:`CampaignSpec` states that problem declaratively: one or more named
:class:`~repro.batch.SweepSpec`\\ s and a :class:`Budget` bounding any subset
of total wall seconds, total joules, concurrent virtual ranks and concurrent
modeled nodes. The :class:`~repro.campaign.CampaignPlanner` then *inverts* the
cost stack to choose execution settings that fit; when nothing fits it raises
:class:`InfeasibleBudgetError` naming the binding constraint and the cheapest
relaxation that would unblock the campaign.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from ..batch.sweep import SweepSpec

__all__ = ["Budget", "CampaignSpec", "InfeasibleBudgetError"]

#: sweep names label reports, leases and exported files, so they must be
#: plain path components: no separators, no traversal, nothing hidden
_SWEEP_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass(frozen=True)
class Budget:
    """Hard machine limits a campaign plan must satisfy (any subset).

    Attributes
    ----------
    max_wall_seconds:
        Cap on the campaign's total predicted wall-clock time (sweeps run one
        after another, so their predicted makespans add).
    max_energy_joules:
        Cap on the campaign's total predicted energy to solution (whole-node
        power x predicted seconds, the paper's Section 6 accounting).
    max_ranks:
        Cap on the virtual MPI ranks used at any moment.
    max_nodes:
        Cap on the modeled nodes occupied at any moment
        (``ranks x gpus_per_group`` GPUs, whole nodes).

    ``None`` leaves a dimension unconstrained; ``Budget()`` is the
    unconstrained budget (the planner then simply picks the fastest plan).
    """

    max_wall_seconds: float | None = None
    max_energy_joules: float | None = None
    max_ranks: int | None = None
    max_nodes: int | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
                raise ValueError(f"Budget.{f.name} must be a positive number or None, got {value!r}")
        for name in ("max_ranks", "max_nodes"):
            value = getattr(self, name)
            if value is not None and value != int(value):
                raise ValueError(f"Budget.{name} must be an integer, got {value!r}")

    # ------------------------------------------------------------------
    @property
    def unconstrained(self) -> bool:
        """Whether no dimension is limited."""
        return all(getattr(self, f.name) is None for f in fields(self))

    def limits(self) -> dict[str, float]:
        """The constrained dimensions only, name → limit."""
        return {
            f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) is not None
        }

    def as_dict(self) -> dict:
        """JSON-able record (``None`` for unconstrained dimensions)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Budget":
        """Inverse of :meth:`as_dict` (unknown keys rejected with the valid set)."""
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - valid)
        if unknown:
            raise ValueError(f"unknown Budget key(s) {unknown}; valid keys: {sorted(valid)}")
        return cls(**data)

    def replace(self, **changes) -> "Budget":
        """A copy with the given limits replaced (``None`` lifts a limit)."""
        data = self.as_dict()
        data.update(changes)
        return Budget(**data)


class InfeasibleBudgetError(ValueError):
    """No candidate execution plan fits the campaign budget.

    Carries the *binding* constraint (the budget dimension that cannot be
    met), its stated limit, and ``required`` — the cheapest value of that
    dimension any candidate plan satisfying the remaining constraints can
    reach. Relaxing the binding limit to ``required`` makes the campaign
    plannable, which is exactly what the message says.

    Attributes
    ----------
    binding:
        The :class:`Budget` field name that cannot be satisfied.
    limit:
        Its stated value.
    required:
        The cheapest feasible relaxation: the smallest value of the binding
        dimension reachable by any candidate that satisfies the other limits.
    """

    def __init__(self, message: str, *, binding: str, limit: float, required: float):
        super().__init__(message)
        self.binding = binding
        self.limit = limit
        self.required = required


class CampaignSpec:
    """One or more named sweeps plus the budget they must fit.

    Parameters
    ----------
    sweeps:
        Either a single :class:`~repro.batch.SweepSpec` (named ``"sweep"``)
        or a mapping of sweep name → :class:`~repro.batch.SweepSpec`. Names
        order the campaign: sweeps execute (and report) in insertion order.
    budget:
        The :class:`Budget` (or its dict form); defaults to unconstrained.
    """

    def __init__(self, sweeps, budget: Budget | dict | None = None):
        if isinstance(sweeps, SweepSpec):
            sweeps = {"sweep": sweeps}
        if not isinstance(sweeps, dict) or not sweeps:
            raise ValueError(
                "sweeps must be a SweepSpec or a non-empty mapping of "
                f"name -> SweepSpec, got {type(sweeps).__name__}"
            )
        for name, spec in sweeps.items():
            if not isinstance(name, str) or not name:
                raise ValueError(f"sweep names must be non-empty strings, got {name!r}")
            if not _SWEEP_NAME_RE.match(name):
                raise ValueError(
                    f"sweep name {name!r} is not a safe checkpoint directory name; "
                    "use letters, digits, '.', '_' or '-' (starting with a letter "
                    "or digit, no path separators)"
                )
            if not isinstance(spec, SweepSpec):
                raise ValueError(
                    f"sweep {name!r} must be a SweepSpec, got {type(spec).__name__}"
                )
        if budget is None:
            budget = Budget()
        elif isinstance(budget, dict):
            budget = Budget.from_dict(budget)
        elif not isinstance(budget, Budget):
            raise ValueError(f"budget must be a Budget or dict, got {type(budget).__name__}")
        self.sweeps: dict[str, SweepSpec] = dict(sweeps)
        self.budget = budget

    # ------------------------------------------------------------------
    @property
    def names(self) -> list[str]:
        """The sweep names, in campaign order."""
        return list(self.sweeps)

    @property
    def n_jobs(self) -> int:
        """Total jobs across every sweep of the campaign."""
        return sum(spec.n_jobs for spec in self.sweeps.values())

    def with_budget(self, budget: Budget | dict) -> "CampaignSpec":
        """The same sweeps under a different budget."""
        return CampaignSpec(self.sweeps, budget=budget)
