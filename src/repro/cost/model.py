"""Workload → machine → time/energy: the layered sweep cost model.

:mod:`repro.perf.sweep_cost` predicts *relative FLOPs* for the groups of a
sweep from the cheap config layers; :mod:`repro.machine` knows what a slice of
Summit can do per second and what it burns per second. This module joins the
two, the way the paper's authors planned their production campaigns against
the concrete V100/NVLink/EDR numbers of Section 5:

* FLOPs become seconds through the GPU throughput sustained by the
  FFT-dominated kernels (:class:`~repro.machine.gpu.GPUKernelModel`, ~11 % of
  peak per the paper's Section 7 analysis);
* communication bytes become seconds through the link speeds of
  :class:`~repro.cost.placement.NodePlacement` /
  :class:`~repro.machine.network.NetworkModel`;
* occupied nodes become watts through :mod:`repro.machine.power`'s whole-node
  accounting (Section 6), so every predicted wall time carries a predicted
  energy to solution.

:class:`MachineCostModel` is what the :class:`~repro.exec.Scheduler` packs by
and what the report's predicted columns come from. It prices and never
calibrates: a fitted :class:`~repro.calib.CalibrationModel` re-prices a
scheduled group's seconds in one place,
:meth:`repro.exec.ScheduledGroup.repriced`, so every predicted number here is
the model's own — the number observations pair with reality. The paper's own silicon
steps are priced per component by
:class:`~repro.perf.components.PWDFTPerformanceModel` on any
:data:`MACHINES` preset; :meth:`MachineCostModel.estimate` wraps such a time
(``seconds=``) in a :class:`CostEstimate` with the nodes and power of its
slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from ..machine.frontier import FRONTIER
from ..machine.gpu import GPUKernelModel
from ..machine.summit import SUMMIT, SummitSystem
from ..perf.sweep_cost import predict_group_cost

__all__ = [
    "MACHINES",
    "CostEstimate",
    "MachineCostModel",
    "machine_name",
    "resolve_machine",
    "sweep_execution_point",
]

#: machine presets selectable via ``run.machine.name`` — ``"summit"`` is the
#: paper's machine, ``"frontier"`` the improved-network what-if of its closing
#: question (8 GPUs/node, 4x injection bandwidth; :mod:`repro.machine.frontier`)
MACHINES: dict[str, SummitSystem] = {"summit": SUMMIT, "frontier": FRONTIER}


def resolve_machine(name: str) -> SummitSystem:
    """The machine preset registered under ``name`` (actionable on typos)."""
    try:
        return MACHINES[name]
    except KeyError:
        raise ValueError(
            f"unknown machine {name!r}; available machines: {sorted(MACHINES)}"
        ) from None


def machine_name(system: SummitSystem) -> str | None:
    """The preset name of ``system`` (inverse of :func:`resolve_machine`).

    ``None`` for systems not registered in :data:`MACHINES` — calibration
    observations of such a system carry no machine label and only ever match
    each other.
    """
    for name, preset in MACHINES.items():
        if preset is system or preset == system:
            return name
    return None


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of one workload on a concrete slice of the machine.

    Attributes
    ----------
    flops:
        Floating-point work (from :mod:`repro.perf.sweep_cost` for sweep
        groups, or :func:`repro.perf.flops.step_flops` for the paper's
        silicon steps).
    seconds:
        Predicted wall-clock time.
    n_gpus, nodes:
        The machine slice the workload occupies (whole nodes, as the paper's
        power accounting assumes).
    power_watts:
        Power draw of those nodes while the workload runs.
    """

    flops: float
    seconds: float
    n_gpus: int
    nodes: int
    power_watts: float

    @property
    def energy_joules(self) -> float:
        """Predicted energy to solution in Joules."""
        return self.power_watts * self.seconds


@dataclass(frozen=True)
class MachineCostModel:
    """Turn workload predictions into wall-clock seconds and joules.

    Parameters
    ----------
    system:
        The modeled machine (bandwidths, node power, capacity).
    gpus_per_group:
        Default GPUs each sweep group occupies; per-config
        ``run.machine.gpus_per_group`` overrides it (:meth:`gpus_for`).

    A config's own model is ``ExecutionSettings.from_config(config).machine_model()``.

    The kernel roofline (:attr:`gpu_model`) that sets the sustained FLOP
    throughput is built on the modeled system's own accelerator, so a preset
    with faster GPUs (e.g. ``"frontier"``) predicts faster kernels.
    """

    #: ratio of a full PT-CN step's work to its Fock + local ``H Psi`` FLOPs
    #: (residual transposes, subspace GEMMs, Anderson mixing, density
    #: evaluation, host-side "others"). The sweep FLOP counter deliberately
    #: models only the dominant ``H Psi`` term; this single multiplier, set
    #: once against the 36-GPU column of the paper's Table 1, turns it into
    #: full-step work. It scales every estimate uniformly, so
    #: orderings and makespan ratios are unaffected
    step_flop_multiplier: ClassVar[float] = 2.5

    system: SummitSystem = SUMMIT
    gpus_per_group: int = 1
    gpu_model: GPUKernelModel = field(init=False)

    def __post_init__(self) -> None:
        if self.gpus_per_group < 1:
            raise ValueError(f"gpus_per_group must be >= 1, got {self.gpus_per_group}")
        object.__setattr__(self, "gpu_model", GPUKernelModel(gpu=self.system.node.gpu))

    # ------------------------------------------------------------------
    # The per-config slice
    # ------------------------------------------------------------------
    def gpus_for(self, config) -> int:
        """GPUs a config's group occupies: its (checked)
        ``run.machine.gpus_per_group``, else this model's default — the
        per-config slice that lets ``energy_aware`` differ from time order."""
        return int(config.run.machine.get("gpus_per_group", self.gpus_per_group))

    # ------------------------------------------------------------------
    # The core conversion layers
    # ------------------------------------------------------------------
    def sustained_flops(self, n_gpus: int | None = None) -> float:
        """Sustained FLOP/s of ``n_gpus`` on the FFT-dominated sweep kernels."""
        n = self.gpus_per_group if n_gpus is None else int(n_gpus)
        if n < 1:
            raise ValueError(f"n_gpus must be >= 1, got {n}")
        self.system.validate_gpu_count(n)
        return n * self.gpu_model.fft_flop_efficiency * self.gpu_model.gpu.peak_flops

    def compute_seconds(self, flops: float, n_gpus: int | None = None) -> float:
        """Wall seconds of ``flops`` of FFT-dominated work on ``n_gpus``."""
        if flops < 0:
            raise ValueError(f"flops must be >= 0, got {flops}")
        return float(flops) / self.sustained_flops(n_gpus)

    def power_watts(self, n_gpus: int | None = None) -> float:
        """Power of the whole nodes hosting ``n_gpus`` (paper Section 6)."""
        n = self.gpus_per_group if n_gpus is None else int(n_gpus)
        return self.system.gpu_run_power_watts(n)

    def estimate(self, flops: float, n_gpus: int | None = None, seconds: float | None = None) -> CostEstimate:
        """Assemble a :class:`CostEstimate` for ``flops`` on ``n_gpus``.

        ``seconds`` overrides the pure-compute conversion when the caller has
        a better wall-time prediction (e.g. including communication).
        """
        n = self.gpus_per_group if n_gpus is None else int(n_gpus)
        wall = self.compute_seconds(flops, n) if seconds is None else float(seconds)
        return CostEstimate(
            flops=float(flops),
            seconds=wall,
            n_gpus=n,
            nodes=self.system.nodes_for_gpus(n),
            power_watts=self.power_watts(n),
        )

    # ------------------------------------------------------------------
    # Sweep workloads (configs → estimates)
    # ------------------------------------------------------------------
    def group_estimate(self, configs, flops: float | None = None) -> CostEstimate:
        """Predicted time/energy of one ground-state group (SCF + all jobs).

        ``flops`` lets a caller that already holds the group's relative-FLOP
        prediction reuse it instead of re-deriving it.
        """
        configs = list(configs)
        if not configs:
            return self.estimate(0.0, self.gpus_per_group)
        if flops is None:
            flops = predict_group_cost(configs)
        return self.estimate(self.step_flop_multiplier * float(flops), self.gpus_for(configs[0]))


# ---------------------------------------------------------------------------
# Sweep-level scaling points from execution summaries
# ---------------------------------------------------------------------------


def _rank_records(execution: dict) -> list[dict]:
    """The per-rank stats of an execution summary — the one reader of
    ``per_rank``: entries that are not dicts (a crashed rank's missing
    stats) are skipped."""
    return [stats for stats in execution.get("per_rank") or [] if isinstance(stats, dict)]


def sweep_execution_point(execution: dict) -> dict:
    """Reduce one ``SweepReport.execution`` summary to a scaling-curve point.

    Consumes the per-rank volumes and predicted/observed wall seconds the
    distributed backend logs and returns the row the sweep-level strong/weak
    scaling analogues of Figs. 7 and 8 plot: rank count, predicted and
    observed makespan (the busiest rank), total communication volume and
    predicted communication seconds, and total predicted energy.
    """
    per_rank = _rank_records(execution)
    if not per_rank:
        raise ValueError("execution summary carries no per-rank accounting (distributed backend only)")

    def rank_max(key: str) -> float:
        return max(float(stats.get(key) or 0.0) for stats in per_rank)

    def rank_sum(key: str) -> float:
        return sum(float(stats.get(key) or 0.0) for stats in per_rank)

    return {
        "ranks": int(execution.get("ranks", len(per_rank))),
        "n_groups": int(execution.get("n_groups", 0)),
        "n_jobs": int(execution.get("n_jobs", 0)),
        "predicted_makespan_s": rank_max("predicted_seconds"),
        "observed_makespan_s": rank_max("observed_seconds"),
        "predicted_energy_j": rank_sum("predicted_energy_j"),
        "comm_bytes": int(rank_sum("dispatch_bytes") + rank_sum("result_bytes")),
        "comm_seconds": rank_sum("comm_seconds"),
    }
