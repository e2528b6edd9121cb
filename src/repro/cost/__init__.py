"""Machine-aware cost stack: workload → machine → wall-clock time and energy.

The layer that makes :mod:`repro.machine` load-bearing for execution. It joins
the relative-FLOP workload predictions of :mod:`repro.perf.sweep_cost` with
the hardware model (GPU roofline throughput, NVLink / X-Bus / InfiniBand link
speeds, whole-node power) so the sweep scheduler can pack ground-state groups
by predicted *seconds*, the distributed backend can attribute every logged
transfer to a modeled link with a wall cost, and reports can show predicted
vs observed wall time and energy — the paper's Section 5/6 campaign-planning
arithmetic, applied to our own sweeps. The model prices only; calibration
re-prices scheduled groups (:meth:`repro.exec.ScheduledGroup.repriced`).
"""

from .model import (
    MACHINES,
    CostEstimate,
    MachineCostModel,
    machine_name,
    resolve_machine,
    sweep_execution_point,
)
from .placement import Link, NodePlacement

__all__ = [
    "MACHINES",
    "CostEstimate",
    "MachineCostModel",
    "machine_name",
    "resolve_machine",
    "sweep_execution_point",
    "Link",
    "NodePlacement",
]
