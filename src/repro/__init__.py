"""repro — reproduction of "Parallel Transport Time-Dependent Density Functional
Theory Calculations with Hybrid Functional on Summit" (Jia, Wang, Lin; SC 2019).

The package is organised in layers:

* :mod:`repro.pw` — a from-scratch plane-wave DFT/TDDFT engine (the PWDFT
  analogue): grids, pseudopotentials, Hartree/XC, screened Fock exchange,
  ground-state SCF.
* :mod:`repro.core` — the paper's contribution: the parallel transport gauge
  rt-TDDFT propagators (PT-CN) and the explicit baselines (RK4, CN), Anderson
  mixing, observables, and the simulation driver.
* :mod:`repro.parallel` — a simulated distributed-memory runtime: virtual MPI
  ranks, band-index/G-space wavefunction decompositions, the distributed Fock
  exchange (Alg. 2) and residual (Alg. 3) kernels with communication-volume
  accounting.
* :mod:`repro.machine` — a parameterised model of the Summit supercomputer
  (V100 roofline, NVLink/NIC bandwidths, fat-tree collectives, power).
* :mod:`repro.perf` — the PWDFT-at-scale performance model that regenerates the
  paper's tables and figures (strong/weak scaling, component breakdowns,
  optimization stages, PT-CN vs RK4 time-to-solution).
* :mod:`repro.api` — the declarative facade over all of the above: a
  JSON-round-trippable :class:`~repro.api.SimulationConfig`, string-keyed
  registries for structures/pulses/propagators, and a caching
  :class:`~repro.api.Session`, so that
  ``repro.api.run_tddft(SimulationConfig.from_dict(d))`` replaces a
  hand-wired eight-object script.
* :mod:`repro.batch` — the sweep engine on top of the api layer: a
  :class:`~repro.batch.SweepSpec` expands one config over axes (dt,
  propagator, supercell, pulse), a :class:`~repro.batch.BatchRunner`
  orchestrates the jobs (shared ground states, checkpoint/resume) and a
  :class:`~repro.batch.SweepReport` regenerates the paper's comparison
  tables in one call.
* :mod:`repro.exec` — the pluggable execution layer under the sweep engine: a
  machine-aware :class:`~repro.exec.Scheduler` (``repro.cost`` wall-clock /
  energy predictions) and the serial / process-pool / simulated-MPI-distributed
  backends (:class:`~repro.exec.SerialBackend` and its subclasses; one
  ``run(groups)`` entry point) with per-rank communication accounting.
* :mod:`repro.cost` — the machine-aware cost stack joining ``repro.perf``
  workload predictions with the ``repro.machine`` hardware model: FLOPs →
  seconds through GPU throughput, transfer bytes → seconds through
  NVLink/X-Bus/InfiniBand link speeds (:class:`~repro.cost.NodePlacement`),
  occupied nodes → watts and joules.
* :mod:`repro.campaign` — budget-driven campaigns on top of everything:
  a :class:`~repro.campaign.CampaignSpec` names sweeps and states a
  :class:`~repro.campaign.Budget`, a :class:`~repro.campaign.CampaignPlanner`
  inverts the cost stack to choose machine/ranks/GPUs/schedule, and the
  resulting :class:`~repro.campaign.ExecutionPlan` executes into a
  :class:`~repro.campaign.CampaignReport` of predicted-vs-observed costs.
* :mod:`repro.service` — the always-on, multi-tenant shape of the campaign
  layer: an asyncio :class:`~repro.service.CampaignService` admits many
  budgeted campaigns concurrently over a shared
  :class:`~repro.service.NodePool` (leased nodes, priorities, preemption at
  checkpointed group boundaries), streaming each one through a
  :class:`~repro.service.CampaignHandle`.

Subpackages are imported lazily: ``import repro`` is cheap, and
``repro.api``, ``repro.pw`` etc. materialise on first attribute access.
"""

from __future__ import annotations

import importlib

from . import constants

__version__ = "1.1.0"

#: Subpackages resolved lazily via module ``__getattr__`` (PEP 562).
_SUBPACKAGES = (
    "pw", "core", "parallel", "machine", "perf", "analysis", "api", "batch", "exec", "cost", "campaign",
    "service", "store", "calib", "assets",
)

__all__ = ["constants", "__version__", *_SUBPACKAGES]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module  # cache so __getattr__ runs once per subpackage
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBPACKAGES))
