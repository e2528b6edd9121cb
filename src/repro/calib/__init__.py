"""Online cost-model calibration: observe → fit → re-plan.

Closes the loop the ROADMAP called out: reports carry predicted-vs-observed
pairs for every ground-state group, and until now nothing consumed them.

1. **Observe** — :func:`extract_observations` lifts self-describing
   :class:`Observation` records (machine, propagator, workload sizes, GPUs,
   predicted vs observed seconds) out of any sweep/campaign report, one per
   group the pass computed in full (a store-served pass observes nothing);
   :class:`ObservationLog` persists them append-only (atomic
   tmp-then-replace) at ``<store root>/calibration/observations.jsonl``.
2. **Fit** — :meth:`CalibrationModel.fit` turns them into robust
   per-``(machine, propagator)`` time scales (deterministic, fixed point on
   perfect predictions, exactly monotone under uniform slowdown).
3. **Re-plan** — ``calibration=`` on :class:`~repro.exec.Scheduler`,
   :class:`~repro.campaign.CampaignPlanner` and
   :class:`~repro.service.CampaignService` re-prices each scheduled group
   (:meth:`repro.exec.ScheduledGroup.repriced`, stamped as its
   ``repriced_seconds``) and plans, packs and leases by that re-price; the
   group's ``predicted_seconds`` stay the uncalibrated model's, so a
   calibrated pass logs observations a later fit can trust. The
   service's adaptive mode re-packs the remaining groups of a running
   sweep (LPT work stealing) when observed/predicted drift crosses a
   threshold — without ever touching group keys, ``config_hash``, or the
   physics export.
"""

from .model import CalibrationFactor, CalibrationModel
from .observations import Observation, ObservationLog, extract_observations

__all__ = [
    "CalibrationFactor",
    "CalibrationModel",
    "Observation",
    "ObservationLog",
    "extract_observations",
]
