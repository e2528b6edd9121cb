"""The caller's view of a submitted campaign: poll it, stream it, await it.

A :class:`CampaignHandle` is what :meth:`repro.service.CampaignService.submit`
returns immediately — the campaign itself runs as an :mod:`asyncio` task.
The handle offers three levels of observation:

* :meth:`~CampaignHandle.status` — one word
  (``queued/running/done/failed/cancelled``);
* :meth:`~CampaignHandle.progress` — a JSON-able per-sweep snapshot
  (:class:`SweepProgress`: groups/jobs done, preemption count, modeled span),
  updated live at every group boundary;
* :meth:`~CampaignHandle.partial_report` — a real
  :class:`~repro.campaign.CampaignReport` over the sweeps finished *so far*
  (its :meth:`~repro.campaign.CampaignReport.plan_table` renders pending
  sweeps as prediction-only rows);

and one level of completion: ``await handle.report()`` returns the full
:class:`~repro.campaign.CampaignReport`, re-raising whatever the campaign
raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..campaign.report import CampaignReport

__all__ = ["CampaignHandle", "SweepProgress"]


@dataclass
class SweepProgress:
    """Live per-sweep accounting, mutated by the service runner in place.

    Attributes
    ----------
    name:
        The sweep's name in the campaign.
    n_groups, n_jobs:
        Planned totals (from the campaign's :class:`~repro.campaign.SweepPlan`).
    state:
        ``pending`` (campaign not there yet) → ``waiting`` (queued for a
        lease) → ``running`` → possibly ``preempted`` (yielded its nodes,
        re-queued) → ``done``.
    groups_done, jobs_done:
        Completed so far (checkpointed — survives preemption).
    preemptions:
        Times the sweep gave its lease up to higher-priority work.
    repacks:
        Times the adaptive runner re-packed the sweep's remaining groups
        after observed/predicted drift crossed the threshold (0 unless the
        sweep runs with ``adaptive=True``).
    modeled_start, modeled_end:
        The sweep's span on the pool calendar, once finished.
    """

    name: str
    n_groups: int
    n_jobs: int
    state: str = "pending"
    groups_done: int = 0
    jobs_done: int = 0
    preemptions: int = 0
    repacks: int = 0
    modeled_start: float | None = None
    modeled_end: float | None = None

    def as_dict(self) -> dict:
        """JSON-able snapshot."""
        return {
            "name": self.name,
            "state": self.state,
            "groups_done": self.groups_done,
            "n_groups": self.n_groups,
            "jobs_done": self.jobs_done,
            "n_jobs": self.n_jobs,
            "preemptions": self.preemptions,
            "repacks": self.repacks,
            "modeled_start": self.modeled_start,
            "modeled_end": self.modeled_end,
        }


class CampaignHandle:
    """One submitted campaign: its plan, its task, and its live accounting.

    Built by :meth:`~repro.service.CampaignService.submit`; not meant to be
    constructed directly.
    """

    def __init__(self, name: str, plan, priority: int = 0):
        self.name = name
        self.plan = plan
        self.priority = int(priority)
        self._state = "queued"
        self._reports: dict = {}
        self._progress = {
            sweep_name: SweepProgress(
                name=sweep_name,
                n_groups=sweep_plan.n_groups,
                n_jobs=sweep_plan.n_jobs,
            )
            for sweep_name, sweep_plan in plan.sweeps.items()
        }
        self._task = None  # set by the service right after construction

    # ------------------------------------------------------------------
    def status(self) -> str:
        """``queued``, ``running``, ``done``, ``failed`` or ``cancelled``."""
        return self._state

    def cancel(self) -> bool:
        """Request cancellation of the running campaign (checkpoints and the
        sweeps already finished survive; see :meth:`partial_report`)."""
        return self._task.cancel()

    # ------------------------------------------------------------------
    def progress(self) -> dict:
        """Live JSON-able snapshot: campaign state plus every sweep's
        :class:`SweepProgress`."""
        sweeps = {name: prog.as_dict() for name, prog in self._progress.items()}
        return {
            "campaign": self.name,
            "state": self._state,
            "priority": self.priority,
            "sweeps_done": len(self._reports),
            "n_sweeps": len(self._progress),
            "jobs_done": sum(prog.jobs_done for prog in self._progress.values()),
            "n_jobs": sum(prog.n_jobs for prog in self._progress.values()),
            "preemptions": sum(prog.preemptions for prog in self._progress.values()),
            "sweeps": sweeps,
        }

    def partial_report(self) -> CampaignReport:
        """A :class:`~repro.campaign.CampaignReport` over the sweeps finished
        so far — pending sweeps show as prediction-only rows in its
        :meth:`~repro.campaign.CampaignReport.plan_table`."""
        return CampaignReport(self.plan.as_dict(), dict(self._reports))

    async def report(self) -> CampaignReport:
        """Wait for the campaign and return its full report (re-raising the
        campaign's error if it failed — the raised exception carries a
        ``partial_report`` attribute with the sweeps that did finish)."""
        return await self._task

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CampaignHandle(name={self.name!r}, state={self._state!r}, "
            f"priority={self.priority}, sweeps={list(self._progress)})"
        )
