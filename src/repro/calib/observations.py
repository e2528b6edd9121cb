"""Self-describing predicted-vs-observed records, persisted append-only.

Every execution summary already carries the pair the ROADMAP says nobody
consumes: the scheduler's predicted seconds per ground-state group and the
wall seconds the group actually took. An :class:`Observation` is that pair
made self-describing — machine preset, propagator, workload sizes
(:func:`repro.perf.sweep_cost.workload_sizes` bands × grid points), GPU
slice — so a calibration fit needs nothing but the record itself, no
re-expansion of configs.

:func:`extract_observations` pulls them out of any
:class:`~repro.batch.SweepReport` / :class:`~repro.campaign.CampaignReport`
(or a raw execution dict of :meth:`repro.exec.ScheduledGroup.as_dict`
records); :class:`ObservationLog` persists them under a
:class:`~repro.store.ResultStore` root at ``calibration/observations.jsonl``
— append-only in semantics, atomic tmp-then-``os.replace`` in mechanism,
exactly like the object store's writes, so a crashed append can never leave
a torn line for the next fit to trip over. Appends hold an advisory
``flock`` on the ``calibration/`` directory, so two processes appending at
once never drop each other's lines.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import pathlib
from dataclasses import asdict, dataclass

from ..canonical import canonical_json
from ..durable import write_durably

__all__ = ["Observation", "ObservationLog", "extract_observations"]


@dataclass(frozen=True)
class Observation:
    """One group's predicted-vs-observed execution record, self-describing.

    Attributes
    ----------
    machine:
        Machine preset name the prediction was priced on (``None`` when the
        scheduler ran without a machine model).
    propagator:
        The group's propagator name, or ``None`` when the group mixed
        propagators (the group key excludes them) — such observations only
        inform the machine-wide calibration bucket.
    n_bands, n_grid:
        Workload sizes from :func:`repro.perf.sweep_cost.workload_sizes`.
    gpus:
        Modeled GPU slice the group was priced on.
    n_jobs:
        Jobs in the group, every one computed by the pass that observed it: a
        group the store served in part or in full, or with a failed job, is
        no observation (see :func:`extract_observations`).
    predicted_seconds, observed_seconds:
        The pair a calibration consumes. Predicted is modeled-machine
        seconds; observed is whatever clock the backend stamped (in-process
        wall time here), so fits are *ratio*-based and unit-free.
    predicted_energy_j:
        Predicted energy of the group (provenance; energy re-prices through
        the same time scale since modeled power is unchanged).
    sweep, group_index:
        Where the record came from (provenance only).
    """

    machine: str | None = None
    propagator: str | None = None
    n_bands: int | None = None
    n_grid: int | None = None
    gpus: int = 1
    n_jobs: int = 0
    predicted_seconds: float = float("nan")
    observed_seconds: float = float("nan")
    predicted_energy_j: float | None = None
    sweep: str | None = None
    group_index: int | None = None

    @property
    def ok(self) -> bool:
        """Whether the record can inform a fit: both sides finite and > 0."""
        return (
            math.isfinite(self.predicted_seconds)
            and self.predicted_seconds > 0.0
            and math.isfinite(self.observed_seconds)
            and self.observed_seconds > 0.0
        )

    @property
    def ratio(self) -> float:
        """``observed / predicted`` — the quantity calibration fits."""
        return self.observed_seconds / self.predicted_seconds

    def as_dict(self) -> dict:
        """JSON-able record (one ``observations.jsonl`` line)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Observation":
        """Inverse of :meth:`as_dict`; unknown keys are ignored so logs
        written by newer versions stay readable."""
        fields = {name: data[name] for name in cls.__dataclass_fields__ if name in data}
        return cls(**fields)


def _group_observations(execution: dict, *, sweep: str | None, machine: str | None) -> list[Observation]:
    """Observations of one execution summary's group records — the
    :meth:`repro.exec.ScheduledGroup.as_dict` records, stamped after
    execution. The one place an :class:`Observation` is built from a group:
    reports and the service runner's mid-sweep fits both read through it.

    A group this pass did not compute in full — a job served by the store
    or failed — is skipped: its predicted seconds priced work that did not
    run, so its (smaller) observed wall would pull a fit low."""
    out: list[Observation] = []
    for record in execution.get("groups") or []:
        if not isinstance(record, dict) or record.get("n_served") or record.get("n_failed"):
            continue
        obs = Observation(
            machine=record.get("machine") or machine,
            propagator=record.get("propagator"),
            n_bands=record.get("n_bands"),
            n_grid=record.get("n_grid"),
            gpus=int(record.get("n_gpus") or 1),
            n_jobs=int(record.get("n_jobs") or 0),
            predicted_seconds=float(record.get("predicted_seconds") or float("nan")),
            observed_seconds=float(record.get("observed_seconds") or float("nan")),
            predicted_energy_j=record.get("predicted_energy_j"),
            sweep=sweep,
            group_index=record.get("index"),
        )
        if obs.ok:
            out.append(obs)
    return out


def extract_observations(source, *, sweep: str | None = None) -> list[Observation]:
    """Every usable :class:`Observation` in a report, deterministic order.

    ``source`` is a :class:`~repro.batch.SweepReport`, a
    :class:`~repro.campaign.CampaignReport` (its sweeps contribute in
    campaign order under their own names), or a raw execution summary dict.
    Groups whose record lacks a finite positive predicted/observed pair —
    failed predictions — and groups the pass did not compute in full — a job
    served by the store or failed — are skipped, never guessed.
    """
    if isinstance(source, dict):
        return _group_observations(source, sweep=sweep, machine=None)
    reports = getattr(source, "reports", None)
    if isinstance(reports, dict):  # CampaignReport
        out: list[Observation] = []
        for name, sweep_report in reports.items():
            out.extend(extract_observations(sweep_report, sweep=name))
        return out
    execution = getattr(source, "execution", None) or {}
    settings = getattr(source, "settings", None) or {}
    machine = settings.get("machine") if isinstance(settings, dict) else None
    return _group_observations(execution, sweep=sweep, machine=machine)


class ObservationLog:
    """Append-only observation persistence under a store root.

    The log lives at ``<root>/calibration/observations.jsonl`` — one
    :meth:`Observation.as_dict` JSON object per line. Appends rewrite the
    file with :func:`~repro.durable.write_durably` (the object store's
    write), so readers never see a torn tail, under an exclusive ``flock``
    on :attr:`directory`, so concurrent appenders serialise; unparseable
    lines are skipped on load, never propagated into a fit.
    """

    filename = "observations.jsonl"

    def __init__(self, root):
        # accept a ResultStore as well as its root directory; a plain path
        # must NOT go through getattr — pathlib.Path.root is the filesystem
        # root ("/"), not the store root
        if not isinstance(root, (str, os.PathLike)):
            root = getattr(root, "root", root)
        self.root = pathlib.Path(root)

    @property
    def directory(self) -> pathlib.Path:
        """The ``calibration/`` directory under the store root."""
        return self.root / "calibration"

    @property
    def path(self) -> pathlib.Path:
        """The JSONL file holding every appended observation."""
        return self.directory / self.filename

    def append(self, observations) -> int:
        """Persist ``observations`` after everything already logged.

        Returns the number of records appended (0 is a no-op: the file is
        not rewritten, so an empty extraction never churns mtimes).
        """
        lines = [canonical_json(obs.as_dict()) for obs in observations]
        if not lines:
            return 0
        self.directory.mkdir(parents=True, exist_ok=True)
        lock = os.open(self.directory, os.O_RDONLY)
        try:
            # read-extend-replace is one step for every appender: held until close
            fcntl.flock(lock, fcntl.LOCK_EX)
            existing = ""
            if self.path.exists():
                existing = self.path.read_text()
                if existing and not existing.endswith("\n"):
                    existing += "\n"
            write_durably(self.path, (existing + "\n".join(lines) + "\n").encode())
        finally:
            os.close(lock)
        return len(lines)

    def load(self) -> list[Observation]:
        """Every parseable observation, in append order."""
        if not self.path.exists():
            return []
        out: list[Observation] = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                out.append(Observation.from_dict(data))
            except (ValueError, TypeError):
                continue  # a corrupt line must never poison a fit
        return out

    def __len__(self) -> int:
        return len(self.load())
