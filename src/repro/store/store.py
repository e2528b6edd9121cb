"""Content-addressed result store shared by every sweep and campaign.

Layout (all under one root directory)::

    <root>/
      objects/     <sha256>.npz          one file per distinct artifact payload
      manifests/   job-<config_hash>.json  per-config result index entries
                   gs-<gs_hash>.json       per-group ground-state index entries
      tmp/         in-flight writes (unique names, renamed into objects/)
      quarantine/  corrupt manifests/objects moved aside, never trusted again
      calibration/ observations.jsonl — append-only predicted-vs-observed log
                   (written by repro.calib.ObservationLog, same tmp-then-
                   replace durability rule, under a flock on the directory);
                   one line per group a pass computed in full, so a pass
                   this store serves appends nothing

Results are keyed by *content*, not by which sweep produced them:

* job results by :func:`~repro.batch.sweep.config_hash` of their expanded
  config (execution-only fields excluded), so two sweeps — or two campaigns,
  or two service tenants — asking for the same physics share one entry. The
  store never computes that hash: it reads the one the job was expanded with
  (:attr:`SweepJob.config_hash <repro.batch.SweepJob>`, copied onto its
  :class:`~repro.batch.JobResult`), so a result is filed and found under the
  same key whatever happened to the asset library in between;
* ground states by :func:`ground_state_hash` of the
  :func:`~repro.batch.sweep.ground_state_group_key` — field-free, so every
  pulse of one material shares one entry. The key carries a version: a
  ground state written under an older key convention is never asked for
  again (a one-time miss; it is left in place, not quarantined), while job
  results, keyed by ``config_hash``, keep being served.

Durability rules, in order:

1. Artifacts are serialised and sha256-digested in memory, written to
   ``tmp/`` once, then renamed into ``objects/<digest>.npz`` with
   ``os.replace`` — a crash mid-write can never leave a torn archive at a
   final path, and an archive that fails to serialise never reaches the disk.
   If the digest-named object already exists the write is a dedup no-op
   (content-equal by construction).
2. The JSON manifest — carrying the artifact's digest *and* byte size — is
   written tmp-then-``os.replace`` strictly after its object, so a manifest
   on disk always points at a complete object.
3. Every read re-verifies size and sha256 of the object against the
   manifest. Any mismatch — flipped bytes, truncation, a deleted object, an
   unparseable manifest — moves the offending pair into ``quarantine/`` and
   returns ``None``, so callers recompute instead of resuming from wrong
   physics.

The store is safe for concurrent writers: object writes are idempotent
renames of content-named files and manifest replacement is atomic, so the
worst case of a write race is one redundant temporary file, never a mixed
or partial entry.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import zipfile
from typing import TYPE_CHECKING

from ..core.dynamics import Trajectory, json_default
from ..durable import quarantine, write_durably
from ..pw.ground_state import GroundStateResult, _npz_bytes

if TYPE_CHECKING:  # pragma: no cover
    from ..batch.report import JobResult
    from ..batch.sweep import SweepJob

__all__ = ["ResultStore", "ground_state_hash"]


#: manifest filename prefixes — job results vs shared ground states
_JOB_PREFIX = "job-"
_GS_PREFIX = "gs-"

_DIGEST_CHUNK = 1 << 20

#: what decoding a digest-valid archive that was corrupt when written raises:
#: not a zip, a missing member, a bad ``.npy`` header or JSON, a short read
_CORRUPT_ARCHIVE = (zipfile.BadZipFile, KeyError, ValueError, EOFError, OSError)


def ground_state_hash(group_key: str) -> str:
    """Short stable hash of a ground-state group key (the store's gs key)."""
    return hashlib.sha1(group_key.encode()).hexdigest()[:12]


def _fresh_stats() -> dict:
    return {
        "hits": 0,
        "misses": 0,
        "gs_hits": 0,
        "gs_misses": 0,
        "writes": 0,
        "deduplicated": 0,
        "quarantined": 0,
    }


class ResultStore:
    """Content-addressed store of job results and shared ground states.

    One instance may back any number of sweeps, campaigns and service
    tenants at once; ``stats`` counts this instance's session (hits, misses,
    writes, dedups, quarantines) and :meth:`ledger` reports the on-disk
    totals.
    """

    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.stats = _fresh_stats()
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.manifests_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def objects_dir(self) -> pathlib.Path:
        return self.root / "objects"

    @property
    def manifests_dir(self) -> pathlib.Path:
        return self.root / "manifests"

    @property
    def tmp_dir(self) -> pathlib.Path:
        return self.root / "tmp"

    def observation_log(self):
        """The store's :class:`~repro.calib.ObservationLog` — the append-only
        predicted-vs-observed record every sweep executed against this store
        contributes to, and the input to
        :meth:`repro.calib.CalibrationModel.fit`."""
        from ..calib import ObservationLog

        return ObservationLog(self.root)

    @property
    def quarantine_dir(self) -> pathlib.Path:
        return self.root / "quarantine"

    def object_path(self, digest: str) -> pathlib.Path:
        """Path of the object holding content with sha256 ``digest``."""
        return self.objects_dir / f"{digest}.npz"

    def job_manifest_path(self, key: str) -> pathlib.Path:
        """Path of the manifest indexing the result for ``config_hash`` key."""
        return self.manifests_dir / f"{_JOB_PREFIX}{key}.json"

    def ground_state_manifest_path(self, group_key: str) -> pathlib.Path:
        """Path of the manifest indexing a group's shared ground state."""
        return self.manifests_dir / f"{_GS_PREFIX}{ground_state_hash(group_key)}.json"

    # ------------------------------------------------------------------
    # Atomic write / verified read primitives
    # ------------------------------------------------------------------
    @staticmethod
    def _file_digest(path) -> str:
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            while chunk := handle.read(_DIGEST_CHUNK):
                digest.update(chunk)
        return digest.hexdigest()

    def _write_object(self, data: bytes) -> dict:
        """Store a serialised artifact; return its index entry.

        The bytes are digested in memory. Content-equal rewrites are dedup
        no-ops (the existing object's bytes are already identical); anything
        else lands in ``tmp/`` under a unique name, once, and is renamed to
        its content address.
        """
        digest = hashlib.sha256(data).hexdigest()
        final = self.object_path(digest)
        if final.exists():
            self.stats["deduplicated"] += 1
        else:
            write_durably(final, data, self.tmp_dir)
            self.stats["writes"] += 1
        return {"sha256": digest, "size": len(data)}

    def _write_manifest(self, path: pathlib.Path, manifest: dict) -> None:
        write_durably(path, json.dumps(manifest, indent=2, default=json_default).encode())

    def _quarantine(self, *paths) -> None:
        """Move files aside into ``quarantine/`` (never delete evidence)."""
        moved = [quarantine(path, self.quarantine_dir) for path in paths if path is not None]
        if any(target is not None for target in moved):
            self.stats["quarantined"] += 1

    def _read_json(self, path: pathlib.Path) -> dict | None:
        """Parse a manifest; quarantine it if unparseable."""
        try:
            manifest = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            self._quarantine(path)
            return None
        if not isinstance(manifest, dict):
            self._quarantine(path)
            return None
        return manifest

    def _verified_object(self, manifest: dict, manifest_path: pathlib.Path) -> pathlib.Path | None:
        """The manifest's object path after size + sha256 verification.

        On any mismatch the manifest/object pair is quarantined and ``None``
        is returned so the caller recomputes.
        """
        artifact = manifest.get("artifact")
        if not isinstance(artifact, dict) or not isinstance(artifact.get("sha256"), str):
            self._quarantine(manifest_path)
            return None
        path = self.object_path(artifact["sha256"])
        if not path.exists():
            self._quarantine(manifest_path)
            return None
        try:
            ok = (
                path.stat().st_size == int(artifact.get("size", -1))
                and self._file_digest(path) == artifact["sha256"]
            )
        except (OSError, TypeError, ValueError):
            ok = False
        if not ok:
            self._quarantine(manifest_path, path)
            return None
        return path

    # ------------------------------------------------------------------
    # Job results (keyed by config_hash — any sweep anywhere serves a hit)
    # ------------------------------------------------------------------
    def _read_result_manifest(self, job: SweepJob) -> tuple[dict | None, pathlib.Path]:
        path = self.job_manifest_path(job.config_hash)
        manifest = self._read_json(path)
        if manifest is None:
            return None, path
        if manifest.get("config_hash") != job.config_hash:
            # keyed by the hash, so a mismatch means the entry was tampered
            # with or mis-filed — quarantine rather than trust or overwrite
            # silently on the read path
            self._quarantine(path)
            return None, path
        if manifest.get("status") != "completed":
            return None, path
        return manifest, path

    def has(self, job: SweepJob) -> bool:
        """Whether a complete stored result exists for ``job``'s config.

        Cheap existence check (no digest verification — :meth:`load` does
        that); used to diff sweeps against the store before executing.
        """
        return self._names_an_object(self._read_result_manifest(job)[0])

    def _names_an_object(self, manifest: dict | None) -> bool:
        artifact = (manifest or {}).get("artifact")
        return (
            isinstance(artifact, dict)
            and isinstance(artifact.get("sha256"), str)
            and self.object_path(artifact["sha256"]).exists()
        )

    def load(self, job: SweepJob) -> JobResult | None:
        """The stored result for ``job`` (status ``"cached"``), or ``None``.

        The object is re-verified against the manifest's size and sha256;
        corruption quarantines the pair and returns ``None`` so the caller
        recomputes. The result is built from the archived physics for the
        *requesting* job (the stored physics is the same by key construction,
        but the requesting sweep's axes and execution-only fields may differ).
        """
        # deferred: repro.batch.runner imports this module, so it must not
        # import repro.batch at import time
        from ..batch.report import JobResult

        manifest, path = self._read_result_manifest(job)
        if manifest is None:
            self.stats["misses"] += 1
            return None
        object_path = self._verified_object(manifest, path)
        if object_path is None:
            self.stats["misses"] += 1
            return None
        try:
            trajectory = Trajectory.load_npz(object_path)  # observables only, no basis
        except _CORRUPT_ARCHIVE:
            # digest-valid yet unreadable: the archive was corrupt when
            # written; quarantine so the next run rewrites it
            self._quarantine(path, object_path)
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        return JobResult.from_trajectory(job, trajectory, status="cached")

    def save(self, result: JobResult) -> None:
        """Persist a completed result (object first, manifest last)."""
        if result.trajectory is None or result.trajectory.final_wavefunction is None:
            raise ValueError(
                f"cannot checkpoint job {result.job_id!r}: it has no full trajectory"
            )
        key = result.config_hash
        if key is None:
            raise ValueError(
                f"cannot checkpoint job {result.job_id!r}: it carries no config_hash "
                "(results rebuilt from dicts do not; JobResult.from_trajectory copies the job's)"
            )
        artifact = self._write_object(_npz_bytes(**result.trajectory._npz_arrays()))
        manifest = {
            "job_id": result.job_id,
            "index": result.index,
            "point": result.point,
            "config": result.config,
            "config_hash": key,
            "status": "completed",
            "artifact": artifact,
        }
        self._write_manifest(self.job_manifest_path(key), manifest)

    # ------------------------------------------------------------------
    # Shared ground states (one converged SCF per ground-state group)
    # ------------------------------------------------------------------
    def _read_gs_manifest(self, group_key: str) -> tuple[dict | None, pathlib.Path]:
        path = self.ground_state_manifest_path(group_key)
        manifest = self._read_json(path)
        if manifest is None:
            return None, path
        if manifest.get("group_key") != group_key:
            return None, path  # hash collision on the 12-char key: do not trust it
        if manifest.get("status") != "completed":
            return None, path
        return manifest, path

    def has_ground_state(self, group_key: str) -> bool:
        """Whether a complete shared ground state exists for ``group_key``."""
        return self._names_an_object(self._read_gs_manifest(group_key)[0])

    def load_ground_state(self, group_key: str, basis=None) -> GroundStateResult | None:
        """The persisted ground state of a group, or ``None`` if absent.

        ``basis`` is the :class:`~repro.pw.grid.PlaneWaveBasis` the orbitals
        refer to (pass the consuming session's); without it the result carries
        no wavefunction and cannot seed a propagation. Corrupt entries are
        quarantined and reported absent, so callers reconverge.
        """
        manifest, path = self._read_gs_manifest(group_key)
        if manifest is None:
            self.stats["gs_misses"] += 1
            return None
        object_path = self._verified_object(manifest, path)
        if object_path is None:
            self.stats["gs_misses"] += 1
            return None
        try:
            result = GroundStateResult.load_npz(object_path, basis=basis)
        except _CORRUPT_ARCHIVE:
            self._quarantine(path, object_path)
            self.stats["gs_misses"] += 1
            return None
        self.stats["gs_hits"] += 1
        return result

    def save_ground_state(self, group_key: str, result: GroundStateResult) -> None:
        """Persist a group's converged SCF (orbitals first, manifest last)."""
        if result.wavefunction is None:
            raise ValueError("cannot checkpoint a ground state without its orbitals")
        artifact = self._write_object(_npz_bytes(**result._npz_arrays()))
        manifest = {
            "group_hash": ground_state_hash(group_key),
            "group_key": group_key,
            "status": "completed",
            "converged": bool(result.converged),
            "total_energy": float(result.total_energy),
            "scf_iterations": int(result.scf_iterations),
            "artifact": artifact,
        }
        self._write_manifest(self.ground_state_manifest_path(group_key), manifest)

    # ------------------------------------------------------------------
    # Index / provenance
    # ------------------------------------------------------------------
    def diff(self, jobs) -> tuple[list[SweepJob], list[SweepJob]]:
        """Split ``jobs`` into ``(hits, misses)`` against the stored index.

        This is the incremental-campaign primitive: only the misses need to
        execute; the hits will be served by :meth:`load` during the run.
        """
        hits, misses = [], []
        for job in jobs:
            (hits if self.has(job) else misses).append(job)
        return hits, misses

    def ledger(self) -> dict:
        """On-disk totals plus this instance's session counters."""
        objects = list(self.objects_dir.glob("*.npz"))
        manifests = list(self.manifests_dir.glob("*.json"))
        quarantined = (
            sum(1 for _ in self.quarantine_dir.iterdir())
            if self.quarantine_dir.is_dir()
            else 0
        )
        return {
            "root": str(self.root),
            "objects": len(objects),
            "object_bytes": sum(path.stat().st_size for path in objects),
            "result_manifests": sum(
                1 for path in manifests if path.name.startswith(_JOB_PREFIX)
            ),
            "ground_state_manifests": sum(
                1 for path in manifests if path.name.startswith(_GS_PREFIX)
            ),
            "quarantined": quarantined,
            "session": dict(self.stats),
        }


def _as_store(store) -> ResultStore | None:
    """The one reading of a ``store=`` argument: ``None`` (no persistence), a
    :class:`ResultStore`, or the root directory of one."""
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)
