"""The :class:`AssetLibrary`: digest-validated access to an asset manifest.

Two backings share one API. The **builtin** library regenerates payloads from
the generators in :mod:`repro.assets.builtin` (self-contained, nothing on
disk). A **materialised** library lives under a directory::

    <root>/manifest.json               the AssetManifest
    <root>/payloads/<sha256>.json      one canonical payload per digest
    <root>/quarantine/                 corrupt payloads moved aside, never deleted

Every payload read is re-hashed against the manifest digest; a mismatch
quarantines the file (mirroring :class:`repro.store.ResultStore`'s
fault discipline — corrupt data is moved aside for post-mortem, never
silently skipped or deleted) and raises :class:`AssetIntegrityError`.
Structure resolution additionally re-checks the embedded pseudopotential
links (digest pin + element ↔ species symbol consistency).
"""

from __future__ import annotations

import json
from pathlib import Path

from ..durable import quarantine, write_durably
from .builtin import (
    PINNED_DIGESTS,
    build_pseudo,
    build_pulse,
    build_structure,
    builtin_manifest,
    builtin_payloads,
    forwarded_builder,
)
from .manifest import (
    AssetError,
    AssetIntegrityError,
    AssetManifest,
    AssetRecord,
    canonical_payload_bytes,
    payload_digest,
)

__all__ = ["AssetLibrary", "default_library", "ASSET_PREFIX"]

#: Prefix marking an asset reference in a config field: ``asset:pulse/...@1``.
ASSET_PREFIX = "asset:"


class AssetLibrary:
    """Digest-validated view over one :class:`AssetManifest`."""

    def __init__(
        self,
        manifest: AssetManifest,
        payloads: dict[str, dict] | None = None,
        root: str | Path | None = None,
    ):
        if payloads is None and root is None:
            raise AssetError("AssetLibrary needs in-memory payloads or a root directory")
        self.manifest = manifest
        self._payloads = payloads
        self.root = None if root is None else Path(root)
        self._builders: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def builtin(cls) -> "AssetLibrary":
        """The self-contained generator-backed library."""
        return cls(builtin_manifest(), payloads=builtin_payloads())

    @classmethod
    def open(cls, root: str | Path) -> "AssetLibrary":
        """Open a materialised library; payloads are verified lazily on read."""
        root = Path(root)
        manifest_path = root / "manifest.json"
        if not manifest_path.is_file():
            raise AssetError(f"no asset manifest at {manifest_path}")
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise AssetError(f"unreadable asset manifest {manifest_path}: {exc}") from None
        return cls(AssetManifest.from_dict(data), root=root)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def ids(self, kind: str | None = None) -> list[str]:
        return self.manifest.ids(kind)

    def __contains__(self, ref: str) -> bool:
        return ref in self.manifest

    def record(self, ref: str) -> AssetRecord:
        return self.manifest.get(ref)

    def digest(self, ref: str) -> str:
        """The manifest's content pin for ``ref`` (no payload read)."""
        return self.record(ref).sha256

    def payload(self, ref: str) -> dict:
        """The verified payload for ``ref``.

        The payload is re-hashed against the manifest digest on every read; a
        mismatch quarantines the on-disk file and raises
        :class:`AssetIntegrityError`.
        """
        record = self.record(ref)
        key = str(record.asset_id)
        if self._payloads is not None:
            payload = self._payloads.get(key)
            if payload is None:
                raise AssetIntegrityError(f"library holds no payload for {key}")
        else:
            payload = self._read_payload_file(record)
        actual = payload_digest(payload)
        if actual != record.sha256:
            self._quarantine(record)
            raise AssetIntegrityError(
                f"payload of {key} hashes to {actual[:12]}... but the manifest "
                f"pins {record.sha256[:12]}...; "
                + (
                    "the corrupt payload file was quarantined"
                    if self.root is not None
                    else "the generator drifted from its pin"
                )
            )
        return payload

    def describe(self, ref: str) -> dict:
        """Record metadata plus the verified payload, as one JSON-able dict."""
        record = self.record(ref)
        return {**record.as_dict(), "payload": self.payload(ref)}

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def build(self, ref: str, **params):
        """Construct the object an asset describes (species / structure /
        pulse), after digest verification; ``params`` are generator overrides."""
        record = self.record(ref)
        payload = self.payload(ref)
        kind = record.asset_id.kind
        if kind == "pseudo":
            return build_pseudo(payload, **params)
        if kind == "structure":
            return build_structure(payload, self, **params)
        return build_pulse(payload, **params)

    def builder(self, ref: str):
        """The builder ``ref``'s ``params`` are forwarded to (``None`` for
        a pseudo): its signature declares their types."""
        if ref not in self._builders:
            generator = self.payload(ref).get("generator")
            self._builders[ref] = forwarded_builder(self.record(ref).asset_id.kind, generator)
        return self._builders[ref]

    def factory(self, ref: str, expected_kind: str | None = None):
        """A ``(**params) -> object`` factory for ``ref``, validated eagerly.

        This is what the registries hand back for ``asset:`` names: the
        record lookup (and kind check) happens now, so config validation
        fails fast, while payload verification and construction happen at
        build time like any registry factory.
        """
        record = self.record(ref)
        kind = record.asset_id.kind
        if expected_kind is not None and kind != expected_kind:
            raise AssetError(
                f"asset {ref!r} is a {kind} asset, but a {expected_kind} "
                "reference is required here"
            )

        def _factory(**params):
            return self.build(ref, **params)

        _factory.__name__ = f"asset_{kind}_factory"
        _factory.asset_ref = ref
        return _factory

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self) -> dict:
        """Check every asset; returns ``{"ok", "checked", "problems"}``.

        For each entry: the payload re-hashes to the manifest digest; builtin
        entries also match their :data:`PINNED_DIGESTS` pin (generator-drift
        guard); structures resolve end-to-end (Merkle links + element
        consistency). Problems are collected per asset, never masked.
        """
        problems: list[dict] = []
        for ref in self.ids():
            for issue in self._verify_one(ref):
                problems.append({"id": ref, "error": issue})
        return {"ok": not problems, "checked": len(self.manifest), "problems": problems}

    def _verify_one(self, ref: str) -> list[str]:
        issues: list[str] = []
        try:
            self.payload(ref)
        except AssetError as exc:
            return [str(exc)]
        if self._payloads is not None and ref in PINNED_DIGESTS:
            actual = self.digest(ref)
            if actual != PINNED_DIGESTS[ref]:
                issues.append(
                    f"generator drift: payload hashes to {actual[:12]}... but the "
                    f"pinned digest is {PINNED_DIGESTS[ref][:12]}...; bump the asset "
                    "version (content change) or re-pin (intentional)"
                )
        try:
            self.build(ref)
        except AssetError as exc:
            issues.append(str(exc))
        except Exception as exc:  # a generator bug is a verification failure too
            issues.append(f"build failed: {type(exc).__name__}: {exc}")
        return issues

    # ------------------------------------------------------------------
    # Materialisation and quarantine
    # ------------------------------------------------------------------
    def materialize(self, root: str | Path) -> Path:
        """Write this library's manifest + payloads under ``root`` (atomic
        tmp-then-replace per file, like the result store)."""
        root = Path(root)
        payload_dir = root / "payloads"
        payload_dir.mkdir(parents=True, exist_ok=True)
        for ref in self.ids():
            record = self.record(ref)
            payload = self.payload(ref)
            write_durably(payload_dir / f"{record.sha256}.json", canonical_payload_bytes(payload))
        manifest_bytes = json.dumps(self.manifest.as_dict(), indent=2, sort_keys=True).encode()
        write_durably(root / "manifest.json", manifest_bytes)
        return root

    def _payload_path(self, record: AssetRecord) -> Path:
        assert self.root is not None
        return self.root / "payloads" / f"{record.sha256}.json"

    def _read_payload_file(self, record: AssetRecord) -> dict:
        path = self._payload_path(record)
        if not path.is_file():
            raise AssetIntegrityError(
                f"payload file for {record.asset_id} is missing: {path}"
            )
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            self._quarantine(record)
            raise AssetIntegrityError(
                f"payload file for {record.asset_id} is unreadable and was "
                f"quarantined: {exc}"
            ) from None
        if not isinstance(payload, dict):
            self._quarantine(record)
            raise AssetIntegrityError(
                f"payload file for {record.asset_id} does not contain a JSON "
                "object; it was quarantined"
            )
        return payload

    def _quarantine(self, record: AssetRecord) -> Path | None:
        """Move a corrupt payload file into ``<root>/quarantine/`` (never
        delete); returns the new path, or None for in-memory libraries."""
        if self.root is None:
            return None
        return quarantine(self._payload_path(record), self.root / "quarantine")


_DEFAULT_LIBRARY: AssetLibrary | None = None


def default_library() -> AssetLibrary:
    """The process-wide builtin library (built once, then cached).

    Config resolution (``asset:`` ids in registries, config-hash overlays,
    provenance stamping) goes through this accessor so every layer sees one
    consistent catalog.
    """
    global _DEFAULT_LIBRARY
    if _DEFAULT_LIBRARY is None:
        _DEFAULT_LIBRARY = AssetLibrary.builtin()
    return _DEFAULT_LIBRARY
