"""The versioned, hash-indexed asset manifest.

An *asset* is one reusable simulation ingredient — a pseudopotential, an
atomic structure recipe, or a laser pulse — described entirely by a plain
JSON-serialisable *payload* dict. Assets are addressed by id::

    <kind>/<name>@<version>        e.g.  pseudo/si/gth-q4@1
                                         structure/si-diamond-2x2x2@1
                                         pulse/pump-probe-380+760@1

``kind`` is one of :data:`ASSET_KINDS`; ``name`` is one or more lowercase
``[a-z0-9._+-]`` segments separated by ``/``; ``version`` is a positive
integer bumped whenever the payload changes. Every asset's content is pinned
by the sha256 of its **canonical** payload encoding
(:func:`canonical_payload_bytes` — sorted keys, minimal separators, Python's
shortest-round-trip float repr), so equal payloads hash identically no matter
which process, dict ordering or JSON round-trip produced them. Those digests
flow into :func:`repro.batch.sweep.config_hash`, which is what keeps
:class:`~repro.store.ResultStore` keys content-true when configs reference
assets by id.

The :class:`AssetManifest` is the index: a versioned mapping from id to
:class:`AssetRecord` (kind / element / provenance metadata plus the payload
digest). Reading a manifest of an unknown version raises — newer layouts are
never half-understood silently.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from ..canonical import canonical_json

__all__ = [
    "ASSET_KINDS",
    "MANIFEST_VERSION",
    "AssetError",
    "UnknownAssetError",
    "AssetIntegrityError",
    "AssetId",
    "AssetRecord",
    "AssetManifest",
    "canonical_payload_bytes",
    "payload_digest",
]

#: The supported asset kinds, in manifest order.
ASSET_KINDS = ("pseudo", "structure", "pulse")

#: Version of the manifest layout this module reads and writes.
MANIFEST_VERSION = 1

_NAME_SEGMENT = re.compile(r"^[a-z0-9][a-z0-9._+-]*$")


class AssetError(ValueError):
    """An asset id, payload or manifest is invalid."""


class UnknownAssetError(KeyError):
    """An asset lookup failed; the message lists what is available."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # KeyError would wrap the message in quotes
        return self.message


class AssetIntegrityError(AssetError):
    """An asset's payload does not match its manifest digest (or its
    cross-references are inconsistent). Corrupt entries are quarantined by
    the :class:`~repro.assets.library.AssetLibrary`, never silently skipped."""


# ---------------------------------------------------------------------------
# Canonical payload encoding
# ---------------------------------------------------------------------------


def canonical_payload_bytes(payload: dict) -> bytes:
    """The canonical byte encoding of a payload dict: the package's one
    encoder, :func:`repro.canonical.canonical_json`, compact.

    Keys sorted at every nesting level, minimal separators, no NaN/Infinity,
    floats in Python's shortest-round-trip ``repr`` — so a payload survives
    any number of JSON round-trips with the same digest.
    Non-JSON-serialisable values raise :class:`AssetError` naming the type.
    """
    if not isinstance(payload, dict):
        raise AssetError(f"payload must be a dict, got {type(payload).__name__}")
    try:
        return canonical_json(payload, compact=True).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise AssetError(f"payload is not canonically JSON-serialisable: {exc}") from None


def payload_digest(payload: dict) -> str:
    """sha256 hex digest of :func:`canonical_payload_bytes`."""
    return hashlib.sha256(canonical_payload_bytes(payload)).hexdigest()


# ---------------------------------------------------------------------------
# Asset ids
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class AssetId:
    """A parsed ``kind/name@version`` asset id."""

    kind: str
    name: str
    version: int

    def __post_init__(self) -> None:
        if self.kind not in ASSET_KINDS:
            raise AssetError(
                f"unknown asset kind {self.kind!r}; valid kinds: {list(ASSET_KINDS)}"
            )
        segments = str(self.name).split("/")
        if not all(_NAME_SEGMENT.match(segment) for segment in segments):
            raise AssetError(
                f"invalid asset name {self.name!r}: each '/'-separated segment must "
                "match [a-z0-9][a-z0-9._+-]*"
            )
        if not isinstance(self.version, int) or isinstance(self.version, bool) or self.version < 1:
            raise AssetError(f"asset version must be a positive integer, got {self.version!r}")

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "AssetId":
        """Parse ``kind/name@version`` (the inverse of ``str(asset_id)``)."""
        if not isinstance(text, str) or not text:
            raise AssetError(f"asset id must be a non-empty string, got {text!r}")
        body, sep, version_text = text.rpartition("@")
        if not sep or not body:
            raise AssetError(
                f"invalid asset id {text!r}: expected '<kind>/<name>@<version>' "
                "(e.g. 'pseudo/si/gth-q4@1')"
            )
        try:
            version = int(version_text)
        except ValueError:
            raise AssetError(
                f"invalid asset id {text!r}: version {version_text!r} is not an integer"
            ) from None
        kind, sep, name = body.partition("/")
        if not sep or not name:
            raise AssetError(
                f"invalid asset id {text!r}: expected '<kind>/<name>@<version>' "
                f"with kind one of {list(ASSET_KINDS)}"
            )
        return cls(kind=kind, name=name, version=version)

    def __str__(self) -> str:
        return f"{self.kind}/{self.name}@{self.version}"


# ---------------------------------------------------------------------------
# Records and the manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssetRecord:
    """One manifest entry: identity, metadata, and the payload content pin.

    Attributes
    ----------
    asset_id:
        The parsed :class:`AssetId`.
    sha256:
        Digest of the canonical payload encoding — the content pin that
        flows into config hashes and store keys.
    element:
        Chemical symbol for ``pseudo`` assets, and for single-element
        ``structure`` assets; ``None`` otherwise (multi-element structures
        carry their elements inside the payload).
    description:
        One-line human-readable summary (shown by the CLI inventory).
    provenance:
        Where the payload came from, e.g. ``"builtin:gth_species"`` for
        generator-backed assets or ``"file:<path>"`` for materialised ones.
    """

    asset_id: AssetId
    sha256: str
    element: str | None = None
    description: str = ""
    provenance: str = ""

    def as_dict(self) -> dict:
        data = {
            "id": str(self.asset_id),
            "kind": self.asset_id.kind,
            "sha256": self.sha256,
            "description": self.description,
            "provenance": self.provenance,
        }
        if self.element is not None:
            data["element"] = self.element
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "AssetRecord":
        if not isinstance(data, dict):
            raise AssetError(f"manifest entry must be a dict, got {type(data).__name__}")
        try:
            asset_id = AssetId.parse(data["id"])
            sha256 = data["sha256"]
        except KeyError as exc:
            raise AssetError(f"manifest entry is missing required key {exc}") from None
        if not isinstance(sha256, str) or len(sha256) != 64:
            raise AssetError(
                f"manifest entry for {asset_id} has an invalid sha256 {sha256!r}"
            )
        kind = data.get("kind", asset_id.kind)
        if kind != asset_id.kind:
            raise AssetError(
                f"manifest entry for {asset_id} declares kind {kind!r} but the id "
                f"says {asset_id.kind!r}"
            )
        element = data.get("element")
        return cls(
            asset_id=asset_id,
            sha256=sha256,
            element=None if element is None else str(element),
            description=str(data.get("description", "")),
            provenance=str(data.get("provenance", "")),
        )


class AssetManifest:
    """The versioned id → :class:`AssetRecord` index of one asset library."""

    def __init__(self, version: int = MANIFEST_VERSION):
        if version != MANIFEST_VERSION:
            raise AssetError(
                f"unsupported manifest version {version!r}; this build reads "
                f"version {MANIFEST_VERSION}"
            )
        self.version = version
        self._records: dict[str, AssetRecord] = {}

    # ------------------------------------------------------------------
    def add(self, record: AssetRecord) -> None:
        key = str(record.asset_id)
        if key in self._records:
            raise AssetError(f"duplicate asset id {key!r} in manifest")
        self._records[key] = record

    def ids(self, kind: str | None = None) -> list[str]:
        """Sorted asset ids, optionally restricted to one kind."""
        return sorted(
            key for key, record in self._records.items()
            if kind is None or record.asset_id.kind == kind
        )

    def __contains__(self, ref: str) -> bool:
        return str(ref) in self._records

    def __len__(self) -> int:
        return len(self._records)

    def get(self, ref: str | AssetId) -> AssetRecord:
        """The record for ``ref``; unknown ids raise :class:`UnknownAssetError`
        listing the ids of the same kind (plus near-miss suggestions)."""
        key = str(ref)
        record = self._records.get(key)
        if record is None:
            raise UnknownAssetError(self._missing_message(key))
        return record

    def _missing_message(self, key: str) -> str:
        import difflib

        kind = key.split("/", 1)[0]
        same_kind = self.ids(kind if kind in ASSET_KINDS else None) or self.ids()
        message = f"unknown asset {key!r}"
        close = difflib.get_close_matches(key, self.ids(), n=3, cutoff=0.6)
        if close:
            message += "; did you mean " + " or ".join(repr(c) for c in close) + "?"
        message += " Available: " + ", ".join(same_kind)
        return message

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """The JSON form: ``{"manifest_version": 1, "assets": {...}}``."""
        return {
            "manifest_version": self.version,
            "assets": {key: self._records[key].as_dict() for key in self.ids()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AssetManifest":
        """Inverse of :meth:`as_dict`; unknown versions and malformed entries
        raise :class:`AssetError` naming the problem."""
        if not isinstance(data, dict):
            raise AssetError(f"manifest must be a dict, got {type(data).__name__}")
        version = data.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise AssetError(
                f"unsupported manifest version {version!r}; this build reads "
                f"version {MANIFEST_VERSION}"
            )
        entries = data.get("assets")
        if not isinstance(entries, dict):
            raise AssetError("manifest has no 'assets' mapping")
        manifest = cls(version=version)
        for key, entry in entries.items():
            record = AssetRecord.from_dict(entry)
            if str(record.asset_id) != key:
                raise AssetError(
                    f"manifest entry filed under {key!r} describes {record.asset_id}"
                )
            manifest.add(record)
        return manifest
