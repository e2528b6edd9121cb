"""repro.assets — versioned, hash-indexed materials + pulse asset library.

Assets (pseudopotentials, structures, laser pulses) are addressed as
``kind/name@version`` ids whose payloads are pinned by canonical-JSON sha256
digests. Configs reference them as ``asset:<id>`` anywhere a registry key is
accepted; the digests flow into ``config_hash`` and run provenance so
content-addressed store keys stay content-true. ``python -m repro.assets``
provides ``inventory`` / ``verify`` / ``describe`` / ``materialize``.
"""

from .builtin import BUILTIN_ASSETS, PINNED_DIGESTS, builtin_manifest, builtin_payloads
from .library import ASSET_PREFIX, AssetLibrary, default_library
from .manifest import (
    ASSET_KINDS,
    MANIFEST_VERSION,
    AssetError,
    AssetId,
    AssetIntegrityError,
    AssetManifest,
    AssetRecord,
    UnknownAssetError,
    canonical_payload_bytes,
    payload_digest,
)

__all__ = [
    "ASSET_KINDS",
    "ASSET_PREFIX",
    "MANIFEST_VERSION",
    "AssetError",
    "AssetId",
    "AssetIntegrityError",
    "AssetManifest",
    "AssetRecord",
    "UnknownAssetError",
    "AssetLibrary",
    "BUILTIN_ASSETS",
    "PINNED_DIGESTS",
    "builtin_manifest",
    "builtin_payloads",
    "canonical_payload_bytes",
    "default_library",
    "payload_digest",
]
