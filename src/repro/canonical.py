"""The one canonical JSON encoding, of store keys, memo keys, log lines and
asset payloads: keys sorted at every level, floats in Python's shortest
round-trip ``repr``, no NaN or infinity. Only JSON is encoded — a value JSON
cannot spell raises, never is spelled some other way — and configs hold one
canonical value per field (:mod:`repro.api.config`), so configs that compare
``==`` encode alike. It imports nothing from the package, so every layer can
use it.
"""

from __future__ import annotations

import json

__all__ = ["canonical_json"]


def canonical_json(data, compact: bool = False) -> str:
    """``data`` as canonical JSON text, without spaces after the separators
    when ``compact`` (the asset payload encoding)."""
    return json.dumps(data, sort_keys=True, allow_nan=False, separators=(",", ":") if compact else None)
