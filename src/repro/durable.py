"""The one durable file write: tmp file, then ``os.replace``; and the one
quarantine move.

Every writer that must never leave a torn file at its final path — the result
store's objects and manifests, ``.npz`` archives, the calibration log, the
asset library — goes through :func:`write_durably`, and every reader that
finds a corrupt file moves it aside with :func:`quarantine` (the result store
and the asset library; evidence is never deleted). It imports nothing from
the package, so every layer can use it.
"""

from __future__ import annotations

import os
import pathlib
import uuid

__all__ = ["quarantine", "write_durably"]


def write_durably(final, data: bytes, tmp_dir=None) -> None:
    """Write ``data`` to a uniquely named tmp file (in ``tmp_dir``, or next to
    ``final``) and rename it to ``final``, so a reader sees the whole file or
    none of it. Two writers of one path never share a tmp file. A missing
    directory is made then and only then, and the tmp file is removed
    whenever the rename did not consume it."""
    final = pathlib.Path(final)
    tmp = pathlib.Path(tmp_dir or final.parent) / f"{final.name}.{os.getpid()}-{uuid.uuid4().hex}.tmp"
    try:
        try:
            tmp.write_bytes(data)
        except FileNotFoundError:
            tmp.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
        try:
            os.replace(tmp, final)
        except FileNotFoundError:
            final.parent.mkdir(parents=True, exist_ok=True)
            os.replace(tmp, final)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def quarantine(path, directory) -> pathlib.Path | None:
    """Move ``path`` into ``directory`` (made when needed) under its own name,
    or ``<name>.<n>`` with the first free ``n``, never overwriting. Returns
    the new path, or ``None`` when there was nothing to move: ``path`` is
    absent, or a racing quarantiner moved it first (``os.replace`` raised
    ``OSError``)."""
    path = pathlib.Path(path)
    if not path.exists():
        return None
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / path.name
    n = 1
    while target.exists():
        target = directory / f"{path.name}.{n}"
        n += 1
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target
