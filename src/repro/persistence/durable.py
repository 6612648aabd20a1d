"""Crash-safe file publication: fsync-before-rename plus integrity frames.

The tmp-file + ``os.replace`` dance used by the snapshot and manifest
writers is *atomic* but not *durable*: without an ``fsync`` of the tmp
file the rename can land on disk before the file's data blocks do, and
without an ``fsync`` of the containing directory the rename itself can
be lost — either way a power cut can leave a manifest pointing at a
snapshot whose bytes never hit the platter. This module centralises the
full durability dance so both writers do it identically:

1. write the payload to ``<target>.tmp``,
2. ``flush`` + ``os.fsync`` the tmp file (data blocks reach the disk),
3. ``os.replace`` onto the target (atomic visibility switch),
4. ``os.fsync`` the parent directory (the rename reaches the disk).

Set ``REPRO_NO_FSYNC=1`` to skip the two fsync calls (steps 2 and 4) —
useful for test suites on tmpfs where durability is meaningless and the
syscalls are pure overhead. Atomicity (the replace) is never skipped.

Snapshot files additionally carry a CRC-32 integrity trailer
(:func:`frame_payload` / :func:`unframe_payload`) so *torn or corrupted
bytes are detected deterministically at read time* instead of relying on
the structural decoder happening to notice. The trailer is appended
after the payload (``RGCRC1`` magic + 4-byte big-endian CRC-32), so
files written by older builds — no trailer — stay readable, and readers
that stop at the end of the structural payload are unaffected.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from typing import Union

from .. import envknobs

__all__ = [
    "FSYNC_ENV",
    "TRAILER_MAGIC",
    "TRAILER_SIZE",
    "durable_replace",
    "frame_payload",
    "fsync_dir",
    "fsync_enabled",
    "unframe_payload",
    "write_durable_bytes",
]

#: Set to ``1`` (or ``true``/``yes``) to skip fsync calls (tests, tmpfs).
FSYNC_ENV = "REPRO_NO_FSYNC"

TRAILER_MAGIC = b"RGCRC1"
TRAILER_SIZE = len(TRAILER_MAGIC) + 4  # magic + big-endian CRC-32


def fsync_enabled() -> bool:
    """True unless ``REPRO_NO_FSYNC`` disables durability syscalls."""
    return (envknobs.read(FSYNC_ENV) or "").strip().lower() not in (
        "1",
        "true",
        "yes",
    )


def fsync_dir(directory: Union[str, Path]) -> None:
    """Fsync a directory so a rename inside it survives a power cut.

    Best effort: platforms (or filesystems) that cannot open/fsync a
    directory degrade to the pre-durability behaviour instead of
    breaking checkpointing outright.
    """
    if not fsync_enabled():
        return
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_durable_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` with its blocks flushed to disk."""
    with open(path, "wb") as handle:
        handle.write(data)
        if fsync_enabled():
            handle.flush()
            os.fsync(handle.fileno())


def durable_replace(tmp: Union[str, Path], target: Union[str, Path]) -> None:
    """``os.replace`` + parent-directory fsync (steps 3 and 4 above)."""
    os.replace(tmp, target)
    fsync_dir(Path(target).parent)


def frame_payload(data: bytes) -> bytes:
    """Append the CRC-32 integrity trailer to ``data``."""
    crc = zlib.crc32(data) & 0xFFFFFFFF
    return data + TRAILER_MAGIC + crc.to_bytes(4, "big")


def unframe_payload(data: bytes) -> bytes:
    """Verify and strip the integrity trailer; pass legacy files through.

    Raises :class:`ValueError` on a checksum mismatch — the caller maps
    it to its domain error (``CheckpointError`` for snapshots). A file
    without the trailer (written before the trailer existed, or whose
    trailer bytes were themselves destroyed) falls through to the
    structural decoder, which still rejects torn payloads.
    """
    if len(data) >= TRAILER_SIZE and data[-TRAILER_SIZE:-4] == TRAILER_MAGIC:
        payload = data[:-TRAILER_SIZE]
        stored = int.from_bytes(data[-4:], "big")
        actual = zlib.crc32(payload) & 0xFFFFFFFF
        if stored != actual:
            raise ValueError(
                f"integrity trailer mismatch (stored crc32 {stored:#010x}, "
                f"computed {actual:#010x}); the file's bytes were torn or "
                "corrupted after it was written"
            )
        return payload
    return data
