"""Crash-safe file writes: the one sanctioned persistence primitive.

Every run artifact in the repo -- checkpoints, ``BENCH_*.json`` payloads,
anything a crash mid-write could truncate -- goes through
:func:`atomic_write_bytes`: serialize fully in memory, write to a temp file
in the *destination directory* (same filesystem, so the rename is atomic),
flush + ``fsync`` the file, then ``os.replace`` onto the final name and
``fsync`` the directory so the rename itself survives power loss.  A reader
therefore sees either the previous complete file or the new complete file,
never a partial one.

``tests/test_source_guards.py`` fails on every file-writing shape --
``open`` for writing, ``write_text``/``write_bytes``, ``os.open``/
``os.fdopen`` for writing, ``json.dump``/``pickle.dump`` -- anywhere in
``src/repro`` outside this module, so new artifact writers cannot quietly
regress to truncatable writes.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Union

__all__ = [
    "append_jsonl",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
]


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry (best effort; not supported everywhere)."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms that cannot open directories
    try:
        os.fsync(dir_fd)
    except OSError:
        pass  # the data fsync already happened; rename durability is best effort
    finally:
        os.close(dir_fd)


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically; returns the final path.

    The temp file lives next to the destination (``<name>.<rand>.tmp``) so
    ``os.replace`` never crosses a filesystem boundary.  On any failure the
    temp file is removed and the destination is left untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    _fsync_directory(path.parent)
    return path


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Atomic :func:`atomic_write_bytes` for UTF-8 text."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: Union[str, Path], payload: Any, indent: int = 2) -> Path:
    """Serialize ``payload`` as sorted-key JSON and write it atomically.

    The serialization happens fully in memory first, so a payload that is
    not JSON-serializable fails before anything touches the filesystem.
    """
    return atomic_write_text(
        path, json.dumps(payload, indent=indent, sort_keys=True) + "\n"
    )


def append_jsonl(path: Union[str, Path], record: Any, fsync: bool = True) -> Path:
    """Append one JSON record as a single line to ``path``; returns the path.

    The crash-safe append counterpart to :func:`atomic_write_bytes` for
    streaming artifacts (run-event logs): the record is serialized fully in
    memory first, emitted in one ``write`` call in ``O_APPEND`` mode, then
    flushed (and ``fsync``'d unless ``fsync=False``).  A crash can therefore
    only tear the *last* line, which JSONL readers skip; every earlier
    record stays intact.  Pass ``fsync=False`` for high-rate streams where
    per-record durability is not worth a disk flush.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "ab") as handle:
        handle.write(line.encode("utf-8"))
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    return path
