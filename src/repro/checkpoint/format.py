"""The on-disk checkpoint format: header + CRC-validated pickle payload.

A checkpoint file is one ASCII JSON header line followed by a pickled
payload::

    {"crc32": ..., "magic": "repro-checkpoint", "payload_bytes": ...,
     "fingerprint": "...", "version": 1}\\n
    <pickle bytes>

The header carries everything needed to *reject* a file before a single
payload byte is interpreted:

* ``magic`` -- rules out arbitrary files handed to ``--resume``;
* ``version`` -- schema version, bumped whenever the payload layout
  changes, so an old binary never misreads a new checkpoint (or vice
  versa);
* ``fingerprint`` -- hash of the run configuration (case, stages, problem,
  seed...); a checkpoint from a different setup must never silently seed a
  resume;
* ``payload_bytes`` + ``crc32`` -- length and CRC of the payload, so a
  truncated or bit-flipped file fails loudly.

The framing -- header line, magic, version, byte length, CRC32 -- is the
:func:`pack_armored` / :func:`unpack_armored` pair, which the durable job
records of :mod:`repro.server.records` share with their own magic,
version, JSON body and error type.

Every rejection path raises a typed
:class:`~repro.errors.CheckpointError`.  Writes go through
:func:`repro.checkpoint.atomic.atomic_write_bytes`, so a crash mid-write
leaves the previous checkpoint intact.

``repro.checkpoint`` is a sanctioned error boundary (in the R4 lint rule's
``BOUNDARY_MODULES``): unpickling attacker- or corruption-shaped bytes can
raise nearly anything (``UnpicklingError``, ``EOFError``,
``AttributeError``...), and the one ``except Exception`` below exists to
translate all of it into :class:`~repro.errors.CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import zlib
from pathlib import Path
from typing import Any, Dict, Tuple, Type, Union

from .. import profiling
from ..errors import CheckpointError, ReproError
from .atomic import atomic_write_bytes

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "fingerprint_of",
    "pack_armored",
    "read_checkpoint",
    "unpack_armored",
    "write_checkpoint",
]

#: File-type marker of the header line.
CHECKPOINT_MAGIC = "repro-checkpoint"

#: Schema version of the pickled payload (bump on any layout change).
CHECKPOINT_VERSION = 1


def fingerprint_of(**fields: Any) -> str:
    """A stable hex fingerprint of a run configuration.

    Fields are rendered by ``repr`` in sorted key order and hashed with
    SHA-256; any field whose ``repr`` is stable across processes (ints,
    strings, tuples, dataclasses with value fields) fingerprints reliably.
    """
    canonical = ";".join(
        f"{key}={fields[key]!r}" for key in sorted(fields)
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def pack_armored(
    magic: str, version: int, body: bytes, length_key: str, **fields: Any
) -> bytes:
    """Frame ``body`` behind a one-line JSON header.

    The header holds ``magic``, ``version``, the body length under
    ``length_key``, the body's ``crc32`` and any extra ``fields``, with
    sorted keys, so the same inputs always give the same bytes.
    """
    header = json.dumps(
        {
            "magic": magic,
            "version": version,
            length_key: len(body),
            "crc32": zlib.crc32(body),
            **fields,
        },
        sort_keys=True,
    )
    return header.encode("ascii") + b"\n" + body


def unpack_armored(
    path: Path,
    raw: bytes,
    *,
    kind: str,
    magic: str,
    version: int,
    length_key: str,
    error: Type[ReproError],
) -> Tuple[Dict[str, Any], bytes]:
    """Check the framing of a :func:`pack_armored` file; ``(header, body)``.

    ``kind`` names the file type in messages (``"checkpoint"``); the body
    is called after ``length_key`` (``"payload_bytes"`` -> payload).

    Raises:
        error: no header line, unparsable header, foreign magic, schema
            version skew, length mismatch (torn write) or CRC mismatch.
    """
    part = length_key.partition("_")[0]
    header_line, separator, body = raw.partition(b"\n")
    if not separator:
        raise error(f"{path}: not a {kind} (no header/{part} separator)")
    try:
        header = json.loads(header_line.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: not a {kind} (unparsable header)") from exc
    if not isinstance(header, dict) or header.get("magic") != magic:
        raise error(f"{path}: not a repro {kind}")
    if header.get("version") != version:
        raise error(
            f"{path}: {kind} schema version {header.get('version')!r} does "
            f"not match this build's version {version}"
        )
    if header.get(length_key) != len(body):
        raise error(
            f"{path}: {part} is {len(body)} bytes but the header recorded "
            f"{header.get(length_key)!r} (partial or truncated write; torn "
            f"or truncated {kind})"
        )
    if header.get("crc32") != zlib.crc32(body):
        raise error(f"{path}: {part} CRC mismatch (corrupted {kind})")
    return header, body


def write_checkpoint(
    path: Union[str, Path], payload: Any, fingerprint: str
) -> Path:
    """Serialize ``payload`` and atomically write a checkpoint file."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    data = pack_armored(
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        blob,
        "payload_bytes",
        fingerprint=fingerprint,
    )
    final = atomic_write_bytes(path, data)
    profiling.increment("checkpoint.saves")
    return final


def read_checkpoint(path: Union[str, Path], fingerprint: str) -> Any:
    """Validate and deserialize a checkpoint written by :func:`write_checkpoint`.

    Raises:
        CheckpointError: missing/unreadable file, bad magic, schema version
            skew, fingerprint mismatch, payload length mismatch (partial
            write), CRC mismatch (corruption), or an unpicklable payload.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc

    header, blob = unpack_armored(
        path,
        raw,
        kind="checkpoint",
        magic=CHECKPOINT_MAGIC,
        version=CHECKPOINT_VERSION,
        length_key="payload_bytes",
        error=CheckpointError,
    )
    if header.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"{path}: checkpoint is from a different run setup (case, "
            f"stages, problem, seed, or batch shape changed); refusing to "
            f"resume from mismatched state"
        )
    try:
        payload = pickle.loads(blob)
    except Exception as exc:  # the sanctioned corruption-translation boundary
        raise CheckpointError(
            f"{path}: payload passed CRC but failed to deserialize: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    profiling.increment("checkpoint.loads")
    return payload
