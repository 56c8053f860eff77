"""Crash-safe checkpoint files for design runs.

Every design run -- portfolio races and the paper's staged flow alike --
goes through :func:`repro.optimize.portfolio.run_portfolio`, which persists
one ``portfolio.ckpt`` at every optimizer round boundary with
:func:`write_checkpoint` and restores it *bitwise* on ``resume=True``
(RNG bit-generator states and evaluator caches ride along in the payload).

Layers, bottom to top:

* :mod:`~repro.checkpoint.atomic` -- temp-file + fsync + ``os.replace``
  writes; the sanctioned primitive behind every run artifact (the only
  module ``tests/test_source_guards.py`` lets write files).
* :mod:`~repro.checkpoint.format` -- header + pickle file format with
  magic/version/fingerprint/CRC validation; every rejection is a typed
  :class:`~repro.errors.CheckpointError`.
"""

from ..errors import CheckpointError, RunInterrupted
from .atomic import (
    append_jsonl,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from .format import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    fingerprint_of,
    read_checkpoint,
    write_checkpoint,
)

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "RunInterrupted",
    "append_jsonl",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "fingerprint_of",
    "read_checkpoint",
    "write_checkpoint",
]
