"""The JSONL run-event stream: typed records per SA iteration/round/stage.

A :class:`RunLog` appends one JSON object per line to a file via the
crash-safe :func:`repro.checkpoint.atomic.append_jsonl` primitive, so a run
killed mid-write can tear at most the final line (which
:func:`read_run_log` skips).  Records are typed: every one carries

- ``type``: an event name from :data:`repro.telemetry.names.EVENT_TYPES`
  (``run.start``, ``sa.iteration``, ``round.end``, ``run.end``, ...),
- ``seq``: a monotonically increasing per-log sequence number,
- ``t_wall`` / ``t_mono_ns``: wall-clock and monotonic timestamps,

plus whatever typed fields the emitter attached (temperature, acceptance
rate, best/current score, cache hit rates, fault/retry annotations...).
``metrics_interval`` additionally samples the profiling counters into
periodic ``run.metrics`` records.

Like the tracer, the run log is opt-in and global: the CLI (``--run-log``)
installs one with :func:`set_run_log`, instrumented code emits through
:func:`emit_event`, which checks the event type against
:mod:`repro.telemetry.names` and otherwise does nothing when no log is
active.  The offline analyzer lives in :mod:`repro.telemetry.report`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..checkpoint.atomic import append_jsonl
from ..errors import TelemetryError
from .names import check_name


class Stopwatch:
    """Monotonic elapsed-seconds measurement for run-event payloads.

    Clock reads live here in the telemetry boundary so instrumented code
    (the SA runner, the staged flow, the 2RM/4RM model comparison) never
    touches ``time`` directly -- timing is observability, not algorithm
    state, and the nondeterminism source guard
    (``tests/test_source_guards.py``) holds every module outside telemetry,
    profiling, fault injection and the service to that.
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.monotonic()

    def elapsed(self) -> float:
        """Seconds since construction (monotonic, never negative)."""
        return time.monotonic() - self._start


class RunLog:
    """An append-only JSONL stream of typed run events.

    Args:
        path: Destination file; parent directories are created on first
            emit.  An existing file is appended to (a resumed run continues
            its log; :func:`read_run_log` keeps both generations).
        metrics_interval: When set, at most every this-many seconds an
            extra ``run.metrics`` record samples the global profiling
            counters and cache hit rates alongside whatever event
            triggered it.
        fsync: Forwarded to :func:`append_jsonl`; ``False`` trades
            per-record durability for throughput on chatty logs.
    """

    def __init__(
        self,
        path: Union[str, Path],
        metrics_interval: Optional[float] = None,
        fsync: bool = True,
    ):
        self.path = Path(path)
        self.metrics_interval = metrics_interval
        self.fsync = fsync
        self._seq = 0
        self._last_metrics = time.monotonic()

    def emit(self, event_type: str, **fields: Any) -> None:
        """Append one typed record (and maybe a ``run.metrics`` sample).

        Raises:
            TelemetryError: ``event_type`` is not a registered name.
        """
        check_name(event_type)
        self._append(event_type, fields)
        if (
            self.metrics_interval is not None
            and event_type != "run.metrics"
            and time.monotonic() - self._last_metrics >= self.metrics_interval
        ):
            self._last_metrics = time.monotonic()
            self._append("run.metrics", self._metrics_fields())

    def _append(self, event_type: str, fields: Dict[str, Any]) -> None:
        record = {
            "type": event_type,
            "seq": self._seq,
            "t_wall": time.time(),
            "t_mono_ns": time.monotonic_ns(),
            **fields,
        }
        self._seq += 1
        append_jsonl(self.path, record, fsync=self.fsync)

    def _metrics_fields(self) -> Dict[str, Any]:
        """The profiling counters + derived cache hit rates of the moment."""
        from .. import profiling  # lazy: keep import graph acyclic

        snap = profiling.snapshot()
        counters = snap["counters"]
        fields: Dict[str, Any] = {"counters": counters}
        rates = {}
        for label, hits, misses in (
            ("flow_unit", "flow.unit_cache_hits", "flow.unit_solves"),
            ("cooling", "cooling.cache_hits", "cooling.simulations"),
            ("batch_memo", "optimize.batch_cache_hits", "parallel.candidates"),
        ):
            n_hits = counters.get(hits, 0)
            n_total = n_hits + counters.get(misses, 0)
            if n_total:
                rates[label] = n_hits / n_total
        if rates:
            fields["cache_hit_rates"] = rates
        return fields


#: The process-global run log (``None`` when run-event logging is off).
_ACTIVE: Optional[RunLog] = None


def set_run_log(log: Optional[RunLog]) -> Optional[RunLog]:
    """Install (or clear, with ``None``) the global run log; returns prev."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = log
    return previous


def active_run_log() -> Optional[RunLog]:
    """The installed global run log, if any."""
    return _ACTIVE


def emit_event(event_type: str, **fields: Any) -> None:
    """Emit a typed record to the global run log; no-op when none is set.

    The name is checked either way, so an unregistered event type fails
    in runs without a log too.
    """
    check_name(event_type)
    if _ACTIVE is not None:
        _ACTIVE.emit(event_type, **fields)


def read_run_log(path: Union[str, Path]) -> List[dict]:
    """Parse a JSONL run log, tolerating only a torn *final* line.

    A truncated last record is the expected signature of a crash mid-append
    and is silently dropped; malformed JSON anywhere earlier means the file
    is not a run log (or was corrupted some other way) and raises
    :class:`~repro.errors.TelemetryError`.
    """
    path = Path(path)
    if not path.exists():
        raise TelemetryError(f"run log not found: {path}")
    records: List[dict] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if index == len(lines) - 1:
                break  # torn final line from a crash mid-append
            raise TelemetryError(
                f"{path}:{index + 1}: corrupt run-log record: {exc}"
            ) from exc
        if not isinstance(record, dict) or "type" not in record:
            raise TelemetryError(
                f"{path}:{index + 1}: run-log records must be objects "
                f"with a 'type' field"
            )
        records.append(record)
    return records
