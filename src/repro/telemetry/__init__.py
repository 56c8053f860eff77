"""The telemetry name registry and the output formats built on
:mod:`repro.profiling` (the one recorder of counters, histograms and spans):

- :mod:`repro.telemetry.names`: every span, metric, run-event and gauge
  name, enforced by the recorder and every event sink through
  :func:`~repro.telemetry.names.check_name`;
- :mod:`repro.telemetry.runlog`: the JSONL
  :class:`~repro.telemetry.runlog.RunLog` of typed per-iteration /
  per-round / per-stage records, appended atomically;
- :mod:`repro.telemetry.promexpo`: Prometheus text exposition for
  ``GET /metrics``;
- :mod:`repro.telemetry.report`: the offline analyzer
  ``python -m repro.telemetry report <run.jsonl>``.

See ``docs/OBSERVABILITY.md`` for conventions and the full tables.
"""

from . import names

__all__ = ["names"]
