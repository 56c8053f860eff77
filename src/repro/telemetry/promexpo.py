"""Dependency-free Prometheus text-format (0.0.4) exposition.

Renders the live :func:`repro.profiling.snapshot` -- counters and
fixed-bucket histograms -- plus point-in-time *gauge* samples (queue depth,
oldest pending age, per-tenant admission) as the plain-text format every
Prometheus-compatible scraper understands.  The API server mounts the
result at ``GET /metrics`` (:mod:`repro.server.api`); ``repro top`` and the
CI text-format check re-read it through :func:`parse_prometheus_text`, so
the renderer and the parser in this one module define the whole wire
contract -- no client library on either side.

Mapping rules (mechanical, so the registry in
:mod:`repro.telemetry.names` stays the single source of truth):

* dots -- and every other character outside ``[a-zA-Z0-9_:]``, such as
  the hyphen of ``faults.injected.torn-write`` -- become underscores, and
  everything gets a ``repro_`` prefix: ``server.jobs_completed`` ->
  ``repro_server_jobs_completed_total``;
* profiling **counters** render as Prometheus counters (``_total``);
* **histograms** (every ``profiling.timer`` feeds one) render as native
  Prometheus histograms with *cumulative* ``le`` buckets ending in
  ``+Inf``; latency-bucket histograms get a ``_seconds`` unit suffix;
* **gauges** (built with :func:`gauge`, names registered in
  ``GAUGE_NAMES`` and checked by :func:`gauge`) render as gauges, with
  labels escaped per the exposition spec.

The module is pure data-in/text-out: no HTTP, no filesystem, no clock.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import TelemetryError
from ..profiling import LATENCY_BUCKET_BOUNDS
from .names import check_name

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "gauge",
    "histogram_quantile",
    "parse_prometheus_text",
    "render_prometheus",
]

#: The Content-Type ``GET /metrics`` answers with (exposition format 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Prefix every exported family carries (one namespace per service).
_PREFIX = "repro_"

#: Characters a metric name may not contain (each becomes ``_``).
_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: The exposition format's metric-name grammar.
_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")

#: Sample types the parser accepts after a ``# TYPE`` declaration.
_SAMPLE_TYPES = frozenset({"counter", "gauge", "histogram", "untyped"})


def gauge(name: str, value: float, **labels: str) -> Dict[str, Any]:
    """One gauge sample: registered dot-namespaced ``name`` plus labels.

    Collect gauges through this constructor: like ``profiling.increment``
    it raises :class:`TelemetryError` on a name missing from
    :mod:`repro.telemetry.names`, so a typo'd gauge fails instead of
    forking the namespace.
    """
    check_name(name)
    return {
        "name": name,
        "value": float(value),
        "labels": {key: str(val) for key, val in labels.items()},
    }


def _family(name: str, suffix: str = "") -> str:
    return _PREFIX + _INVALID_NAME_CHARS.sub("_", name) + suffix


def _checked_name(name: str, line: str) -> str:
    if not _METRIC_NAME.fullmatch(name):
        raise TelemetryError(f"invalid metric name {name!r} in {line!r}")
    return name


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return "{" + inner + "}"


def _number(value: float) -> str:
    """A float in exposition syntax (integers stay integral)."""
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _header(family: str, kind: str, help_text: str) -> List[str]:
    return [
        f"# HELP {family} {help_text}",
        f"# TYPE {family} {kind}",
    ]


def _render_histogram(name: str, snap: Mapping[str, Any]) -> List[str]:
    bounds = [float(b) for b in snap["bounds"]]
    counts = [int(c) for c in snap["counts"]]
    seconds = tuple(bounds) == LATENCY_BUCKET_BOUNDS
    family = _family(name, "_seconds" if seconds else "")
    lines = _header(
        family,
        "histogram",
        f"distribution of {name}" + (" [unit: s]" if seconds else ""),
    )
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        lines.append(
            f'{family}_bucket{{le="{_number(bound)}"}} {cumulative}'
        )
    cumulative += counts[-1] if len(counts) == len(bounds) + 1 else 0
    lines.append(f'{family}_bucket{{le="+Inf"}} {cumulative}')
    lines.append(f"{family}_sum {_number(float(snap['sum']))}")
    lines.append(f"{family}_count {int(snap['count'])}")
    return lines


def render_prometheus(
    snapshot: Optional[Mapping[str, Any]] = None,
    gauges: Iterable[Mapping[str, Any]] = (),
) -> str:
    """A profiling snapshot plus gauge samples as exposition text.

    Args:
        snapshot: A :func:`repro.profiling.snapshot` payload (pass ``None``
            for an empty one -- gauges alone still render).
        gauges: Samples built with :func:`gauge`; samples sharing a name
            become one family with one ``TYPE`` line and per-label rows.

    Families render sorted by exported name, so the output is
    deterministic for a given input -- diffs in CI stay readable.
    """
    snapshot = snapshot or {}
    counters: Mapping[str, Any] = snapshot.get("counters", {})
    histograms: Mapping[str, Any] = snapshot.get("histograms", {})

    blocks: List[Tuple[str, List[str]]] = []
    for name, value in counters.items():
        family = _family(name, "_total")
        lines = _header(family, "counter", f"total of {name}")
        lines.append(f"{family} {int(value)}")
        blocks.append((family, lines))
    for name, snap in histograms.items():
        blocks.append((_family(name), _render_histogram(name, snap)))

    by_family: Dict[str, List[Mapping[str, Any]]] = {}
    for sample in gauges:
        by_family.setdefault(str(sample["name"]), []).append(sample)
    for name, samples in by_family.items():
        family = _family(name)
        lines = _header(family, "gauge", f"current {name}")
        for sample in samples:
            labels = _labels_text(sample.get("labels", {}))
            lines.append(f"{family}{labels} {_number(sample['value'])}")
        blocks.append((family, lines))

    blocks.sort(key=lambda block: block[0])
    out: List[str] = []
    for _, lines in blocks:
        out.extend(lines)
    return "\n".join(out) + ("\n" if out else "")


# -- parsing (tests, CI validity check, and ``repro top``) -----------------


def _parse_labels(text: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    index = 0
    while index < len(text):
        equals = text.index("=", index)
        key = text[index:equals].strip()
        if not key.replace("_", "").isalnum():
            raise TelemetryError(f"bad label name {key!r}")
        if equals + 1 >= len(text) or text[equals + 1] != '"':
            raise TelemetryError(f"label {key!r} value is not quoted")
        value: List[str] = []
        index = equals + 2
        while True:
            if index >= len(text):
                raise TelemetryError(f"unterminated label value for {key!r}")
            char = text[index]
            if char == "\\":
                escape = text[index + 1 : index + 2]
                value.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(escape, escape)
                )
                index += 2
                continue
            if char == '"':
                index += 1
                break
            value.append(char)
            index += 1
        labels[key] = "".join(value)
        if index < len(text) and text[index] == ",":
            index += 1
    return labels


def _parse_value(text: str) -> float:
    text = text.strip()
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    try:
        return float(text)
    except ValueError as exc:
        raise TelemetryError(f"bad sample value {text!r}") from exc


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse exposition text back into families (the CI validity check).

    Returns ``{family: {"type": ..., "help": ..., "samples": [...]}}``
    where each sample is ``{"name", "labels", "value"}``.  Validates the
    grammar strictly enough to catch a broken renderer: unknown line
    shapes, family or sample names outside the metric-name grammar
    ``[a-zA-Z_:][a-zA-Z0-9_:]*``, samples without a preceding ``TYPE``,
    non-numeric values, and histogram bucket series whose cumulative counts
    decrease all raise :class:`~repro.errors.TelemetryError`.
    """
    families: Dict[str, Dict[str, Any]] = {}

    def family_of(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
            if base and base in families and families[base]["type"] == "histogram":
                return base
        return sample_name

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in _SAMPLE_TYPES:
                    raise TelemetryError(
                        f"unknown sample type {kind!r} in {line!r}"
                    )
                families.setdefault(
                    _checked_name(parts[2], line),
                    {"type": kind, "help": "", "samples": []},
                )["type"] = kind
            elif len(parts) >= 3 and parts[1] == "HELP":
                families.setdefault(
                    _checked_name(parts[2], line),
                    {"type": "untyped", "help": "", "samples": []},
                )["help"] = parts[3] if len(parts) > 3 else ""
            continue  # other comments (heartbeats) are legal and skipped
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise TelemetryError(f"unbalanced labels in {line!r}")
            sample_name = line[:brace]
            labels = _parse_labels(line[brace + 1 : close])
            value = _parse_value(line[close + 1 :])
        else:
            pieces = line.split()
            if len(pieces) != 2:
                raise TelemetryError(f"unparsable sample line {line!r}")
            sample_name, labels = pieces[0], {}
            value = _parse_value(pieces[1])
        _checked_name(sample_name, line)
        family = family_of(sample_name)
        if family not in families:
            raise TelemetryError(
                f"sample {sample_name!r} has no preceding # TYPE line"
            )
        families[family]["samples"].append(
            {"name": sample_name, "labels": labels, "value": value}
        )

    for family, data in families.items():
        if data["type"] != "histogram":
            continue
        buckets = sorted(
            (
                (_parse_value(s["labels"]["le"]), s["value"])
                for s in data["samples"]
                if s["name"].endswith("_bucket")
            ),
        )
        if not buckets or buckets[-1][0] != float("inf"):
            raise TelemetryError(f"histogram {family} lacks a +Inf bucket")
        previous = 0.0
        for _, cumulative in buckets:
            if cumulative < previous:
                raise TelemetryError(
                    f"histogram {family} buckets are not cumulative"
                )
            previous = cumulative
    return families


def histogram_quantile(
    buckets: Sequence[Tuple[float, float]], q: float
) -> float:
    """Estimate quantile ``q`` (0..1) from cumulative ``(le, count)`` pairs.

    The inverse of :func:`render_prometheus`'s bucket encoding; linear
    interpolation inside the winning bucket, matching the semantics of
    :meth:`repro.profiling.Histogram.percentile` closely enough for a
    dashboard.  Returns 0.0 for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise TelemetryError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(buckets)
    if not ordered:
        return 0.0
    total = ordered[-1][1]
    if total <= 0:
        return 0.0
    target = q * total
    previous_bound, previous_count = 0.0, 0.0
    for bound, cumulative in ordered:
        if cumulative >= target:
            if bound == float("inf"):
                return previous_bound
            span = cumulative - previous_count
            if span <= 0:
                return bound
            fraction = (target - previous_count) / span
            return previous_bound + fraction * (bound - previous_bound)
        previous_bound, previous_count = bound, cumulative
    return previous_bound
