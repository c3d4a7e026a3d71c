"""Metrics exposition: Prometheus text format and snapshot deltas.

Bridges the in-process :class:`~repro.obs.metrics.MetricsRegistry` to
the tooling the rest of the world already speaks:

* :func:`to_prometheus` renders a registry (or a plain ``export()``
  dict) in the Prometheus text exposition format.  Names under the
  dbsim dotted scheme are parsed into proper labels::

      dbsim.table.A.entries_read   ->  repro_dbsim_table_entries_read{table="A"}
      dbsim.server.tserver0.tablets -> repro_dbsim_server_tablets{server="tserver0"}

  everything else is flattened (``.`` -> ``_``) and sanitized.
  Histograms emit cumulative ``_bucket{le="..."}`` series plus
  ``_sum``/``_count``.
* :func:`parse_prometheus_text` parses that format back into samples —
  the round-trip validator the tests and ``SnapshotDelta`` users lean
  on.
* :class:`SnapshotDelta` diffs two registry exports into per-metric
  deltas and per-second rates (``repro health``).
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               Number)

#: dotted-name prefixes parsed into Prometheus labels:
#: (prefix, label name) — the remainder splits into <value>.<metric>
_LABEL_SCHEMES: Tuple[Tuple[str, str], ...] = (
    ("dbsim.table.", "table"),
    ("dbsim.server.", "server"),
    ("net.server.table.", "table"),
    ("net.server.op.", "op"),
    ("net.client.op.", "op"),
)

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str) -> str:
    """Make ``name`` a legal Prometheus metric name."""
    out = _INVALID_CHARS.sub("_", name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def split_labels(name: str) -> Tuple[str, Dict[str, str]]:
    """Parse a dotted registry name into (metric name, labels) under
    the dbsim naming scheme; unrecognized names get no labels."""
    for prefix, label in _LABEL_SCHEMES:
        if name.startswith(prefix):
            rest = name[len(prefix):]
            if "." in rest:
                value, metric = rest.rsplit(".", 1)
                return (sanitize_name(prefix.rstrip(".").replace(".", "_")
                                      + "_" + metric), {label: value})
    return sanitize_name(name), {}


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"'
                     for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _format_value(value: Number) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and value == int(value) \
            and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def to_prometheus(source: Union[MetricsRegistry, Mapping[str, Any]],
                  prefix: str = "repro") -> str:
    """Render a registry (typed output) or a plain ``export()`` dict
    (untyped/summary output) as Prometheus text exposition format."""
    lines: List[str] = []
    seen_types: Dict[str, str] = {}

    def emit(metric: str, labels: Mapping[str, str], value: Number,
             typ: str) -> None:
        if metric not in seen_types:
            seen_types[metric] = typ
            lines.append(f"# TYPE {metric} {typ}")
        lines.append(f"{metric}{_format_labels(labels)} "
                     f"{_format_value(value)}")

    def full(name: str) -> Tuple[str, Dict[str, str]]:
        metric, labels = split_labels(name)
        return f"{sanitize_name(prefix)}_{metric}", labels

    if isinstance(source, MetricsRegistry):
        for name, inst in source.instruments().items():
            metric, labels = full(name)
            if isinstance(inst, Counter):
                emit(metric, labels, inst.value, "counter")
            elif isinstance(inst, Gauge):
                emit(metric, labels, inst.value, "gauge")
            elif isinstance(inst, Histogram):
                bounds, cumulative = inst.bucket_counts()
                export = inst.export()
                if f"{metric}_bucket" not in seen_types:
                    seen_types[f"{metric}_bucket"] = "histogram"
                    lines.append(f"# TYPE {metric} histogram")
                for bound, count in zip(bounds, cumulative[:-1]):
                    le = dict(labels, le=_format_value(bound))
                    lines.append(f"{metric}_bucket{_format_labels(le)} "
                                 f"{count}")
                le = dict(labels, le="+Inf")
                lines.append(f"{metric}_bucket{_format_labels(le)} "
                             f"{cumulative[-1]}")
                lines.append(f"{metric}_sum{_format_labels(labels)} "
                             f"{_format_value(export['sum'])}")
                lines.append(f"{metric}_count{_format_labels(labels)} "
                             f"{export['count']}")
    else:
        for name in sorted(source):
            value = source[name]
            metric, labels = full(name)
            if isinstance(value, Mapping):  # histogram export dict
                for q, key in (("0.5", "p50"), ("0.95", "p95"),
                               ("0.99", "p99")):
                    if key in value:
                        emit(metric, dict(labels, quantile=q),
                             value[key], "summary")
                lines.append(f"{metric}_sum{_format_labels(labels)} "
                             f"{_format_value(value.get('sum', 0.0))}")
                lines.append(f"{metric}_count{_format_labels(labels)} "
                             f"{value.get('count', 0)}")
            else:
                emit(metric, labels, value, "untyped")
    return "\n".join(lines) + "\n" if lines else ""


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)(?:\s+\d+)?$")
_LABEL_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:[^"\\]|\\.)*)"\s*(?:,|$)')


def parse_prometheus_text(text: str
                          ) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                                    float]:
    """Parse Prometheus text format into ``{(name, ((label, value),
    ...)): value}``.  Raises ``ValueError`` on any malformed line —
    which makes it double as a format validator."""
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            if line.startswith("#") and not line.startswith(("# TYPE",
                                                             "# HELP")):
                raise ValueError(f"line {lineno}: bad comment: {line!r}")
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: not a valid sample: {line!r}")
        labels = {}
        raw = m.group("labels")
        if raw:
            consumed = 0
            for lm in _LABEL_RE.finditer(raw):
                labels[lm.group("key")] = (
                    lm.group("val").replace(r'\"', '"')
                    .replace(r"\n", "\n").replace(r"\\", "\\"))
                consumed = lm.end()
            if consumed < len(raw.rstrip()):
                raise ValueError(f"line {lineno}: bad labels: {raw!r}")
        raw_value = m.group("value")
        if raw_value == "+Inf":
            value = math.inf
        elif raw_value == "-Inf":
            value = -math.inf
        else:
            value = float(raw_value)
        samples[(m.group("name"), tuple(sorted(labels.items())))] = value
    return samples


# -- snapshot deltas ----------------------------------------------------------

class SnapshotDelta:
    """Difference between two registry exports.

    ``before``/``after`` are ``MetricsRegistry.export()`` dicts (plain
    numbers for counters/gauges, dicts for histograms — histogram
    deltas diff ``count`` and ``sum``).  ``seconds`` enables
    :meth:`rates`.

    A crash/recover (or plain restart) resets a process's counters, so
    a raw ``after - before`` can go negative between two polls.  A
    negative delta is clamped to zero and the series name lands in
    :attr:`resets`, so pollers show a flagged restart instead of a
    nonsense negative rate — gauges can legitimately decrease, which is
    why clamped series are *flagged* rather than dropped."""

    def __init__(self, before: Mapping[str, Any],
                 after: Mapping[str, Any],
                 seconds: Optional[float] = None):
        self.before = dict(before)
        self.after = dict(after)
        self.seconds = seconds
        #: series whose raw delta went negative (counter reset / series
        #: vanished between snapshots)
        self.resets = {name for name in set(self.before) | set(self.after)
                       if self._raw_delta(name) < 0}

    def _raw_delta(self, name: str) -> Number:
        b, a = self.before.get(name, 0), self.after.get(name, 0)
        if isinstance(a, Mapping) or isinstance(b, Mapping):
            a = a.get("count", 0) if isinstance(a, Mapping) else a
            b = b.get("count", 0) if isinstance(b, Mapping) else b
        return a - b

    def delta(self, name: str) -> Number:
        return max(self._raw_delta(name), 0)

    def deltas(self, nonzero: bool = True) -> Dict[str, Number]:
        """Per-metric change across every name in either export.
        Reset-flagged series are always included (their clamped delta
        is 0, but hiding them would hide the restart)."""
        out = {}
        for name in sorted(set(self.before) | set(self.after)):
            d = self.delta(name)
            if d or not nonzero or name in self.resets:
                out[name] = d
        return out

    def rates(self, nonzero: bool = True) -> Dict[str, float]:
        """Per-second rates; requires ``seconds`` > 0."""
        if not self.seconds or self.seconds <= 0:
            raise ValueError("rates() needs a positive seconds interval")
        return {name: d / self.seconds
                for name, d in self.deltas(nonzero).items()}
