"""Observability: tracing spans, metrics registry, convergence telemetry.

The *emit* side — zero-dependency pieces, one per module:

* :mod:`repro.obs.trace` — nestable spans capturing wall-time, custom
  attributes and OpStats deltas into a pluggable sink (null /
  in-memory / JSONL file), behind a module-level enable switch whose
  disabled cost is a single branch on the hot paths;
* :mod:`repro.obs.metrics` — named counters/gauges/histograms in a
  :class:`MetricsRegistry` the simulated Accumulo wires in for
  per-table seek/read/write/flush/compaction accounting;
* :mod:`repro.obs.convergence` — :class:`ConvergenceLog`, the
  per-iteration residual trajectory of the iterative algorithms.

And the *read* side, consuming what the above produce:

* :mod:`repro.obs.analyze` — span-tree reconstruction, per-name
  rollups with percentiles, critical paths, folded-stack flamegraph
  export (``repro analyze``);
* :mod:`repro.obs.expose` — Prometheus text exposition of any
  registry and :class:`SnapshotDelta` rate computation (``repro health``);
* :mod:`repro.obs.stitch` — merge per-process JSONL traces into one
  cross-process span forest by trace/span identity (``repro analyze``);
* :mod:`repro.obs.sampling` — deterministic head sampling with a tail
  ring that promotes errored traces and spans over a wall-clock
  threshold or OpStats budget to the sink, keeping tracing always-on at
  low overhead; at rate 0 it is the slow-operation log
  (``--sample-rate``);
* :mod:`repro.obs.health` — declarative SLO specs evaluated against
  registry exports: p99 latency targets and error budgets with
  windowed burn rates (``repro health``).

See ``docs/OBSERVABILITY.md`` for the span schema, metric naming
scheme, and the JSONL trace format.
"""

from repro.obs import health, sampling, trace
from repro.obs.analyze import TraceAnalysis
from repro.obs.health import (
    DEFAULT_SLOS,
    HealthCheck,
    HealthReport,
    SLOSpec,
)
from repro.obs.sampling import TailBuffer
from repro.obs.convergence import ConvergenceLog, ConvergenceRecord
from repro.obs.expose import (
    SnapshotDelta,
    parse_prometheus_text,
    to_prometheus,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from repro.obs.stitch import StitchedTrace, stitch_files, stitch_records
from repro.obs.trace import (
    InMemorySink,
    JSONLSink,
    NullSink,
    Sink,
    Span,
    TraceContext,
    activate,
    current_context,
    disable,
    enable,
    is_enabled,
    seed_ids,
    span,
    start_span,
)

__all__ = [
    "trace",
    "sampling",
    "health",
    "TailBuffer",
    "SLOSpec",
    "HealthCheck",
    "HealthReport",
    "DEFAULT_SLOS",
    "span",
    "start_span",
    "Span",
    "TraceContext",
    "activate",
    "current_context",
    "seed_ids",
    "enable",
    "disable",
    "is_enabled",
    "Sink",
    "NullSink",
    "InMemorySink",
    "JSONLSink",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "ConvergenceLog",
    "ConvergenceRecord",
    "TraceAnalysis",
    "StitchedTrace",
    "stitch_files",
    "stitch_records",
    "SnapshotDelta",
    "to_prometheus",
    "parse_prometheus_text",
]
