"""Head sampling with tail retention: always-on tracing that stays cheap.

:func:`configure` is the one entry point.  It installs a deterministic
head-sampling rate on :mod:`repro.obs.trace` (the decision is a pure
function of the trace id, so every process in a cluster agrees without
coordination and seeded runs are bit-reproducible) *and* a
:class:`TailBuffer` that catches the spans head sampling would drop::

    from repro.obs import sampling

    sampling.configure(0.1)        # record 1 in 10 traces ...
    ...                            # ... but never lose a broken one

Sampled traces flow to the sink exactly as before — their records are
byte-identical to the unsampled format.  Unsampled spans land in a
bounded per-process ring buffer grouped by trace id; the moment any
span of a buffered trace errors or breaches a limit, the whole local
trace is *promoted*: every buffered span is emitted to the sink
carrying ``"sampled": false``, and later spans of that trace flow
straight through.  Slow and broken traces are therefore never lost to
sampling, which is what makes a 10% rate safe to run in production.

The limits are matched to the span name by longest ``fnmatch`` pattern
(an exact name beats any glob), and come in two kinds:

* **wall-clock thresholds** (seconds) — meaningful for the pure
  in-process kernels and the RPC layer, where laptop time is real time;
* **OpStats budgets** (seeks / entries read / …) — meaningful for the
  dbsim spans, where the cost model, not wall-clock, stands in for
  cluster time (see docs/OBSERVABILITY.md).

A span that breaches one carries ``"reasons"`` in its promoted record
(``["seeks 412 > budget 100"]``).  At rate 0 the trace file therefore
holds exactly the traces that errored or breached a limit — the
slow-operation log, cluster-wide, since every process of a
``LocalCluster(sample_rate=0)`` runs its own tail::

    repro stats graph.tsv --trace slow.jsonl --sample-rate 0

The default limits are deliberately loose — they flag pathologies, not
warm caches.

Counters (pre-registered at zero on the target registry, per the PR-5
convention, so ``repro stats --prom`` shows them before the first
decision):

* ``obs.sampled_traces`` / ``obs.unsampled_traces`` — root decisions
* ``obs.tail_spans`` — unsampled spans retained in the ring
* ``obs.tail_promotions`` — whole-trace promotions to the sink
* ``obs.tail_evictions`` — spans dropped when the ring overflows

Counters and histograms everywhere else are untouched by sampling:
they count every request, sampled or not, so rates and percentiles
stay exact.
"""

from __future__ import annotations

import threading
from fnmatch import fnmatchcase
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry, global_registry

#: Wall-clock promotion thresholds (seconds) by span-name pattern: a
#: kernel span slower than a second, or a client/server RPC span slower
#: than a quarter second, promotes its whole buffered trace.
DEFAULT_TAIL_THRESHOLDS: Dict[str, float] = {
    "kernel.*": 1.0,
    "rpc.*": 0.25,
}

#: OpStats promotion budgets by span-name pattern.  Each value maps an
#: OpStats counter to its per-span budget.
DEFAULT_OPSTATS_BUDGETS: Dict[str, Dict[str, int]] = {
    "dbsim.*": {"seeks": 10_000, "entries_read": 5_000_000},
    "graphulo.*": {"seeks": 50_000, "entries_read": 20_000_000},
    "tablet.*": {"entries_read": 5_000_000},
}

#: Counter names :func:`configure` pre-registers at zero.
SAMPLING_COUNTERS = ("obs.sampled_traces", "obs.unsampled_traces",
                     "obs.tail_spans", "obs.tail_promotions",
                     "obs.tail_evictions")


def _match(table: Mapping[str, Any], name: str):
    """Longest matching pattern wins; exact name beats any glob."""
    if name in table:
        return table[name]
    best_key = None
    for pattern in table:
        if fnmatchcase(name, pattern):
            if best_key is None or len(pattern) > len(best_key):
                best_key = pattern
    return table[best_key] if best_key is not None else None


def _reasons(span: "_trace.Span", threshold: Optional[float],
             budgets: Tuple[Tuple[str, int], ...]) -> List[str]:
    """Why ``span`` is over its limits, one phrase per breach."""
    out = []
    if threshold is not None and span.duration_s > threshold:
        out.append(f"wall {span.duration_s:.6f}s > threshold {threshold}s")
    opstats = span.opstats or {}
    for counter, limit in budgets:
        value = int(opstats.get(counter, 0))
        if value > limit:
            out.append(f"{counter} {value} > budget {limit}")
    return out


class TailBuffer:
    """Bounded per-process ring of unsampled spans, grouped by trace.

    ``capacity`` bounds the total retained *span* count; when exceeded,
    the oldest buffered trace is evicted whole.  Promotion triggers are
    a span error, a wall-clock threshold breach or an OpStats budget
    breach; limit lookup is cached per span name (the name set is small
    and static), keeping :meth:`record` to an append plus a few
    comparisons on the hot path.
    """

    def __init__(self, capacity: int = 4096,
                 wall_thresholds: Optional[Mapping[str, float]] = None,
                 registry: Optional[MetricsRegistry] = None,
                 opstats_budgets: Optional[
                     Mapping[str, Mapping[str, int]]] = None):
        self.capacity = max(1, int(capacity))
        self.wall_thresholds = dict(DEFAULT_TAIL_THRESHOLDS
                                    if wall_thresholds is None
                                    else wall_thresholds)
        self.opstats_budgets = {
            k: dict(v) for k, v in (DEFAULT_OPSTATS_BUDGETS
                                    if opstats_budgets is None
                                    else opstats_budgets).items()}
        #: span name → (wall threshold, sorted budget items)
        self._limit_cache: Dict[str, Tuple[Optional[float],
                                           Tuple[Tuple[str, int], ...]]] = {}
        # plain dicts (insertion-ordered) beat OrderedDict on the hot
        # path; FIFO eviction is next(iter(...)) instead of popitem
        self._traces: Dict[str, List[_trace.Span]] = {}
        self._count = 0
        #: trace ids already promoted: later local spans bypass the ring
        self._promoted: Dict[str, None] = {}
        self._promoted_cap = 1024
        self._lock = threading.Lock()
        registry = registry if registry is not None else global_registry()
        self._c_spans = registry.counter("obs.tail_spans")
        self._c_promotions = registry.counter("obs.tail_promotions")
        self._c_evictions = registry.counter("obs.tail_evictions")

    # -- the hot path -------------------------------------------------------

    def record(self, span: "_trace.Span") -> None:
        """Tail hook: called by the tracer for every finished unsampled
        span."""
        name = span.name
        cache = self._limit_cache
        try:
            threshold, budgets = cache[name]
        except KeyError:
            threshold, budgets = cache[name] = (
                _match(self.wall_thresholds, name),
                tuple(sorted((_match(self.opstats_budgets, name)
                              or {}).items())))
        reasons = None
        if budgets or (threshold is not None
                       and span.duration_s > threshold):
            reasons = _reasons(span, threshold, budgets)
        trigger = span.error is not None or bool(reasons)
        tid = span.trace_id
        with self._lock:
            if tid in self._promoted:
                _trace.emit(_record(span, reasons))
                return
            bucket = self._traces.get(tid)
            if bucket is None:
                bucket = self._traces[tid] = []
            bucket.append(span)
            self._count += 1
            self._c_spans.inc()
            if trigger:
                self._promote_locked(tid, span, reasons)
            elif self._count > self.capacity:
                oldest = next(iter(self._traces))
                spans = self._traces.pop(oldest)
                self._count -= len(spans)
                self._c_evictions.inc(len(spans))

    # -- promotion ----------------------------------------------------------

    def _promote_locked(self, trace_id: str,
                        trigger: Optional["_trace.Span"] = None,
                        reasons: Optional[List[str]] = None) -> None:
        spans = self._traces.pop(trace_id, None)
        if spans is None:
            return
        self._count -= len(spans)
        self._promoted[trace_id] = None
        while len(self._promoted) > self._promoted_cap:
            del self._promoted[next(iter(self._promoted))]
        self._c_promotions.inc()
        # whole local trace to the sink, in finish order; records carry
        # "sampled": false so stitch/analyze can tell promotions apart
        for sp in spans:
            _trace.emit(_record(sp, reasons if sp is trigger else None))

    def promote(self, trace_id: str) -> bool:
        """Force-promote one buffered trace (e.g. from an out-of-band
        error signal).  Returns True if anything was emitted."""
        with self._lock:
            had = trace_id in self._traces
            self._promote_locked(trace_id)
        return had

    # -- inspection / lifecycle ---------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def pending_traces(self) -> List[str]:
        with self._lock:
            return list(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._promoted.clear()
            self._count = 0


def _record(span: "_trace.Span",
            reasons: Optional[List[str]]) -> Dict[str, Any]:
    out = span.as_dict()
    if reasons:
        out["reasons"] = reasons
    return out


_active: Optional[TailBuffer] = None
_config_lock = threading.Lock()


def configure(rate: float, tail_capacity: int = 4096,
              wall_thresholds: Optional[Mapping[str, float]] = None,
              registry: Optional[MetricsRegistry] = None,
              opstats_budgets: Optional[
                  Mapping[str, Mapping[str, int]]] = None) -> TailBuffer:
    """Install head sampling at ``rate`` plus tail retention.

    Idempotent per process (reconfiguring replaces the previous tail
    buffer).  Counters land on ``registry`` (default: the process
    global registry) and are pre-registered at zero immediately.
    Returns the installed :class:`TailBuffer`.
    """
    global _active
    registry = registry if registry is not None else global_registry()
    for name in SAMPLING_COUNTERS:
        registry.counter(name)
    sampled = registry.counter("obs.sampled_traces")
    unsampled = registry.counter("obs.unsampled_traces")

    def _count_decision(decision: bool,
                        _s=sampled, _u=unsampled) -> None:
        (_s if decision else _u).inc()

    with _config_lock:
        tail = TailBuffer(capacity=tail_capacity,
                          wall_thresholds=wall_thresholds,
                          registry=registry,
                          opstats_budgets=opstats_budgets)
        _trace.set_sample_rate(rate)
        _trace.set_sample_hook(_count_decision)
        _trace.set_tail_hook(tail.record)
        _active = tail
    return tail


def unconfigure() -> None:
    """Remove sampling: back to rate 1.0, no hooks, no tail buffer."""
    global _active
    with _config_lock:
        _trace.set_sample_rate(1.0)
        _trace.set_sample_hook(None)
        _trace.set_tail_hook(None)
        _active = None


def active_tail() -> Optional[TailBuffer]:
    """The currently installed :class:`TailBuffer`, if any."""
    return _active
