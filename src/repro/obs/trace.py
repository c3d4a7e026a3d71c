"""Zero-dependency tracing core: nestable spans over a pluggable sink.

A span measures one named unit of work::

    from repro.obs import trace

    trace.enable()                       # in-memory sink by default
    with trace.span("spgemm", rows=n) as sp:
        c = mxm(a, b)
        sp.set(nnz_out=c.nnz)

Spans capture wall-time, custom attributes, nesting (parent span name
and depth, tracked per thread) and — when given a ``stats=`` source —
the :class:`~repro.dbsim.stats.OpStats` delta accumulated while the
span was open.  ``stats`` may be a live counter object or a zero-arg
callable returning one (e.g. ``Instance.total_stats``); anything with
``snapshot()``/``delta()``/``as_dict()`` works.

An instrumented op has one body, traced or not: it runs inside
``with trace.span(...)`` (or between :func:`start_span` and
``finish()`` when its lifetime is not lexically scoped).  While tracing
is off both return one shared no-op span, whose ``set``, ``finish``,
``sampled`` and ``context`` a call site may use unguarded, so the
disabled path costs a call site one function call, its keyword
arguments and the no-op enter/exit — a few hundred nanoseconds, paid
per op, flush, kernel call or RPC and never per cell.  Only this
module reads :data:`ENABLED`.

Every span carries W3C-trace-context-style identity: a ``trace_id``
shared by all spans of one logical operation, its own ``span_id``, and
the ``parent_id`` it hangs under.  The pair ``(trace_id, span_id)`` is
a :class:`TraceContext` that can cross process boundaries (repro.net
puts it in every wire frame); a server thread adopts a remote caller's
context with :func:`activate`, making its handler spans children of the
originating client span.  :func:`seed_ids` pins the id RNG for
reproducible runs.

Finished spans are emitted to the active sink as plain dicts
(``kind="span"``); free-form records (e.g. convergence telemetry) go
through :func:`emit`.  Three sinks ship: :class:`NullSink`,
:class:`InMemorySink` and :class:`JSONLSink` (one JSON object per
line, buffered and flushed in batches).  All sinks are thread-safe.

Head sampling rides on the trace id: :func:`set_sample_rate` installs a
deterministic per-root decision (the low 64 bits of the trace id
against a precomputed threshold), every child inherits its root's
``sampled`` flag — including across processes, via the flag bit
:class:`TraceContext` carries — and unsampled spans skip the sink
entirely.  :mod:`repro.obs.sampling` layers tail retention on top via
:func:`set_tail_hook`, so errored/slow unsampled traces are still
promoted to the sink instead of lost.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Tuple,
                    Union)

#: Canonical OpStats counter fields (kept in sync with
#: :class:`repro.dbsim.stats.OpStats`; duplicated here so the tracing
#: core has zero imports from the layers it instruments).
OPSTATS_FIELDS = ("seeks", "entries_read", "entries_written", "flushes",
                  "compactions")

#: Master switch; only this module reads it (a call site opens its
#: span either way).  Set it with :func:`enable` / :func:`disable`.
ENABLED = False


# -- span identity -----------------------------------------------------------
#
# W3C-trace-context-style identifiers: a 16-byte trace id shared by every
# span in one logical operation (across processes) and an 8-byte span id
# unique to each span, both lowercase hex.  Ids come from a module-level
# RNG so tests can pin them with :func:`seed_ids`.

class TraceContext(NamedTuple):
    """The propagatable identity of a span: ``(trace_id, span_id,
    sampled)``.  The ``sampled`` flag defaults to True so two-field
    construction keeps meaning "record me"."""

    trace_id: str  # 32 hex chars
    span_id: str   # 16 hex chars
    sampled: bool = True


_id_rng = random.Random()
_id_lock = threading.Lock()

#: Preallocated 64-bit id chunks: one lock trip refills a whole block,
#: after which id minting is a GIL-atomic ``list.pop()``.  Roots burn
#: three chunks (128-bit trace id + 64-bit span id), children one.
_ID_BLOCK = 64
_U64 = (1 << 64) - 1
_id_pool: List[int] = []


def seed_ids(seed: Optional[int] = None) -> None:
    """Re-seed the id generator (``None`` = fresh OS entropy).  Seeded
    runs produce reproducible trace/span ids — per process; cooperating
    processes should use distinct seeds or ids may collide.  Drops any
    preallocated id block so the seeded sequence starts immediately."""
    with _id_lock:
        _id_rng.seed(os.urandom(16) if seed is None else seed)
        del _id_pool[:]


def _next_chunk() -> int:
    """One 64-bit id chunk from the preallocated pool (refilled in a
    single lock trip when dry)."""
    try:
        return _id_pool.pop()
    except IndexError:
        pass
    with _id_lock:
        bits = _id_rng.getrandbits(64 * _ID_BLOCK)
    chunks = [(bits >> (64 * i)) & _U64 for i in range(_ID_BLOCK)]
    first = chunks.pop()
    _id_pool.extend(chunks)
    return first


def new_span_id() -> str:
    return "%016x" % (_next_chunk() or 1)  # all-zero ids mean "absent"


def _new_root_ids() -> Tuple[str, str]:
    """``(trace_id, span_id)`` for a root span — the per-RPC hot path
    when no parent context is active; at most one lock trip per
    :data:`_ID_BLOCK` chunks."""
    trace_bits = (_next_chunk() << 64) | _next_chunk()
    span_bits = _next_chunk()
    return ("%032x" % (trace_bits or 1), "%016x" % (span_bits or 1))


# -- head sampling -----------------------------------------------------------
#
# The sampling decision is a pure function of the trace id, so every
# process that sees the id agrees without coordination, and seeded runs
# make the same decisions every time.  Children never re-decide: they
# inherit the root's flag (locally via the span stack, across processes
# via the TraceContext flag bit repro.net carries in the frame header).

_sample_rate = 1.0
_sample_scaled = 1 << 64  # threshold over the low 64 bits of the trace id
_sample_hook: Optional[Callable[[bool], None]] = None
_tail_hook: Optional[Callable[["Span"], None]] = None


def set_sample_rate(rate: float) -> float:
    """Install the head-sampling rate (clamped to [0, 1]; 1.0 = record
    everything, the default).  Returns the clamped rate."""
    global _sample_rate, _sample_scaled
    rate = min(max(float(rate), 0.0), 1.0)
    _sample_rate = rate
    _sample_scaled = int(rate * (1 << 64))
    return rate


def get_sample_rate() -> float:
    return _sample_rate


def set_sample_hook(hook: Optional[Callable[[bool], None]]) -> None:
    """Observe every root sampling decision (True = sampled) — used by
    :mod:`repro.obs.sampling` to count decisions without this module
    importing the metrics layer."""
    global _sample_hook
    _sample_hook = hook


def set_tail_hook(hook: Optional[Callable[["Span"], None]]) -> None:
    """Receive every finished *unsampled* span.  With no hook installed
    unsampled spans are simply dropped; :class:`repro.obs.sampling.
    TailBuffer` installs one to retain them for promotion on an error
    or a breached limit."""
    global _tail_hook
    _tail_hook = hook


def _sample_root(trace_id: str) -> bool:
    """Deterministic head-sampling decision for a freshly minted root."""
    if _sample_rate >= 1.0 and _sample_hook is None:
        return True
    decision = (_sample_rate >= 1.0
                or int(trace_id[16:], 16) < _sample_scaled)
    hook = _sample_hook
    if hook is not None:
        hook(decision)
    return decision


# -- sinks -------------------------------------------------------------------

class Sink:
    """Sink protocol: receives finished-span / record dicts."""

    def emit(self, record: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (no-op for most sinks)."""


class NullSink(Sink):
    """Discards everything (tracing on, recording off)."""

    def emit(self, record: Dict[str, Any]) -> None:
        pass


class InMemorySink(Sink):
    """Buffers records in a list — the default sink and the test sink."""

    def __init__(self):
        self._lock = threading.Lock()
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self.records.append(record)

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Finished spans (optionally filtered by name), oldest first."""
        with self._lock:
            return [r for r in self.records if r.get("kind") == "span"
                    and (name is None or r.get("name") == name)]

    def clear(self) -> None:
        with self._lock:
            self.records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self.records)


class JSONLSink(Sink):
    """Appends one JSON object per line to ``path`` (opened lazily).

    Records are buffered and written/flushed in batches of
    ``flush_every`` (bounded: the buffer never exceeds one batch), on
    :meth:`flush`, and on :meth:`close` — one serialized line per
    record either way.  The per-record-flush days are over: a batch is
    a single ``write`` + ``flush`` syscall pair, which is what lets a
    trace stay cheap enough to leave on.  Call :meth:`flush` (or
    ``trace.disable(close=True)``) before reading the file back.

    With ``process=`` given, the first write is preceded by a one-line
    ``kind="header"`` record carrying the process name and pid, so
    :mod:`repro.obs.stitch` can attribute spans to their originating
    process without relying on filenames."""

    def __init__(self, path: str, process: Optional[str] = None,
                 flush_every: int = 64):
        self.path = path
        self.process = process
        self.flush_every = max(1, int(flush_every))
        self._lock = threading.Lock()
        self._fh = None
        self._buf: List[str] = []

    def emit(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self._buf.append(line)
            if len(self._buf) >= self.flush_every:
                self._flush_locked()

    def _flush_locked(self) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
            if self.process is not None:
                header = {"kind": "header", "process": self.process,
                          "pid": os.getpid(), "ts": time.time()}
                self._fh.write(json.dumps(header, sort_keys=True) + "\n")
        if self._buf:
            self._fh.write("\n".join(self._buf) + "\n")
            del self._buf[:]
        self._fh.flush()

    def flush(self) -> None:
        """Write out any buffered records now (no-op before the first
        record, preserving the lazy open)."""
        with self._lock:
            if self._buf or self._fh is not None:
                self._flush_locked()

    def close(self) -> None:
        with self._lock:
            if self._buf or self._fh is not None:
                self._flush_locked()
            if self._fh is not None:
                self._fh.close()
                self._fh = None


_sink: Sink = NullSink()
_sink_lock = threading.Lock()


def set_sink(sink: Sink) -> Sink:
    """Install ``sink`` as the active sink; returns the previous one."""
    global _sink
    with _sink_lock:
        previous, _sink = _sink, sink
    return previous


def get_sink() -> Sink:
    return _sink


def enable(sink: Optional[Sink] = None) -> Sink:
    """Turn tracing on.  With no ``sink`` given, keeps the current one
    unless it is a :class:`NullSink`, in which case an
    :class:`InMemorySink` is installed.  Returns the active sink."""
    global ENABLED
    if sink is not None:
        set_sink(sink)
    elif isinstance(_sink, NullSink):
        set_sink(InMemorySink())
    ENABLED = True
    return _sink


def disable(close: bool = False) -> None:
    """Turn tracing off (optionally closing the active sink)."""
    global ENABLED
    ENABLED = False
    if close:
        _sink.close()


def is_enabled() -> bool:
    return ENABLED


def emit(record: Dict[str, Any]) -> None:
    """Send a free-form record (e.g. convergence telemetry) to the sink
    when tracing is enabled; dropped otherwise."""
    if ENABLED:
        _sink.emit(record)


# -- spans -------------------------------------------------------------------

#: per-thread stack of open spans (for parent/depth attribution) and of
#: activated remote trace contexts (for cross-process parenting)
_stack = threading.local()

StatsSource = Union[Any, Callable[[], Any]]


def current_context() -> Optional[TraceContext]:
    """The :class:`TraceContext` new spans on this thread will parent
    to: the innermost open span, else the innermost :func:`activate`\\ d
    remote context, else ``None`` (a new root)."""
    stack = getattr(_stack, "spans", None)
    if stack:
        top = stack[-1]
        return TraceContext(top.trace_id, top.span_id, top.sampled)
    remote = getattr(_stack, "remote", None)
    return remote[-1] if remote else None


class _Activation:
    """Context manager installing a remote parent context (see
    :func:`activate`)."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: Optional[TraceContext]):
        self.ctx = ctx

    def __enter__(self) -> Optional[TraceContext]:
        if self.ctx is not None:
            remote = getattr(_stack, "remote", None)
            if remote is None:
                remote = _stack.remote = []
            remote.append(self.ctx)
        return self.ctx

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.ctx is not None:
            remote = getattr(_stack, "remote", None)
            if remote and remote[-1] is self.ctx:
                remote.pop()
        return False


def activate(ctx: Optional[TraceContext]) -> _Activation:
    """Make ``ctx`` (a remote caller's identity, e.g. decoded from a
    wire frame) the parent of spans opened on this thread while the
    returned context manager is held.  ``activate(None)`` is a no-op,
    so servers can pass whatever the frame carried."""
    return _Activation(ctx)


_ZERO_OPSTATS = {f: 0 for f in OPSTATS_FIELDS}


def _zero_opstats() -> Dict[str, int]:
    return _ZERO_OPSTATS.copy()


#: Span-name intern cache: call sites that build names dynamically
#: (f-strings per request) collapse to one shared string object, so
#: repeated spans neither hold N copies in tail ring buffers nor
#: re-serialize distinct objects.  Bounded by the number of distinct
#: span names, which is small and static in practice.
_NAME_INTERN: Dict[str, str] = {}


class Span:
    """One open span; use via :func:`span`, not directly."""

    __slots__ = ("name", "attrs", "parent", "depth", "start_s", "duration_s",
                 "opstats", "error", "trace_id", "span_id", "parent_id",
                 "sampled", "_stats_source", "_stats_before", "_t0",
                 "_finished", "_parent_ctx")

    def __init__(self, name: str, stats: Optional[StatsSource] = None,
                 attrs: Optional[Dict[str, Any]] = None,
                 parent_ctx: Optional[TraceContext] = None):
        self.name = _NAME_INTERN.setdefault(name, name)
        # takes ownership of ``attrs`` — span() always passes a fresh
        # kwargs dict, and this runs once per RPC on the traced path
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}
        self.parent: Optional[str] = None
        self.depth = 0
        self.start_s = 0.0
        self.duration_s = 0.0
        self.opstats: Optional[Dict[str, int]] = None
        self.error: Optional[str] = None
        self.trace_id = ""
        self.span_id = ""
        self.parent_id: Optional[str] = None
        self.sampled = True
        self._stats_source = stats
        self._stats_before = None
        self._t0 = 0.0
        self._finished = False
        self._parent_ctx = parent_ctx

    @property
    def context(self) -> TraceContext:
        """This span's identity, suitable for wire propagation."""
        return TraceContext(self.trace_id, self.span_id, self.sampled)

    def _assign_ids(self, parent: Optional[TraceContext]) -> None:
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
            self.span_id = new_span_id()
            self.sampled = parent.sampled
        else:
            self.trace_id, self.span_id = _new_root_ids()
            self.sampled = _sample_root(self.trace_id)

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite custom attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def _resolve_stats(self):
        src = self._stats_source
        if src is None:
            return None
        return src() if callable(src) else src

    def __enter__(self) -> "Span":
        # parent resolution (stack top > explicit parent_ctx > remote
        # activation > new root) is inlined: this is the RPC hot path
        stack = getattr(_stack, "spans", None)
        if stack is None:
            stack = _stack.spans = []
        if stack:
            top = stack[-1]
            self.parent = top.name
            self.depth = len(stack)
            self.trace_id = top.trace_id
            self.parent_id = top.span_id
            self.span_id = new_span_id()
            self.sampled = top.sampled
        else:
            ctx = self._parent_ctx
            if ctx is None:
                remote = getattr(_stack, "remote", None)
                if remote:
                    ctx = remote[-1]
            if ctx is not None:
                self.trace_id = ctx.trace_id
                self.parent_id = ctx.span_id
                self.span_id = new_span_id()
                self.sampled = ctx.sampled
            else:
                self.trace_id, self.span_id = _new_root_ids()
                self.sampled = _sample_root(self.trace_id)
        stack.append(self)
        if self._stats_source is not None:
            current = self._resolve_stats()
            if current is not None:
                self._stats_before = current.snapshot()
        self.start_s = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self._t0
        if self._stats_before is not None:
            current = self._resolve_stats()
            if current is not None:
                self.opstats = current.delta(self._stats_before).as_dict()
        if exc is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        stack = getattr(_stack, "spans", None)
        if stack and stack[-1] is self:
            stack.pop()
        self._finished = True
        if not self.sampled:
            # unsampled spans never touch the sink; the tail hook (if
            # any) keeps them for promotion on an error or a limit
            tail = _tail_hook
            if tail is not None:
                tail(self)
            return False
        # a bare NullSink discards the record anyway — skip building it
        if ENABLED and _sink.__class__ is not NullSink:
            _sink.emit(self.as_dict())
        return False  # never swallow exceptions

    def _begin_detached(self, parent: Optional[TraceContext]) -> "Span":
        """Start without joining this thread's span stack (see
        :func:`start_span`)."""
        self._assign_ids(parent)
        current = self._resolve_stats()
        if current is not None:
            self._stats_before = current.snapshot()
        self.start_s = time.time()
        self._t0 = time.perf_counter()
        return self

    def finish(self, error: Optional[str] = None) -> None:
        """Close a detached span (idempotent) and emit it."""
        if self._finished:
            return
        self._finished = True
        self.duration_s = time.perf_counter() - self._t0
        if self._stats_before is not None:
            current = self._resolve_stats()
            if current is not None:
                self.opstats = current.delta(self._stats_before).as_dict()
        if error is not None:
            self.error = error
        if not self.sampled:
            tail = _tail_hook
            if tail is not None:
                tail(self)
            return
        if ENABLED and _sink.__class__ is not NullSink:
            _sink.emit(self.as_dict())

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": "span",
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "parent": self.parent,
            "depth": self.depth,
            "attrs": self.attrs,
            "opstats": self.opstats if self.opstats is not None
            else _zero_opstats(),
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }
        if not self.sampled:
            # present only on sampled-out records (tail promotions), so
            # the sampled/always-on record shape is byte-identical to
            # the pre-sampling format
            out["sampled"] = False
        if self.error is not None:
            out["error"] = self.error
        return out


class _NullSpan:
    """Shared do-nothing context returned when tracing is disabled."""

    __slots__ = ()

    # what call sites read of a span, unguarded
    sampled = True
    context = None  # no identity to propagate: a frame carries none

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def finish(self, error: Optional[str] = None) -> None:
        pass


_NULL_SPAN = _NullSpan()


def span(name: str, stats: Optional[StatsSource] = None,
         parent_ctx: Optional[TraceContext] = None, **attrs: Any):
    """Open a nestable span (context manager).

    ``stats`` is an optional OpStats-like object (or zero-arg callable
    returning one) snapshotted on entry; the counter *delta* over the
    span's lifetime lands in the emitted record's ``opstats`` field.
    ``parent_ctx`` explicitly parents the span to a remote caller's
    identity when this thread has no open span — a cheaper single-span
    alternative to wrapping in :func:`activate` (which still wins when
    the thread has no open span *stack* but does have nested work).
    Remaining keyword arguments become span attributes.  When tracing
    is disabled this returns a shared no-op context.
    """
    if not ENABLED:
        return _NULL_SPAN
    return Span(name, stats=stats, attrs=attrs, parent_ctx=parent_ctx)


def start_span(name: str, parent: Optional[TraceContext] = None,
               stats: Optional[StatsSource] = None, **attrs: Any):
    """Open a *detached* span: one that never joins this thread's span
    stack and must be closed explicitly with :meth:`Span.finish`.

    Detached spans are for work whose lifetime is not lexically scoped —
    e.g. a streamed scan segment that stays open across many iterator
    pulls.  ``parent`` overrides the implicit :func:`current_context`
    parent.  When tracing is disabled the shared no-op span comes back
    (its ``finish()`` does nothing).
    """
    if not ENABLED:
        return _NULL_SPAN
    sp = Span(name, stats=stats, attrs=attrs)
    return sp._begin_detached(parent if parent is not None
                              else current_context())


def current_span() -> Optional[Span]:
    """The innermost open span on this thread, if any."""
    stack = getattr(_stack, "spans", None)
    return stack[-1] if stack else None
