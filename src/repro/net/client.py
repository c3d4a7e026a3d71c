"""The remote side of the client API: RemoteConnector and friends.

:class:`RemoteConnector` subclasses :class:`~repro.dbsim.client.
Connector` and swaps its backend for a :class:`RemoteInstance` that
speaks the :mod:`repro.net.wire` protocol to a manager + tablet-server
fleet.  Scanner, BatchScanner and BatchWriter are reused *unchanged*:
they only ever touch ``conn.instance`` (the
:class:`~repro.dbsim.backend.ConnectorBackend` contract), and
``RemoteInstance`` hands them :class:`TabletProxy` objects wherever the
local backend hands them :class:`~repro.dbsim.tablet.Tablet`\\ s.

Transport: :class:`RpcCore` is a *blocking facade* over the
:class:`~repro.net.aio.AsyncRpcCore` multiplexer — one persistent
wire-v3 connection per server, every in-flight RPC interleaved on it
by request id, driven by a private event-loop thread that starts
lazily on first use.  Callers block exactly as before; under the hood
a scan stream, a pipelined flush and a locate RPC share one socket.

Reliability model:

* every RPC has a response deadline; transport failures (closed
  connection, timeout, CRC-corrupt frame),
  :class:`~repro.dbsim.errors.ServerCrashedError` and
  :class:`~repro.dbsim.errors.BusyError` (server admission control)
  retry with exponential backoff + decorrelated jitter (seeded);
* mutating RPCs carry a ``(session, seq)`` pair the server dedups on
  over a bounded per-session window, so retried *and pipelined*
  ``write_batch`` frames whose acks were lost are applied exactly
  once;
* :class:`~repro.dbsim.errors.NotHostedError` (a split migrated the
  tablet, or the location cache is stale) triggers a re-``locate``
  through the manager and re-routing — mid-batch for writes, mid-stream
  (with a resume key) for scans;
* write batches and scan chunks travel as packed binary cell blocks
  (:mod:`repro.net.cells`), not JSON.

:class:`WritePipeline` overlaps BatchWriter flushes: flush N+1 is
serialized and sent while flush N's acks are still in flight, one
flush deep — draining the previous flush before submitting the next
preserves per-tablet apply order, which is what keeps server-stamped
timestamps bit-identical to unpipelined writes.

Everything counts into ``net.client.*`` metrics and (when tracing is
enabled) emits ``rpc.client.*`` spans.
"""

from __future__ import annotations

import asyncio
import bisect
import concurrent.futures
import os
import random
import socket
import threading
import time
from itertools import takewhile
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.dbsim.client import Connector
from repro.dbsim.errors import BusyError, NotHostedError, ServerCrashedError
from repro.dbsim.iterators import (
    BatchIterator,
    Columns,
    ListIterator,
    SortedKVIterator,
    drain,
)
from repro.dbsim.key import Cell, Range, RangeSet, clip_ranges, covering
from repro.dbsim.server import TableConfig, TableMeta, TabletIndex
from repro.dbsim.stats import OpStats
from repro.net import cells as _cells
from repro.net import iterspec as _iterspec
from repro.net import wire
from repro.net.aio import (
    Addr,
    AsyncRpcCore,
    RetryPolicy,
    StreamOverrunError,
    format_addr,
    parse_addr,
)
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry, global_registry

__all__ = [
    "Addr", "RetryPolicy", "RpcCore", "RemoteInstance", "RemoteConnector",
    "TabletProxy", "WritePipeline", "format_addr", "parse_addr",
]


class _LoopRunner:
    """A private asyncio event loop on a daemon thread.

    Started lazily on first use so constructing an ``RpcCore`` stays
    free (the manager builds one inside every spawned child process);
    ``run`` blocks the calling thread on a coroutine, ``submit``
    returns a concurrent future (the write pipeline's overlap).
    """

    def __init__(self, name: str):
        self._name = name
        self._lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def loop(self) -> asyncio.AbstractEventLoop:
        loop = self._loop
        if loop is not None:
            return loop
        with self._lock:
            if self._loop is None:
                loop = asyncio.new_event_loop()
                started = threading.Event()

                def _run() -> None:
                    asyncio.set_event_loop(loop)
                    loop.call_soon(started.set)
                    loop.run_forever()

                thread = threading.Thread(target=_run, name=self._name,
                                          daemon=True)
                thread.start()
                started.wait()
                self._thread = thread
                self._loop = loop
            return self._loop

    def submit(self, coro) -> concurrent.futures.Future:
        return asyncio.run_coroutine_threadsafe(coro, self.loop())

    def run(self, coro):
        return self.submit(coro).result()

    def stop(self) -> None:
        with self._lock:
            loop, self._loop = self._loop, None
            thread, self._thread = self._thread, None
        if loop is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=5.0)
        if not loop.is_running():
            loop.close()


class RpcCore:
    """Blocking facade over the async multiplexed core.

    One core per :class:`RemoteInstance` (the manager process also owns
    one for server fan-out).  ``mutate`` stamps mutating requests with
    this core's session id and a monotonically increasing sequence
    number; a retry re-sends the *same* sequence number, which is what
    lets the server replay the cached ack instead of re-applying.
    ``submit_mutate`` is the pipelined variant: the sequence number is
    stamped at submission (not completion), so in-flight batches keep
    their order identity.

    Never call the blocking surface from the loop thread (it would
    deadlock); native-async callers use :attr:`aio` directly.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 retry: Optional[RetryPolicy] = None, seed: int = 0):
        self.metrics = metrics if metrics is not None else global_registry()
        self.retry = retry if retry is not None else RetryPolicy()
        self.session = os.urandom(8).hex()
        self._rng = random.Random(seed)
        self._seq = 0
        self._lock = threading.Lock()
        self._addr_strs: Dict[Addr, str] = {}
        self._runner = _LoopRunner("repro-net-loop")
        self.aio = AsyncRpcCore(self.metrics, self.retry, seed=seed)
        # pre-register the health counters so a metrics export always
        # shows them (at 0), not only after the first retry/timeout
        for name in ("requests", "retries", "timeouts", "relocates",
                     "errors", "busy_retries", "pool_evictions",
                     "stale_frames", "sampled_out"):
            self.metrics.counter(f"net.client.{name}")
        # cached: bumped per unsampled call span on the hot path
        self._sampled_out = self.metrics.counter("net.client.sampled_out")

    # -- plumbing ---------------------------------------------------------

    def next_seq(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def _addr_str(self, addr: Addr) -> str:
        s = self._addr_strs.get(addr)
        if s is None:
            s = self._addr_strs[addr] = format_addr(addr)
        return s

    def run(self, coro):
        """Run a coroutine on this core's loop thread and block."""
        return self._runner.run(coro)

    def close(self) -> None:
        if self._runner._loop is not None:
            try:
                self._runner.run(self.aio.aclose())
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass
        self._runner.stop()

    # -- RPCs -------------------------------------------------------------

    def _stamp(self, payload):
        """Copy ``payload`` with this core's session + a fresh seq (the
        dedup identity), for dict and binary-cell payloads alike."""
        if isinstance(payload, wire.CellsPayload):
            meta = dict(payload.meta)
            meta["session"] = self.session
            meta["seq"] = self.next_seq()
            return wire.CellsPayload(meta, payload.block)
        stamped = dict(payload)
        stamped["session"] = self.session
        stamped["seq"] = self.next_seq()
        return stamped

    def mutate(self, addr: Addr, op: int, payload,
               compress: bool = False) -> dict:
        """A mutating RPC: stamped for exactly-once dedup, then sent
        through the same retry loop as ``call``."""
        return self.call(addr, op, self._stamp(payload), compress=compress)

    def call(self, addr: Addr, op: int, payload,
             compress: bool = False) -> dict:
        if not _trace.ENABLED:
            return self._runner.run(
                self.aio.call(addr, op, payload, compress=compress))
        with _trace.span("rpc.client.call", op=wire.OP_NAMES.get(op, op),
                         server=self._addr_str(addr)) as sp:
            # every attempt (retries included) carries this span's
            # identity, so even a server span reached on the Nth try
            # parents under the one client call; the context's sampled
            # bit tells the server whether to record its half
            if not sp.sampled:
                self._sampled_out.inc()
            result = self._runner.run(
                self.aio.call(addr, op, payload, tc=sp.context,
                              compress=compress))
            sp.attrs["session"] = self.session
            return result

    def submit_mutate(self, addr: Addr, op: int, payload,
                      compress: bool = False) -> concurrent.futures.Future:
        """Pipelined ``mutate``: stamp now, send now, ack later.  The
        returned future resolves to the response dict; the caller owns
        draining (and thereby per-tablet ordering)."""
        stamped = self._stamp(payload)
        sp = None
        tc = None
        if _trace.ENABLED:
            # detached span: the ack lands on the loop thread, not in
            # this thread's span stack
            sp = _trace.start_span(
                "rpc.client.call", op=wire.OP_NAMES.get(op, op),
                server=self._addr_str(addr), session=self.session)
            tc = sp.context
            if not sp.sampled:
                self._sampled_out.inc()
        fut = self._runner.submit(
            self.aio.call(addr, op, stamped, tc=tc, compress=compress))
        if sp is not None:
            fut.add_done_callback(lambda _f: sp.finish())
        return fut

    # -- scan streams -----------------------------------------------------

    def open_stream(self, addr: Addr, payload: dict, tc=None) -> "_SyncStream":
        stream = self._runner.run(
            self.aio.open_stream(addr, wire.SCAN, payload, tc=tc))
        return _SyncStream(self, addr, stream)


class _SyncStream:
    """Blocking view of one multiplexed scan stream."""

    __slots__ = ("_core", "_addr", "_stream")

    def __init__(self, core: RpcCore, addr: Addr, stream):
        self._core = core
        self._addr = addr
        self._stream = stream

    def recv(self, timeout: float) -> Tuple[int, object, int]:
        """Next ``(code, payload, nread)`` frame; raises the stream's
        failure (overrun, corrupt, closed) or ``TimeoutError``."""
        return self._core.run(self._core.aio.stream_get(
            self._stream, timeout))

    @property
    def ended(self) -> bool:
        return self._stream.ended

    def mark_ended(self) -> None:
        """The consumer learned out-of-band (a ``last``-marked CHUNK)
        that no more data is coming: flag the stream terminal so close
        skips the cancel round-trip and the reader drops the trailing
        DONE frame as it arrives."""
        self._stream.ended = True

    def cancel(self) -> None:
        """Abandon the stream; tells the server to stop producing."""
        try:
            self._core.run(self._core.aio.cancel_stream(
                self._addr, self._stream))
        except Exception:  # noqa: BLE001 - cancellation is best-effort
            pass


# -- scan streaming ---------------------------------------------------------


#: how many segments the pump keeps open ahead of the consumer — their
#: servers scan in parallel while the head segment's batches are being
#: decoded, so crossing a tablet boundary rarely waits on the network
_SCAN_FANOUT = 3

#: how long a round waits for a follow-on segment's frames before
#: handing back what it has — long enough to catch a segment that has
#: been producing in parallel and is a hair behind the head, short
#: enough that one slow server cannot stall delivery of ready batches
_SPLICE_WAIT = 0.01


def _ship(scan_iterators: Sequence) -> Tuple[dict, tuple]:
    """Split a scan's layers at the wire: ``(SCAN payload fields,
    layers left to run on this side)``.

    The leading layers that carry a wire form (``op``, see
    :class:`~repro.dbsim.iterators.Layer`) can run inside the tablet
    server.  They ship — the spec ops as the payload's ``"iterspec"``,
    the visibility filter's tokens as its ``"auths"`` — when they hold
    at least one spec op.  A lone visibility filter ships nothing and
    runs here: a spec-less SCAN is the plain payload it always was."""
    ops = [layer.op for layer in takewhile(
        lambda layer: getattr(layer, "op", None), scan_iterators)]
    spec = [op for op in ops if op["op"] != "visibility"]
    if not spec:
        return {}, tuple(scan_iterators)
    pushdown = {"iterspec": spec}
    for op in ops:
        if op["op"] == "visibility":
            pushdown["auths"] = op["auths"]
    return pushdown, tuple(scan_iterators[len(ops):])


class _Segment:
    """One (server, tablet) leg of a possibly re-planned scan.

    ``ranges`` is the leg's share of the scan's range set (planned by
    :meth:`_RemoteScanStream._plan`).  ``stream``/``span`` are the
    leg's live transport attachments: the pump fans out opens ahead of
    consumption, so a segment can hold an open (buffering) stream long
    before it becomes the head.
    """

    __slots__ = ("addr", "tablet_id", "extent", "ranges", "stream", "span")

    def __init__(self, addr: Addr, tablet_id: str, extent: Range):
        self.addr = addr
        self.tablet_id = tablet_id
        self.extent = extent
        self.ranges: List[Range] = []
        self.stream: Optional[_SyncStream] = None
        self.span = None


def _is_last_chunk(frame) -> bool:
    code, payload, _ = frame
    return code == wire.CHUNK and bool(payload.meta.get("last"))


def _seg_run_complete(frames: list) -> bool:
    """Did this frame run *cleanly* finish its segment?  True on a
    trailing DONE or ``last``-marked CHUNK.  An ERROR ends the stream
    but not the segment (it will be resumed), so it is not complete —
    and the round must not splice a later segment's frames after it."""
    return bool(frames) and (frames[-1][0] == wire.DONE
                             or _is_last_chunk(frames[-1]))


def _drop_folded_done(run: list) -> list:
    """Drop the DONE that trails a ``last``-marked CHUNK in one
    segment's frame run.  The chunk already completes its segment, so
    every DONE the consumer is handed completes a segment of its own —
    an empty tablet's whole run is one bare DONE, and it must not be
    mistaken for the previous segment's."""
    if len(run) > 1 and run[-1][0] == wire.DONE and _is_last_chunk(run[-2]):
        run.pop()
    return run


class _RemoteScanStream:
    """The resumable ColumnBatch pump behind every remote scan.

    Owns the whole stream lifecycle over a sequence of binary CHUNK
    frames: open/retry/backoff, mid-stream resume, split re-planning,
    spans and counters.  :meth:`next_batch` returns decoded
    :class:`~repro.net.cells.ColumnBatch`\\ es — one per consumer
    wakeup, coalescing every CHUNK the connection reader had already
    buffered — and never materialises a ``Cell``.

    A pump scans one *range set* (sorted, disjoint ranges; a plain
    range scan is a set of one) and may span many segments, one per
    tablet the set reaches into; each segment's SCAN carries just that
    tablet's share of the set, found by bisecting the set against the
    tablet extents.  It fans out: the next :data:`_SCAN_FANOUT`
    segments' streams are opened ahead of consumption so their servers
    scan in parallel, and one event-loop round delivers as many
    consecutive completed segments as have arrived.  Delivery order is
    strictly segment order — fan-out changes when servers *produce*,
    never when the consumer *sees*.

    The stream is resumable at batch granularity: the resume key
    advances to the last entry of each CHUNK as it is decoded, and any
    mid-stream failure (timeout, reset, corrupt frame, server crash,
    local queue overrun) reopens the stream asking the server to skip
    everything at or before that key.  Batch granularity is exactly as
    correct as the old per-cell resume because a reopen only ever
    happens while pulling the *next* batch — everything in already
    returned batches has been handed to the caller.  A reopen re-sends
    only the ranges that end after the resume row.  A
    ``NotHostedError`` instead re-locates through the manager and
    re-plans those remaining ranges over the new tablet layout — which
    is how a scan survives a split or migration that happens under it.
    """

    def __init__(self, inst: "RemoteInstance", table: str,
                 ranges: Sequence[Range], segments: Sequence[_Segment],
                 pushdown: Optional[dict] = None):
        self._inst = inst
        self._table = table
        #: construction range set (∩ proxy extent if per-tablet)
        self._clip = ranges
        #: SCAN payload fields of the pushed-down layers, attached to
        #: every segment open (see :func:`_ship`)
        self._pushdown = pushdown or {}
        self._home = list(segments)  # the layout the pump was planned on
        self._segments: List[_Segment] = []
        self._ranges: Sequence[Range] = ()  # what the last reset asked for
        self._columns: Columns = None
        self._resume: Optional[list] = None
        self._finished = True
        self._opened = False  # has this pump ever opened a stream?

    def reset(self, rng: Range, columns: Columns = None) -> None:
        self._close()
        self._resume = None
        self._opened = False  # a fresh seek is not a resume
        self._columns = list(columns) if columns else None
        self._ranges = clip_ranges(self._clip, rng)
        self._plan(self._home, self._ranges)

    def _plan(self, segments: Sequence[_Segment],
              ranges: Sequence[Range]) -> None:
        """Give each segment its share of ``ranges`` (two bisects of
        the sorted set per tablet extent) and keep those that get any."""
        self._segments = []
        for seg in segments:
            seg.ranges = clip_ranges(ranges, seg.extent)
            if seg.ranges:
                seg.stream = None
                seg.span = None
                self._segments.append(seg)
        self._finished = not self._segments

    def _pending(self, ranges: Sequence[Range]) -> Sequence[Range]:
        """``ranges`` without those a resume has fully delivered (they
        end at or before the resume row).  The range holding the
        resume row stays whole: the server skips to the resume key."""
        if not self._resume:
            return ranges
        return ranges[bisect.bisect_right(
            ranges, self._resume[0], key=Range.effective_stop):]

    # -- streaming --------------------------------------------------------

    async def _aopen(self, seg: _Segment, parent_ctx) -> None:
        """Open ``seg``'s stream (loop side; no waiting for frames)."""
        core = self._inst.core
        payload = {
            "table": self._table,
            "tablet_id": seg.tablet_id,
            "ranges": [wire.range_to_wire(r)
                       for r in self._pending(seg.ranges)],
            "columns": ([list(c) for c in self._columns]
                        if self._columns else None),
            "resume": self._resume,
            "compress": self._inst.compress,
        }
        payload.update(self._pushdown)
        tc = None
        if _trace.ENABLED:
            # detached: a scan stream stays open across iterator pulls,
            # so its span cannot be lexically scoped.  ``parent_ctx``
            # carries the consumer thread's span stack across into the
            # loop thread.  Closed by _close_segment on completion,
            # resume, or re-plan.
            seg.span = _trace.start_span(
                "rpc.client.scan", parent=parent_ctx, op="scan",
                table=self._table, server=format_addr(seg.addr))
            tc = seg.span.context
        stream = await core.aio.open_stream(seg.addr, wire.SCAN, payload,
                                            tc=tc)
        seg.stream = _SyncStream(core, seg.addr, stream)
        self._opened = True

    async def _fanout(self, base: int, parent_ctx) -> None:
        """Open any unopened streams among segments ``base`` through
        ``base + _SCAN_FANOUT - 1``.  Only a head (``base == 0``) open
        failure propagates — an eager open that fails will fail again,
        visibly, once that segment becomes the head."""
        for i, seg in enumerate(self._segments[base:base + _SCAN_FANOUT]):
            if seg.stream is not None:
                continue
            if base == 0 and i == 0:
                await self._aopen(seg, parent_ctx)
            else:
                try:
                    await self._aopen(seg, parent_ctx)
                except Exception:  # noqa: BLE001 - surfaces once it is head
                    if seg.span is not None:
                        seg.span.finish()
                        seg.span = None
                    break

    async def _round(self, parent_ctx) -> list:
        """One event-loop submission: fan out opens for the next few
        segments (their servers scan in parallel), await the head
        segment's frame run, then — while each run *cleanly* completes
        its segment — splice on the follow-on segments' runs, waiting
        at most :data:`_SPLICE_WAIT` each since they have been
        producing concurrently the whole time.  The consumer gets a
        whole multi-segment run per cross-thread wakeup instead of
        paying a GIL-contended loop round trip per tablet boundary.

        A run ending in ERROR (or a splice-side failure) stops the
        splice: later segments' frames must never be delivered before
        an earlier segment has resumed and finished."""
        core = self._inst.core
        await self._fanout(0, parent_ctx)
        frames = _drop_folded_done(
            await self._segments[0].stream._stream.get_many(
                core.retry.deadline))
        run, k = frames, 1
        while k < len(self._segments) and _seg_run_complete(run):
            await self._fanout(k, parent_ctx)  # slide the open-ahead window
            nxt = self._segments[k].stream
            if nxt is None:
                break
            try:
                run = _drop_folded_done(
                    await nxt._stream.get_many(_SPLICE_WAIT))
            except Exception:  # noqa: BLE001 - requeued; raised once head
                break
            frames.extend(run)
            k += 1
        return frames

    def next_batch(self) -> Optional[_cells.ColumnBatch]:
        """The next non-empty batch (every buffered CHUNK merged), or
        ``None`` once the scan is exhausted."""
        core = self._inst.core
        counters = core.metrics.counter
        sleep: Optional[float] = None
        attempts = 0
        while not self._finished:
            parent_ctx = _trace.current_context() if _trace.ENABLED else None
            try:
                if self._segments[0].stream is None:
                    if attempts:
                        sleep = core.retry.next_sleep(sleep, core._rng)
                        time.sleep(sleep)
                        counters("net.client.retries").inc()
                    if self._opened:
                        # any reopen mid-scan is a resume, even when
                        # chunk progress reset the attempt budget
                        counters("net.client.scan_resumes").inc()
                    attempts += 1
                frames = core.run(self._round(parent_ctx))
            except StreamOverrunError:
                # the reader shed this stream rather than stall the
                # connection; everything delivered so far is good —
                # resume just past it
                counters("net.client.stream_overruns").inc()
                self._bail(counters, attempts)
                continue
            except wire.FrameCorruptError:
                self._bail(counters, attempts)
                continue
            except (asyncio.TimeoutError, socket.timeout, TimeoutError):
                counters("net.client.timeouts").inc()
                self._bail(counters, attempts)
                continue
            except (wire.ProtocolError, OSError) as exc:
                if isinstance(exc, wire.ProtocolError):
                    self._close()
                    raise
                self._close_head()
                self._check_budget(counters, attempts, exc)
                continue
            batch: Optional[_cells.ColumnBatch] = None
            for code, payload, nread in frames:
                if code == wire.CHUNK:
                    attempts = 0  # progress: reset the retry budget
                    decoded = _cells.decode_batch(payload.block)
                    counters("net.client.scan_chunks").inc()
                    if len(decoded):
                        # the resume key advances per decoded chunk so
                        # an error later in this same frame run reopens
                        # past everything about to be returned
                        self._resume = decoded.last_key()
                        if batch is None:
                            batch = decoded
                        else:
                            batch.extend(decoded)
                    head = self._segments[0]
                    if head.span is not None:
                        attrs = head.span.attrs
                        attrs["chunks"] = attrs.get("chunks", 0) + 1
                        attrs["bytes"] = attrs.get("bytes", 0) + nread
                    if payload.meta.get("last"):
                        # server marked its final chunk: complete the
                        # segment now instead of paying another wakeup
                        # for the DONE frame (which _round dropped, or
                        # the ended stream drops on arrival)
                        if head.stream is not None:
                            head.stream.mark_ended()
                        self._complete_segment()
                elif code == wire.DONE:
                    self._complete_segment()
                    attempts = 0
                elif code == wire.ERROR:
                    self._close_head()
                    try:
                        wire.raise_error(payload)
                    except ServerCrashedError as exc:
                        self._check_budget(counters, attempts, exc)
                    except BusyError as exc:
                        counters("net.client.busy_retries").inc()
                        self._check_budget(counters, attempts, exc)
                    except NotHostedError:
                        counters("net.client.relocates").inc()
                        self._replan()
                        attempts = 0
                else:
                    self._close()
                    raise wire.ProtocolError(
                        f"unexpected frame {code:#x} in scan stream")
            if batch is not None:
                return batch
        return None

    def _complete_segment(self) -> None:
        self._close_head()
        self._segments.pop(0)
        if not self._segments:
            self._finished = True

    def _bail(self, counters, attempts: int) -> None:
        self._close_head()
        self._check_budget(counters, attempts,
                           wire.RpcError("scan stream interrupted"))

    def _check_budget(self, counters, attempts: int,
                      exc: BaseException) -> None:
        if attempts >= self._inst.core.retry.attempts:
            counters("net.client.errors").inc()
            raise wire.RpcError(
                f"scan of {self._table!r} failed after {attempts} "
                f"attempts") from exc

    def _replan(self) -> None:
        """The tablet moved (split/migration): rebuild the remaining
        segments from a fresh locate index."""
        self._close()  # fanned-out streams were planned on the old layout
        self._inst.invalidate(self._table)
        remaining = self._pending(self._ranges)
        if self._resume:
            # rows before the resume row are delivered: tablets that
            # hold only those must not be re-planned in
            remaining = clip_ranges(remaining, Range(self._resume[0], None))
        self._plan([_Segment(p.addr, p.tablet_id, p.extent)
                    for p in self._inst.tablets(self._table)], remaining)

    @staticmethod
    def _close_segment(seg: _Segment) -> None:
        span, seg.span = seg.span, None
        if span is not None:
            span.finish()
        stream, seg.stream = seg.stream, None
        if stream is not None and not stream.ended:
            stream.cancel()

    def _close_head(self) -> None:
        if self._segments:
            self._close_segment(self._segments[0])

    def _close(self) -> None:
        for seg in self._segments:
            self._close_segment(seg)

    def __del__(self):  # abandoned mid-stream: stop the server's work
        try:
            self._close()
        except Exception:
            pass


class _RemoteScanIterator(BatchIterator):
    """Per-cell seek/has_top/top/advance view over the batch pump: the
    pump moves ColumnBatches, and cells are built one batch at a time
    only because this consumer asked for ``Cell`` objects.  Bulk
    consumers skip this class via :meth:`TabletProxy.scan_columns`.

    The layers left to run client-side (visibility filter, user
    iterators) are stacked on top by :meth:`TabletProxy.scan_iterator`;
    the batches seen here are the server's output.
    """

    def _open(self, rng: Range, columns: Columns) -> Iterator:
        self._source.reset(rng, columns)
        return iter(self._source.next_batch, None)


# -- the backend ------------------------------------------------------------


class TabletProxy:
    """Client-side stand-in for one remote tablet.

    Implements the :class:`~repro.dbsim.backend.TabletBackend` contract
    Scanner/BatchScanner/BatchWriter program against, turning each call
    into RPCs against the hosting server.
    """

    def __init__(self, inst: "RemoteInstance", table: str, tablet_id: str,
                 extent: Range, addr: Addr):
        self._inst = inst
        self._table = table
        self.tablet_id = tablet_id
        self.extent = extent
        self.addr = addr

    def __repr__(self) -> str:
        return (f"TabletProxy({self._table}/{self.tablet_id} "
                f"@ {format_addr(self.addr)})")

    # -- reads ------------------------------------------------------------

    def scan_iterator(self, rng: RangeSet,
                      table_iterators: Sequence = (),
                      scan_iterators: Sequence = ()) -> SortedKVIterator:
        # table_iterators are deliberately ignored: the server applies
        # the table's configured stack (it owns the authoritative
        # config).  Of the scan layers, the leading ones with a wire
        # form ship to the server (push-down, see _ship); the rest run
        # client-side, per cell, over the stream.
        ranges = clip_ranges(rng, self.extent)
        if not ranges:
            return ListIterator([])
        pushdown, here = _ship(scan_iterators)
        stack: SortedKVIterator = _RemoteScanIterator(_RemoteScanStream(
            self._inst, self._table, ranges,
            [_Segment(self.addr, self.tablet_id, self.extent)], pushdown))
        for factory in here:
            stack = factory(stack)
        return stack

    def scan_columns(self, rng: RangeSet = Range(), columns: Columns = None,
                     table_iterators: Sequence = (),
                     scan_iterators: Sequence = ()):
        """Bulk columnar read: an iterator of
        :class:`~repro.net.cells.ColumnBatch` straight off the CHUNK
        stream — no per-cell objects anywhere on the client.

        ``table_iterators`` are ignored for the same reason as in
        :meth:`scan_iterator`.  Scan layers ship or run here as batch
        stages; an opaque callable is per-cell by contract and
        therefore refused on the bulk path.
        """
        return self._inst.scan_columns(
            self._table, clip_ranges(rng, self.extent), columns,
            scan_iterators)

    def scan(self, rng: Range = Range(), columns: Columns = None,
             table_iterators: Sequence = (),
             scan_iterators: Sequence = ()) -> List[Cell]:
        it = self.scan_iterator(rng, table_iterators, scan_iterators)
        return drain(it, rng, columns)

    # -- writes -----------------------------------------------------------

    def _batch_payload(self, muts: List[tuple]) -> wire.CellsPayload:
        return wire.CellsPayload(
            {"table": self._table, "tablet_id": self.tablet_id},
            _cells.encode_columns(*zip(*muts)))

    def write_raw_batch(self, muts: List[tuple]) -> int:
        if not muts:
            return 0
        try:
            resp = self._inst.core.mutate(
                self.addr, wire.WRITE_BATCH, self._batch_payload(muts),
                compress=self._inst.compress)
            return resp["applied"]
        except NotHostedError:
            return self._rebin(muts)

    def submit_raw_batch(self, muts: List[tuple]
                         ) -> concurrent.futures.Future:
        """Pipelined ``write_raw_batch``: the batch is stamped and sent
        now; the returned future resolves to the ack.  The caller must
        drain it (``WritePipeline`` owns the ordering discipline) and
        keep ``muts`` unchanged until then — a re-bin resends them."""
        return self._inst.core.submit_mutate(
            self.addr, wire.WRITE_BATCH, self._batch_payload(muts),
            compress=self._inst.compress)

    def _rebin(self, muts: List[tuple]) -> int:
        """This tablet split (or migrated) under the writer: re-route
        its share of the batch through a fresh locate index, preserving
        mutation order per new owner (timestamps stay bit-identical —
        order within each owning tablet is what the clock stamps)."""
        self._inst.invalidate(self._table)
        return sum(tablet.write_raw_batch(group) for tablet, group
                   in self._inst.partition(self._table, muts))

    # -- introspection ----------------------------------------------------

    def info(self) -> dict:
        return self._inst.core.call(self.addr, wire.TABLET_INFO, {
            "table": self._table, "tablet_id": self.tablet_id})

    @property
    def sstables(self) -> Tuple["_RunInfo", ...]:
        """Snapshot of the remote tablet's sorted runs (sizes only)."""
        return tuple(_RunInfo(n) for n in self.info()["sstables"])

    def entry_estimate(self) -> int:
        return self.info()["entries"]


class WritePipeline:
    """One-flush-deep pipelined writes for a BatchWriter.

    ``submit(groups)`` first drains the *previous* flush's in-flight
    acks, then fires the new flush's per-tablet batches concurrently.
    The one-deep discipline is the correctness lever: a tablet's batch
    from flush N is acked before its batch from flush N+1 is sent, so
    the server's per-tablet logical clock stamps timestamps in exactly
    the order an unpipelined writer would (bit-identical scans).
    Within one flush, batches go to *distinct* tablets, whose clocks
    are independent — those overlap freely.

    A batch that lands on a split tablet surfaces ``NotHostedError``
    at drain time and is re-binned synchronously through a fresh
    locate index, preserving exactly-once (the failed batch applied
    nothing server-side).
    """

    def __init__(self, inst: "RemoteInstance"):
        self._inst = inst
        #: (proxy, muts, future) triples of the flush in flight
        self._inflight: List[Tuple[TabletProxy, List[tuple],
                                   concurrent.futures.Future]] = []

    def submit(self, groups) -> None:
        self.drain()
        inflight = self._inflight
        for proxy, muts in groups:
            inflight.append((proxy, muts, proxy.submit_raw_batch(muts)))

    def drain(self) -> int:
        """Block until every in-flight batch is acked (re-binning
        relocated ones); raises the first hard failure."""
        inflight, self._inflight = self._inflight, []
        applied = 0
        first_exc: Optional[BaseException] = None
        for proxy, muts, fut in inflight:
            try:
                applied += fut.result()["applied"]
            except NotHostedError:
                try:
                    applied += proxy._rebin(muts)
                except Exception as exc:  # noqa: BLE001 - keep draining
                    if first_exc is None:
                        first_exc = exc
            except Exception as exc:  # noqa: BLE001 - keep draining
                if first_exc is None:
                    first_exc = exc
        if first_exc is not None:
            raise first_exc
        return applied

    def close(self) -> None:
        self.drain()


class _RunInfo:
    """Shape of one remote sorted run (length only)."""

    __slots__ = ("entries",)

    def __init__(self, entries: int):
        self.entries = entries

    def __len__(self) -> int:
        return self.entries

    def __repr__(self) -> str:
        return f"_RunInfo(entries={self.entries})"


class RemoteInstance:
    """The :class:`~repro.dbsim.backend.ConnectorBackend` that speaks
    the wire protocol: table ops go to the manager; the data path goes
    straight to tablet servers through cached :class:`TabletProxy`
    routing (one ``locate`` RPC per table until something moves).

    ``compress=True`` turns on per-frame zlib for cell payloads (scan
    chunks and write batches) — worth it over real networks, usually
    not over loopback."""

    def __init__(self, manager_addr: Union[str, Addr],
                 metrics: Optional[MetricsRegistry] = None,
                 retry: Optional[RetryPolicy] = None, seed: int = 0,
                 compress: bool = False):
        self.manager_addr = parse_addr(manager_addr)
        self.core = RpcCore(metrics=metrics, retry=retry, seed=seed)
        self.compress = compress
        self._cache: Dict[str, TableMeta] = {}

    # -- locate cache -----------------------------------------------------

    def invalidate(self, name: Optional[str] = None) -> None:
        if name is None:
            self._cache.clear()
        else:
            self._cache.pop(name, None)

    def _table(self, name: str) -> TableMeta:
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        resp = self.core.call(self.manager_addr, wire.LOCATE,
                              {"table": name})
        cached = TableMeta(
            wire.wire_to_config(resp["config"]),
            TabletIndex(TabletProxy(self, name, t["tablet_id"],
                                    wire.wire_to_range(t["extent"]),
                                    parse_addr(t["addr"]))
                        for t in resp["tablets"]),
            resp["version"])
        self._cache[name] = cached
        return cached

    # -- table lifecycle --------------------------------------------------

    def create_table(self, name: str, config: Optional[TableConfig] = None,
                     splits: Sequence[str] = ()) -> None:
        self.core.mutate(self.manager_addr, wire.CREATE_TABLE, {
            "name": name, "config": wire.config_to_wire(config),
            "splits": list(splits)})
        self.invalidate(name)

    def delete_table(self, name: str) -> None:
        self.core.mutate(self.manager_addr, wire.DELETE_TABLE,
                         {"name": name})
        self.invalidate(name)

    def table_exists(self, name: str) -> bool:
        return self.core.call(self.manager_addr, wire.TABLE_EXISTS,
                              {"name": name})["exists"]

    def list_tables(self) -> List[str]:
        return self.core.call(self.manager_addr, wire.LIST_TABLES,
                              {})["tables"]

    def config(self, name: str) -> TableConfig:
        return self._table(name).config

    # -- writes -----------------------------------------------------------

    def write_pipeline(self) -> WritePipeline:
        """A fresh pipelined-flush handle (BatchWriter plugs in here
        via duck typing — the local backend has no such method, so
        local writers stay sequential)."""
        return WritePipeline(self)

    # -- tablet location --------------------------------------------------

    def add_split(self, name: str, split_row: str) -> None:
        self.core.mutate(self.manager_addr, wire.ADD_SPLIT,
                         {"table": name, "row": split_row})
        self.invalidate(name)

    def splits(self, name: str) -> List[str]:
        return self.core.call(self.manager_addr, wire.SPLITS,
                              {"table": name})["splits"]

    def tablets(self, name: str) -> List[TabletProxy]:
        return list(self._table(name).index.entries)

    def locate(self, name: str, row: str) -> TabletProxy:
        return self._table(name).index.locate(row)

    def tablets_for_range(self, name: str, rng: Range) -> List[TabletProxy]:
        return self._table(name).index.overlapping(rng)

    def partition(self, name: str, mutations
                  ) -> List[Tuple[TabletProxy, List[tuple]]]:
        """Route a mutation buffer through the cached index: see
        :meth:`~repro.dbsim.server.TabletIndex.partition`."""
        return self._table(name).index.partition(mutations)

    def scan_columns(self, table: str, rng: RangeSet = Range(),
                     columns: Columns = None,
                     scan_iterators: Sequence = ()):
        """Bulk columnar scan: ONE pump spanning every tablet that
        ``rng`` — a range, or a sorted, disjoint range set — reaches
        into, yielding :class:`~repro.net.cells.ColumnBatch`\\ es in
        global key order.

        The pump fans out stream opens across the tablets' servers so
        they scan in parallel, where the per-tablet
        ``TabletProxy.scan_columns`` necessarily pays a serial
        open-and-drain round per tablet.  The scan layers that can
        cross the wire (see :func:`_ship`) run inside every tablet
        server the pump touches — each filters and folds its own merged
        stream before bytes hit the socket — and the rest run here, as
        batch stages; an opaque callable is refused."""
        pushdown, here = _ship(scan_iterators)
        stages = [getattr(layer, "stage", None) for layer in here]
        if None in stages:
            raise _iterspec.NonSerializableIteratorError(
                "scan_columns cannot run client-side (local-callable) "
                "scan iterators; pass a wire-serializable iterspec, or "
                "use scan_iterator() for per-cell stacks")
        # no extent to clip to: this just makes a lone Range a set of
        # one and drops a range that can hold nothing
        ranges = clip_ranges(rng, Range())
        if not ranges:
            return iter(())
        span = covering(ranges)
        pump = _RemoteScanStream(
            self, table, ranges,
            [_Segment(p.addr, p.tablet_id, p.extent)
             for p in self.tablets_for_range(table, span)], pushdown)
        pump.reset(span, columns)
        out = iter(pump.next_batch, None)
        for stage in stages:  # what did not ship runs here, on batches
            out = stage(out)
        return out

    def scan_cells(self, table: str, rng: RangeSet = Range(),
                   columns: Columns = None,
                   scan_iterators: Sequence = ()):
        """:meth:`scan_columns`, cell by cell."""
        for batch in self.scan_columns(table, rng, columns, scan_iterators):
            yield from batch.cells()

    # -- maintenance ------------------------------------------------------

    def flush_table(self, name: str) -> None:
        self.core.call(self.manager_addr, wire.FLUSH, {"table": name})

    def compact_table(self, name: str) -> None:
        self.core.call(self.manager_addr, wire.COMPACT, {"table": name})

    # -- cluster control (no local-backend analogue) ----------------------

    def crash_server(self, server: str) -> None:
        """Simulate a crash of the named tablet server (memtables lost;
        data ops fail typed until :meth:`recover_server`)."""
        self.core.call(self.manager_addr, wire.CRASH, {"server": server})

    def recover_server(self, server: str, replay_wal: bool = True) -> None:
        self.core.call(self.manager_addr, wire.RECOVER,
                       {"server": server, "replay_wal": replay_wal})

    def status(self) -> dict:
        return self.core.call(self.manager_addr, wire.STATUS, {})

    def cluster_metrics(self) -> dict:
        """Per-process metric exports: ``{"manager": {...},
        "servers": {name: {...}}}``."""
        return self.core.call(self.manager_addr, wire.METRICS, {})

    def telemetry(self, sample: bool = True) -> dict:
        """The manager's ring-buffered telemetry history (wire form of
        :class:`~repro.net.telemetry.ClusterTelemetry`).  ``sample=True``
        asks the manager to take a fresh cluster sample first, so
        polling works even with the background sampler off."""
        return self.core.call(self.manager_addr, wire.TELEMETRY,
                              {"sample": sample})

    def shutdown_cluster(self) -> None:
        self.core.call(self.manager_addr, wire.SHUTDOWN, {})

    # -- observability ----------------------------------------------------

    def total_stats(self) -> OpStats:
        resp = self.core.call(self.manager_addr, wire.STATS, {})
        return OpStats.from_dict(resp["total"])

    def table_entry_estimate(self, name: str) -> int:
        return sum(p.entry_estimate() for p in self.tablets(name))

    def close(self) -> None:
        self.core.close()


class RemoteConnector(Connector):
    """A :class:`~repro.dbsim.client.Connector` whose backend is a
    cluster on the other side of a socket.  Everything a Connector can
    do — including the Graphulo kernels built on it — works unchanged;
    construction is the only difference::

        conn = RemoteConnector("127.0.0.1:40123")
    """

    def __init__(self, manager_addr: Union[str, Addr, RemoteInstance],
                 metrics: Optional[MetricsRegistry] = None,
                 retry: Optional[RetryPolicy] = None, seed: int = 0,
                 compress: bool = False):
        if isinstance(manager_addr, RemoteInstance):
            inst = manager_addr
        else:
            inst = RemoteInstance(manager_addr, metrics=metrics,
                                  retry=retry, seed=seed, compress=compress)
        super().__init__(inst)

    def close(self) -> None:
        self.instance.close()

    def __enter__(self) -> "RemoteConnector":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
