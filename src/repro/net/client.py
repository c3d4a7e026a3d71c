"""The remote side of the client API: RemoteConnector and friends.

:class:`RemoteConnector` subclasses :class:`~repro.dbsim.client.
Connector` and swaps its backend for a :class:`RemoteInstance` that
speaks the :mod:`repro.net.wire` protocol to a manager + tablet-server
fleet.  Scanner, BatchScanner and BatchWriter are reused *unchanged*:
they only ever touch ``conn.instance`` (a
:class:`~repro.dbsim.backend.ConnectorBackend`, whose routing both
backends share).  Its locate cache holds what the manager's index
holds, :class:`~repro.dbsim.server.Assignment`\\ s, each ``server``
one :class:`RemoteTabletServer` per tablet server — the handle the
manager's plane and a TableMult step use too — where the local backend
holds the :class:`~repro.dbsim.server.TabletServer` itself.

Transport: :class:`RpcCore` keeps one persistent wire-v3 connection
(:class:`_Conn`) per server and every in-flight RPC interleaves on it
by request id — a scan stream, a flush's write batches and a locate
RPC share one socket.  There is no I/O thread and no event loop:
whoever waits for a response reads the socket, so a round trip is a
``sendall``, a ``select`` and two ``recv_into`` on the calling thread.

Reliability model:

* every RPC but a kernel op (``TABLE_MULT``, which waits for its
  answer) has a response deadline; transport failures (closed
  connection, timeout, CRC-corrupt frame),
  :class:`~repro.dbsim.errors.ServerCrashedError` and
  :class:`~repro.dbsim.errors.BusyError` (server admission control)
  retry with exponential backoff + decorrelated jitter (seeded) — one
  judgement (:meth:`RpcCore.judge`) for a unary call's attempt and a
  scan stream's;
* mutating RPCs carry a ``(session, seq)`` pair the server dedups on
  over a bounded per-session window, so retried ``write_batch``
  frames whose acks were lost are applied exactly once;
* :class:`~repro.dbsim.errors.NotHostedError` (a split migrated the
  tablet, or the location cache is stale) triggers a re-``locate``
  through the manager and re-routing — in a write batch's answer for
  writes, in the client scan's re-plan (with a resume key) for scans;
  a scan's reopens and re-plans are written once, for both backends,
  in :mod:`repro.dbsim.backend` (``TabletRead``, ``ConnectorBackend``);
* write batches and scan chunks travel as packed binary cell blocks
  (:mod:`repro.net.cells`), not JSON.

A BatchWriter flush sends each tablet's batch as a ``write_tablet`` to
its server handle — one stamped ``WRITE_BATCH`` — and awaits the
answers before it sends the next flush, as it does in process.

Everything counts into ``net.client.*`` metrics and (when tracing is
enabled) emits ``rpc.client.*`` spans.
"""

from __future__ import annotations

import os
import random
import select
import socket
import threading
import time
from collections import deque
from dataclasses import asdict
from itertools import count
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.dbsim.backend import ConnectorBackend, _pushdown
from repro.dbsim.client import Connector
from repro.dbsim.errors import BusyError, NotHostedError, ServerCrashedError
from repro.dbsim.iterators import Columns
from repro.dbsim.key import Range
from repro.dbsim.server import Assignment, TableConfig, TableMeta, TabletIndex
from repro.dbsim.stats import OpStats
from repro.net import cells as _cells
from repro.net import wire
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry, global_registry

__all__ = [
    "Addr", "RetryPolicy", "RpcCore", "RemoteInstance", "RemoteConnector",
    "RemoteTabletServer", "StreamOverrunError", "format_addr", "parse_addr",
]

Addr = Tuple[str, int]


def parse_addr(addr: Union[str, Addr]) -> Addr:
    """``"host:port"`` → ``(host, port)`` (tuples pass through)."""
    if isinstance(addr, tuple):
        return addr
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad address {addr!r}: want host:port")
    return host, int(port)


def format_addr(addr: Addr) -> str:
    return f"{addr[0]}:{addr[1]}"


class RetryPolicy:
    """Deadline + backoff knobs for one client.

    ``attempts`` bounds tries per RPC (and per scan-stream reopen);
    ``deadline`` is the per-RPC response timeout in seconds.  Backoff
    is decorrelated jitter: ``sleep = min(cap, uniform(base, 3·prev))``
    — retries spread out instead of thundering in lockstep.
    """

    def __init__(self, attempts: int = 8, base: float = 0.02,
                 cap: float = 0.5, deadline: float = 5.0,
                 connect_timeout: float = 5.0):
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        self.attempts = attempts
        self.base = base
        self.cap = cap
        self.deadline = deadline
        self.connect_timeout = connect_timeout

    def next_sleep(self, prev: Optional[float], rng: random.Random) -> float:
        if prev is None:
            return self.base
        return min(self.cap, rng.uniform(self.base, prev * 3))


# -- the multiplexed connection ---------------------------------------------


class StreamOverrunError(RuntimeError):
    """A scan stream outran its consumer while another request's waiter
    was reading the connection, and was locally killed so that reader
    never blocks or buffers without bound.  Resume from the last
    delivered key — nothing was lost, only not-yet-delivered chunks
    dropped."""


#: chunks a scan stream may buffer ahead of its consumer before the
#: connection's reader kills it (each chunk is SCAN_CHUNK_CELLS cells)
STREAM_WINDOW_CHUNKS = 64

#: a response frame as its waiter receives it: (op-code, payload, bytes)
Frame = Tuple[int, Any, int]


class _Stream:
    """One request's response frames on a :class:`_Conn` — a unary
    call's single answer or a scan's ``CHUNK`` run — filled by whichever
    waiter is reading the connection."""

    __slots__ = ("conn", "req", "opname", "unary", "frames", "exc", "ended",
                 "t0", "arrived")

    def __init__(self, conn: "_Conn", req: int, opname: str, unary: bool):
        self.conn = conn
        self.req = req
        self.opname = opname
        self.unary = unary
        self.frames: "deque[Frame]" = deque()
        #: the failure that ended this request; raised once ``frames``
        #: is drained (real progress is delivered first) and on every
        #: read after that
        self.exc: Optional[BaseException] = None
        self.ended = False
        self.t0 = time.perf_counter()
        #: when a unary answer was read off the socket — the end of the
        #: RPC, however much later its caller gets round to it
        self.arrived: Optional[float] = None

    # -- reader side: called under the connection's condition --------------

    def push(self, frame: Frame) -> bool:
        """Take one routed frame.  False once the request wants no more
        (answered, ended, or shed for overrunning its window): the
        reader then forgets the request id."""
        if self.ended:
            return False
        if not self.unary and len(self.frames) >= STREAM_WINDOW_CHUNKS:
            self.fail(StreamOverrunError(
                f"scan stream req={self.req} buffered "
                f"{STREAM_WINDOW_CHUNKS} undelivered chunks"))
            return False
        self.frames.append(frame)
        if self.unary:
            self.arrived = time.perf_counter()
        self.ended = self.unary or frame[0] in (wire.DONE, wire.ERROR)
        return not self.ended

    def fail(self, exc: BaseException) -> None:
        if not self.ended:
            self.ended = True
            self.exc = exc

    # -- consumer side ------------------------------------------------------

    def get(self, timeout: Optional[float]) -> Frame:
        """The next frame; raises the request's failure (overrun,
        corrupt, closed) or ``TimeoutError`` (never, for ``None``)."""
        return self.conn.wait(self, timeout)

    def get_many(self, timeout: float) -> List[Frame]:
        """Wait for one frame, then take whatever else is already
        buffered or already readable on the socket — one call delivers
        every ``CHUNK`` that has arrived.  A failure queued behind
        delivered frames is left for the next call."""
        frames = [self.conn.wait(self, timeout)]
        while frames[-1][0] not in (wire.DONE, wire.ERROR):
            try:
                frames.append(self.conn.wait(self, 0.0))
            except Exception:  # noqa: BLE001 - nothing more yet, or
                break          # terminal: raised by the next read
        return frames

    def abandon(self) -> None:
        """Stop waiting for this request (a deadline passed): its late
        frames count as ``net.client.stale_frames``; the connection and
        every other request on it carry on."""
        self.conn.pending.pop(self.req, None)

    def cancel(self) -> None:
        """Abandon a scan and tell the server (best-effort) to stop
        producing for it.

        Safe from ``__del__`` — any thread, at any allocation, maybe one
        that holds this connection's locks: nothing here blocks.  The
        CANCEL_SCAN goes out now if the write lock is free, else with
        (right after) the send that holds it or the next one."""
        conn = self.conn
        self.abandon()
        if conn.closed:
            return
        conn.cancels.append(self.req)
        if conn.wlock.acquire(blocking=False):
            try:
                conn.flush_cancels()
            except OSError:
                pass
            finally:
                conn.wlock.release()


class _Conn:
    """One persistent multiplexed connection to one server: a blocking
    socket with no thread of its own.

    Writers serialise whole frames under ``wlock``.  Readers take
    turns: :meth:`wait` makes the caller *the* reader when nobody else
    is, and it reads and routes frames — its own and everybody else's —
    until its own arrives or its deadline passes; other waiters sleep
    on ``cond`` until their frame is routed or the role comes free.

    * a **deadline** abandons only its own request — between frames or
      inside one (:class:`~repro.net.wire.FrameReader` keeps the
      partial frame for the next reader);
    * a **corrupt frame** fails the whole connection: the request id
      is inside the CRC-covered region, so nothing about the frame can
      be trusted, and every pending request gets
      :class:`~repro.net.wire.FrameCorruptError` and retries on a
      fresh socket;
    * a **closed/reset** connection likewise fails all pending
      requests with :class:`~repro.net.wire.ConnectionClosedError`;
    * nothing is read while nobody waits, so a scan whose consumer
      **stalls** is held by TCP back-pressure, not buffered here.  Only
      when another request's waiter reads past it can a stream exceed
      :data:`STREAM_WINDOW_CHUNKS`; it is then shed with
      :class:`StreamOverrunError` (the reader must get to its own
      frame) and the scan resumes from its last delivered key.
    """

    def __init__(self, addr: Addr, sock: socket.socket,
                 metrics: MetricsRegistry, on_close) -> None:
        self.addr = addr
        self.closed = False
        self.sock = sock
        self.wlock = threading.Lock()
        self.cond = threading.Condition(threading.Lock())
        #: req id → the request still owed frames
        self.pending: Dict[int, _Stream] = {}
        #: cancelled scans whose CANCEL_SCAN is yet to go out
        self.cancels: List[int] = []
        self._reader = wire.FrameReader(sock, socket.MSG_DONTWAIT)
        self._reading = False
        self._next_req = 0
        self._metrics = metrics
        self._on_close = on_close

    # -- sending ------------------------------------------------------------

    def open(self, opname: str, unary: bool) -> _Stream:
        with self.cond:
            self._next_req += 1
            stream = _Stream(self, self._next_req, opname, unary)
            self.pending[stream.req] = stream
        return stream

    def send(self, code: int, payload: Any, tc=None, req: int = 0) -> int:
        """Write one frame from the calling thread.  This cannot
        deadlock against responses nobody is reading: the server's
        reader never blocks on a send to us, so it keeps draining
        what we send however many answers are waiting in our socket."""
        data = wire.encode_frame(code, payload, tc=tc, req=req)
        try:
            with self.wlock:
                if self.closed:
                    raise wire.ConnectionClosedError(
                        f"connection to {format_addr(self.addr)} is closed")
                self.sock.sendall(data)
                if self.cancels:
                    self.flush_cancels()
        except OSError as exc:
            # the peer is gone: fail the connection, so the next attempt
            # dials afresh instead of writing to the dead socket again
            # (nobody may be reading it to notice)
            self.fail(exc)
            raise
        return len(data)

    def flush_cancels(self) -> None:
        """Send the queued CANCEL_SCANs (caller holds ``wlock``)."""
        while self.cancels:
            self.sock.sendall(wire.encode_frame(
                wire.CANCEL_SCAN, {"req": self.cancels.pop()}))

    # -- receiving ----------------------------------------------------------

    def wait(self, stream: _Stream, timeout: Optional[float]) -> Frame:
        """The next frame of ``stream``: one already routed, else read
        the socket for it (as the connection's one reader) or wait for
        whoever is reading to route it.  A ``timeout`` of ``None``
        waits until the frame comes or the connection fails."""
        deadline = None if timeout is None else time.monotonic() + timeout
        cond = self.cond
        with cond:
            while True:
                frame = self._take(stream)
                if frame is not None:
                    return frame
                if not self._reading:
                    self._reading = True
                    break
                if deadline is None:
                    cond.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"no {stream.opname} response within {timeout}s")
                cond.wait(remaining)
        try:
            while True:
                read = self._read(deadline)
                with cond:
                    if read is not None:
                        self._route(*read)
                        cond.notify_all()
                    frame = self._take(stream)
                if frame is not None:
                    return frame
                if read is None:
                    raise TimeoutError(
                        f"no {stream.opname} response within {timeout}s")
        finally:
            # every exit — frame delivered, deadline, failure — frees
            # the reader role, and someone asleep may need to take it
            with cond:
                self._reading = False
                cond.notify_all()

    def _take(self, stream: _Stream) -> Optional[Frame]:
        """``stream``'s next routed frame, else its failure, else None
        (caller holds ``cond``)."""
        if stream.frames:
            return stream.frames.popleft()
        if stream.exc is not None:
            raise stream.exc
        if self.closed:
            raise wire.ConnectionClosedError(
                f"connection to {format_addr(self.addr)} is closed")
        return None

    def _read(self, deadline: Optional[float]):
        """One frame off the socket, or None when ``deadline`` (``None``:
        never) passes first — before the frame starts or part-way
        through it.  A broken connection fails every pending request
        and reads as None; the caller finds its failure on its stream."""
        sock = self.sock
        try:
            while True:
                remaining = (None if deadline is None
                             else max(deadline - time.monotonic(), 0.0))
                if not select.select((sock,), (), (), remaining)[0]:
                    return None
                try:
                    return self._reader.read()
                except BlockingIOError:
                    continue  # mid-frame: the reader kept what it has
        except wire.ProtocolError as exc:
            # corrupt (the req id is inside the damaged region) or
            # garbage framing: nothing on this connection can be
            # attributed any more
            self.fail(exc)
        except (wire.ConnectionClosedError, OSError, ValueError):
            # ValueError: another thread's fail() closed the socket
            # between two selects (its fileno is -1 by now)
            self.fail(wire.ConnectionClosedError(
                f"connection to {format_addr(self.addr)} lost"))
        return None

    def _route(self, code: int, payload: Any, nread: int, _tc,
               req: int) -> None:
        counters = self._metrics.counter
        counters("net.client.bytes_received").inc(nread)
        stream = self.pending.get(req)
        if stream is None:
            # an abandoned request's late response (timeout, cancelled
            # scan, reorder fault past a retry)
            counters("net.client.stale_frames").inc()
            return
        counters(f"net.client.op.{stream.opname}.bytes_received").inc(nread)
        if not stream.push((code, payload, nread)):
            self.pending.pop(req, None)

    def fail(self, exc: BaseException) -> None:
        """Close the connection and fail every pending request."""
        with self.cond:
            if self.closed:
                return
            self.closed = True
            pending, self.pending = self.pending, {}
            for stream in pending.values():
                stream.fail(exc)
            self.cond.notify_all()
        try:
            # wakes a reader blocked in select before the fd goes away
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._on_close(self)


class _Call:
    """A unary RPC already sent (:meth:`RpcCore.submit`): ``result()``
    waits for its answer, retrying if the first attempt was lost.
    Resolve it once.

    A traced call's span runs from the send to the end of ``result()``;
    its ``unawaited_s`` attribute is how long the call sat sent with
    nobody waiting for it — time the caller spent on other work, which
    the RPC breakdown keeps out of ``network_s``."""

    __slots__ = ("_core", "_args", "_first", "_span", "_sent", "_wait")

    def __init__(self, core: "RpcCore", args: tuple, first, span,
                 wait: bool = False):
        self._core = core
        self._args = args
        self._first = first
        self._span = span
        self._sent = time.perf_counter()
        self._wait = wait

    def result(self):
        span = self._span
        span.set(unawaited_s=time.perf_counter() - self._sent)
        error = None
        try:
            return self._core._call(*self._args, first=self._first,
                                    wait=self._wait)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.finish(error)


#: what one failed attempt calls for (:meth:`RpcCore.judge`)
RETRY, RELOCATE = "retry", "relocate"
#: the failures a retry after backoff can mend, most specific first,
#: each with the counter it bumps: a late answer, a stream the reader
#: shed, an admission shed (it never ran, so a re-send is always safe),
#: a corrupt frame (its connection failed itself), a closed connection,
#: a crashed server that will come back
_RETRYABLE = ((TimeoutError, "timeouts"),
              (StreamOverrunError, "stream_overruns"),
              (BusyError, "busy_retries"), (wire.FrameCorruptError, None),
              (OSError, None), (ServerCrashedError, None))


class RpcCore:
    """The client's RPC core: connections, the retry loop, sessions.

    One core per :class:`RemoteInstance` (the manager process also owns
    one for server fan-out), safe to share between threads.  ``submit``
    sends a request now and answers it later (``result()``), with the
    full retry taxonomy; ``call`` is the two at once.  ``open_stream``
    opens a scan.  ``submit_mutate`` stamps a mutating request with
    this core's session id and a monotonically increasing sequence
    number, at submission; a retry re-sends the *same* sequence number,
    which is what lets the server replay the cached ack instead of
    re-applying.  ``mutate`` is the two at once.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 retry: Optional[RetryPolicy] = None, seed: int = 0):
        self.metrics = metrics if metrics is not None else global_registry()
        self.retry = retry if retry is not None else RetryPolicy()
        self.session = os.urandom(8).hex()
        self._rng = random.Random(seed)
        self._seq = count(1)
        #: guards ``_conns``, and is held while dialing
        self._lock = threading.Lock()
        self._conns: Dict[Addr, _Conn] = {}
        # pre-register the health counters so a metrics export always
        # shows them (at 0), not only after the first retry/timeout
        for name in ("requests", "retries", "timeouts", "relocates",
                     "errors", "busy_retries", "pool_evictions",
                     "stale_frames", "sampled_out"):
            self.metrics.counter(f"net.client.{name}")
        # cached: bumped per unsampled call span on the hot path
        self._sampled_out = self.metrics.counter("net.client.sampled_out")

    # -- connections ------------------------------------------------------

    def _deregister(self, conn: _Conn) -> None:
        with self._lock:
            if self._conns.get(conn.addr) is conn:
                del self._conns[conn.addr]
                self.metrics.counter("net.client.pool_evictions").inc()

    def _conn(self, addr: Addr) -> _Conn:
        """The live connection to ``addr``, dialed under the core lock:
        at most once per address however many callers race here."""
        counters = self.metrics.counter
        with self._lock:
            conn = self._conns.get(addr)
            if conn is not None and not conn.closed:
                counters("net.client.pool_hits").inc()
                return conn
            counters("net.client.pool_misses").inc()
            sock = socket.create_connection(
                addr, timeout=self.retry.connect_timeout)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = self._conns[addr] = _Conn(
                addr, sock, self.metrics, on_close=self._deregister)
            return conn

    def close(self) -> None:
        with self._lock:
            conns, self._conns = list(self._conns.values()), {}
        for conn in conns:
            conn.fail(wire.ConnectionClosedError("connection closed"))

    # -- the retry taxonomy -----------------------------------------------

    def judge(self, exc: Exception) -> str:
        """What one failed attempt of a call or a scan calls for, counted
        as such: :data:`RETRY` it after backoff, :data:`RELOCATE`
        (``NotHostedError``: the tablet moved), or — returning nothing —
        raise ``exc``: a protocol error (version skew, garbage framing),
        or any other typed error, which counts in ``net.client.errors``."""
        for kind, counter in _RETRYABLE:
            if isinstance(exc, kind):
                if counter:
                    self.metrics.counter(f"net.client.{counter}").inc()
                return RETRY
        if isinstance(exc, NotHostedError):
            self.metrics.counter("net.client.relocates").inc()
            return RELOCATE
        if not isinstance(exc, wire.ProtocolError):
            self.metrics.counter("net.client.errors").inc()
        raise exc

    def backoff(self, prev: Optional[float]) -> float:
        """Sleep before a retry; returns the sleep, ``prev`` of the next."""
        sleep = self.retry.next_sleep(prev, self._rng)
        time.sleep(sleep)
        self.metrics.counter("net.client.retries").inc()
        return sleep

    def exhausted(self, what: str, attempts: int) -> wire.RpcError:
        """The error that ends ``what`` after ``attempts`` failed tries."""
        self.metrics.counter("net.client.errors").inc()
        return wire.RpcError(f"{what} failed after {attempts} attempts")

    # -- RPCs -------------------------------------------------------------

    def _send(self, addr: Addr, op: int, payload, tc=None,
              unary: bool = True) -> _Stream:
        """Register a request on ``addr``'s connection and send it."""
        counters = self.metrics.counter
        opname = wire.OP_NAMES.get(op, hex(op))
        counters("net.client.requests").inc()
        stream = self._conn(addr).open(opname, unary)
        try:
            nsent = stream.conn.send(op, payload, tc=tc, req=stream.req)
        except BaseException:
            stream.abandon()
            raise
        counters("net.client.bytes_sent").inc(nsent)
        counters(f"net.client.op.{opname}.bytes_sent").inc(nsent)
        return stream

    def _call(self, addr: Addr, op: int, payload, tc=None,
              first=None, wait: bool = False) -> Any:
        """One RPC's attempts, judged by :meth:`judge`.  ``first`` is
        the first attempt, which :meth:`submit` made: the sent request,
        or the error its send raised.  ``wait`` drops the response
        deadline (see :meth:`mutate`)."""
        hist = self.metrics.histogram("net.client.rpc_seconds")
        timeout = None if wait else self.retry.deadline
        sleep: Optional[float] = None
        last_exc: Optional[BaseException] = None
        for attempt in range(self.retry.attempts):
            if attempt:
                sleep = self.backoff(sleep)
            sent, first = first, None
            stream: Optional[_Stream] = None
            try:
                if isinstance(sent, BaseException):
                    raise sent
                stream = sent or self._send(addr, op, payload, tc)
                code, resp, _nread = stream.get(timeout)
                hist.observe((stream.arrived or time.perf_counter())
                             - stream.t0)
                if code == wire.OK:
                    return resp
                if code != wire.ERROR:
                    raise wire.ProtocolError(
                        f"unexpected response op-code {code:#x} to "
                        f"{stream.opname}")
                wire.raise_error(resp)
            except Exception as exc:
                if stream is not None:
                    stream.abandon()
                if self.judge(exc) is RELOCATE:
                    raise  # the caller re-locates and re-routes
                last_exc = exc
        raise self.exhausted(
            f"{wire.OP_NAMES.get(op, hex(op))} to {format_addr(addr)}",
            self.retry.attempts) from last_exc

    def _stamp(self, payload):
        """Copy ``payload`` with this core's session + a fresh seq (the
        dedup identity), for dict and binary-cell payloads alike."""
        # next() on the counter is atomic: it never waits behind a dial
        stamp = {"session": self.session, "seq": next(self._seq)}
        if isinstance(payload, wire.CellsPayload):
            return wire.CellsPayload({**payload.meta, **stamp}, payload.block)
        return {**payload, **stamp}

    def call(self, addr: Addr, op: int, payload,
             wait: bool = False) -> dict:
        """One RPC, answered: :meth:`submit` and its ``result()``."""
        return self.submit(addr, op, payload, wait).result()

    def mutate(self, addr: Addr, op: int, payload,
               wait: bool = False) -> dict:
        """One mutating RPC, answered: :meth:`submit_mutate` and its
        ``result()``.

        ``wait=True`` is for a request whose handler runs as long as
        its work does (a kernel): no response deadline, so the call
        waits for its answer however long that takes.  Only a failed
        connection re-sends it — the same stamp, which the server's
        dedup window answers with the first run's ack."""
        return self.submit_mutate(addr, op, payload, wait).result()

    def submit(self, addr: Addr, op: int, payload,
               wait: bool = False) -> _Call:
        """The request goes out now, on this thread; the returned
        handle's ``result()`` waits for the answer (and owns the
        retries, should this attempt be lost) — with no response
        deadline under ``wait``, as :meth:`mutate`'s."""
        # detached: it ends in result(), maybe under another span
        # stack.  Every attempt carries its identity, so a server span
        # reached on the Nth try parents under the one call
        sp = _trace.start_span(
            "rpc.client.call", op=wire.OP_NAMES.get(op, op),
            server=format_addr(addr), session=self.session)
        tc = sp.context
        if not sp.sampled:
            self._sampled_out.inc()
        try:
            first = self._send(addr, op, payload, tc)
        except Exception as exc:  # noqa: BLE001 - result() judges it
            first = exc
        return _Call(self, (addr, op, payload, tc), first, sp, wait)

    def submit_mutate(self, addr: Addr, op: int, payload,
                      wait: bool = False) -> _Call:
        """:meth:`submit` of a mutating request: stamped now, sent now,
        answered later.  The caller owns the order in which it waits
        (and thereby per-tablet ordering)."""
        return self.submit(addr, op, self._stamp(payload), wait)

    # -- scan streams -----------------------------------------------------

    def open_stream(self, addr: Addr, op: int, payload, tc=None) -> _Stream:
        """Send a streaming request; its frames arrive on the returned
        :class:`_Stream` (no retry here: a tablet's read reopens it,
        :class:`~repro.dbsim.backend.TabletRead`, knowing the key)."""
        return self._send(addr, op, payload, tc, unary=False)


# -- scan streaming ---------------------------------------------------------


class _TabletScan:
    """One tablet's range-set ``SCAN``, one stream: what
    :meth:`RemoteTabletServer.scan_tablet` returns.  Iterating it
    yields decoded :class:`~repro.net.cells.ColumnBatch`\\ es — one per
    pull, merging every CHUNK that has already arrived — and never
    materialises a ``Cell``.  The request is sent when the scan is
    made.  A failure (a lost, late, corrupt or overrun stream, an
    ``ERROR`` frame) is raised once the batches before it are
    delivered; resuming past them is the reader's
    (:class:`~repro.dbsim.backend.TabletRead`)."""

    def __init__(self, server: "RemoteTabletServer", payload: dict):
        self._stream: Optional[_Stream] = None
        self._error: Optional[dict] = None  # an ERROR frame's payload
        # detached: a scan stream stays open across iterator pulls, so
        # its span cannot be lexically scoped.  Closed by close()
        self._span = _trace.start_span(
            "rpc.client.scan", op="scan", table=payload["table"],
            server=format_addr(server.addr))
        self._chunks = self._bytes = 0
        self._core = server.core
        try:
            self._stream = server.core.open_stream(
                server.addr, wire.SCAN, payload, tc=self._span.context)
        except BaseException:
            self.close()
            raise

    def __iter__(self) -> "_TabletScan":
        return self

    def __next__(self) -> _cells.ColumnBatch:
        """The next non-empty batch (every buffered CHUNK merged)."""
        counters = self._core.metrics.counter
        batch: Optional[_cells.ColumnBatch] = None
        while batch is None:
            if self._error is not None:
                wire.raise_error(self._error)
            if self._stream is None:
                raise StopIteration
            try:
                # one pull: every frame the stream has delivered — it
                # ends on its DONE or ERROR
                frames = self._stream.get_many(self._core.retry.deadline)
            except Exception:
                self.close()
                raise
            for code, payload, nread in frames:
                if code == wire.CHUNK:
                    decoded = _cells.decode_batch(payload.block)
                    counters("net.client.scan_chunks").inc()
                    if len(decoded):
                        if batch is None:
                            batch = decoded
                        else:
                            batch.extend(decoded)
                    self._chunks += 1
                    self._bytes += nread
                elif code in (wire.DONE, wire.ERROR):
                    self.close()
                    # an ERROR is raised by the next pull, after ``batch``
                    self._error = payload if code == wire.ERROR else None
                else:
                    self.close()
                    raise wire.ProtocolError(
                        f"unexpected frame {code:#x} in scan stream")
        return batch

    def close(self) -> None:
        """Stop the stream, if open: the server stops producing."""
        span, self._span = self._span, None
        if span is not None:
            if self._chunks:
                span.set(chunks=self._chunks, bytes=self._bytes)
            span.finish()
        stream, self._stream = self._stream, None
        if stream is not None and not stream.ended:
            stream.cancel()

    def __del__(self):  # abandoned mid-stream: stop the server's work
        try:
            self.close()
        except Exception:
            pass


# -- the backend ------------------------------------------------------------


#: the ops a :class:`RemoteTabletServer` sends unstamped: each one's
#: op-code and the payload fields its arguments fill, in order
_PLAIN_OPS = {"flush_table": (wire.FLUSH, ("table",)),
              "compact_table": (wire.COMPACT, ("table",)),
              "tablet_info": (wire.TABLET_INFO, ("table", "tablet_id")),
              "crash": (wire.CRASH, ()),
              "recover": (wire.RECOVER, ("replay_wal",)),
              "stats": (wire.STATS, ()), "metrics": (wire.METRICS, ()),
              "status": (wire.STATUS, ()), "shutdown": (wire.SHUTDOWN, ())}


class RemoteTabletServer:
    """A tablet server on the other side of a socket, as the manager's
    :class:`~repro.dbsim.server.ControlPlane`, another server's
    TableMult step and a client's locate cache see it:
    :class:`~repro.dbsim.server.TabletServer`'s
    method names, each one request on ``core``.  ``submit(op, *args)``
    sends ``op`` — one of those, or a service's ``stats``, ``metrics``,
    ``status`` or ``shutdown`` — now and waits in the call it returns,
    so requests to several servers overlap.  ``release_tablet`` returns
    the ``MIGRATE_OUT`` reply, which ``adopt_tablet`` sends on as it
    came.  :meth:`scan_tablet` is the one read of a remote tablet: a
    client scan's of each tablet, and a TableMult step's of a peer's
    (the plane's steps all run while the manager handles their op, so
    no tablet splits or migrates under a step)."""

    def __init__(self, core: RpcCore, name: str, addr: Addr):
        self.core = core
        self.name = name
        self.addr = addr

    def _send(self, op: int, fields, mutate: bool = False
              ) -> Callable[[], dict]:
        """Send ``op`` now — stamped for exactly-once when ``mutate`` —
        and return the call that waits for its answer."""
        submit = self.core.submit_mutate if mutate else self.core.submit
        return submit(self.addr, op, fields).result

    def submit(self, op: str, *args) -> Callable[[], object]:
        if op in _PLAIN_OPS:
            code, fields = _PLAIN_OPS[op]
            return self._send(code, dict(zip(fields, args)))
        return getattr(self, f"_{op}")(*args)

    def _host_tablet(self, table: str, tablet_id: str, extent: Range,
                     config: TableConfig):
        return self._send(wire.HOST_TABLET, {
            "table": table, "tablet_id": tablet_id,
            "extent": wire.range_to_wire(extent),
            "config": wire.config_to_wire(config)}, mutate=True)

    def _drop_table(self, table: str):
        answer = self._send(wire.DROP_TABLE, {"table": table}, mutate=True)
        return lambda: answer()["dropped"]

    def _write_tablet(self, table: str, tablet_id: str, columns):
        # one stamped WRITE_BATCH of one encoded block: the server's
        # dedup window applies it exactly once however often a lost ack
        # re-sends it
        answer = self._send(wire.WRITE_BATCH, wire.CellsPayload(
            {"table": table, "tablet_id": tablet_id},
            _cells.encode_columns(*columns)), mutate=True)
        return lambda: answer()["applied"]

    def _multiply_tablets(self, table_at: str, tablet_ids: Sequence[str],
                          spec, b: Sequence, out: Sequence, mask: Sequence,
                          base: int, step: int, steps: int):
        # a step takes as long as its tablets take, so its answer is
        # waited for however long; a re-send after a lost connection is
        # answered by the first run, running or done
        return self.core.submit_mutate(self.addr, wire.MULTIPLY_TABLETS, {
            "table": table_at, "tablet_ids": list(tablet_ids),
            "spec": asdict(spec), "b": [assignment_to_wire(a) for a in b],
            "out": [assignment_to_wire(a) for a in out],
            "mask": [assignment_to_wire(a) for a in mask],
            "base": base, "step": step, "steps": steps}, wait=True).result

    def split_tablet(self, table: str, tablet_id: str, split_row: str,
                     left_id: str, right_id: str) -> Tuple[Range, Range]:
        resp = self._send(wire.SPLIT_TABLET, {
            "table": table, "tablet_id": tablet_id, "split_row": split_row,
            "left_id": left_id, "right_id": right_id}, mutate=True)()
        return (wire.wire_to_range(resp["left"]),
                wire.wire_to_range(resp["right"]))

    def release_tablet(self, table: str, tablet_id: str) -> wire.CellsPayload:
        return self._send(wire.MIGRATE_OUT, {
            "table": table, "tablet_id": tablet_id}, mutate=True)()

    def adopt_tablet(self, table: str, tablet_id: str,
                     state: wire.CellsPayload, config: TableConfig) -> None:
        self._send(wire.MIGRATE_IN, wire.CellsPayload(
            {**state.meta, "table": table, "tablet_id": tablet_id,
             "config": wire.config_to_wire(config)}, state.block),
            mutate=True)()

    def scan_tablet(self, table: str, tablet_id: str,
                    ranges: Sequence[Range], layers: Sequence = (),
                    columns: Columns = None, resume: Optional[list] = None
                    ) -> _TabletScan:
        """One range-set ``SCAN`` of one tablet, sent now, as one stream
        (:class:`_TabletScan`); ``layers`` — each with a wire form — run
        in the server, which sizes the batches and skips to ``resume``
        (an open with one counts in ``net.client.scan_resumes``)."""
        if resume is not None:
            self.core.metrics.counter("net.client.scan_resumes").inc()
        return _TabletScan(self, {
            "table": table, "tablet_id": tablet_id,
            "columns": [list(c) for c in columns] if columns else None,
            **_pushdown([layer.op for layer in layers]),
            "ranges": [wire.range_to_wire(r) for r in ranges],
            "resume": resume or None})

    def retry_scan(self, exc: Exception, table: str, attempts: int,
                   sleep: Optional[float]) -> Optional[float]:
        """Rule by :meth:`RpcCore.judge` on a failed stream of one of
        this server's tablets, reopened ``attempts`` times since its
        last batch: raise ``exc`` (``NotHostedError`` too), or the
        exhausted error once the budget is spent, or return the sleep
        of the backoff past the first reopen, the next ruling's ``sleep``."""
        core = self.core
        if core.judge(exc) is RELOCATE:
            raise exc
        if attempts >= core.retry.attempts:
            raise core.exhausted(f"scan of {table!r}", attempts) from exc
        return core.backoff(sleep) if attempts else sleep


def assignment_to_wire(entry: Assignment) -> dict:
    """One tablet with where it lives: an entry of a ``LOCATE`` reply
    and of a TableMult step's plan."""
    return {"tablet_id": entry.tablet_id,
            "extent": wire.range_to_wire(entry.extent),
            "server": entry.server.name,
            "addr": format_addr(entry.server.addr)}


def wire_to_assignments(items: Sequence[dict],
                        server: Callable[[str, str], object]
                        ) -> List[Assignment]:
    """Wire assignments, each ``server`` resolved from its name and
    address by ``server(name, addr)`` to a handle: a client's or a
    peer's :class:`RemoteTabletServer`, or a service's own
    :class:`~repro.dbsim.server.TabletServer`."""
    return [Assignment(item["tablet_id"], wire.wire_to_range(item["extent"]),
                       server(item["server"], item["addr"]))
            for item in items]


class RemoteInstance(ConnectorBackend):
    """The :class:`~repro.dbsim.backend.ConnectorBackend` that speaks
    the wire protocol: table ops go to the manager; the data path goes
    straight to tablet servers, routed by a cached ``LOCATE`` reply
    (one per table until something moves) through one
    :class:`RemoteTabletServer` per server, on this client's core."""

    def __init__(self, manager_addr: Union[str, Addr],
                 metrics: Optional[MetricsRegistry] = None,
                 retry: Optional[RetryPolicy] = None, seed: int = 0):
        self.manager_addr = parse_addr(manager_addr)
        self.core = RpcCore(metrics=metrics, retry=retry, seed=seed)
        self.metrics = self.core.metrics
        self._cache: Dict[str, TableMeta] = {}
        #: server name → its handle, made with the first route to it
        self._servers: Dict[str, RemoteTabletServer] = {}

    # -- locate cache -----------------------------------------------------

    def invalidate(self, name: Optional[str] = None) -> None:
        if name is None:
            self._cache.clear()
        else:
            self._cache.pop(name, None)

    def table(self, name: str) -> TableMeta:
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        resp = self.core.call(self.manager_addr, wire.LOCATE,
                              {"table": name})
        cached = TableMeta(
            wire.wire_to_config(resp["config"]),
            TabletIndex(wire_to_assignments(resp["tablets"], self._server)),
            resp["version"])
        self._cache[name] = cached
        return cached

    def _server(self, name: str, addr: str) -> RemoteTabletServer:
        server = self._servers.get(name)
        if server is None:
            server = self._servers.setdefault(name, RemoteTabletServer(
                self.core, name, parse_addr(addr)))
        return server

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
        return self.table(name).config

    # -- tablet location --------------------------------------------------

    def add_split(self, name: str, split_row: str) -> None:
        self.core.mutate(self.manager_addr, wire.ADD_SPLIT,
                         {"table": name, "row": split_row})
        self.invalidate(name)

    def splits(self, name: str) -> List[str]:
        return self.core.call(self.manager_addr, wire.SPLITS,
                              {"table": name})["splits"]

    # -- maintenance ------------------------------------------------------

    def flush_table(self, name: str) -> None:
        self.core.call(self.manager_addr, wire.FLUSH, {"table": name})

    def compact_table(self, name: str) -> None:
        self.core.call(self.manager_addr, wire.COMPACT, {"table": name})

    # -- kernels ----------------------------------------------------------

    def table_mult(self, table_at: str, spec) -> dict:
        """The whole two-table op — a TableMult, or its one-table
        form — as one request to the manager, which runs it
        on the tablet servers: neither operand nor the result crosses
        this client's sockets.  Stamped, so an ack lost on the way back
        replays instead of writing twice."""
        return self.core.mutate(self.manager_addr, wire.TABLE_MULT,
                                {"table": table_at, "spec": asdict(spec)},
                                wait=True)

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

    def shutdown_cluster(self) -> None:
        self.core.call(self.manager_addr, wire.SHUTDOWN, {})

    # -- observability ----------------------------------------------------

    def total_stats(self) -> OpStats:
        resp = self.core.call(self.manager_addr, wire.STATS, {})
        return OpStats.from_dict(resp["total"])

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
                 retry: Optional[RetryPolicy] = None, seed: int = 0):
        if isinstance(manager_addr, RemoteInstance):
            inst = manager_addr
        else:
            inst = RemoteInstance(manager_addr, metrics=metrics,
                                  retry=retry, seed=seed)
        super().__init__(inst)

    def close(self) -> None:
        self.instance.close()

    def __enter__(self) -> "RemoteConnector":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
