"""The asyncio multiplexed RPC core under the blocking client facade.

One :class:`_MuxConn` per server address carries every in-flight RPC
this client has against that server: requests go out tagged with a
connection-scoped request id (wire v3), a single reader task routes
response frames back to their callers by id, and hundreds of calls
share the socket instead of checking sockets in and out of a pool.
:class:`AsyncRpcCore` owns the connections plus the retry loop; the
synchronous ``RpcCore`` in :mod:`repro.net.client` is a thin facade
that drives this core from a private event-loop thread, so
``RemoteInstance``/``RemoteConnector`` and everything above them stay
blocking APIs.

Failure semantics on a multiplexed connection:

* a **timeout** abandons only its own request id (the eventual
  response is dropped as a stale frame) — the connection and every
  other in-flight request keep going;
* a **corrupt frame** fails the whole connection: the request id is
  inside the CRC-covered region, so nothing about the frame can be
  trusted, and every pending request gets
  :class:`~repro.net.wire.FrameCorruptError` and retries on a fresh
  socket;
* a **closed/reset** connection likewise fails all pending requests
  with :class:`~repro.net.wire.ConnectionClosedError`;
* a :class:`~repro.dbsim.errors.BusyError` response (server admission
  control shed the request before running it) retries after backoff —
  always safe, the server applied nothing.

Scan streams are queues fed by the reader task.  The reader must never
block on a slow scan consumer (the same connection carries write acks
— blocking would deadlock the pipeline), so an overfull stream queue
kills *that stream* with :class:`StreamOverrunError`; the scan
iterator above resumes from its last delivered key on a fresh stream.
"""

from __future__ import annotations

import asyncio
import random
import socket
import time
from typing import Any, Dict, Optional, Tuple, Union

from repro.dbsim.errors import BusyError, NotHostedError, ServerCrashedError
from repro.net import wire
from repro.obs.metrics import MetricsRegistry

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


class StreamOverrunError(RuntimeError):
    """A scan stream outran its consumer and was locally killed so the
    connection's reader never blocks.  Resume from the last delivered
    key — nothing was lost, only not-yet-delivered chunks dropped."""


#: chunks a scan stream may buffer ahead of its consumer before the
#: reader kills it (each chunk is SCAN_CHUNK_CELLS cells)
STREAM_WINDOW_CHUNKS = 64


class _Stream:
    """One scan's response-frame queue, fed by the connection reader."""

    __slots__ = ("req", "opname", "queue", "ended")

    def __init__(self, req: int, opname: str):
        self.req = req
        self.opname = opname
        self.queue: asyncio.Queue = asyncio.Queue()
        self.ended = False

    def push(self, code: int, payload: Any, nread: int) -> str:
        """Reader-task side.  Returns ``"ok"`` (stream continues),
        ``"end"`` (terminal frame queued) or ``"overrun"``."""
        if self.ended:
            return "end"
        if self.queue.qsize() >= STREAM_WINDOW_CHUNKS:
            self.fail(StreamOverrunError(
                f"scan stream req={self.req} buffered "
                f"{STREAM_WINDOW_CHUNKS} undelivered chunks"))
            return "overrun"
        self.queue.put_nowait((code, payload, nread))
        if code in (wire.DONE, wire.ERROR):
            self.ended = True
            return "end"
        return "ok"

    def fail(self, exc: BaseException) -> None:
        """Queue ``exc`` after any already-buffered chunks — the
        consumer drains real progress first, then sees the failure."""
        if self.ended:
            return
        self.ended = True
        self.queue.put_nowait(exc)

    async def get(self, timeout: float) -> Tuple[int, Any, int]:
        item = await asyncio.wait_for(self.queue.get(), timeout)
        if isinstance(item, BaseException):
            self.queue.put_nowait(item)  # stays terminal for re-reads
            raise item
        return item

    async def get_many(self, timeout: float) -> list:
        """Await one frame, then drain whatever else the reader already
        queued — one consumer wakeup delivers every buffered CHUNK
        instead of paying a loop round-trip per frame.

        Buffered progress is delivered before failure: if an exception
        sits behind queued frames, those frames are returned now and
        the exception re-queues for the *next* call.
        """
        first = await asyncio.wait_for(self.queue.get(), timeout)
        if isinstance(first, BaseException):
            self.queue.put_nowait(first)  # stays terminal for re-reads
            raise first
        items = [first]
        if first[0] in (wire.DONE, wire.ERROR):
            return items
        spins = 0
        while True:
            try:
                item = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                # Opportunistic coalescing: the next frame's bytes are
                # often already on the socket, but the selector poll and
                # the reader task that turn them into queued frames
                # haven't had a loop iteration yet.  A few zero-delay
                # yields cost microseconds and can save the consumer a
                # whole cross-thread wakeup for the follow-on frame.
                if spins >= 3:
                    return items
                spins += 1
                await asyncio.sleep(0)
                continue
            spins = 0
            if isinstance(item, BaseException):
                self.queue.put_nowait(item)  # surfaced on the next call
                return items
            items.append(item)
            if item[0] in (wire.DONE, wire.ERROR):
                return items


class _MuxConn:
    """One persistent multiplexed connection to one server."""

    def __init__(self, addr: Addr, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, metrics: MetricsRegistry,
                 on_close) -> None:
        self.addr = addr
        self.closed = False
        self._reader = reader
        self._writer = writer
        self._metrics = metrics
        self._on_close = on_close
        self._wlock = asyncio.Lock()
        self._next_req = 0
        #: req → ("unary", future, opname) | ("stream", _Stream)
        self._pending: Dict[int, tuple] = {}
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(
            self._read_loop())

    # -- registration -----------------------------------------------------

    def _new_req(self) -> int:
        self._next_req += 1
        return self._next_req

    def register_unary(self, opname: str) -> Tuple[int, asyncio.Future]:
        req = self._new_req()
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[req] = ("unary", fut, opname)
        return req, fut

    def register_stream(self, opname: str) -> _Stream:
        req = self._new_req()
        stream = _Stream(req, opname)
        self._pending[req] = ("stream", stream)
        return stream

    def abandon(self, req: int) -> None:
        """Forget a request (timeout / cancelled scan); its eventual
        response frames count as ``net.client.stale_frames``."""
        self._pending.pop(req, None)

    # -- I/O ---------------------------------------------------------------

    async def send(self, code: int, payload: Any, tc=None, req: int = 0,
                   compress: bool = False) -> int:
        data = wire.encode_frame(code, payload, tc=tc, req=req,
                                 compress=compress)
        async with self._wlock:
            if self.closed:
                raise wire.ConnectionClosedError(
                    f"connection to {format_addr(self.addr)} is closed")
            self._writer.write(data)
            await self._writer.drain()
        return len(data)

    async def _read_loop(self) -> None:
        counters = self._metrics.counter
        try:
            while True:
                hdr = await self._reader.readexactly(wire._LEN.size)
                (length,) = wire._LEN.unpack(hdr)
                if length > wire.MAX_FRAME_BYTES:
                    raise wire.ProtocolError(
                        f"frame length {length} exceeds "
                        f"{wire.MAX_FRAME_BYTES} byte cap")
                body = await self._reader.readexactly(length)
                code, payload, _tc, req = wire.decode_body(body)
                nread = wire._LEN.size + length
                counters("net.client.bytes_received").inc(nread)
                entry = self._pending.get(req)
                if entry is None:
                    # an abandoned request's late response (timeout,
                    # cancelled scan, reorder fault past a retry)
                    counters("net.client.stale_frames").inc()
                    continue
                if entry[0] == "unary":
                    _, fut, opname = entry
                    del self._pending[req]
                    counters(
                        f"net.client.op.{opname}.bytes_received").inc(nread)
                    if not fut.done():
                        fut.set_result((code, payload, nread))
                else:
                    stream = entry[1]
                    counters(f"net.client.op.{stream.opname}"
                             f".bytes_received").inc(nread)
                    if stream.push(code, payload, nread) != "ok":
                        del self._pending[req]
        except wire.FrameCorruptError as exc:
            # the req id is inside the corrupted region: nothing on
            # this connection can be attributed any more
            self._fail(exc)
        except wire.ProtocolError as exc:
            self._fail(exc)
        except (asyncio.IncompleteReadError, wire.ConnectionClosedError,
                OSError):
            self._fail(wire.ConnectionClosedError(
                f"connection to {format_addr(self.addr)} lost"))
        except asyncio.CancelledError:
            self._fail(wire.ConnectionClosedError("client shutting down"))
            raise

    def _fail(self, exc: BaseException) -> None:
        if self.closed:
            return
        self.closed = True
        pending, self._pending = self._pending, {}
        for entry in pending.values():
            if entry[0] == "unary":
                fut = entry[1]
                if not fut.done():
                    fut.set_exception(exc)
            else:
                entry[1].fail(exc)
        try:
            self._writer.close()
        except Exception:  # noqa: BLE001 - teardown is best-effort
            pass
        self._on_close(self)

    async def aclose(self) -> None:
        task = self._task
        self._fail(wire.ConnectionClosedError("connection closed"))
        if task is not None and not task.done():
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass


class AsyncRpcCore:
    """Connection management + the retry loop, entirely on one loop.

    The public surface (``call`` / ``open_stream`` / ``cancel_stream``
    / ``aclose``) is what the sync facade schedules onto the loop
    thread; a native-async client may drive it directly.  Mutating
    requests arrive here already stamped with ``(session, seq)`` — the
    facade owns session identity so retries and pipelined flushes
    re-send the same sequence numbers the server dedups on.
    """

    def __init__(self, metrics: MetricsRegistry, retry: RetryPolicy,
                 seed: int = 0):
        self.metrics = metrics
        self.retry = retry
        self._rng = random.Random(seed)
        self._conns: Dict[Addr, _MuxConn] = {}
        self._dials: Dict[Addr, asyncio.Future] = {}

    # -- connections -------------------------------------------------------

    def _deregister(self, conn: _MuxConn) -> None:
        if self._conns.get(conn.addr) is conn:
            del self._conns[conn.addr]
            self.metrics.counter("net.client.pool_evictions").inc()

    async def _dial(self, addr: Addr) -> _MuxConn:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(addr[0], addr[1]),
            self.retry.connect_timeout)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _MuxConn(addr, reader, writer, self.metrics,
                        on_close=self._deregister)
        conn.start()
        self._conns[addr] = conn
        return conn

    async def conn(self, addr: Addr) -> _MuxConn:
        """The live connection to ``addr`` (dialing at most once per
        address however many callers race here)."""
        counters = self.metrics.counter
        existing = self._conns.get(addr)
        if existing is not None and not existing.closed:
            counters("net.client.pool_hits").inc()
            return existing
        dial = self._dials.get(addr)
        if dial is None or dial.done():
            counters("net.client.pool_misses").inc()
            dial = asyncio.ensure_future(self._dial(addr))
            self._dials[addr] = dial
            # a lone failed dial must not warn about an unretrieved
            # exception after every waiter has moved on
            dial.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None)
        else:
            counters("net.client.pool_hits").inc()
        try:
            return await asyncio.shield(dial)
        finally:
            if self._dials.get(addr) is dial and dial.done():
                del self._dials[addr]

    # -- unary RPCs --------------------------------------------------------

    async def call(self, addr: Addr, op: int, payload: Any, tc=None,
                   compress: bool = False) -> Any:
        """One RPC with the full retry taxonomy; mirrors the wire-v2
        blocking client's behaviour plus BUSY backoff."""
        counters = self.metrics.counter
        hist = self.metrics.histogram("net.client.rpc_seconds")
        opname = wire.OP_NAMES.get(op, hex(op))
        sleep: Optional[float] = None
        last_exc: Optional[BaseException] = None
        for attempt in range(self.retry.attempts):
            if attempt:
                sleep = self.retry.next_sleep(sleep, self._rng)
                await asyncio.sleep(sleep)
                counters("net.client.retries").inc()
            counters("net.client.requests").inc()
            t0 = time.perf_counter()
            conn: Optional[_MuxConn] = None
            req = 0
            try:
                conn = await self.conn(addr)
                req, fut = conn.register_unary(opname)
                nsent = await conn.send(op, payload, tc=tc, req=req,
                                        compress=compress)
                counters("net.client.bytes_sent").inc(nsent)
                counters(f"net.client.op.{opname}.bytes_sent").inc(nsent)
                code, resp, _nread = await asyncio.wait_for(
                    fut, self.retry.deadline)
            except (asyncio.TimeoutError, TimeoutError) as exc:
                counters("net.client.timeouts").inc()
                if conn is not None and req:
                    conn.abandon(req)
                last_exc = exc
                continue
            except wire.FrameCorruptError as exc:
                last_exc = exc  # connection already failed itself
                continue
            except wire.ProtocolError:
                raise  # version skew / garbage framing: not transient
            except (wire.ConnectionClosedError, OSError) as exc:
                last_exc = exc
                continue
            hist.observe(time.perf_counter() - t0)
            if code == wire.OK:
                return resp
            if code == wire.ERROR:
                try:
                    wire.raise_error(resp)
                except ServerCrashedError as exc:
                    last_exc = exc  # server will come back: retry
                    continue
                except BusyError as exc:
                    # admission shed: never ran server-side, so backing
                    # off and re-sending is always safe
                    counters("net.client.busy_retries").inc()
                    last_exc = exc
                    continue
                except NotHostedError:
                    counters("net.client.relocates").inc()
                    raise  # caller re-locates and re-routes
                except Exception:
                    counters("net.client.errors").inc()
                    raise
            raise wire.ProtocolError(
                f"unexpected response op-code {code:#x} to {opname}")
        counters("net.client.errors").inc()
        raise wire.RpcError(
            f"{opname} to {format_addr(addr)} failed after "
            f"{self.retry.attempts} attempts") from last_exc

    # -- scan streams ------------------------------------------------------

    async def open_stream(self, addr: Addr, op: int, payload: Any,
                          tc=None) -> _Stream:
        """Send a streaming request; frames arrive on the returned
        :class:`_Stream` (no retry here — the scan iterator owns the
        resume/retry policy because only it knows the resume key)."""
        counters = self.metrics.counter
        opname = wire.OP_NAMES.get(op, hex(op))
        conn = await self.conn(addr)
        stream = conn.register_stream(opname)
        counters("net.client.requests").inc()
        try:
            nsent = await conn.send(op, payload, tc=tc, req=stream.req)
        except BaseException:
            conn.abandon(stream.req)
            raise
        counters("net.client.bytes_sent").inc(nsent)
        counters(f"net.client.op.{opname}.bytes_sent").inc(nsent)
        return stream

    async def stream_get(self, stream: _Stream,
                         timeout: float) -> Tuple[int, Any, int]:
        return await stream.get(timeout)

    async def cancel_stream(self, addr: Addr, stream: _Stream) -> None:
        """Stop caring about a stream: deregister it and tell the
        server (best-effort) to stop producing chunks for it."""
        conn = self._conns.get(addr)
        if conn is None:
            return
        conn.abandon(stream.req)
        if not conn.closed:
            try:
                await conn.send(wire.CANCEL_SCAN, {"req": stream.req})
            except (wire.ConnectionClosedError, OSError):
                pass

    async def aclose(self) -> None:
        dials = list(self._dials.values())
        self._dials.clear()
        for dial in dials:
            dial.cancel()
        conns = list(self._conns.values())
        self._conns.clear()
        for conn in conns:
            await conn.aclose()
