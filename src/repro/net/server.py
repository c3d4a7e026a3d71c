"""Server side of the RPC fabric: what the wire adds to ``dbsim.server``.

Everything a tablet server and a manager *decide* is
:mod:`repro.dbsim.server` — the ``TabletServer``, ``ControlPlane`` and
``TabletIndex`` the in-process ``Instance`` runs.  This module puts
them behind sockets: two services, each a threaded TCP listener
speaking :mod:`repro.net.wire` frames, whose handlers decode a payload,
call one method, and encode the answer.

* :class:`TabletServerService` serves one ``TabletServer``: every
  op-code is one of its methods — ``SCAN`` its ``scan_tablet``,
  streamed as ``CHUNK`` frames, ``WRITE_BATCH`` its ``write_tablet``,
  ``TABLET_INFO`` its ``tablet_info`` — and the service adds only the
  wire: payload checks, the streamed scan's framing, and the wire form
  of a migrating tablet's state.  A TableMult step reaches the tablets
  of other servers through one
  :class:`~repro.net.client.RemoteTabletServer` per peer — a ``SCAN``
  and a stamped ``WRITE_BATCH`` on the service's own peer ``RpcCore``.
* :class:`ManagerService` serves one ``ControlPlane`` whose servers
  are ``RemoteTabletServer``\\ s — the same handle — and adds the
  cluster fan-outs through them (stats, metrics, crash / recover,
  status, shutdown).  A migrating tablet's state passes through it
  unopened, from one server's ``MIGRATE_OUT`` reply into the other's
  ``MIGRATE_IN`` request.  Splits — the owner splits in place, then
  each child moves to its round-robin home — are what make
  ``NotHostedError`` a real event remote clients must handle.

Concurrency model (wire v3, multiplexed): whoever reads a request
serves it.  Of a connection's lazily grown pool of threads, the one in
the *reader* role reads a request and answers it itself, passing the
role on only before it could block on the peer or hold the connection
long (:meth:`_BaseService._handoff`): a round trip wakes no thread
between socket and handler.  A unary request read while another of the
connection runs waits in a bounded FIFO for that one's thread (arrival
order preserved, which is what keeps per-tablet logical-clock
timestamps deterministic under pipelined writes).  Admission control
is the bound itself: a full FIFO or the per-connection scan cap
rejects the request *before it runs* with a typed ``BusyError`` frame
the client retries after backoff.  Every response carries the request
id of the frame that opened it, so unary acks and several scans'
``CHUNK`` streams interleave freely on one socket.

Every other handler runs under one per-service lock (a crash can
never interleave halfway through a write batch), but for two.  A scan
takes it only to find its tablet and slice the storage runs (private
copies); merging them, the storage pass, a pushed-down spec's stages
and the *streaming* all happen outside the lock — a concurrent crash
surfaces mid-stream as a typed error frame via the tablet's per-batch
crash check.  A TableMult step (``MULTIPLY_TABLETS``) takes it the same
way for each of its local reads, and for each local write.

Exactly-once writes: mutating requests carry ``(session, seq)``; the
service keeps a bounded per-session window of sequence number →
cached response and replays the cached ack when a retry of an
already-applied sequence arrives.  A *window* (not just the last seq)
because a pipelining client has several sequence numbers in flight at
once — any of them may need replay after a dropped ack.  The dedup
table survives a simulated crash, as a real server's would via its
write-ahead log.

:class:`TabletServerProcess` / :class:`ManagerProcess` run a service in
a child process via the multiprocessing ``spawn`` context (see
:class:`_ServiceProcess` for why not ``forkserver``), reporting the
bound address — or the exception that prevented one — back up a pipe.
Nothing imported here loads numpy: a child's start-up is its imports,
and a tablet server loads the kernels with the first block it
multiplies.
"""

from __future__ import annotations

import multiprocessing as mp
import socket
import sys
import threading
import time
import zlib
from collections import OrderedDict, deque
from functools import cached_property
from itertools import chain, islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dbsim.errors import BusyError
from repro.dbsim.iterators import Layer
from repro.dbsim.key import key_columns, sort_keys, sorted_disjoint
from repro.dbsim.server import (ControlPlane, MultSpec, TableConfig,
                                TabletServer, answers)
from repro.dbsim.sstable import SSTable
from repro.dbsim.stats import OpStats
from repro.dbsim.tablet import Tablet
from repro.dbsim.visibility import Authorizations
from repro.net import cells
from repro.net import iterspec as _iterspec
from repro.net import wire
from repro.net.client import (
    Addr,
    RemoteTabletServer,
    RetryPolicy,
    RpcCore,
    assignment_to_wire,
    format_addr,
    parse_addr,
    wire_to_assignments,
)
from repro.net.faults import FaultPlan, apply_fault
from repro.obs import sampling as _sampling
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry

#: cells per CHUNK frame on a streamed scan (bigger frames amortize
#: framing + syscalls now that chunks are packed binary, not JSON)
SCAN_CHUNK_CELLS = 2048

#: admission control: unary requests queued per connection before the
#: server sheds with BusyError
UNARY_QUEUE_DEPTH = 128

#: admission control: concurrent scan streams per connection
MAX_CONN_SCANS = 16

#: (seq → cached ack) entries kept per client session for exactly-once
#: replay; must exceed any client's in-flight mutation count
DEDUP_WINDOW = 256

#: the longest a tablet server process's thread runs while another
#: waits for the interpreter (CPython's default is 5 ms): a TableMult
#: step computes on one thread while others answer its peers' reads and
#: writes, and every such answer waits up to this long, once per
#: hand-off, behind the step
SWITCH_INTERVAL_S = 0.0005

#: handler span names, precomputed per op-code (per-request f-strings
#: are measurable on the traced RPC hot path)
_SERVER_SPAN_NAMES = {code: f"rpc.server.{name}"
                      for code, name in wire.OP_NAMES.items()}


def _binary(payload, op: str) -> wire.CellsPayload:
    """``payload`` when it is the packed cell block ``op`` carries; a
    JSON payload in its place is refused with a typed error."""
    if not isinstance(payload, wire.CellsPayload):
        raise ValueError(f"{op} takes a binary cell-block payload "
                         f"(FLAG_CELLS), not JSON")
    return payload


class _ConnState:
    """Shared per-connection state: the socket and its frame reader,
    the send lock (threads interleave whole frames, never bytes), the
    reader role, the unary FIFO, the admission bounds, the reorder
    fault's held-frame slot, and what a faulted server's draws name a
    request by."""

    __slots__ = ("sock", "frames", "send_lock", "cond", "reader", "idle",
                 "threads", "unary", "unary_busy", "scans", "cancelled",
                 "held", "alive", "ops_read", "numbers")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.frames = wire.FrameReader(sock)
        self.send_lock = threading.Lock()
        #: guards the fields from here to ``scans``
        self.cond = threading.Condition(threading.Lock())
        #: the ident of the reader role's holder; None: up for grabs
        self.reader: Optional[int] = None
        #: the connection's threads, and how many wait for the role
        self.threads, self.idle = 1, 0
        #: unary requests queued behind a running one; whether one runs
        self.unary: deque = deque()
        self.unary_busy = False
        #: admitted scan streams — the admission bound
        self.scans = 0
        #: request ids whose scans the client cancelled (CANCEL_SCAN)
        self.cancelled: set = set()
        #: reorder fault: one (frame, op) response awaiting the swap
        self.held: Optional[Tuple[bytes, int]] = None
        self.alive = True
        #: under a fault plan: per op, this connection's place among
        #: the op's senders and its requests read; and each request id
        #: still owed frames → (that place, its number among them)
        self.ops_read: Dict[int, List[int]] = {}
        self.numbers: Dict[int, Tuple[int, int]] = {}


class _Running:
    """A stamped request whose unlocked handler is still running: what
    a copy of it arriving meanwhile waits on, then answers with."""

    __slots__ = ("done", "answer")

    def __init__(self):
        self.done = threading.Event()
        self.answer: Optional[Tuple[int, object]] = None


class _BaseService:
    """Framed-RPC listener: accept loop, per-connection multiplexed
    dispatch, admission control, response-time fault injection, and
    windowed session/seq write dedup."""

    #: op-codes whose handlers run outside the service lock
    _UNLOCKED_OPS: frozenset = frozenset()

    def __init__(self, name: str, faults: Optional[FaultPlan] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.name = name
        self.faults = faults
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.RLock()
        self._listener: Optional[socket.socket] = None
        self._stopped = threading.Event()
        #: session → OrderedDict of seq → (response code, payload),
        #: FIFO-evicted past DEDUP_WINDOW entries
        self._dedup: Dict[str, "OrderedDict"] = {}
        #: (session, seq) → the unlocked request of that stamp running now
        self._running: Dict[tuple, _Running] = {}
        self.addr: Optional[Addr] = None

    # -- lifecycle --------------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0) -> Addr:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((host, port))
            listener.listen(64)
        except OSError:
            listener.close()
            raise
        listener.settimeout(0.2)  # so the accept loop notices stop()
        self._listener = listener
        self.addr = listener.getsockname()
        threading.Thread(target=self._accept_loop,
                         name=f"{self.name}-accept", daemon=True).start()
        return self.addr

    def stop(self) -> None:
        self._stopped.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass

    def wait(self) -> None:
        """Block until :meth:`stop` (used by server-process mains)."""
        self._stopped.wait()

    # -- connection handling ----------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._spawn(_ConnState(conn))

    def _spawn(self, state: _ConnState) -> None:
        threading.Thread(target=self._conn_loop, args=(state,),
                         name=f"{self.name}-conn", daemon=True).start()

    def _conn_loop(self, state: _ConnState) -> None:
        """One of the connection's threads: take the reader role when
        it is free, then read a request and serve it right here."""
        me = threading.get_ident()
        cond = state.cond
        try:
            while True:
                with cond:
                    while state.reader not in (None, me) and state.alive:
                        state.idle += 1
                        cond.wait()
                        state.idle -= 1
                    if not state.alive or self._stopped.is_set():
                        return
                    state.reader = me
                self._read_one(state)
        finally:
            with cond:  # one thread leaving ends the connection
                state.alive = False
                state.threads -= 1
                last = not state.threads
                cond.notify_all()
            if last:
                state.sock.close()

    def _handoff(self, state: _ConnState) -> None:
        """Pass the reader role on, if this thread holds it, to an idle
        thread of the connection, else a new one — before a send that
        would block, a fired fault, an unlocked handler or a scan's
        second batch.  At the thread bound (a reader, a unary request
        and :data:`MAX_CONN_SCANS` streams) this thread keeps it."""
        with state.cond:
            if state.reader != threading.get_ident():
                return
            if state.idle:
                state.reader = None
                state.cond.notify()
                return
            if state.threads >= MAX_CONN_SCANS + 2:
                return
            state.reader = None
            state.threads += 1
        self._spawn(state)

    def _read_one(self, state: _ConnState) -> None:
        """Read one frame as the connection's reader, then admit or
        shed it and serve it on this thread — or, behind a running
        unary request, queue it for that request's thread."""
        counters = self.metrics.counter
        try:
            code, payload, nread, tc, req = state.frames.read()
        except (wire.ConnectionClosedError, OSError):
            state.alive = False
            return
        except wire.ProtocolError as exc:
            # garbage in: answer with a typed error, then drop the
            # connection (framing state is unrecoverable)
            state.alive = False
            self._respond(state, wire.ERROR, wire.error_payload(exc), 0, 0)
            return
        arrived = time.perf_counter()
        if self.faults and code != wire.CANCEL_SCAN:  # it has no answer
            # the reader reads in order: numbers replay
            read = state.ops_read.get(code)
            if read is None:
                read = state.ops_read[code] = [self.faults.sender(code), 0]
            state.numbers[req] = tuple(read)
            read[1] += 1
        opname = wire.OP_NAMES.get(code, hex(code))
        counters("net.server.requests").inc()
        counters("net.server.bytes_received").inc(nread)
        counters(f"net.server.op.{opname}.bytes_received").inc(nread)
        if code == wire.CANCEL_SCAN:
            # fire-and-forget: no response frame; the stream's thread
            # notices at its next chunk boundary
            if isinstance(payload, dict) and payload.get("req"):
                state.cancelled.add(payload["req"])
            return
        item = (code, payload, tc, req, arrived)
        inflight = self.metrics.gauge("net.server.inflight")
        if self._stream_handler(code) is not None:
            with state.cond:
                admitted = state.scans < MAX_CONN_SCANS
                state.scans += admitted
            if not admitted:
                return self._shed(state, code, req, f"scan admission: "
                                  f"{MAX_CONN_SCANS} streams already "
                                  f"active on this connection")
            inflight.add(1)
            try:
                self._serve(state, *item)
            finally:
                with state.cond:
                    state.scans -= 1
                state.cancelled.discard(req)
                inflight.add(-1)
            return
        with state.cond:
            queued = state.unary_busy
            full = queued and len(state.unary) >= UNARY_QUEUE_DEPTH
            if queued and not full:
                state.unary.append(item)
            state.unary_busy = True
        if full:
            return self._shed(state, code, req, f"admission queue of "
                              f"{UNARY_QUEUE_DEPTH} requests is full")
        inflight.add(1)
        while not queued and item is not None:
            # one at a time, in arrival order: whoever finishes a unary
            # request serves the FIFO's head next
            try:
                self._serve(state, *item)
            finally:
                inflight.add(-1)
            with state.cond:
                item = state.unary.popleft() if state.unary else None
                state.unary_busy = item is not None

    def _shed(self, state: _ConnState, code: int, req: int,
              why: str) -> None:
        self.metrics.counter("net.server.busy_rejects").inc()
        self._respond(state, wire.ERROR, wire.error_payload(BusyError(why)),
                      code, req)

    def _serve(self, state: _ConnState, code: int, payload, tc,
               req: int, arrived: float) -> None:
        """Serve one request on this thread: run the handler and reply
        under the op's ``rpc.server.<op>`` span.  ``tc`` is the frame's
        trace context: the span parents under the originating client
        span, even across processes.  A streaming op's handler sends
        its own frames.

        A handler runs under the service lock, but one of
        :attr:`_UNLOCKED_OPS` — which takes the lock itself where it
        must — runs outside it, and a stamped copy of it arriving while
        the original still runs (a re-send after a lost connection) is
        answered with the original's answer once that is ready."""
        name = _SERVER_SPAN_NAMES.get(code) or f"rpc.server.{hex(code)}"
        with _trace.span(name, parent_ctx=_trace.TraceContext(*tc)
                         if tc else None, server=self.name) as sp:
            stream = self._stream_handler(code)
            if stream is not None:
                dispatched = time.perf_counter()
                stream(state, payload, req)
                self._observe_times(arrived, dispatched, sp)
                return
            meta = payload.meta if isinstance(payload, wire.CellsPayload) \
                else payload
            session = meta.get("session") if isinstance(meta, dict) else None
            seq = meta.get("seq") if isinstance(meta, dict) else None
            unlocked = code in self._UNLOCKED_OPS
            answer = running = mine = None
            with self._lock:
                # dispatch = the service lock is ours; everything before
                # this was queueing behind other requests
                dispatched = time.perf_counter()
                if session is not None:
                    window = self._dedup.get(session)
                    answer = window.get(seq) if window is not None else None
                    if answer is None:
                        running = self._running.get((session, seq))
                    if answer is not None or running is not None:
                        # a retry of an already-processed (or still
                        # running) mutation: replay the recorded ack, do
                        # not re-apply
                        self.metrics.counter("net.server.dedup_hits").inc()
                if answer is None and running is None:
                    if not unlocked:
                        answer = self._handle(code, payload)
                        self._remember(session, seq, answer)
                    elif session is not None:
                        mine = self._running[(session, seq)] = _Running()
            if running is not None or answer is None:
                # an unlocked op runs, or is waited for, as long as it
                # takes: the connection's reading goes on on another
                # thread
                self._handoff(state)
            if running is not None:
                running.done.wait()
                answer = running.answer
            elif answer is None:  # an unlocked op, run here
                try:
                    answer = self._handle(code, payload)
                finally:
                    if session is not None:
                        with self._lock:
                            self._remember(session, seq, answer)
                            del self._running[(session, seq)]
                        mine.answer = answer
                        mine.done.set()
            self._respond(state, *answer, code, req)
            self._observe_times(arrived, dispatched, sp)
        if code == wire.SHUTDOWN and answer[0] == wire.OK:
            # only now, with the handler span recorded: stop() releases
            # the process main, which closes the trace sink
            self.stop()
            state.alive = False
            try:  # unblock the reader without killing in-flight sends
                state.sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass

    def _handle(self, code: int, payload) -> Tuple[int, object]:
        """The handler's answer as ``(response code, payload)``: its
        return value (an op with nothing to report acks with an empty
        object), or the error it raised."""
        handler = self._ops.get(code)
        try:
            if handler is None:
                raise wire.ProtocolError(f"unsupported op-code {code:#x}")
            return wire.OK, handler(payload) or {}
        except Exception as exc:  # noqa: BLE001 - wire boundary
            self.metrics.counter("net.server.errors").inc()
            return wire.ERROR, wire.error_payload(exc)

    def _remember(self, session: Optional[str], seq,
                  answer: Optional[Tuple[int, object]]) -> None:
        """Record an applied mutation's ack for replay (caller holds
        the service lock).  Only *applied* mutations are replay-worthy:
        a failed handler applied nothing (write_batch prechecks the
        whole batch), and caching a transient error (e.g.
        ServerCrashedError before a recover) would replay the failure
        at the client forever."""
        if session is None or answer is None or answer[0] != wire.OK:
            return
        window = self._dedup.setdefault(session, OrderedDict())
        window[seq] = answer
        while len(window) > DEDUP_WINDOW:
            window.popitem(last=False)

    def _observe_times(self, arrived: float, dispatched: float,
                       sp) -> None:
        """Record queue (arrival → dispatch) and service (dispatch →
        reply) time, and mirror them onto the handler span ``sp`` so the
        stitched-trace breakdown can separate wait from work."""
        done = time.perf_counter()
        queue_s = max(dispatched - arrived, 0.0)
        service_s = max(done - dispatched, 0.0)
        self.metrics.histogram("net.server.queue_seconds").observe(queue_s)
        self.metrics.histogram("net.server.service_seconds").observe(
            service_s)
        sp.set(queue_s=queue_s, service_s=service_s)

    @staticmethod
    def _kill(state: _ConnState) -> None:
        """Tear the connection down *actively*: the reader thread is
        blocked in recv, so a flag alone would leave the socket open
        and the client waiting out its deadline instead of seeing the
        close and retrying immediately."""
        state.alive = False
        try:
            state.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _count_sent(self, request_op: int, nbytes: int) -> None:
        opname = wire.OP_NAMES.get(request_op, hex(request_op))
        self.metrics.counter("net.server.bytes_sent").inc(nbytes)
        self.metrics.counter(
            f"net.server.op.{opname}.bytes_sent").inc(nbytes)

    def _respond(self, state: _ConnState, code: int, payload,
                 request_op: int, req: int) -> int:
        """Send one response frame, tagged with its request id (see
        :meth:`_send`)."""
        return self._send(state, request_op, req, 0,
                          (code, wire.encode_frame(code, payload, req=req)))

    def _send(self, state: _ConnState, request_op: int, req: int,
              first: int, *frames: Tuple[int, bytes]) -> int:
        """Send request ``req``'s ``(code, frame)`` response frames,
        ``first`` being the place of the first in its response, in one
        write when no fault fires on any.  Returns their byte length, or
        0 (falsy) when a fault destroyed the connection.  The reader role
        passes on before anything here could block, so a client writing
        into a full window of unread answers cannot deadlock on them; a
        delay sleeps before the send lock, holding up no other answer.

        The reorder fault lives here: a fired reorder *holds* a unary
        response in the connection's one-frame slot; whatever response
        goes out next flushes it afterwards — so the client observes
        two responses in swapped arrival order and must route by
        request id.  Stream frames (CHUNK/DONE) are never held: order
        within a stream is contractual.
        """
        rules = ()
        if self.faults:
            # a response's last frame is not a CHUNK: its id is done
            owed = (state.numbers.get if frames[-1][0] == wire.CHUNK
                    else state.numbers.pop)
            sender, number = owed(req, (0, 0))
            rules = [self.faults.draw(request_op, sender, number, first + i)
                     for i in range(len(frames))]
        hold = (len(rules) == 1 and rules[0] is not None
                and rules[0].kind == "reorder"
                and frames[0][0] in (wire.OK, wire.ERROR)
                and state.held is None)
        if any(rules) and not hold:
            self._handoff(state)
            for rule in rules:
                if rule is not None and rule.kind == "delay":
                    time.sleep(rule.param)
        if not state.send_lock.acquire(blocking=False):
            self._handoff(state)
            state.send_lock.acquire()
        try:
            if hold:
                self.metrics.counter("net.server.faults.reorder").inc()
                state.held = (frames[0][1], request_op)
                return len(frames[0][1])
            if not any(rules):
                self._write(state, b"".join(frame for _, frame in frames))
            else:
                for (_, frame), rule in zip(frames, rules):
                    if rule is None:
                        state.sock.sendall(frame)
                    elif not apply_fault(rule, state.sock, frame,
                                         self.metrics):
                        self._kill(state)
                        return 0
            if state.held is not None:
                (hframe, hop), state.held = state.held, None
                self._write(state, hframe)
                self._count_sent(hop, len(hframe))
        except OSError:
            self._kill(state)
            return 0
        finally:
            state.send_lock.release()
        nbytes = sum(len(frame) for _, frame in frames)
        self._count_sent(request_op, nbytes)
        return nbytes

    def _write(self, state: _ConnState, data: bytes) -> None:
        """Put ``data`` on the socket (caller holds the send lock): the
        part it does not take at once only after the reader role moved."""
        try:
            sent = state.sock.send(data, socket.MSG_DONTWAIT)
        except BlockingIOError:
            sent = 0
        if sent < len(data):
            self._handoff(state)
            state.sock.sendall(memoryview(data)[sent:])

    # -- subclass hooks ---------------------------------------------------

    #: op-code → handler: a subclass's cached property, so the table is
    #: built once per service rather than once per request
    _ops: Dict[int, Callable[[dict], dict]]

    def _stream_handler(self, code: int):
        """Streaming ops (many response frames) bypass the normal
        request/response path; None means 'not a streaming op'."""
        return None


# -- tablet server ----------------------------------------------------------


def _tablet_state(tablet: Tablet) -> wire.CellsPayload:
    """The wire form of a tablet: its whole state as one cell block —
    memtable, WAL, then each run, their lengths in the meta's
    ``sections``."""
    sections = [tablet.memtable.sorted_run(),
                (tablet.wal.keys, tablet.wal.values),
                *((run.keys, run.values) for run in tablet.sstables)]
    keys = list(chain.from_iterable(keys for keys, _ in sections))
    values = list(chain.from_iterable(vals for _, vals in sections))
    return wire.CellsPayload(
        {"extent": wire.range_to_wire(tablet.extent),
         "clock": tablet._clock,
         "sections": [len(keys) for keys, _ in sections]},
        cells.encode_columns(*key_columns(keys), values))


def _state_tablet(state: wire.CellsPayload, config: TableConfig) -> Tablet:
    """The tablet a :func:`_tablet_state` payload describes."""
    meta = state.meta
    tablet = Tablet(wire.wire_to_range(meta["extent"]),
                    config.max_versions, config.flush_bytes)
    tablet._clock = meta["clock"]
    *key_cols, values = cells.decode_columns(state.block)
    keys, values = iter(sort_keys(*key_cols)), iter(values)
    memtable, wal, *runs = ((list(islice(keys, n)), list(islice(values, n)))
                            for n in meta["sections"])
    for run in runs:
        tablet.sstables.append(SSTable.from_run(*run))
    tablet.wal.extend(*wal)
    tablet.memtable.extend(*memtable)
    return tablet


def _coalesce(batches):
    """Pack the short batches a selective or folding stage leaves of
    full ones into chunks of up to :data:`SCAN_CHUNK_CELLS`: a
    pushed-down scan ships a CHUNK per chunkful of *surviving* cells,
    not one per storage batch.  Same cells, same order; a batch is
    never cut, so nothing is copied."""
    held = None
    for batch in batches:
        if held is None:
            held = batch
        elif len(held) + len(batch) <= SCAN_CHUNK_CELLS:
            held.extend(batch)
        else:
            yield held
            held = batch
    if held is not None:
        yield held


class TabletServerService(_BaseService):
    """One dbsim :class:`~repro.dbsim.server.TabletServer` behind a
    socket: its hosting, TableMult-step and failure-simulation ops as
    handlers, plus the data path (writes, streaming scans).

    A ``MULTIPLY_TABLETS`` step runs outside the service lock: the
    ``TabletServer`` takes it (its :attr:`~repro.dbsim.server.
    TabletServer.lock`) only to resolve a tablet and slice its runs
    and to apply a local write, never across a peer call — so two
    steps that write into and read from each other's tablets both go
    on, and a ``SCAN`` or ``WRITE_BATCH`` sent here mid-step is served
    before the step ends."""

    _UNLOCKED_OPS = frozenset({wire.MULTIPLY_TABLETS})

    def __init__(self, name: str, faults: Optional[FaultPlan] = None,
                 metrics: Optional[MetricsRegistry] = None):
        super().__init__(name, faults, metrics)
        self.tserver = TabletServer(name, self.metrics, lock=self._lock)
        #: the client core of this server's peer calls, made with the
        #: first TableMult step that needs another server, and one
        #: handle on it per peer, by name
        self._peer_core: Optional[RpcCore] = None
        self._peers: Dict[str, RemoteTabletServer] = {}

    @cached_property
    def _ops(self):
        tserver = self.tserver
        return {
            wire.PING: lambda p: {},
            wire.HOST_TABLET: self._host_tablet,
            wire.DROP_TABLE: lambda p: {
                "dropped": tserver.drop_table(p["table"])},
            wire.SPLIT_TABLET: self._split_tablet,
            wire.MIGRATE_OUT: lambda p: _tablet_state(
                tserver.release_tablet(p.get("table"), p["tablet_id"])),
            wire.MIGRATE_IN: self._migrate_in,
            wire.WRITE_BATCH: self._write_batch,
            wire.MULTIPLY_TABLETS: self._multiply_tablets,
            wire.FLUSH: lambda p: tserver.flush_table(p["table"]),
            wire.COMPACT: lambda p: tserver.compact_table(p["table"]),
            wire.CRASH: lambda p: tserver.crash(),
            wire.RECOVER: lambda p: tserver.recover(
                replay_wal=p.get("replay_wal", True)),
            wire.STATS: lambda p: tserver.stats.as_dict(),
            wire.METRICS: lambda p: self.metrics.export(),
            wire.TABLET_INFO: lambda p: tserver.tablet_info(
                p.get("table"), p["tablet_id"]),
            wire.STATUS: lambda p: tserver.status(),
            wire.SHUTDOWN: lambda p: {},
        }

    def _stream_handler(self, code: int):
        return self._scan_stream if code == wire.SCAN else None

    def stop(self) -> None:
        super().stop()
        if self._peer_core is not None:
            self._peer_core.close()

    # -- decode → TabletServer op → encode --------------------------------

    def _host_tablet(self, p: dict) -> None:
        self.tserver.host_tablet(
            p["table"], p["tablet_id"], wire.wire_to_range(p["extent"]),
            wire.wire_to_config(p["config"]) or TableConfig())

    def _split_tablet(self, p: dict) -> dict:
        left, right = self.tserver.split_tablet(
            p["table"], p["tablet_id"], p["split_row"],
            p["left_id"], p["right_id"])
        return {"left": wire.range_to_wire(left),
                "right": wire.range_to_wire(right)}

    def _migrate_in(self, p) -> None:
        meta = _binary(p, "MIGRATE_IN").meta
        config = wire.wire_to_config(meta["config"]) or TableConfig()
        self.tserver.adopt_tablet(meta["table"], meta["tablet_id"],
                                  _state_tablet(p, config), config)

    # -- the two-table op: decode → TabletServer op → encode --------------

    def _multiply_tablets(self, p: dict) -> dict:
        return self.tserver.multiply_tablets(
            p["table"], p["tablet_ids"], MultSpec.from_wire(p["spec"]),
            *(wire_to_assignments(p[key], self._peer)
              for key in ("b", "out", "mask")),
            p["base"], p["step"], p["steps"])

    def _peer(self, name: str, addr: str):
        """The server a wire assignment names: this server's own
        ``TabletServer`` — never a call over the wire to itself — or
        the peer's :class:`~repro.net.client.RemoteTabletServer`."""
        if name == self.name:
            return self.tserver
        with self._lock:
            peer = self._peers.get(name)
            if peer is None:
                if self._peer_core is None:
                    self._peer_core = RpcCore(metrics=self.metrics)
                peer = self._peers[name] = RemoteTabletServer(
                    self._peer_core, name, parse_addr(addr))
            return peer

    def _write_batch(self, p) -> dict:
        meta = _binary(p, "WRITE_BATCH").meta
        return {"applied": self.tserver.write_tablet(
            meta.get("table"), meta["tablet_id"],
            cells.decode_columns(p.block))}

    # -- the streamed scan ------------------------------------------------

    def _scan_stream(self, state: _ConnState, p: dict, req: int) -> None:
        counters = self.metrics.counter
        entered = emitted = 0  # cells into / out of the pushed-down layers
        held = ()  # the newest CHUNK, until the next batch is known
        frames = 0  # sent so far

        def send(*answer) -> int:
            """Send the held CHUNK, if any, then the ``(code,
            payload)`` frame ``answer`` names, if any."""
            nonlocal held, frames
            last = ((answer[0], wire.encode_frame(*answer, req=req)),) \
                if answer else ()
            nsent = self._send(state, wire.SCAN, req, frames, *held, *last)
            frames += len(held) + len(last)
            if nsent and held:
                counters("net.server.scan_chunks").inc()
                counters(f"net.server.table.{p.get('table')}.scan_bytes").inc(
                    len(held[0][1]) - wire.FRAME_OVERHEAD)
            held = ()
            return nsent

        def count_in(batches):
            nonlocal entered
            for batch in batches:
                entered += len(batch)
                yield batch

        try:
            # validate the push-down spec BEFORE touching the tablet: a
            # bad spec is a typed IterSpecError frame, never a scan
            spec = _iterspec.coerce(p.get("iterspec"))
            # the scan's authorizations ride the payload alongside the
            # spec (or alone, on a peer's TableMult read), and
            # scan_layers puts the visibility filter *under* the spec's
            # ops — the very tuple the in-process client hands its
            # tablets, plus, under a spec, a pass-through below it that
            # prices what the push-down kept off the wire
            push = (_iterspec.scan_layers(
                Authorizations(p.get("auths") or ()), spec)
                if spec or "auths" in p else ())
            if spec:
                # a reopen's skipped prefix passes it: counted as folded
                push = (Layer(count_in),) + push
            # the tablet's share of the scan's range set — required (a
            # missing key is a typed KeyError frame), and a payload
            # still carrying the single "range" it replaced is refused
            # rather than answered with the whole tablet.  This is the
            # wire boundary, so the slicer's precondition is checked here
            if "range" in p:
                raise ValueError('SCAN takes "ranges" (a sorted, disjoint '
                                 'list of [start, stop]), not "range"')
            ranges = [wire.wire_to_range(r) for r in p["ranges"]]
            if not sorted_disjoint(ranges):
                raise ValueError("SCAN ranges must be sorted and disjoint")
            columns = ([tuple(c) for c in p["columns"]]
                       if p.get("columns") else None)
            # the runs are sliced now, under the lock; merging them, the
            # storage pass and the layers' stages run as the batches
            # are pulled, outside it.  The CHUNK block is encoded from
            # each batch's columns — no Cell is built
            out = self.tserver.scan_tablet(
                p.get("table"), p["tablet_id"], ranges, push, columns,
                p.get("resume"), SCAN_CHUNK_CELLS)
            if spec:
                out = _coalesce(out)
                counters("net.server.pushdown.stacks").inc()
                counters("net.server.pushdown.ops").inc(len(spec))
            # one CHUNK per batch, then a bare DONE: the stream's only
            # clean end.  The newest CHUNK waits for the next batch to
            # show whether the stream goes on: a one-batch scan answers
            # in one write from the thread that read it, and a longer
            # one passes the reader role on before it streams
            for batch in out:  # crash check raises on the first
                emitted += len(batch)
                if req in state.cancelled or not state.alive:
                    return  # client stopped listening: stop producing
                if held:
                    self._handoff(state)
                    if not send():
                        return
                held = ((wire.CHUNK, wire.encode_frame(
                    wire.CHUNK, wire.CellsPayload({}, batch.to_block()),
                    req=req)),)
            send(wire.DONE, None)
        except Exception as exc:  # noqa: BLE001 - wire boundary
            counters("net.server.errors").inc()
            send(wire.ERROR, wire.error_payload(exc))
        finally:
            if entered > emitted:
                counters("net.server.pushdown.cells_folded").inc(
                    entered - emitted)


# -- manager ----------------------------------------------------------------


class ManagerService(_BaseService):
    """One :class:`~repro.dbsim.server.ControlPlane` behind a socket,
    plus the cluster fan-outs no single server can answer.  The plane's
    servers are :class:`~repro.net.client.RemoteTabletServer`\\ s, and
    every fan-out goes through them too."""

    def __init__(self, servers: Sequence[Tuple[str, Addr]],
                 faults: Optional[FaultPlan] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 name: str = "manager"):
        super().__init__(name, faults, metrics)
        # fan-out client: fewer, faster attempts than an end client —
        # a dead server should fail the management op, not hang it
        self.core = RpcCore(metrics=self.metrics,
                            retry=RetryPolicy(attempts=3, base=0.01,
                                              cap=0.1))
        self.plane = ControlPlane(
            [RemoteTabletServer(self.core, n, parse_addr(a))
             for n, a in servers], self.metrics)

    @cached_property
    def _ops(self):
        plane = self.plane
        return {
            wire.PING: lambda p: {},
            wire.CREATE_TABLE: self._create_table,
            wire.DELETE_TABLE: lambda p: plane.delete_table(p["name"]),
            wire.TABLE_EXISTS: lambda p: {
                "exists": plane.table_exists(p["name"])},
            wire.LIST_TABLES: lambda p: {"tables": plane.list_tables()},
            wire.ADD_SPLIT: lambda p: plane.add_split(p["table"], p["row"]),
            wire.SPLITS: lambda p: {"splits": plane.splits(p["table"])},
            wire.LOCATE: self._locate,
            wire.FLUSH: lambda p: plane.flush_table(p["table"]),
            wire.COMPACT: lambda p: plane.compact_table(p["table"]),
            wire.TABLE_MULT: lambda p: plane.table_mult(
                p["table"], MultSpec.from_wire(p["spec"])),
            wire.STATS: self._fan_stats,
            wire.METRICS: self._fan_metrics,
            wire.CRASH: lambda p: self._server(p["server"]).submit("crash")(),
            wire.RECOVER: lambda p: self._server(p["server"]).submit(
                "recover", p.get("replay_wal", True))(),
            wire.STATUS: self._status,
            wire.SHUTDOWN: self._shutdown_cluster,
        }

    def stop(self) -> None:
        super().stop()
        self.core.close()

    # -- the plane's ops that need more than a field lookup ----------------

    def _create_table(self, p: dict) -> None:
        # decoding validates: a config naming an unknown table iterator
        # is refused here, before the plane mints an id or picks a server
        self.plane.create_table(p["name"], wire.wire_to_config(p["config"]),
                                p.get("splits", ()))

    def _locate(self, p: dict) -> dict:
        meta = self.plane.table(p["table"])
        return {
            "version": meta.version,
            "config": wire.config_to_wire(meta.config),
            "tablets": [assignment_to_wire(a) for a in meta.index.entries],
        }

    # -- fan-out ops ------------------------------------------------------

    def _fan_out(self, op: str) -> Dict[str, dict]:
        """Every server's answer to ``op``, by name: sent to all of them
        before any answer is awaited, so the round trips overlap
        (:func:`~repro.dbsim.server.answers`)."""
        servers = self.plane.servers
        return dict(zip((server.name for server in servers),
                        answers([server.submit(op) for server in servers])))

    def _fan_stats(self, p: dict) -> dict:
        per_server = self._fan_out("stats")
        total = OpStats()
        for stats in per_server.values():
            total = total.merge(OpStats.from_dict(stats))
        return {"total": total.as_dict(), "servers": per_server}

    def _fan_metrics(self, p: dict) -> dict:
        return {"manager": self.metrics.export(),
                "servers": self._fan_out("metrics")}

    def _server(self, name: str) -> RemoteTabletServer:
        for server in self.plane.servers:
            if server.name == name:
                return server
        raise KeyError(f"no such tablet server: {name!r}")

    def _status(self, p: dict) -> dict:
        statuses = {}
        for server in self.plane.servers:
            try:
                status = server.submit("status")()
            except Exception as exc:  # noqa: BLE001 - a down server
                status = {"error": str(exc)}
            status["addr"] = format_addr(server.addr)
            statuses[server.name] = status
        return {"manager": self.name, "tables": self.plane.list_tables(),
                "servers": statuses}

    def _shutdown_cluster(self, p: dict) -> dict:
        for server in self.plane.servers:
            try:
                server.submit("shutdown")()
            except Exception:  # noqa: BLE001 - best effort on teardown
                pass
        return {}


# -- process wrappers --------------------------------------------------------


def _serve(pipe, build: Callable[[], _BaseService],
           trace_path: Optional[str], host: str, port: int,
           sample_rate: float) -> None:
    """A service child's whole life: build the service, listen, report
    the bound address up ``pipe`` — or the exception that got in the
    way, so the parent raises it typed instead of waiting out a
    timeout — then serve until stopped."""
    try:
        service = build()
        if sample_rate < 1.0:
            # head sampling + tail retention for this server process; the
            # counters land on the service registry so cluster metric
            # fan-outs report per-server sampling activity
            _sampling.configure(sample_rate, registry=service.metrics)
        if trace_path:
            # distinct per-process seeds (derived from the service name)
            # keep seeded runs reproducible without id collisions between
            # cooperating processes
            _trace.seed_ids(zlib.crc32(service.name.encode("utf-8")))
            _trace.enable(_trace.JSONLSink(trace_path, process=service.name))
        addr = service.start(host=host, port=port)
    except Exception as exc:
        try:
            pipe.send(exc)
        except Exception:  # noqa: BLE001 - unpicklable: keep its text
            pipe.send(RuntimeError(f"{type(exc).__name__}: {exc}"))
        raise
    pipe.send(addr)
    pipe.close()
    service.wait()
    if trace_path:
        _trace.disable(close=True)


def _fault_plan(fault_specs: Sequence[str],
                fault_seed: int) -> Optional[FaultPlan]:
    return (FaultPlan.from_specs(fault_specs, seed=fault_seed)
            if fault_specs else None)


def _tablet_server_main(pipe, name: str, fault_specs: Sequence[str],
                        fault_seed: int, trace_path: Optional[str],
                        host: str, port: int,
                        sample_rate: float = 1.0) -> None:
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    _serve(pipe, lambda: TabletServerService(
        name, faults=_fault_plan(fault_specs, fault_seed)),
        trace_path, host, port, sample_rate)


def _manager_main(pipe, fault_specs: Sequence[str], fault_seed: int,
                  trace_path: Optional[str], host: str, port: int,
                  sample_rate: float = 1.0) -> None:
    # the parent's first message names the tablet servers: the manager
    # is launched beside them, before any of them has an address
    _serve(pipe, lambda: ManagerService(
        [(n, tuple(a)) for n, a in pipe.recv()],
        faults=_fault_plan(fault_specs, fault_seed)),
        trace_path, host, port, sample_rate)


class _ServiceProcess:
    """Parent-side handle on a service child process: ``main(pipe,
    *args)`` runs in the child and reports the bound address — or why
    there is none — back up the pipe.

    The ``spawn`` context stays (3.14 made ``forkserver`` the POSIX
    default): the parent may hold threads and sockets a fork would
    copy, and a forkserver only pays when a bare interpreter can
    import ``repro`` to preload it, which a plain checkout run cannot.
    What a spawned child costs is its imports, so :meth:`launch` and
    :meth:`wait_addr` are separate: a cluster launches every child and
    then waits, and the imports overlap."""

    def __init__(self, main: Callable, args: tuple, process_name: str):
        self._main = main
        self._args = args
        self._process_name = process_name
        self._pipe = None
        self.process: Optional[mp.process.BaseProcess] = None
        self.addr: Optional[Addr] = None

    def launch(self) -> None:
        """Start the child; do not wait for it to listen.  The handle
        records the process and keeps the pipe only once the child has
        started: a failed start closes both ends and leaves nothing for
        :meth:`stop` to join."""
        ctx = mp.get_context("spawn")
        pipe, child_end = ctx.Pipe()
        try:
            process = ctx.Process(target=self._main,
                                  args=(child_end, *self._args),
                                  name=self._process_name, daemon=True)
            process.start()
        except BaseException:
            pipe.close()
            raise
        finally:
            # ours was the last other copy: once the child exits, a read
            # on the pipe sees EOF instead of blocking
            child_end.close()
        self.process, self._pipe = process, pipe

    def wait_addr(self, start_timeout: float = 30.0) -> Addr:
        """The launched child's bound address.  A child that could not
        start raises here what it raised there; one that died without
        a word is a ``RuntimeError`` with its exit code."""
        pipe, self._pipe = self._pipe, None
        try:
            if not pipe.poll(start_timeout):
                raise TimeoutError(
                    f"{self._process_name} reported no address within "
                    f"{start_timeout}s")
            msg = pipe.recv()
        except EOFError:
            self.process.join(1.0)
            raise RuntimeError(
                f"{self._process_name} exited with code "
                f"{self.process.exitcode} before listening") from None
        finally:
            pipe.close()
        if isinstance(msg, BaseException):
            raise msg
        self.addr = tuple(msg)
        return self.addr

    def start(self, start_timeout: float = 30.0) -> Addr:
        self.launch()
        return self.wait_addr(start_timeout)

    def stop(self, timeout: float = 5.0) -> None:
        """Join the child, terminating it if it has not exited within
        ``timeout`` (0: it was never told to stop — kill it now).  A
        child never started (or already stopped) is skipped."""
        if self._pipe is not None:  # launched, never waited for
            self._pipe.close()
            self._pipe = None
        if self.process is None:
            return
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(5.0)
        self.process = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class TabletServerProcess(_ServiceProcess):
    """A tablet server running as a real OS process on localhost."""

    def __init__(self, name: str, fault_specs: Sequence[str] = (),
                 fault_seed: int = 0, trace_path: Optional[str] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 sample_rate: float = 1.0):
        super().__init__(
            _tablet_server_main,
            (name, list(fault_specs), fault_seed, trace_path, host, port,
             sample_rate), f"repro-tserver-{name}")
        self.name = name


class ManagerProcess(_ServiceProcess):
    """The manager running as a real OS process on localhost.

    ``servers`` — ``(name, address)`` pairs — reach the child as the
    first message down its pipe, sent by :meth:`wait_addr`: a cluster
    launches the manager alongside its tablet servers and fills the
    attribute in once they have reported their addresses."""

    def __init__(self, servers: Sequence[Tuple[str, Addr]],
                 fault_specs: Sequence[str] = (), fault_seed: int = 0,
                 trace_path: Optional[str] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 sample_rate: float = 1.0):
        super().__init__(
            _manager_main,
            (list(fault_specs), fault_seed, trace_path, host, port,
             sample_rate), "repro-manager")
        self.servers = list(servers)

    def wait_addr(self, start_timeout: float = 30.0) -> Addr:
        try:
            self._pipe.send([(n, tuple(a)) for n, a in self.servers])
        except OSError:
            pass  # the child is gone: the read below says how
        return super().wait_addr(start_timeout)
