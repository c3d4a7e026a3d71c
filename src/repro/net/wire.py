"""The framed wire protocol spoken between repro.net clients and servers.

Every message is one *frame*::

    !I   body_length          (frame header, 4 bytes, network order)
    !B   wire version         (body starts here)
    !B   op-code
    !B   flags                (payload encoding: bit0 cells)
    !I   CRC-32 of trace context + request id + payload
    !16s trace id             (trace context block, 25 bytes;
    !8s  span id               all zeros = no context attached)
    !B   tc flags             (bit0: trace is head-sampled)
    !Q   request id           (multiplexing tag; 0 = unmultiplexed)
    ...  payload              (UTF-8 JSON, or binary — see flags)

Wire version 3 is the multiplexed protocol: every frame carries an
8-byte request id inside the CRC-covered region, so one persistent
socket can interleave hundreds of in-flight RPCs — responses route
back to their callers by id instead of by socket ownership, and scan
``CHUNK`` streams interleave with write acks on the same connection.
Version 2 added the fixed trace-context block (the raw bytes of the
sender's :class:`~repro.obs.trace.TraceContext`) so a server can
parent its handler spans under the originating client span;
``repro.obs.stitch`` later merges per-process trace files by
``trace_id``.  The block's trailing flags byte carries the head-
sampling decision (``TC_SAMPLED``), CRC-covered like the ids, so every
process in a request's path records — or skips recording — the same
trace without re-deciding.  All-zero blocks mean "no context" (real
contexts always have nonzero ids) — tracing off costs no branches on
the framing path, only constant bytes.

The flags byte selects the payload encoding.  ``0`` is UTF-8 JSON —
control-plane ops are strings-and-numbers and stay readable.
``FLAG_CELLS`` marks the packed binary cell-block payload of
:mod:`repro.net.cells` (optionally prefixed by a JSON meta dict) used
on the hot ops: scan ``CHUNK`` frames and ``WRITE_BATCH`` mutation
batches, where JSON spends most of the frame on quoting.  Any other
flag bit is refused as a :class:`ProtocolError`.

The CRC covers trace context + request id + payload, and turns the
fault injector's corrupt-frame fault (and any real transport
corruption) into a typed :class:`FrameCorruptError`, instead of a
parse error deep in a handler.  On a multiplexed connection a CRC
failure is fatal to the *connection* (the request id itself is
untrusted), so the client fails all pending requests and retries them
on a fresh socket.

Request op-codes occupy 1..0x3F; response codes 0x40..0x4F.  A normal
RPC is one request frame → one ``OK`` (or ``ERROR``) frame; a scan is
one request frame → N ``CHUNK`` frames → one bare ``DONE`` frame, the
only clean end, any of which may be replaced by ``ERROR`` mid-stream —
all tagged with the request id of the frame that opened them.

Error frames carry ``{"type", "message"}`` and are decoded back into
the *same* exception types the in-process backend raises
(``KeyError`` for a missing table, ``ValueError`` for a bad split,
:class:`~repro.dbsim.errors.ServerCrashedError`,
:class:`~repro.dbsim.errors.BusyError` for admission-control
rejections, ...), which is what lets the existing client test suite
pass unmodified against the remote backend.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.dbsim.errors import (
    BusyError,
    NotHostedError,
    ServerCrashedError,
    TabletServerError,
)
from repro.dbsim.iterators import COMBINERS
from repro.dbsim.key import Range
from repro.dbsim.server import TableConfig
from repro.net.iterspec import IterSpecError, NonSerializableIteratorError

WIRE_VERSION = 3

#: frame header: body length
_LEN = struct.Struct("!I")
#: body header: version, op-code, flags, CRC-32 of (tc + req id + payload)
_BODY = struct.Struct("!BBBI")
#: trace-context block: 16-byte trace id + 8-byte span id + flags byte
#: (all zeros = none)
_TC = struct.Struct("!16s8sB")
_TC_NONE = _TC.pack(b"\x00" * 16, b"\x00" * 8, 0)
#: trace-context flag bit: the sender head-sampled this trace (record it)
TC_SAMPLED = 0x01
#: request-id block: multiplexing tag (0 = unmultiplexed)
_REQ = struct.Struct("!Q")
_REQ_NONE = _REQ.pack(0)

# payload-encoding flags
FLAG_CELLS = 0x01  #: payload is a binary cell block (+ optional JSON meta)
_KNOWN_FLAGS = FLAG_CELLS

#: bytes a frame spends on framing (length prefix + body header +
#: trace-context block + request id); ``frame_len - FRAME_OVERHEAD``
#: is payload bytes
FRAME_OVERHEAD = _LEN.size + _BODY.size + _TC.size + _REQ.size

#: refuse to allocate for absurd lengths (garbage or version skew)
MAX_FRAME_BYTES = 64 << 20

#: cell-block payloads prefix the block with a JSON meta dict
_META_LEN = struct.Struct("!I")

# -- op-codes ---------------------------------------------------------------

# requests (client → server / manager)
PING = 0x01
CREATE_TABLE = 0x02
DELETE_TABLE = 0x03
TABLE_EXISTS = 0x04
LIST_TABLES = 0x05
ADD_SPLIT = 0x06
SPLITS = 0x07
FLUSH = 0x08
COMPACT = 0x09
LOCATE = 0x0A
STATS = 0x0B
METRICS = 0x0C
SCAN = 0x0D
WRITE_BATCH = 0x0E
HOST_TABLET = 0x0F
DROP_TABLE = 0x10
SPLIT_TABLET = 0x11
MIGRATE_OUT = 0x12
MIGRATE_IN = 0x13
CRASH = 0x14
RECOVER = 0x15
TABLET_INFO = 0x16
STATUS = 0x17
SHUTDOWN = 0x18
CANCEL_SCAN = 0x1A
TABLE_MULT = 0x1B        # client → manager: one whole two-table op
MULTIPLY_TABLETS = 0x1C  # manager → tablet server: its AT tablets' step

# responses (server → client)
OK = 0x40
ERROR = 0x41
CHUNK = 0x42
DONE = 0x43

OP_NAMES = {
    PING: "ping", CREATE_TABLE: "create_table",
    DELETE_TABLE: "delete_table", TABLE_EXISTS: "table_exists",
    LIST_TABLES: "list_tables", ADD_SPLIT: "add_split", SPLITS: "splits",
    FLUSH: "flush", COMPACT: "compact", LOCATE: "locate", STATS: "stats",
    METRICS: "metrics", SCAN: "scan", WRITE_BATCH: "write_batch",
    HOST_TABLET: "host_tablet", DROP_TABLE: "drop_table",
    SPLIT_TABLET: "split_tablet", MIGRATE_OUT: "migrate_out",
    MIGRATE_IN: "migrate_in", CRASH: "crash", RECOVER: "recover",
    TABLET_INFO: "tablet_info", STATUS: "status", SHUTDOWN: "shutdown",
    CANCEL_SCAN: "cancel_scan",
    TABLE_MULT: "table_mult", MULTIPLY_TABLETS: "multiply_tablets",
    OK: "ok", ERROR: "error", CHUNK: "chunk", DONE: "done",
}


# -- protocol errors --------------------------------------------------------


class ProtocolError(RuntimeError):
    """The byte stream violated the framing contract (bad version,
    oversized frame, unknown op-code)."""


class FrameCorruptError(ProtocolError):
    """Payload CRC mismatch — the frame was damaged in flight.
    Retryable: the sender's copy was fine."""


class ConnectionClosedError(ConnectionError):
    """The peer closed the socket mid-frame (crash, reset fault, or
    orderly shutdown racing a request)."""


class RpcError(RuntimeError):
    """A server-side failure with no richer client-side type."""


# -- binary payloads --------------------------------------------------------


class CellsPayload:
    """A frame payload carrying a packed binary cell block.

    ``meta`` is a small JSON-serializable dict riding ahead of the
    block (chunk resume keys, batch session/seq, ...); ``block`` is the
    :mod:`repro.net.cells` bytes — kept opaque here so framing never
    touches cell internals, and exposed as a ``memoryview``-sliceable
    buffer on decode (zero-copy into the codec).
    """

    __slots__ = ("meta", "block")

    def __init__(self, meta: dict, block) -> None:
        self.meta = meta
        self.block = block

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CellsPayload(meta={self.meta!r}, block={len(self.block)}B)"


def _encode_payload(payload: Any) -> Tuple[bytes, int]:
    """Serialize ``payload`` → (bytes, flags)."""
    if isinstance(payload, CellsPayload):
        meta = json.dumps(payload.meta, separators=(",", ":")).encode("utf-8")
        body = _META_LEN.pack(len(meta)) + meta + bytes(payload.block)
        flags = FLAG_CELLS
    else:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        flags = 0
    return body, flags


def _decode_payload(raw, flags: int) -> Any:
    if flags & ~_KNOWN_FLAGS:
        raise ProtocolError(f"unknown payload flags 0x{flags:02x}")
    view = memoryview(raw)
    try:
        if flags & FLAG_CELLS:
            if len(view) < _META_LEN.size:
                raise ProtocolError(
                    f"cell payload too short: {len(view)} bytes")
            (meta_len,) = _META_LEN.unpack_from(view, 0)
            end = _META_LEN.size + meta_len
            if end > len(view):
                raise ProtocolError(f"cell payload meta length {meta_len} "
                                    f"overruns frame")
            meta = json.loads(str(view[_META_LEN.size:end], "utf-8"))
            return CellsPayload(meta, view[end:])
        return json.loads(str(view, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # CRC passed but the encoding didn't: the *sender* framed garbage
        raise ProtocolError(f"undecodable payload: {exc}") from exc


# -- frame I/O --------------------------------------------------------------


def encode_frame(code: int, payload: Any,
                 tc: Optional[Tuple[str, ...]] = None,
                 req: int = 0) -> bytes:
    """One wire frame for ``payload`` (any JSON-serializable value, or
    a :class:`CellsPayload` for the binary cell encoding).

    ``tc`` is an optional ``(trace_id, span_id[, sampled])`` hex tuple
    (e.g. a :class:`~repro.obs.trace.TraceContext`) packed into the
    frame's trace-context block — the sampled flag defaults to True
    for bare pairs; ``None`` sends the all-zero block.  ``req`` is the
    multiplexing request id (0 = unmultiplexed).
    """
    body, flags = _encode_payload(payload)
    if tc is None:
        tcb = _TC_NONE
    else:
        sampled = tc[2] if len(tc) > 2 else True
        tcb = _TC.pack(bytes.fromhex(tc[0]), bytes.fromhex(tc[1]),
                       TC_SAMPLED if sampled else 0)
    reqb = _REQ_NONE if req == 0 else _REQ.pack(req)
    crc = zlib.crc32(body, zlib.crc32(reqb, zlib.crc32(tcb)))
    return (_LEN.pack(_BODY.size + _TC.size + _REQ.size + len(body))
            + _BODY.pack(WIRE_VERSION, code, flags, crc) + tcb + reqb + body)


def decode_body(body) -> Tuple[int, Any,
                               Optional[Tuple[str, str, bool]], int]:
    """Parse a frame body (everything after the length prefix) into
    ``(op_code, payload, trace_context, request_id)``, verifying
    version and CRC.  ``trace_context`` is ``(trace_id, span_id,
    sampled)`` or ``None`` when the sender attached no context."""
    fixed = _BODY.size + _TC.size + _REQ.size
    if len(body) < fixed:
        raise ProtocolError(f"frame body too short: {len(body)} bytes")
    view = memoryview(body)
    version, code, flags, crc = _BODY.unpack_from(view)
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"wire version {version} != supported {WIRE_VERSION}")
    tcb = view[_BODY.size:_BODY.size + _TC.size]
    reqb = view[_BODY.size + _TC.size:fixed]
    payload_bytes = view[fixed:]
    if zlib.crc32(payload_bytes,
                  zlib.crc32(reqb, zlib.crc32(tcb))) != crc:
        raise FrameCorruptError(
            f"payload CRC mismatch on {OP_NAMES.get(code, hex(code))} frame")
    if tcb == _TC_NONE:
        tc: Optional[Tuple[str, str, bool]] = None
    else:
        trace_raw, span_raw, tc_flags = _TC.unpack(tcb)
        tc = (trace_raw.hex(), span_raw.hex(),
              bool(tc_flags & TC_SAMPLED))
    (req,) = _REQ.unpack(reqb)
    payload = _decode_payload(payload_bytes, flags)
    return code, payload, tc, req


class FrameReader:
    """Reads frames off one socket with ``recv_into`` — no per-recv
    ``bytes`` objects, no O(n²) concatenation on large chunks.

    The 4-byte length header lands in a reused buffer; each body gets
    a fresh ``bytearray`` sized exactly to the frame, because decoded
    payloads (cell-block memoryviews) may outlive the next read on a
    multiplexed connection.

    ``flags`` go to every ``recv_into``.  A read the socket cuts short
    — ``BlockingIOError`` under ``MSG_DONTWAIT``, a socket timeout —
    keeps its partial frame, and the next :meth:`read` resumes it: a
    caller that gives up waiting mid-frame loses its turn, not the
    connection's framing.
    """

    __slots__ = ("_sock", "_flags", "_hdr", "_hdr_view", "_body", "_got")

    def __init__(self, sock: socket.socket, flags: int = 0) -> None:
        self._sock = sock
        self._flags = flags
        self._hdr = bytearray(_LEN.size)
        self._hdr_view = memoryview(self._hdr)
        #: the frame body being filled, once its header is complete
        self._body: Optional[bytearray] = None
        #: bytes of the current header / body already read
        self._got = 0

    def _fill(self, view: memoryview, n: int) -> None:
        recv_into = self._sock.recv_into
        flags = self._flags
        while self._got < n:
            k = recv_into(view[self._got:n], 0, flags)
            if not k:
                raise ConnectionClosedError(
                    f"peer closed connection ({self._got}/{n} bytes read)")
            self._got += k
        self._got = 0

    def read(self) -> Tuple[int, Any, int,
                            Optional[Tuple[str, str, bool]], int]:
        """Read one frame; returns ``(op_code, payload, bytes_read,
        trace_context, request_id)``."""
        if self._body is None:
            self._fill(self._hdr_view, _LEN.size)
            (length,) = _LEN.unpack(self._hdr)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(f"frame length {length} exceeds "
                                    f"{MAX_FRAME_BYTES} byte cap")
            self._body = bytearray(length)
        body = self._body
        self._fill(memoryview(body), len(body))
        self._body = None
        code, payload, tc, req = decode_body(body)
        return code, payload, _LEN.size + len(body), tc, req


# -- error frames -----------------------------------------------------------

#: exception type ↔ wire name, in both directions.  Anything not here
#: degrades to :class:`RpcError` client-side (message preserved).
_ERROR_TYPES = {
    "KeyError": KeyError,
    "ValueError": ValueError,
    "RuntimeError": RuntimeError,
    "NotImplementedError": NotImplementedError,
    "TabletServerError": TabletServerError,
    "ServerCrashedError": ServerCrashedError,
    "NotHostedError": NotHostedError,
    "BusyError": BusyError,
    "IterSpecError": IterSpecError,
    "NonSerializableIteratorError": NonSerializableIteratorError,
}
_ERROR_NAMES = {cls: name for name, cls in _ERROR_TYPES.items()}


def error_payload(exc: BaseException) -> dict:
    name = _ERROR_NAMES.get(type(exc))
    if name is None:  # subclasses / exotic types degrade gracefully
        matches = [cls for cls in _ERROR_NAMES if isinstance(exc, cls)]
        if matches:
            # most-derived match, so a ServerCrashedError subclass maps
            # to the retryable crash type rather than bare RuntimeError
            name = _ERROR_NAMES[max(matches,
                                    key=lambda cls: len(cls.__mro__))]
        else:
            name = "RpcError"
    # KeyError's str() is repr(args[0]) — carry the bare message so the
    # round trip doesn't nest quotes
    message = exc.args[0] if exc.args else str(exc)
    return {"type": name, "message": str(message)}


def raise_error(payload: dict) -> None:
    """Re-raise the exception an ``ERROR`` frame describes."""
    cls = _ERROR_TYPES.get(payload.get("type", ""), RpcError)
    raise cls(payload.get("message", "remote error"))


# -- value codecs -----------------------------------------------------------


def range_to_wire(rng: Range) -> list:
    return [rng.start_row, rng.stop_row]


def wire_to_range(item: Sequence) -> Range:
    return Range(item[0], item[1])


def config_to_wire(config: Optional[TableConfig]) -> Optional[dict]:
    if config is None:
        return None
    iterators: List[str] = []
    for factory in config.table_iterators:
        # user *scan* iterators never need to cross the wire (they run
        # client-side), but *table* iterators run in the server's scans
        # and compactions, so a remote table config must name them
        if factory not in COMBINERS.values():
            raise ValueError(
                f"table iterator {factory!r} is not wire-serializable: "
                f"remote tables support the named combiners "
                f"{sorted(COMBINERS)} (attach arbitrary iterators "
                f"at scan time instead — they run client-side)")
        iterators.append(factory.op["fn"])
    return {"max_versions": config.max_versions,
            "table_iterators": iterators,
            "flush_bytes": config.flush_bytes}


def wire_to_config(item: Optional[dict]) -> Optional[TableConfig]:
    if item is None:
        return None
    unknown = [n for n in item["table_iterators"] if n not in COMBINERS]
    if unknown:
        raise ValueError(f"unknown table iterator name(s) {unknown!r}; "
                         f"known: {sorted(COMBINERS)}")
    return TableConfig(
        max_versions=item["max_versions"],
        table_iterators=tuple(COMBINERS[n]
                              for n in item["table_iterators"]),
        flush_bytes=item["flush_bytes"])
