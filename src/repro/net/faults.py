"""Seeded, in-path fault injection for the RPC fabric.

A :class:`FaultPlan` is an ordered list of :class:`FaultRule`\\ s, each
matching an op-code (or ``*``) with a firing probability.  The server
consults the plan **at response time** — after the handler has run —
which is the interesting place to fail: a dropped ``write_batch``
response means the write *was applied* but the client never heard, so
its retry exercises the exactly-once dedup path rather than a trivial
re-send.

Fault kinds (``param`` meaning in parentheses):

========== ==============================================================
drop       swallow the response and close the connection (—)
delay      sleep ``param`` seconds before responding (seconds)
reset      close the connection abruptly before responding (—)
corrupt    flip one payload byte so the client's CRC check fails (—)
slowdrip   trickle the response ``param`` bytes at a time (chunk size)
reorder    hold this response; deliver it *after* the connection's next
           outbound response (—)
========== ==============================================================

``reorder`` exists to attack the multiplexer: on a wire-v3 connection
responses for different request ids may legally arrive in any order,
so the client must route by id, never by arrival.  The server's send
path applies it only to *unary* responses (``OK``/``ERROR``) — frames
inside one scan's ``CHUNK`` stream are ordered by contract and are
never swapped.  :func:`apply_fault` itself delivers a reorder frame
normally (the swap needs a second frame and lives in the server's
per-connection sender).

Rules parse from compact spec strings (CLI ``--fault``, cluster
configs)::

    scan:delay:0.05:0.02      # 5% of scan responses delayed 20ms
    write_batch:drop:0.01     # 1% of write acks swallowed
    *:reset:0.005             # 0.5% of everything reset

Determinism: whether a rule fires on a response frame is a pure
function of the seed, the rule, the op, the connection's place among
the server's connections that sent that op, the request's number among
its connection's requests of the op, and the frame's place in the
response.  So a fixed sequence of requests sees a fixed fault sequence
however a connection's threads interleave their answers — as long as
each op is sent by one connection at a time: connections that first
send an op concurrently may take their places in either order.  Each
fired fault bumps ``net.server.faults.<kind>`` on the server's metrics
registry.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net import wire

_KINDS = ("drop", "delay", "reset", "corrupt", "slowdrip", "reorder")
#: kinds that replace the response entirely (vs. decorate its delivery)
TERMINAL_KINDS = ("drop", "reset")

_NAME_TO_OP = {name: code for code, name in wire.OP_NAMES.items()}


@dataclass(frozen=True)
class FaultRule:
    """One match → maybe-fire rule."""

    op: Optional[int]  #: op-code to match; None matches every request
    kind: str          #: one of drop/delay/reset/corrupt/slowdrip
    rate: float        #: firing probability in [0, 1]
    param: float = 0.0  #: kind-specific (delay seconds, drip chunk bytes)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")

    @classmethod
    def from_spec(cls, spec: str) -> "FaultRule":
        """Parse ``op:kind:rate[:param]`` (op may be ``*``)."""
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"bad fault spec {spec!r}: want op:kind:rate[:param]")
        op_name, kind, rate = parts[0], parts[1], float(parts[2])
        param = float(parts[3]) if len(parts) == 4 else 0.0
        if op_name == "*":
            op = None
        else:
            op = _NAME_TO_OP.get(op_name)
            if op is None or op >= wire.OK:
                raise ValueError(f"bad fault spec {spec!r}: unknown op "
                                 f"{op_name!r}")
        return cls(op=op, kind=kind, rate=rate, param=param)

    def spec(self) -> str:
        op = "*" if self.op is None else wire.OP_NAMES[self.op]
        out = f"{op}:{self.kind}:{self.rate:g}"
        return f"{out}:{self.param:g}" if self.param else out


class FaultPlan:
    """The rules plus the seed that decides when they fire."""

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0):
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        #: op → how many connections have sent it
        self._senders: Dict[int, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_specs(cls, specs: Sequence[str], seed: int = 0) -> "FaultPlan":
        return cls([FaultRule.from_spec(s) for s in specs], seed=seed)

    def specs(self) -> List[str]:
        return [r.spec() for r in self.rules]

    def sender(self, op: int) -> int:
        """The place (from 0) of a connection among those that sent
        ``op`` to this server, asked once per connection when it sends
        its first ``op`` request.  A retry on a fresh connection takes
        the next place, so it does not meet the fault its first attempt
        met."""
        with self._lock:
            place = self._senders.get(op, 0)
            self._senders[op] = place + 1
        return place

    def draw(self, op: int, sender: int, number: int,
             frame: int = 0) -> Optional[FaultRule]:
        """The first matching rule that fires on frame ``frame`` (from
        0) of the response to the ``number``-th request (from 0) of
        ``op`` on the connection that was ``sender``-th to send ``op``
        (:meth:`sender`), if any.

        Each rule decides by its own hash of the seed, its place in the
        plan, ``(op, number, frame)`` and ``sender``: no decision
        depends on which other rules fire, on the order in which a
        connection's threads answer its requests, or on any earlier
        decision.
        """
        key = (op, number, frame)
        for index, rule in enumerate(self.rules):
            if ((rule.op is None or rule.op == op)
                    and _uniform(self.seed, index, key, sender) < rule.rate):
                return rule
        return None


def _uniform(*key) -> float:
    """A number in [0, 1) fixed by ``key``, the same in every process
    and run: a string seed is hashed by SHA-512, not by ``hash``."""
    return random.Random(repr(key)).random()


def corrupt_frame(frame: bytes) -> bytes:
    """Flip one bit in the CRC-covered region (trace-context block or
    payload) so verification fails — never the length prefix, because
    the stream must stay parseable."""
    from repro.net import wire
    if len(frame) > wire.FRAME_OVERHEAD:  # damage the first payload byte
        idx = wire.FRAME_OVERHEAD
    else:  # no payload bytes; damage the trace-context block instead
        idx = wire.FRAME_OVERHEAD - 1
    return frame[:idx] + bytes([frame[idx] ^ 0x01]) + frame[idx + 1:]


def apply_fault(rule: FaultRule, sock, frame: bytes,
                metrics=None) -> bool:
    """Deliver (or destroy) ``frame`` according to ``rule``.

    Returns True if the response was delivered (possibly corrupted or
    dripped) and the connection may continue; False if the connection
    must be torn down (drop / reset).  A ``delay`` is the caller's to
    sleep out first, before it takes the lock that orders its
    connection's frames: the delayed answer holds up no other.
    """
    if metrics is not None:
        metrics.counter(f"net.server.faults.{rule.kind}").inc()
    if rule.kind == "drop":
        return False  # swallow silently; caller closes the socket
    if rule.kind == "reset":
        try:  # RST if the platform lets us, plain close otherwise
            import socket as _socket
            sock.setsockopt(_socket.SOL_SOCKET, _socket.SO_LINGER,
                            b"\x01\x00\x00\x00\x00\x00\x00\x00")
        except OSError:
            pass
        return False
    if rule.kind == "corrupt":
        sock.sendall(corrupt_frame(frame))
        return True
    if rule.kind == "slowdrip":
        step = max(int(rule.param), 1)
        for i in range(0, len(frame), step):
            sock.sendall(frame[i:i + step])
            time.sleep(0.001)
        return True
    if rule.kind in ("delay", "reorder"):
        # a reorder's swap lives in the server's per-connection sender
        # (it needs a second frame to swap with); standalone delivery
        # degrades to a normal send
        sock.sendall(frame)
        return True
    raise AssertionError(f"unhandled fault kind {rule.kind!r}")
