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

Determinism: the plan owns one ``random.Random(seed)``; with a fixed
seed, a fixed request sequence sees a fixed fault sequence.  Each
fired fault bumps ``net.server.faults.<kind>`` on the server's
metrics registry.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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
    """The rules plus the seeded RNG that decides when they fire."""

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0):
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        self._rng = random.Random(seed)
        # concurrent responder threads share one plan; serialize draws
        # so the RNG stream stays a function of the draw *sequence*
        self._lock = threading.Lock()

    @classmethod
    def from_specs(cls, specs: Sequence[str], seed: int = 0) -> "FaultPlan":
        return cls([FaultRule.from_spec(s) for s in specs], seed=seed)

    def specs(self) -> List[str]:
        return [r.spec() for r in self.rules]

    def draw(self, op: int) -> Optional[FaultRule]:
        """The first matching rule that fires for this request, if any.

        Every matching rule consumes exactly one RNG draw whether or
        not it fires, so the fault sequence depends only on the request
        sequence — not on which earlier faults happened to fire.
        """
        hit: Optional[FaultRule] = None
        with self._lock:
            for rule in self.rules:
                if rule.op is not None and rule.op != op:
                    continue
                fired = self._rng.random() < rule.rate
                if fired and hit is None:
                    hit = rule
        return hit


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
