"""repro.net: a TCP RPC fabric for dbsim tablet servers.

Promotes :mod:`repro.dbsim` from an in-process simulator to a
multi-process client/server system with a real network boundary — the
part of the Graphulo story (client ↔ tablet-server round trips,
partial failure, retries) a single process cannot model:

* :mod:`repro.net.wire` — length-prefixed framed protocol (v3):
  versioned op-codes, CRC-checked payloads, an 8-byte request id for
  multiplexing, binary cell-block payloads (:mod:`repro.net.cells`)
  on the hot ops, streaming scan chunks, and structured error frames
  that map server-side exceptions back to the same typed errors the
  in-process backend raises;
* :mod:`repro.net.faults` — seeded in-path fault injector (drop /
  delay / reset / corrupt-frame / slow-drip / reorder, per op-code)
  applied at response time so retries and write dedup are genuinely
  exercised;
* :mod:`repro.net.server` — ``TabletServerProcess`` wrapping the
  existing :class:`~repro.dbsim.server.TabletServer` machinery behind
  a socket listener (a per-connection pool of threads, the one that
  reads a request serving it; a unary FIFO and a scan cap for
  admission control with typed ``BusyError`` shedding), plus a
  manager process owning table metadata and the locate index;
* :mod:`repro.net.client` — ``RemoteConnector``: the same API surface
  as :class:`~repro.dbsim.client.Connector` (Scanner / BatchScanner /
  BatchWriter drop in unchanged) over one persistent multiplexed
  connection per server, carrying every in-flight RPC and read by
  whichever caller is waiting (no I/O thread, no event loop) —
  per-RPC deadlines, exponential backoff with decorrelated jitter,
  exactly-once write dedup, pipelined BatchWriter flushes, and
  automatic re-locate on ``NotHostedError``;
* :mod:`repro.net.cluster` — spawn / stop / crash / recover N server
  processes over localhost (``repro cluster``);
* :mod:`repro.net.iterspec` — declarative, wire-serializable iterator
  stacks (``IterSpec``): filters, combiners, named Apply ops and row
  reduces validated against a whitelist and executed inside the
  tablet server's iterator stack, so filtered and folded scans ship
  only the surviving cells.

Everything emits ``rpc.*`` spans and ``net.client.*`` /
``net.server.*`` counters through :mod:`repro.obs`, so ``repro
analyze``, slow traces (``--sample-rate 0``), Prometheus exposition
and ``repro health`` work on distributed runs unchanged.
See ``docs/NET.md``.
"""

from repro.dbsim.errors import BusyError
from repro.net.client import (
    RemoteConnector,
    RemoteInstance,
    RetryPolicy,
    StreamOverrunError,
)
from repro.net.cluster import LocalCluster
from repro.net.faults import FaultPlan, FaultRule
from repro.net.iterspec import (
    IterSpec,
    IterSpecError,
    NonSerializableIteratorError,
)
from repro.net.server import ManagerProcess, TabletServerProcess
from repro.net.wire import (
    CellsPayload,
    FrameCorruptError,
    ProtocolError,
    RpcError,
    WIRE_VERSION,
)

__all__ = [
    "BusyError",
    "CellsPayload",
    "RemoteConnector",
    "RemoteInstance",
    "RetryPolicy",
    "StreamOverrunError",
    "LocalCluster",
    "FaultPlan",
    "FaultRule",
    "IterSpec",
    "IterSpecError",
    "NonSerializableIteratorError",
    "ManagerProcess",
    "TabletServerProcess",
    "FrameCorruptError",
    "ProtocolError",
    "RpcError",
    "WIRE_VERSION",
]
