"""Trace analysis: span trees, rollups, critical paths, flamegraphs.

The *read* side of the tracing layer: everything here consumes the
records :mod:`repro.obs.trace` emits — a JSONL trace file, an
:class:`~repro.obs.trace.InMemorySink`, or any iterable of record
dicts — and turns ten thousand spans into the three views that answer
"where did the time go":

* **rollups** — per-span-name count, total and *self* wall time,
  deterministic p50/p95/p99, and summed OpStats counters;
* **critical path** — the heaviest child chain under a root span;
* **folded stacks** — ``root;child;grandchild <self-µs>`` lines,
  directly consumable by standard flamegraph tooling
  (``flamegraph.pl``, speedscope, inferno).

Tree reconstruction relies on the emitter's ordering contract: spans
are emitted when they *close*, so within one thread every child record
precedes its parent (post-order).  A span therefore claims, at its own
emission, all still-unclaimed spans one level deeper that name it as
parent.  Interleaved multi-thread traces may misattribute siblings
with identical names, but rollups (which aggregate by name) remain
exact; the CLI and benchmark traces are single-threaded.

Entry point::

    from repro.obs.analyze import TraceAnalysis

    ta = TraceAnalysis.load("trace.jsonl")
    ta.rollups["kernel.spgemm"].p95        # seconds
    ta.critical_path()                     # heaviest root, top-down
    "\\n".join(ta.folded_stacks())         # flamegraph input
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.trace import OPSTATS_FIELDS

Record = Dict[str, Any]


def read_records(source: Union[str, "os.PathLike", Iterable[Record]]
                 ) -> List[Record]:
    """Load trace records from a JSONL path, a sink with ``.records``
    (e.g. :class:`InMemorySink`), or any iterable of dicts.  Blank
    lines are skipped; a malformed line raises ``ValueError`` naming
    the offending line number."""
    if hasattr(source, "records"):
        return list(source.records)
    if isinstance(source, (str, os.PathLike)):
        records = []
        with open(source, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{source}:{lineno}: invalid trace line: {exc}"
                    ) from None
        return records
    return list(source)


def percentile(values: Sequence[float], q: float) -> float:
    """Deterministic nearest-rank percentile (0 < q <= 100): the
    ceil(q/100 * n)-th smallest value.  Exact — no interpolation — so
    golden fixtures reproduce bit-identically."""
    if not values:
        return 0.0
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class SpanNode:
    """One span in the reconstructed tree."""

    __slots__ = ("name", "start_s", "duration_s", "depth", "parent_name",
                 "attrs", "opstats", "error", "children", "trace_id",
                 "span_id", "parent_id", "process")

    def __init__(self, record: Record):
        self.name = record.get("name", "?")
        self.start_s = float(record.get("start_s", 0.0))
        self.duration_s = float(record.get("duration_s", 0.0))
        self.depth = int(record.get("depth", 0))
        self.parent_name = record.get("parent")
        self.attrs = record.get("attrs") or {}
        self.opstats = record.get("opstats") or {}
        self.error = record.get("error")
        self.trace_id = record.get("trace_id") or ""
        self.span_id = record.get("span_id") or ""
        self.parent_id = record.get("parent_id")
        self.process = record.get("process")
        self.children: List["SpanNode"] = []

    @property
    def label(self) -> str:
        """Display name, process-qualified for stitched traces so
        multi-process stacks don't collapse into one another."""
        return f"{self.process}:{self.name}" if self.process else self.name

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def self_s(self) -> float:
        """Wall time not attributed to any child span."""
        return max(0.0, self.duration_s
                   - sum(c.duration_s for c in self.children))

    def walk(self):
        """This node and every descendant, depth-first pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanNode({self.name!r}, {self.duration_s:.6f}s, "
                f"children={len(self.children)})")


def build_tree(records: Iterable[Record]) -> List[SpanNode]:
    """Reconstruct span trees from trace records.

    Spans carrying ``span_id`` identity (anything traced since ids
    landed, including stitched multi-process traces) link exactly by
    ``parent_id``; legacy id-less spans fall back to the name/depth
    post-order heuristic.  Either way the root spans come back in
    emission order, with spans whose parent never closed (interrupted
    runs, cross-file orphans) appended as extra roots so no span is
    silently dropped."""
    id_nodes: List[SpanNode] = []
    legacy: List[SpanNode] = []
    for record in records:
        if record.get("kind") != "span":
            continue
        node = SpanNode(record)
        (id_nodes if node.span_id else legacy).append(node)
    roots = _build_tree_legacy(legacy) if legacy else []
    if id_nodes:
        roots.extend(_build_tree_ids(id_nodes))
    return roots


def _build_tree_legacy(nodes: List[SpanNode]) -> List[SpanNode]:
    pending: List[SpanNode] = []
    roots: List[SpanNode] = []
    for node in nodes:
        # post-order contract: this span's children are already emitted
        # and still unclaimed — one level deeper, naming this span
        claimed, rest = [], []
        for cand in pending:
            if (cand.depth == node.depth + 1
                    and cand.parent_name == node.name):
                claimed.append(cand)
            else:
                rest.append(cand)
        node.children = sorted(claimed, key=lambda c: c.start_s)
        pending = rest
        if node.depth == 0:
            roots.append(node)
        else:
            pending.append(node)
    roots.extend(sorted(pending, key=lambda c: c.start_s))  # orphans
    return roots


def _build_tree_ids(nodes: List[SpanNode]) -> List[SpanNode]:
    by_id = {node.span_id: node for node in nodes}
    roots: List[SpanNode] = []
    orphans: List[SpanNode] = []
    for node in nodes:  # emission order
        parent = by_id.get(node.parent_id) if node.parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        elif node.parent_id:
            orphans.append(node)  # parent in another (unstitched) file
        else:
            roots.append(node)
    for node in nodes:
        node.children.sort(key=lambda c: (c.start_s, c.span_id))
    roots.extend(sorted(orphans, key=lambda c: (c.start_s, c.span_id)))
    return roots


class NameRollup:
    """Aggregate statistics for every span sharing one name."""

    __slots__ = ("name", "count", "errors", "total_s", "self_s",
                 "durations", "opstats")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.errors = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: List[float] = []
        self.opstats: Dict[str, int] = {f: 0 for f in OPSTATS_FIELDS}

    def add(self, node: SpanNode) -> None:
        self.count += 1
        self.errors += 1 if node.error else 0
        self.total_s += node.duration_s
        self.self_s += node.self_s
        self.durations.append(node.duration_s)
        for field in OPSTATS_FIELDS:
            self.opstats[field] += int(node.opstats.get(field, 0))

    @property
    def p50(self) -> float:
        return percentile(self.durations, 50)

    @property
    def p95(self) -> float:
        return percentile(self.durations, 95)

    @property
    def p99(self) -> float:
        return percentile(self.durations, 99)

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "count": self.count,
                "errors": self.errors, "total_s": self.total_s,
                "self_s": self.self_s, "p50_s": self.p50,
                "p95_s": self.p95, "p99_s": self.p99,
                "opstats": dict(self.opstats)}


def rollup(roots: Iterable[SpanNode]) -> Dict[str, NameRollup]:
    """Per-name rollups over every span in the given trees."""
    out: Dict[str, NameRollup] = {}
    for root in roots:
        for node in root.walk():
            agg = out.get(node.name)
            if agg is None:
                agg = out[node.name] = NameRollup(node.name)
            agg.add(node)
    return out


def critical_path(root: SpanNode) -> List[SpanNode]:
    """Top-down heaviest chain: from ``root``, repeatedly descend into
    the child with the largest duration (earliest start wins ties)."""
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda c: c.duration_s)
        path.append(node)
    return path


def folded_stacks(roots: Iterable[SpanNode],
                  scale: float = 1e6) -> List[str]:
    """Folded-stack flamegraph lines: ``name;child;... <value>`` where
    value is the stack's *self* time in integer microseconds (by
    default), summed over identical stacks.  Lines are sorted, so
    output is deterministic."""
    weights: Dict[str, int] = {}

    def visit(node: SpanNode, prefix: str) -> None:
        stack = f"{prefix};{node.label}" if prefix else node.label
        value = int(round(node.self_s * scale))
        weights[stack] = weights.get(stack, 0) + value
        for child in node.children:
            visit(child, stack)

    for root in roots:
        visit(root, "")
    return [f"{stack} {value}" for stack, value in sorted(weights.items())]


def filter_by_trace(records: Iterable[Record],
                    trace_id: str) -> List[Record]:
    """Only the span records belonging to one trace (non-span records
    are dropped — they carry no trace identity)."""
    return [r for r in records if r.get("trace_id") == trace_id]


#: span names the RPC breakdown is anchored on (client-side RPC spans)
_RPC_CLIENT_NAMES = ("rpc.client.call", "rpc.client.scan")


def rpc_breakdown(roots: Iterable[SpanNode]) -> Dict[str, Dict[str, Any]]:
    """Per-op client/network/queue/service decomposition of RPC time.

    For every client RPC span the wall time splits into:

    * ``server_queue_s`` — the server-side wait between frame arrival
      and dispatch (from the handler span's ``queue_s`` attribute);
    * ``server_service_s`` — handler execution until the reply was
      written (``service_s``);
    * ``unawaited_s`` — how long a pipelined call (``RpcCore.submit``)
      sat sent with nobody waiting for it, while its caller did other
      work (the span's ``unawaited_s`` attribute; 0 for a plain call);
    * ``network_s`` — whatever remains of the client span after its
      server children, or after its unawaited time when that is longer
      (both run from the send, so the larger covers the other): wire
      time, connect time, client retries/backoff;
    * ``client_s`` — the full client-observed duration.

    Only a *stitched* trace has the server children attached; on a
    client-only trace everything but the unawaited time lands in
    ``network_s``.  Each row also counts ``server_spans`` (one per
    attempt that reached a server — more than ``count`` means
    retries/dedup replays)."""
    out: Dict[str, Dict[str, Any]] = {}
    for root in roots:
        for node in root.walk():
            if node.name not in _RPC_CLIENT_NAMES:
                continue
            op = str(node.attrs.get("op", "?"))
            servers = [c for c in node.children
                       if c.name.startswith("rpc.server.")]
            row = out.get(op)
            if row is None:
                row = out[op] = {
                    "op": op, "count": 0, "server_spans": 0,
                    "client_s": 0.0, "network_s": 0.0, "unawaited_s": 0.0,
                    "server_queue_s": 0.0, "server_service_s": 0.0,
                }
            unawaited = float(node.attrs.get("unawaited_s", 0.0))
            row["count"] += 1
            row["server_spans"] += len(servers)
            row["client_s"] += node.duration_s
            row["unawaited_s"] += unawaited
            row["network_s"] += max(node.duration_s - max(
                sum(c.duration_s for c in servers), unawaited), 0.0)
            row["server_queue_s"] += sum(
                float(c.attrs.get("queue_s", 0.0)) for c in servers)
            row["server_service_s"] += sum(
                float(c.attrs.get("service_s", c.duration_s))
                for c in servers)
    return out


class TraceAnalysis:
    """One parsed trace: records, reconstructed trees, and rollups."""

    def __init__(self, records: Iterable[Record]):
        self.records = list(records)
        self.roots = build_tree(self.records)
        self.rollups = rollup(self.roots)

    @classmethod
    def load(cls, source) -> "TraceAnalysis":
        return cls(read_records(source))

    @property
    def n_spans(self) -> int:
        return sum(1 for r in self.records if r.get("kind") == "span")

    @property
    def n_records(self) -> int:
        return len(self.records)

    def top(self, n: Optional[int] = None) -> List[NameRollup]:
        """Rollups by descending total wall time (name breaks ties)."""
        ordered = sorted(self.rollups.values(),
                         key=lambda r: (-r.total_s, r.name))
        return ordered if n is None else ordered[:n]

    def longest_root(self) -> Optional[SpanNode]:
        if not self.roots:
            return None
        return max(self.roots, key=lambda r: r.duration_s)

    def critical_path(self, root: Optional[SpanNode] = None
                      ) -> List[SpanNode]:
        """Critical path of ``root`` (default: the longest root span)."""
        root = root if root is not None else self.longest_root()
        return critical_path(root) if root is not None else []

    def folded_stacks(self) -> List[str]:
        return folded_stacks(self.roots)

    def rpc_breakdown(self) -> Dict[str, Dict[str, Any]]:
        """Per-op client/network/queue/service split (see
        :func:`rpc_breakdown`); empty for traces without RPC spans."""
        return rpc_breakdown(self.roots)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready report: rollups (sorted by total time), the
        critical path of the longest root, and trace totals.  Traces
        containing RPC spans gain an ``rpc`` breakdown section (absent
        otherwise, keeping pre-RPC goldens bit-stable)."""
        out = {
            "records": self.n_records,
            "spans": self.n_spans,
            "roots": len(self.roots),
            "rollup": [r.as_dict() for r in self.top()],
            "critical_path": [
                {"name": n.name, "duration_s": n.duration_s,
                 "self_s": n.self_s} for n in self.critical_path()],
        }
        rpc = self.rpc_breakdown()
        if rpc:
            out["rpc"] = [rpc[op] for op in sorted(rpc)]
        return out
