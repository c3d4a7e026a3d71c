"""Merge per-process trace files into one cross-process span forest.

Every process in a repro.net cluster writes its own JSONL trace (the
client, the manager, each tablet server).  Spans carry W3C-style
identity (``trace_id``/``span_id``/``parent_id``) and the wire
protocol propagates the caller's context in every frame, so a server's
``rpc.server.*`` span records the originating ``rpc.client.call`` as
its parent — but the two records live in different files.  Stitching
is the join: read all the files, attribute each span to its writing
process (the :class:`~repro.obs.trace.JSONLSink` header record, with
the filename as fallback), and merge everything into one record list
whose ``parent_id`` links now resolve.  :func:`~repro.obs.analyze.
build_tree` on the stitched records yields the cross-process forest,
and :class:`~repro.obs.analyze.TraceAnalysis` gives the per-RPC
client/network/queue/service breakdown.

Typical use (also behind ``repro analyze`` given several files)::

    from repro.obs.stitch import stitch_files

    st = stitch_files(sorted(glob.glob("traces/trace.*.jsonl")))
    st.write("stitched.jsonl")            # one merged trace file
    st.edge_summary()                     # cross-process parent→child
    st.analysis().rpc_breakdown()         # where did the time go
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.analyze import (Record, SpanNode, TraceAnalysis, build_tree,
                               read_records)


def _process_from_path(path: str) -> str:
    """Fallback process name: ``.../trace.tserver0.jsonl`` → ``tserver0``."""
    stem = os.path.basename(path)
    if stem.endswith(".jsonl"):
        stem = stem[: -len(".jsonl")]
    if stem.startswith("trace."):
        stem = stem[len("trace."):]
    return stem or "unknown"


def stitch_records(sources: Mapping[str, Iterable[Record]]
                   ) -> "StitchedTrace":
    """Stitch already-loaded records: ``{fallback_name: records}``.

    A ``kind="header"`` record inside a source overrides its fallback
    name for every span in that source."""
    spans: List[Record] = []
    headers: List[Record] = []
    for fallback, records in sources.items():
        process = fallback
        batch: List[Record] = []
        for record in records:
            if record.get("kind") == "header":
                process = record.get("process") or fallback
                headers.append(dict(record))
            elif record.get("kind") == "span":
                batch.append(dict(record))
        for record in batch:
            # the header (or filename) wins over any stale field from a
            # previous stitch pass
            record["process"] = process
        spans.extend(batch)
    # deterministic merge order: trace, then time, then identity — the
    # stitched file is a pure function of its inputs' contents
    spans.sort(key=lambda r: (r.get("trace_id") or "",
                              r.get("start_s", 0.0),
                              r.get("span_id") or "",
                              r.get("name", "")))
    return StitchedTrace(spans, headers)


def stitch_files(paths: Iterable[str]) -> "StitchedTrace":
    """Stitch a set of per-process JSONL trace files."""
    sources: Dict[str, List[Record]] = {}
    for path in paths:
        name = _process_from_path(str(path))
        if name in sources:  # two files, same stem: keep both
            name = f"{name}#{sum(1 for k in sources if k.startswith(name))}"
        sources[name] = read_records(str(path))
    return stitch_records(sources)


class StitchedTrace:
    """The merged cross-process trace: annotated span records plus the
    views the CLI and CI assertions are built on."""

    def __init__(self, records: List[Record], headers: List[Record]):
        self.records = records
        self.headers = headers
        self._by_id: Dict[str, Record] = {
            r["span_id"]: r for r in records if r.get("span_id")}

    # -- basic shape ------------------------------------------------------

    def processes(self) -> List[str]:
        return sorted({r.get("process") or "?" for r in self.records})

    def traces(self) -> Dict[str, List[Record]]:
        """Span records grouped by ``trace_id`` (stitched order kept)."""
        out: Dict[str, List[Record]] = {}
        for record in self.records:
            out.setdefault(record.get("trace_id") or "", []).append(record)
        return out

    def orphan_spans(self) -> List[Record]:
        """Spans naming a parent that no stitched file contains — a
        non-empty result means a process's trace file is missing (or a
        span was lost).

        Tail-promoted records (``"sampled": false``) whose parent is
        missing are *not* orphans: head sampling is deterministic per
        trace id, so the parent's process made the same drop decision
        and simply never promoted its half.  Those are reported
        separately by :meth:`sampled_out_parents`."""
        return [r for r in self.records
                if r.get("parent_id") and r["parent_id"] not in self._by_id
                and r.get("sampled") is not False]

    def sampled_out_parents(self) -> List[Record]:
        """Tail-promoted spans whose parent was head-sampled away in
        another process — expected under partial sampling, and distinct
        from :meth:`orphan_spans` so ``repro analyze
        --check-cross-process`` doesn't misread sampling as data loss."""
        return [r for r in self.records
                if r.get("parent_id") and r["parent_id"] not in self._by_id
                and r.get("sampled") is False]

    # -- trees ------------------------------------------------------------

    def forest(self) -> List[SpanNode]:
        return build_tree(self.records)

    def analysis(self) -> TraceAnalysis:
        return TraceAnalysis(self.records)

    # -- cross-process structure ------------------------------------------

    def cross_process_edges(self) -> List[Tuple[str, str, str, str]]:
        """Every resolved parent→child link that crosses a process
        boundary, as ``(parent_process, parent_name, child_process,
        child_name)`` tuples (one per span, duplicates kept)."""
        edges: List[Tuple[str, str, str, str]] = []
        for record in self.records:
            parent = self._by_id.get(record.get("parent_id") or "")
            if parent is None:
                continue
            if parent.get("process") != record.get("process"):
                edges.append((parent.get("process") or "?",
                              parent.get("name") or "?",
                              record.get("process") or "?",
                              record.get("name") or "?"))
        return edges

    def edge_summary(self) -> List[str]:
        """Deterministic structural digest: sorted unique cross-process
        edges with multiplicities, e.g. ``client/rpc.client.call ->
        tserver0/rpc.server.scan x3``.  Timings and raw ids are
        excluded on purpose — this is what golden fixtures pin."""
        counts: Dict[Tuple[str, str, str, str], int] = {}
        for edge in self.cross_process_edges():
            counts[edge] = counts.get(edge, 0) + 1
        return [f"{pp}/{pn} -> {cp}/{cn} x{n}"
                for (pp, pn, cp, cn), n in sorted(counts.items())]

    # -- output -----------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "spans": len(self.records),
            "traces": len(self.traces()),
            "processes": self.processes(),
            "cross_process_edges": len(self.cross_process_edges()),
            "orphans": len(self.orphan_spans()),
            "sampled_out_parents": len(self.sampled_out_parents()),
        }

    def write(self, path: str) -> None:
        """Write the stitched trace as JSONL: one ``stitch_header``
        line, then every span record (analyzable by ``repro analyze``
        and :func:`~repro.obs.analyze.read_records` as-is)."""
        with open(path, "w", encoding="utf-8") as fh:
            header = dict(self.as_dict())
            header["kind"] = "stitch_header"
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True, default=str)
                         + "\n")
