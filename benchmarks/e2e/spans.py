"""Benchmark-owned spans: one per call into a layer's public function.

Kept in memory and written to ``spans.jsonl`` when the run ends, so the
recorder costs two clock reads and one list append per call.  Spans of
one block share a trace id; a layer's *self* time is its span minus the
part its direct children cover.  Spans inside the program itself
(tablet drain, iterator stack, codec) are a later issue — today those
layers are measured by direct probes (``probes.py``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class SpanRecorder:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._trace: Optional[str] = None

    @contextmanager
    def trace(self, trace_id: str) -> Iterator[None]:
        """Every span opened inside shares ``trace_id``."""
        previous, self._trace = self._trace, trace_id
        try:
            yield
        finally:
            self._trace = previous

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        rec = {"name": name, "trace": self._trace, "id": len(self.spans),
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start_s": time.perf_counter(), **attrs}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield
        finally:
            rec["end_s"] = time.perf_counter()
            self._stack.pop()

    def rollup(self, first: int = 0) -> Dict[str, dict]:
        """``name -> {count, total_s, self_s}`` over the finished spans
        from index ``first`` on."""
        spans = self.spans[first:]
        child_s: Dict[int, float] = {}
        for sp in spans:
            if sp["parent"] is not None and "end_s" in sp:
                child_s[sp["parent"]] = (child_s.get(sp["parent"], 0.0)
                                         + sp["end_s"] - sp["start_s"])
        out: Dict[str, dict] = {}
        for sp in spans:
            if "end_s" not in sp:
                continue
            dur = sp["end_s"] - sp["start_s"]
            row = out.setdefault(sp["name"],
                                 {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += dur
            row["self_s"] += max(dur - child_s.get(sp["id"], 0.0), 0.0)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp, sort_keys=True) + "\n")
