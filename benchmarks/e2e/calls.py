"""Timed calls: the one place a workload touches the clock.

``Calls.timed`` runs one user-visible call, records its wall time under
a stage name, opens a benchmark-owned span around it, and turns a
fabric failure into a failed operation instead of a crash.  The
per-block sums feed the block-level metrics, the pooled samples the
percentiles.  ``end_block`` scales everything the block recorded to the
reference host speed (``hostspeed.py`` says why).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.dbsim import TabletServerError
from repro.net import ProtocolError, RpcError

from benchmarks.e2e import hostspeed
from benchmarks.e2e.spans import SpanRecorder

#: what a call may raise when the fabric gives up: retries exhausted,
#: a deadline passed, a server shed or lost the request
FABRIC_ERRORS = (RpcError, ProtocolError, TabletServerError, OSError,
                 TimeoutError)


class _Failed:
    def __repr__(self) -> str:
        return "FAILED"


#: the result of a timed call that raised
FAILED = _Failed()


class Calls:
    def __init__(self, spans: SpanRecorder) -> None:
        self.spans = spans
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: stage -> every sample, seconds (scaled once its block ends)
        self.pooled: Dict[str, List[float]] = defaultdict(list)
        #: stage -> seconds spent in the current block
        self.block: Dict[str, float] = defaultdict(float)
        #: per finished block: mean reference-loop time inside it, seconds
        self.loop_s: List[float] = []
        self._mark: Optional[int] = None            # hostspeed.mark()
        self._scaled: Dict[str, int] = defaultdict(int)

    def timed(self, stage: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one attempted operation of ``stage``; the
        caller consumes the result inside ``fn`` so the work is done
        when the clock stops."""
        self.attempted += 1
        if self._mark is None:
            self._mark = hostspeed.mark()
        t0 = time.perf_counter()
        try:
            with self.spans.span("call." + stage):
                out = fn(*args, **kwargs)
        except FABRIC_ERRORS as exc:
            self.fail(f"{stage}: {type(exc).__name__}: {exc}")
            out = FAILED
        dt = time.perf_counter() - t0
        self.pooled[stage].append(dt)
        self.block[stage] += dt
        hostspeed.sample()
        return out

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)

    def end_block(self) -> Dict[str, float]:
        """The block's seconds per stage, at the reference host speed;
        its pooled samples are scaled in place by the same factor."""
        if self._mark is None:
            self._mark = hostspeed.mark()
        loop_s = hostspeed.mean_since(self._mark)
        self._mark = None
        self.loop_s.append(loop_s)
        scale = hostspeed.REF_LOOP_S / loop_s
        for stage, samples in self.pooled.items():
            first = self._scaled[stage]
            samples[first:] = [dt * scale for dt in samples[first:]]
            self._scaled[stage] = len(samples)
        done = {stage: dt * scale for stage, dt in self.block.items()}
        self.block = defaultdict(float)
        return done
