"""Named metrics: counters, gauges, histograms in a registry.

The registry is the aggregation point the simulated database wires in:
every :class:`~repro.dbsim.server.Instance` owns (or shares) one, and
tablets report per-table work into it under the dotted ``dbsim.*``
names that docs/OBSERVABILITY.md lists, in its "Metrics registry"
section (``tests/test_docs_metrics.py`` holds them to the registered
ones).

``registry.export()`` renders everything into one plain dict (counters
and gauges as numbers, histograms as ``{count, sum, min, max, mean}``),
ready for JSON.  All instruments are thread-safe.  A process-global
registry (:func:`global_registry`) is the default for instances created
without an explicit one — the benchmark harness prints its export at
session end.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Fixed log-spaced histogram bucket upper bounds: three per decade from
#: 1e-6 to 1e4 (wide enough for seconds-scale latencies and count-scale
#: observations alike).  Shared by every :class:`Histogram` so exports
#: and Prometheus exposition line up across registries.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    round(10.0 ** (e / 3.0), 10) for e in range(-18, 13))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc by {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def export(self) -> Number:
        return self._value


class Gauge:
    """Last-set value (sizes, lengths, levels)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value: Number = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: Number) -> None:
        with self._lock:
            self._value += amount

    def set_max(self, value: Number) -> None:
        """Raise the gauge to ``value`` if larger (peak / high-water mark)."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> Number:
        return self._value

    def export(self) -> Number:
        return self._value


class Histogram:
    """Streaming summary of observed values.

    Tracks exact count/sum/min/max/mean plus per-bucket counts over the
    fixed log-spaced :data:`BUCKET_BOUNDS`, from which ``export()``
    estimates p50/p95/p99 (linear interpolation inside the bucket,
    clamped to the exact observed min/max)."""

    __slots__ = ("name", "_count", "_sum", "_min", "_max", "_buckets",
                 "_lock")

    def __init__(self, name: str):
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        #: per-bucket (non-cumulative) counts; index len(BUCKET_BOUNDS)
        #: is the overflow (+Inf) bucket
        self._buckets = [0] * (len(BUCKET_BOUNDS) + 1)
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        v = float(value)
        with self._lock:
            self._count += 1
            self._sum += v
            self._min = v if self._min is None else min(self._min, v)
            self._max = v if self._max is None else max(self._max, v)
            self._buckets[bisect.bisect_left(BUCKET_BOUNDS, v)] += 1

    @property
    def count(self) -> int:
        return self._count

    def bucket_counts(self) -> Tuple[Tuple[float, ...], List[int]]:
        """``(upper_bounds, cumulative_counts)`` in Prometheus ``le``
        semantics; the final count (the implicit +Inf bucket) equals
        ``count``."""
        with self._lock:
            cum, total = [], 0
            for n in self._buckets:
                total += n
                cum.append(total)
        return BUCKET_BOUNDS, cum

    def _percentile(self, q: float) -> float:
        """Estimate the q-th percentile (0 < q <= 100) from the bucket
        counts; caller holds the lock."""
        if self._count == 0:
            return 0.0
        rank = q / 100.0 * self._count
        cum = 0
        for i, n in enumerate(self._buckets):
            if n == 0:
                continue
            if cum + n >= rank:
                lo = BUCKET_BOUNDS[i - 1] if i > 0 else min(self._min, 0.0)
                hi = BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else self._max
                frac = (rank - cum) / n
                est = lo + frac * (hi - lo)
                return min(max(est, self._min), self._max)
            cum += n
        return self._max  # pragma: no cover - rank <= count always lands

    def export(self) -> Dict[str, Number]:
        with self._lock:
            mean = self._sum / self._count if self._count else 0.0
            return {"count": self._count, "sum": self._sum,
                    "min": self._min if self._min is not None else 0.0,
                    "max": self._max if self._max is not None else 0.0,
                    "mean": mean,
                    "p50": self._percentile(50),
                    "p95": self._percentile(95),
                    "p99": self._percentile(99)}


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create home for named instruments."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Instrument] = {}

    def _get(self, name: str, cls):
        with self._lock:
            inst = self._metrics.get(name)
            if inst is None:
                inst = self._metrics[name] = cls(name)
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, requested {cls.__name__}")
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def instruments(self) -> Dict[str, Instrument]:
        """Snapshot of the live instruments by name (sorted) — what the
        Prometheus exposition walks to learn each metric's type."""
        with self._lock:
            items = list(self._metrics.items())
        return dict(sorted(items))

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def export(self) -> Dict[str, Union[Number, Dict[str, Number]]]:
        """Snapshot every instrument into a JSON-ready dict."""
        with self._lock:
            items = list(self._metrics.items())
        return {name: inst.export() for name, inst in sorted(items)}

    def reset(self) -> None:
        """Drop every instrument (fresh registry state)."""
        with self._lock:
            self._metrics.clear()


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry (used by ``Instance`` when no
    explicit registry is passed, and exported by the bench harness)."""
    return _GLOBAL
