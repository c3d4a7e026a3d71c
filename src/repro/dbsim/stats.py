"""Operation cost counters — the simulation's stand-in for cluster time.

Wall-clock on a laptop says little about a distributed Accumulo, so the
benchmark harness reports *work* counters instead: iterator seeks,
entries read through iterator stacks, entries written, and flushes.
These scale the same way the real system's I/O does.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Mapping, Sequence, Tuple

from repro.obs.metrics import Counter


@dataclass
class OpStats:
    """The cost model's five counts, as a value: what a tablet server's
    (or an unhosted tablet's) :func:`cost_counters` read at one moment
    (:func:`counted`), a delta between two such readings, or their sum
    over servers."""

    seeks: int = 0
    entries_read: int = 0
    entries_written: int = 0
    flushes: int = 0
    compactions: int = 0

    def snapshot(self) -> "OpStats":
        return OpStats(self.seeks, self.entries_read, self.entries_written,
                       self.flushes, self.compactions)

    def delta(self, before: "OpStats") -> "OpStats":
        """Counters accumulated since ``before`` (a prior snapshot)."""
        return OpStats(
            self.seeks - before.seeks,
            self.entries_read - before.entries_read,
            self.entries_written - before.entries_written,
            self.flushes - before.flushes,
            self.compactions - before.compactions,
        )

    def merge(self, other: "OpStats") -> "OpStats":
        return OpStats(
            self.seeks + other.seeks,
            self.entries_read + other.entries_read,
            self.entries_written + other.entries_written,
            self.flushes + other.flushes,
            self.compactions + other.compactions,
        )

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict, in declared field order — the form
        serialised into trace spans and JSON exports."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Mapping[str, int]) -> "OpStats":
        """Inverse of :meth:`as_dict`; missing counters default to 0,
        unknown keys are rejected."""
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown OpStats counters: {sorted(unknown)}")
        return cls(**{k: int(v) for k, v in d.items()})

    @classmethod
    def from_str(cls, s: str) -> "OpStats":
        """Parse the ``__str__`` rendering back into counters."""
        pairs = {}
        for token in s.split():
            name, _, value = token.partition("=")
            pairs[name] = int(value)
        return cls.from_dict(pairs)

    def __str__(self) -> str:
        # field=value pairs under the as_dict() names, so the rendering
        # round-trips through from_str()
        return " ".join(f"{k}={v}" for k, v in self.as_dict().items())


#: the cost model's counters, in :class:`OpStats` field order
COST = tuple(f.name for f in fields(OpStats))


def cost_counters() -> Tuple[Counter, ...]:
    """One unregistered :class:`~repro.obs.metrics.Counter` per
    :data:`COST` name, in that order: what a tablet server counts its
    tablets' work into (an unhosted tablet, its own)."""
    return tuple(Counter(name) for name in COST)


def counted(counters: Sequence[Counter]) -> OpStats:
    """What :func:`cost_counters`' counters hold now, as a value."""
    return OpStats(*(counter.value for counter in counters))
