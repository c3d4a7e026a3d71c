"""How fast the host is running right now, from a fixed reference loop.

The benchmark's host is a few cores of a shared machine, and both its
cores and its memory system have a slow state: a single-threaded
arithmetic loop takes 0.80 ms when the neighbours are idle and 1.2 ms
when they are not, a loop that reads objects scattered over 25 MB moves
between 1.0x and 1.5x its best time independently of the first, either
state flips within tens of milliseconds, and which one prevails changes
from one minute to the next.  The median ``traverse`` block measured
550 ms in one run and 838 ms in another a few minutes later, same code
— wider than any bound the benchmark could put on a metric.

So every block carries its own measure of the host: the reference loop
below — half arithmetic, half scattered reads — is run *between* timed
calls (never inside one), about once per 20 ms of elapsed time, and the
block's timings are scaled by ``REF_LOOP_S / (mean loop time inside the
block)`` — they are reported as the times the block would have taken on
a host that runs the loop in ``REF_LOOP_S``.  Over twelve runs each that
spanned the host's states, the quartile distance of raw block medians
was 28 % (``ingest_scan``) and 18 % (``traverse``) of their median, of
scaled ones 6 % and 5 %; with the arithmetic half alone, 14 % and 7 %.
The raw median and the loop time are printed beside every scaled metric;
README.md "Noise on this host" has the series.

The loop is interpreter work over memory, as the program under test is;
the scaling is blind to a change in how the program waits (there is no
disk and no real network here for it to wait on).
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: about what the loop takes on this benchmark's 2-vCPU host with idle
#: neighbours, so that scaled times read as wall-clock times on a quiet
#: host
REF_LOOP_S = 1.3e-3
#: the two halves of the loop: arithmetic on small ints, and reads of
#: objects scattered over a pool no cache holds
ARITHMETIC_STEPS = 7_500
CHASE_OBJECTS = 6_000
POOL_OBJECTS = 400_000
#: one loop per this much elapsed time (6 % of the wall clock, none of
#: it inside a timed call) ...
EVERY_S = 0.020
#: ... and at most this many back to back after one long call
MAX_BURST = 16

_samples: List[float] = []
_last = time.perf_counter()
_pool: List[str] = []
_next = 0


def _fill_pool() -> None:
    """Small strings, listed in an order unrelated to where they lie:
    walking a slice of the list is one cache miss per object."""
    made = [str(i) * 2 for i in range(POOL_OBJECTS)]
    order = np.random.default_rng(0).permutation(POOL_OBJECTS)
    _pool.extend(made[i] for i in order.tolist())


def _loop() -> float:
    global _next
    if not _pool:
        _fill_pool()
    start = _next
    _next = (start + CHASE_OBJECTS) % (POOL_OBJECTS - CHASE_OBJECTS)
    t0 = time.perf_counter()
    x = 0
    for i in range(ARITHMETIC_STEPS):
        x += i * i
    for s in _pool[start:start + CHASE_OBJECTS]:
        x += len(s)
    return time.perf_counter() - t0


def sample(force: bool = False) -> None:
    """Run the loop once per ``EVERY_S`` that passed since it last ran,
    so that samples are spread over time, not over calls."""
    global _last
    due = min(int((time.perf_counter() - _last) / EVERY_S), MAX_BURST)
    for _ in range(max(due, 1 if force else 0)):
        _samples.append(_loop())
    if due or force:
        _last = time.perf_counter()


def mark() -> int:
    return len(_samples)


def mean_since(start: int) -> float:
    """Mean loop time over the samples taken from ``mark()`` value
    ``start`` on; takes one if there are none."""
    if len(_samples) == start:
        sample(force=True)
    taken = _samples[start:]
    return sum(taken) / len(taken)


def spent_s() -> float:
    """Seconds this process has spent inside the loop so far — what an
    interval that had loops run inside it subtracts."""
    return sum(_samples)
