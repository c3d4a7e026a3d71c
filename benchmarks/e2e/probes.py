"""Per-layer probes: direct calls into one layer's public functions on
inputs made from ``--seed``, run only in the ``--trace`` pass.

Until the program carries spans of its own around tablet drain,
iterator stack and codec, this is how the benchmark puts a number on
those layers.  Every probe uses a fixed 10k-cell input (a scale-10
D4M edge table, a scale-8 adjacency matrix for the kernel) so its
value means the same on every workload.

Like every block, a probe's timings are scaled to the reference host
speed (``hostspeed.py``): the loop runs between its repetitions.

A probe whose API has gone (a later PR may delete ``via="engine"`` or
fold ``repro.net.cells`` into something else) reports ``None`` with
the reason instead of failing the run.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.dbsim import Connector, Instance, Range, Tablet
from repro.generators import rmat_graph
from repro.net import CellsPayload, IterSpec
from repro.sparse import mxm

from benchmarks.e2e import hostspeed
from benchmarks.e2e.inputs import EDGE_FACTOR, make_graph
from benchmarks.e2e.spans import SpanRecorder

PROBE_CELLS = 10_000
CHUNK_CELLS = 2048       # one scan CHUNK frame
REPS = 5

TIME_UNITS = ("s", "ms", "us")

#: what a vanished or re-shaped public API raises
API_GONE = (ImportError, AttributeError, TypeError)


class Probe(NamedTuple):
    value: Optional[float]
    unit: str
    reason: str = ""


def probe(*outputs: Tuple[str, str]):
    """Declare a probe's ``(metric, unit)`` outputs, so that when its
    API is gone every one of them is still reported — as ``None``."""
    def wrap(fn: Callable[..., Dict[str, float]]):
        @functools.wraps(fn)
        def run(spans: SpanRecorder, *args) -> Dict[str, Probe]:
            mark = hostspeed.mark()
            try:
                with spans.span(f"probe.{fn.__name__}"):
                    values = fn(*args)
            except API_GONE as exc:
                why = f"{type(exc).__name__}: {exc}"
                return {name: Probe(None, unit, why)
                        for name, unit in outputs}
            scale = hostspeed.REF_LOOP_S / hostspeed.mean_since(mark)
            return {name: Probe(values[name]
                                * (scale if unit in TIME_UNITS else 1.0),
                                unit)
                    for name, unit in outputs}
        return run
    return wrap


def _median_s(fn: Callable[[], object], reps: int = REPS) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
        hostspeed.sample()
    return statistics.median(samples)


def _per_10k(seconds: float, cells: int) -> float:
    return 1e6 * seconds * PROBE_CELLS / cells


def probe_mutations(seed: int) -> list:
    """10k D4M edge cells as BatchWriter mutation tuples, rows sorted,
    values cycling 0..9 so a value filter can be 10 % selective."""
    graph = make_graph(10, seed)
    pairs = graph.key_pairs()[:PROBE_CELLS]
    return [(row, "", col, "", 0, False, str(i % 10))
            for i, (row, col) in enumerate(pairs)]


@probe(("sparse.mxm_s", "s"), ("sparse.mxm_partial_products", "count"),
       ("sparse.mxm_out_nnz", "count"))
def sparse_kernel(seed: int):
    """``repro.sparse.mxm(Aᵀ, A)`` on the scale-8 graph of this seed."""
    adj = rmat_graph(8, edge_factor=EDGE_FACTOR, seed=seed)
    adj_t = adj.T
    out = mxm(adj_t, adj)
    return {
        "sparse.mxm_s": _median_s(lambda: mxm(adj_t, adj)),
        "sparse.mxm_partial_products":
            float((adj.row_lengths.astype(np.int64) ** 2).sum()),
        "sparse.mxm_out_nnz": float(out.nnz),
    }


@probe(("dbsim.tablet.write_us_per_10k", "us"),
       ("dbsim.tablet.fused_us_per_10k", "us"),
       ("dbsim.tablet.stack_us_per_10k", "us"),
       ("dbsim.tablet.pushdown10_us_per_10k", "us"))
def tablet(muts: list):
    """Direct ``Tablet`` calls: batch write, the fused columnar drain,
    and the per-cell iterator stack a pushed-down ``IterSpec`` forces —
    pass-through and 10 %-selective."""
    n = len(muts)

    def write() -> Tablet:
        tab = Tablet(Range())
        tab.write_raw_batch(muts)
        return tab

    write_s = _median_s(write)
    tab = write()
    tab.flush()
    tab.compact()

    def drain(spec: Optional[IterSpec]) -> float:
        its = spec.build_factories() if spec is not None else ()
        return _median_s(lambda: sum(
            len(batch) for batch in tab.scan_columns(Range(), None, (), its)))

    return {
        "dbsim.tablet.write_us_per_10k": _per_10k(write_s, n),
        "dbsim.tablet.fused_us_per_10k": _per_10k(drain(None), n),
        "dbsim.tablet.stack_us_per_10k":
            _per_10k(drain(IterSpec().value_ge(0)), n),
        "dbsim.tablet.pushdown10_us_per_10k":
            _per_10k(drain(IterSpec().value_ge(9)), n),
    }


@probe(("dbsim.memtable_lookup_p50_us", "us"), ("dbsim.compact_s", "s"),
       ("dbsim.lookup_p50_us", "us"))
def backend(muts: list):
    """The in-process backend alone: an exact-row lookup against a hot
    memtable, a compaction, and the same lookup once compacted."""
    conn = Connector(Instance(n_servers=2))
    rows = sorted({m[0] for m in muts})
    conn.create_table("P", splits=[rows[len(rows) * q // 4]
                                   for q in (1, 2, 3)])
    with conn.batch_writer("P") as writer:
        for row, _, col, _, _, _, val in muts:
            writer.put(row, "", col, val)
    keys = rows[::max(len(rows) // 200, 1)]

    def lookup_p50() -> float:
        samples = []
        for key in keys:
            t0 = time.perf_counter()
            list(conn.scanner("P").set_range(Range.exact_row(key)))
            samples.append(time.perf_counter() - t0)
            hostspeed.sample()
        return 1e6 * statistics.median(samples)

    hot = lookup_p50()
    conn.flush("P")
    t0 = time.perf_counter()
    conn.compact("P")
    compact_s = time.perf_counter() - t0
    return {"dbsim.memtable_lookup_p50_us": hot,
            "dbsim.compact_s": compact_s,
            "dbsim.lookup_p50_us": lookup_p50()}


@probe(("net.cells.encode_us_per_10k", "us"),
       ("net.cells.decode_us_per_10k", "us"),
       ("net.cells.bytes_per_cell", "bytes"))
def codec(muts: list):
    """The binary cell-block codec every write batch and scan chunk
    passes through."""
    from repro.net import cells
    block = cells.encode_block(muts)
    n = len(muts)
    return {
        "net.cells.encode_us_per_10k":
            _per_10k(_median_s(lambda: cells.encode_block(muts)), n),
        "net.cells.decode_us_per_10k":
            _per_10k(_median_s(lambda: cells.decode_batch(block)), n),
        "net.cells.bytes_per_cell": len(block) / n,
    }


@probe(("net.wire.frame_us_per_chunk", "us"))
def framing(muts: list):
    """Frame + CRC + unframe of one 2048-cell scan chunk (the cell
    block is already encoded: that cost is the codec's)."""
    from repro.net import cells, wire
    payload = CellsPayload({}, cells.encode_block(muts[:CHUNK_CELLS]))

    def round_trip() -> None:
        frame = wire.encode_frame(wire.CHUNK, payload, req=1)
        wire.decode_body(memoryview(frame)[4:])

    return {"net.wire.frame_us_per_chunk":
            1e6 * _median_s(round_trip, reps=50)}


@probe(("net.wire.ping_p50_us", "us"))
def ping(conn):
    """The smallest unary RPC the public client API offers: one
    ``table_exists`` round trip to the manager."""
    exists = conn.instance.table_exists
    samples = []
    for _ in range(300):
        t0 = time.perf_counter()
        exists("no-such-table")
        samples.append(time.perf_counter() - t0)
        hostspeed.sample()
    return {"net.wire.ping_p50_us": 1e6 * statistics.median(samples)}


def run_all(spans: SpanRecorder, seed: int, conn) -> Dict[str, Probe]:
    muts = probe_mutations(seed)
    out: Dict[str, Probe] = {}
    out.update(sparse_kernel(spans, seed))
    for fn in (tablet, backend, codec, framing):
        out.update(fn(spans, muts))
    out.update(ping(spans, conn))
    return out
