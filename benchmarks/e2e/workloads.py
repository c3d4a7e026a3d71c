"""The four workloads.  Each is a fixed *block* of user-visible calls,
repeated for the measuring window; the same block code runs once
against the in-process backend in set-up and its results are the
oracle every cluster block is compared to, cell for cell.

Only public names are used (``repro.dbsim.__all__``, ``repro.net.
__all__``) and every end-to-end call takes default arguments, so a
later PR that simplifies an internal path cannot be blocked by the
benchmark.

Why these four, and which layer each stresses, is in each class's
``why`` and in README.md; sizes are the largest that keep one run (three set-ups,
a warm-up block and the measuring window) near 30 s on a 2-CPU host.
"""

from __future__ import annotations

import inspect
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.dbsim import (
    Range,
    SummingCombiner,
    TableConfig,
    degree_table,
    table_bfs,
    table_jaccard,
    table_ktruss,
    table_mult,
)

from benchmarks.e2e import hostspeed
from benchmarks.e2e.calls import FAILED, Calls
from benchmarks.e2e.inputs import Graph, make_graph
from benchmarks.e2e.probes import Probe

Results = List[Tuple[str, object]]
Blocks = Sequence[Dict[str, float]]


class Metric(NamedTuple):
    name: str
    value: float
    unit: str
    n: int          # samples behind the value


class OracleError(RuntimeError):
    """The in-process reference run itself produced a degenerate or
    self-inconsistent result; nothing measured against it would mean
    anything."""


# -- statistics -------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _stage_s(block: Dict[str, float], stages: Sequence[str]) -> float:
    return sum(block.get(s, 0.0) for s in stages)


def block_time(name: str, unit: str, blocks: Blocks,
               stages: Sequence[str], scale: float = 1.0) -> Metric:
    """Median over blocks of the time spent in ``stages``."""
    return Metric(name, scale * statistics.median(
        _stage_s(b, stages) for b in blocks), unit, len(blocks))


def block_rate(name: str, unit: str, blocks: Blocks,
               stages: Sequence[str], units: float) -> Metric:
    """Median over blocks of ``units`` per second spent in ``stages``."""
    return Metric(name, statistics.median(
        units / _stage_s(b, stages) for b in blocks), unit, len(blocks))


def pooled(name: str, unit: str, samples: Sequence[float], q: float,
           scale: float) -> Metric:
    return Metric(name, scale * percentile(samples, q), unit, len(samples))


# -- shared store helpers ---------------------------------------------------


def _canon(raw, fn):
    return raw if raw is FAILED else fn(raw)


def _cell_tuples(cells) -> list:
    return [(c.key.row, c.key.family, c.key.qualifier, c.value)
            for c in cells]


def _batch_tuples(cols) -> list:
    return list(zip(*cols))


def scan_columns(conn, table: str, rng: Range = Range()):
    """Columnar read; the four compared columns are drained inside the
    call so the scan has finished when the clock stops."""
    rows: List[str] = []
    fams: List[str] = []
    quals: List[str] = []
    vals: List[str] = []
    for batch in conn.scanner(table).set_range(rng).scan_columns():
        rows.extend(batch.rows)
        fams.extend(batch.families)
        quals.extend(batch.qualifiers)
        vals.extend(batch.values)
    return rows, fams, quals, vals


def scan_cells(conn, table: str, rng: Range = Range()) -> list:
    """Per-cell read (``for cell in scanner``)."""
    return [cell for cell in conn.scanner(table).set_range(rng)]


def read_table(conn, table: str) -> list:
    """Untimed verification read."""
    return _batch_tuples(scan_columns(conn, table))


def load_edges(conn, graph: Graph, pairs, transpose: bool = True) -> None:
    """Tedge (and TedgeT unless the workload only reads rows of Tedge),
    pre-split into 4 tablets, one BatchWriter each."""
    conn.create_table("Tedge", splits=graph.splits)
    if not transpose:
        with conn.batch_writer("Tedge") as edge:
            for row, col in pairs:
                edge.put(row, "", col, "1")
        return
    conn.create_table("TedgeT", splits=graph.splits)
    with conn.batch_writer("Tedge") as edge, \
            conn.batch_writer("TedgeT") as edge_t:
        for row, col in pairs:
            edge.put(row, "", col, "1")
            edge_t.put(col, "", row, "1")


def drop(conn, tables: Sequence[str]) -> None:
    for table in tables:
        conn.delete_table(table)


# -- workloads --------------------------------------------------------------


class Workload:
    name: str
    scale: int
    #: distinct block variants; block ``i`` runs variant ``i % period``
    period = 1
    #: what ``work_per_s`` counts on this workload
    work_unit: str

    def inputs(self, seed: int):
        raise NotImplementedError

    def preload(self, conn, inp) -> None:
        """State the timed blocks start from (part of set-up)."""

    def block(self, conn, inp, variant: int, calls: Calls) -> Results:
        raise NotImplementedError

    def work_units(self, inp) -> float:
        raise NotImplementedError

    def check_oracle(self, inp, expected: List[Results]) -> None:
        """Raise :class:`OracleError` on a degenerate reference run."""

    def named(self, inp, blocks: Blocks,
              samples: Dict[str, List[float]]) -> List[Metric]:
        """The workload's own end-to-end metrics, by the names the
        issue gave them."""
        raise NotImplementedError

    def stage_metrics(self, inp, blocks: Blocks) -> List[Metric]:
        """Sub-stage wall times that are not user-facing on their own."""
        return []

    def layer_probes(self, conn) -> Dict[str, Probe]:
        """Per-layer probes that need this workload's preloaded tables
        (run once, in the ``--trace`` pass, after the timed blocks)."""
        return {}


@dataclass
class GraphInputs:
    graph: Graph
    pairs: list


class IngestScan(Workload):
    name = "ingest_scan"
    scale = 12
    work_unit = "cells moved (2E written, 3E read)"

    def inputs(self, seed: int) -> GraphInputs:
        graph = make_graph(self.scale, seed)
        return GraphInputs(graph, graph.key_pairs())

    def block(self, conn, inp, variant, calls):
        graph = inp.graph
        out: Results = []
        calls.timed("ingest", load_edges, conn, graph, inp.pairs)
        calls.timed("ingest_flush",
                    lambda: (conn.flush("Tedge"), conn.flush("TedgeT")))
        calls.timed("degree_table", degree_table, conn, "Tedge", "Tdeg")
        out.append(("tdeg", read_table(conn, "Tdeg")))
        out.append(("scan", _canon(
            calls.timed("scan", scan_columns, conn, "Tedge"),
            _batch_tuples)))
        out.append(("scan_iter", _canon(
            calls.timed("scan_iter", scan_cells, conn, "TedgeT"),
            _cell_tuples)))
        calls.timed("drop", drop, conn, ("Tedge", "TedgeT", "Tdeg"))
        return out

    def work_units(self, inp) -> float:
        return 5.0 * inp.graph.n_edges

    def check_oracle(self, inp, expected):
        graph = inp.graph
        tdeg = dict(expected[0])["tdeg"]
        got = {row: float(val) for row, _, _, val in tdeg}
        want = {graph.keys[i]: float(d)
                for i, d in enumerate(graph.degree.tolist()) if d}
        if got != want:
            raise OracleError("in-process Tdeg disagrees with "
                              "numpy.bincount over the edge list")

    def named(self, inp, blocks, samples):
        edges = inp.graph.n_edges
        return [
            block_rate("ingest_cells_per_s", "cells/s", blocks,
                       ("ingest", "ingest_flush"), 2.0 * edges),
            block_rate("scan_cells_per_s", "cells/s", blocks,
                       ("scan",), edges),
            block_rate("scan_iter_cells_per_s", "cells/s", blocks,
                       ("scan_iter",), edges),
            block_time("degree_table_s", "s", blocks, ("degree_table",)),
        ]

    def stage_metrics(self, inp, blocks):
        return [block_time("stage.ingest_flush_s", "s", blocks,
                           ("ingest_flush",))]


@dataclass
class TraverseInputs(GraphInputs):
    threshold: float
    lookups: List[List[str]]            # per variant
    bfs_seeds: List[List[List[str]]]    # per variant, per BFS call


class Traverse(Workload):
    name = "traverse"
    scale = 12
    period = 3
    work_unit = "calls (lookups + BFS)"
    LOOKUPS = 200
    BFS_CALLS = 2          # alternating plain / degree-filtered
    BFS_SEEDS = 8
    HOPS = 3

    def inputs(self, seed: int) -> TraverseInputs:
        graph = make_graph(self.scale, seed)
        rng = np.random.default_rng([seed, 1])
        threshold = graph.median_degree()
        hubs = np.nonzero(graph.degree >= threshold)[0]
        keys = graph.keys
        # lookups draw from every vertex key, so isolated vertices give
        # the bloom filters rows to reject
        lookups = [[keys[i] for i in rng.integers(0, graph.n, self.LOOKUPS)]
                   for _ in range(self.period)]
        bfs_seeds = [[[keys[i] for i in rng.choice(hubs, self.BFS_SEEDS,
                                                    replace=False)]
                      for _ in range(self.BFS_CALLS)]
                     for _ in range(self.period)]
        return TraverseInputs(graph, graph.key_pairs(), threshold,
                              lookups, bfs_seeds)

    def preload(self, conn, inp):
        load_edges(conn, inp.graph, inp.pairs, transpose=False)
        degree_table(conn, "Tedge", "Tdeg")
        conn.flush("Tedge")
        conn.compact("Tedge")

    def block(self, conn, inp, variant, calls):
        out: Results = []
        keys = inp.lookups[variant]
        per = len(keys) // self.BFS_CALLS
        # interleaved: back-to-back sets of lookups drift on a shared
        # host, and only averaging across the run removes that
        for q, seeds in enumerate(inp.bfs_seeds[variant]):
            for key in keys[q * per:(q + 1) * per]:
                out.append(("lookup", _canon(
                    calls.timed("lookup", scan_cells, conn, "Tedge",
                                Range.exact_row(key)), _cell_tuples)))
            if q % 2 == 0:
                out.append(("bfs3", calls.timed(
                    "bfs3", table_bfs, conn, "Tedge", seeds, self.HOPS)))
            else:
                out.append(("bfs3_filtered", calls.timed(
                    "bfs3_filtered", table_bfs, conn, "Tedge", seeds,
                    self.HOPS, min_degree=inp.threshold,
                    degree_table_name="Tdeg")))
        return out

    def work_units(self, inp) -> float:
        return float(self.LOOKUPS + self.BFS_CALLS)

    def check_oracle(self, inp, expected):
        for results in expected:
            for stage, dist in results:
                if stage == "bfs3_filtered" and len(dist) <= self.BFS_SEEDS:
                    raise OracleError(
                        "a degree-filtered BFS reached only its seeds")

    def named(self, inp, blocks, samples):
        return [
            pooled("lookup_p50_us", "us", samples["lookup"], 50, 1e6),
            pooled("lookup_p95_us", "us", samples["lookup"], 95, 1e6),
            pooled("bfs3_p50_ms", "ms", samples["bfs3"], 50, 1e3),
            pooled("bfs3_filtered_p50_ms", "ms", samples["bfs3_filtered"],
                   50, 1e3),
        ]


@dataclass
class MixedInputs:
    graph: Graph
    batches: List[list]             # per round: (row, col) pairs
    lookups: List[List[str]]        # per round: rows already written
    ranges: List[Range]             # per round: 1 % of the key space


class MixedRW(Workload):
    name = "mixed_rw"
    scale = 12
    work_unit = "calls (write batches + lookups + range scans)"
    BATCH = 2000
    LOOKUPS = 10
    #: 1/16 of the default memtable, so that at this scale every
    #: tablet still flushes on its own several times within one pass
    FLUSH_BYTES = 64 << 10

    def inputs(self, seed: int) -> MixedInputs:
        graph = make_graph(self.scale, seed, raw=True)
        rng = np.random.default_rng([seed, 2])
        keys = graph.keys
        raw = graph.raw
        rounds = len(raw) // self.BATCH
        span = max(graph.n // 100, 1)
        # one range per stratum of the key space, strata in seeded
        # order: R-MAT rows are so skewed that 16 free draws would scan
        # a very different number of cells from one seed to the next
        stratum = graph.n // rounds
        strata = rng.permutation(rounds).tolist()
        batches, lookups, ranges = [], [], []
        for r in range(rounds):
            chunk = raw[r * self.BATCH:(r + 1) * self.BATCH]
            batches.append([(keys[i], keys[j]) for i, j in chunk.tolist()])
            written = raw[:(r + 1) * self.BATCH, 0]
            lookups.append([keys[i] for i in
                            rng.choice(written, self.LOOKUPS).tolist()])
            start = (strata[r] * stratum
                     + int(rng.integers(0, stratum - span)))
            ranges.append(Range(keys[start], keys[start + span]))
        return MixedInputs(graph, batches, lookups, ranges)

    def block(self, conn, inp, variant, calls):
        out: Results = []
        # the client never flushes: reads hit a growing, unsorted
        # memtable plus whatever runs the tablets flushed on their own
        conn.create_table(
            "Tmix", TableConfig(max_versions=2 ** 31,
                                table_iterators=(SummingCombiner,),
                                flush_bytes=self.FLUSH_BYTES),
            splits=inp.graph.splits)

        def write(batch):
            with conn.batch_writer("Tmix") as writer:
                for row, col in batch:
                    writer.put(row, "", col, 1)

        for batch, keys, rng in zip(inp.batches, inp.lookups, inp.ranges):
            calls.timed("write_batch", write, batch)
            for key in keys:
                out.append(("lookup", _canon(
                    calls.timed("lookup", scan_cells, conn, "Tmix",
                                Range.exact_row(key)), _cell_tuples)))
            out.append(("range_scan", _canon(
                calls.timed("range_scan", scan_columns, conn, "Tmix", rng),
                _batch_tuples)))
        out.append(("final", read_table(conn, "Tmix")))
        drop(conn, ("Tmix",))
        return out

    def work_units(self, inp) -> float:
        return float(len(inp.batches) * (2 + self.LOOKUPS))

    def named(self, inp, blocks, samples):
        ops = self.work_units(inp)
        return [
            pooled("lookup_p50_us", "us", samples["lookup"], 50, 1e6),
            pooled("lookup_p95_us", "us", samples["lookup"], 95, 1e6),
            pooled("write_batch_p50_ms", "ms", samples["write_batch"],
                   50, 1e3),
            pooled("range_scan_p50_ms", "ms", samples["range_scan"],
                   50, 1e3),
            block_rate("mixed_ops_per_s", "ops/s", blocks,
                       ("write_batch", "lookup", "range_scan"), ops),
        ]


def truss_partial_products(graph: Graph, k: int) -> Tuple[int, int]:
    """``(partial products of one A·A, partial products over every
    k-truss round)`` — the multiply work the three kernels are asked to
    do, from the input alone.  Dense: the kernels run at scale <= 8."""
    adj = np.zeros((graph.n, graph.n), dtype=np.int64)
    adj[graph.src, graph.dst] = 1
    first = int((adj.sum(axis=1) ** 2).sum())
    total = 0
    while True:
        total += int((adj.sum(axis=1) ** 2).sum())
        keep = ((adj @ adj) * adj >= k - 2) & (adj > 0)
        if keep.sum() == adj.sum():
            return first, total
        adj = keep.astype(np.int64)


@dataclass
class AlgoInputs(GraphInputs):
    mult_pp: int
    block_pp: int


class GraphAlgos(Workload):
    name = "graph_algos"
    scale = 7
    work_unit = "partial products (TableMult + Jaccard + k-truss rounds)"
    K = 3

    def inputs(self, seed: int) -> AlgoInputs:
        graph = make_graph(self.scale, seed, relabel=True)
        mult_pp, truss_pp = truss_partial_products(graph, self.K)
        return AlgoInputs(graph, graph.key_pairs(), mult_pp,
                          2 * mult_pp + truss_pp)

    def preload(self, conn, inp):
        load_edges(conn, inp.graph, inp.pairs)
        conn.flush("Tedge")
        conn.flush("TedgeT")

    def block(self, conn, inp, variant, calls):
        out: Results = []
        calls.timed("tablemult", table_mult, conn, "TedgeT", "Tedge", "C")
        out.append(("tablemult", _canon(
            calls.timed("tablemult_readback", scan_columns, conn, "C"),
            _batch_tuples)))
        calls.timed("jaccard", table_jaccard, conn, "Tedge", "J")
        out.append(("jaccard", read_table(conn, "J")))
        calls.timed("ktruss", table_ktruss, conn, "Tedge", "K", self.K)
        out.append(("ktruss", read_table(conn, "K")))
        drop(conn, ("C", "J", "K"))
        return out

    def work_units(self, inp) -> float:
        return float(inp.block_pp)

    def check_oracle(self, inp, expected):
        results = dict(expected[0])
        if not results["tablemult"] or not results["jaccard"]:
            raise OracleError("TableMult or Jaccard produced no cells")

    def named(self, inp, blocks, samples):
        return [
            block_time("tablemult_s", "s", blocks, ("tablemult",)),
            block_time("jaccard_s", "s", blocks, ("jaccard",)),
            block_time("ktruss_s", "s", blocks, ("ktruss",)),
        ]

    def stage_metrics(self, inp, blocks):
        return [
            block_time("stage.tablemult_readback_s", "s", blocks,
                       ("tablemult_readback",)),
            block_rate("stage.tablemult_pp_per_s", "pp/s", blocks,
                       ("tablemult",), inp.mult_pp),
        ]

    def layer_probes(self, conn):
        """``table_mult(via="engine")`` on the preloaded tables — the
        path ROADMAP item 2 wants to be the only one."""
        name = "stage.tablemult_engine_s"
        if "via" not in inspect.signature(table_mult).parameters:
            return {name: Probe(None, "s", "table_mult has no via=")}
        mark = hostspeed.mark()
        t0 = time.perf_counter()
        table_mult(conn, "TedgeT", "Tedge", "Cengine", via="engine")
        took = time.perf_counter() - t0
        took *= hostspeed.REF_LOOP_S / hostspeed.mean_since(mark)
        conn.delete_table("Cengine")
        return {name: Probe(took, "s")}


#: how far each named end-to-end metric may worsen before a change
#: counts as a regression (``--check-noise`` holds two runs of the same
#: code to these): 10 % for medians and rates, 15 % for p95, and any
#: failed operation at all.  The three metrics every workload reports
#: (``setup_s``, ``block_p50_ms``, ``work_per_s``) carry their bounds in
#: BENCHMARK.json.
NAMED_BOUNDS: Dict[str, float] = {
    **{name: 0.10 for name in (
        "ingest_cells_per_s", "scan_cells_per_s", "scan_iter_cells_per_s",
        "degree_table_s", "lookup_p50_us", "bfs3_p50_ms",
        "bfs3_filtered_p50_ms", "write_batch_p50_ms", "range_scan_p50_ms",
        "mixed_ops_per_s", "tablemult_s", "jaccard_s", "ktruss_s")},
    "lookup_p95_us": 0.15,
    "failed_ops_share": 0.0,
}

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (IngestScan(), Traverse(), MixedRW(), GraphAlgos())}
