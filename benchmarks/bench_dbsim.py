"""dbsim I/O path benchmark: ingest rate and BFS scan rate.

Two before/after comparisons ride the same public client API so the
measurement is honest:

* **Ingest** — batched `BatchWriter` (default buffering) vs
  cell-at-a-time (``buffer_size=1``: one locate + one single-mutation
  server write per cell, the pre-batching behaviour).
* **BFS frontier fetch** — one coalesced `BatchScanner` stack seek per
  tablet vs one seek per frontier row (one scanner per row).

Both comparisons first assert bit-identical scan output (keys, values
*and timestamps*), then record rates, speedups and seek counts to a
BENCH json file (``BENCH.dbsim.json``; override the path with
``REPRO_BENCH_JSON``).
"""

import time

import pytest

from benchmarks._benchjson import write_bench_json
from repro.dbsim import Connector, Range, table_bfs
from repro.dbsim.server import Instance
from repro.generators import rmat_graph

#: ~4096-vertex power-law graph, ~32k directed edges
SCALE = 12
EDGE_FACTOR = 8
SPLITS = [f"v{i:05d}" for i in range(512, 4096, 512)]  # 8 tablets

_RESULTS = {}


@pytest.fixture(scope="module")
def edges():
    a = rmat_graph(SCALE, edge_factor=EDGE_FACTOR, seed=3)
    rows, cols, _ = a.to_coo()
    return [(f"v{u:05d}", f"v{v:05d}") for u, v in zip(rows, cols)]


@pytest.fixture(scope="module", autouse=True)
def bench_json():
    """Write whatever was measured to the BENCH json at module end."""
    yield
    write_bench_json("dbsim", _RESULTS, benchmark="dbsim_io_path",
                     workload={"scale": SCALE, "edge_factor": EDGE_FACTOR,
                               "tablets": len(SPLITS) + 1})


def fresh_conn():
    conn = Connector(Instance(n_servers=3))
    conn.create_table("A", splits=SPLITS)
    return conn


def ingest(conn, edges, buffer_size):
    with conn.batch_writer("A", buffer_size=buffer_size) as w:
        for r, q in edges:
            w.put(r, "", q, "1")


def snapshot(conn):
    return [(c.key.row, c.key.qualifier, c.key.timestamp, c.value)
            for c in conn.scanner("A").set_range(Range())]


def best_of(fn, rounds=3):
    best = float("inf")
    out = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


class TestIngest:
    def test_batched(self, benchmark, edges):
        conn = benchmark(lambda: (c := fresh_conn(),
                                  ingest(c, edges, 10_000))[0])
        assert conn.instance.table_entry_estimate("A") == len(edges)

    def test_cell_at_a_time(self, benchmark, edges):
        conn = benchmark(lambda: (c := fresh_conn(),
                                  ingest(c, edges, 1))[0])
        assert conn.instance.table_entry_estimate("A") == len(edges)

    def test_speedup_and_bit_identity(self, edges, capsys):
        def run(buffer_size):
            conn = fresh_conn()
            ingest(conn, edges, buffer_size)
            return conn

        t_batch, conn_b = best_of(lambda: run(10_000))
        t_cell, conn_c = best_of(lambda: run(1))
        assert snapshot(conn_b) == snapshot(conn_c)  # incl. timestamps
        speedup = t_cell / t_batch
        n = len(edges)
        _RESULTS["ingest"] = {
            "cells": n,
            "batched_s": round(t_batch, 4),
            "cell_at_a_time_s": round(t_cell, 4),
            "batched_cells_per_s": round(n / t_batch),
            "cell_at_a_time_cells_per_s": round(n / t_cell),
            "speedup": round(speedup, 2),
            "bit_identical": True,
        }
        with capsys.disabled():
            print(f"\ningest {n} cells: batched {t_batch:.3f}s "
                  f"({n / t_batch:,.0f}/s) vs cell-at-a-time {t_cell:.3f}s "
                  f"({n / t_cell:,.0f}/s) -> {speedup:.2f}x")
        # target is >= 3x on an idle machine; keep the CI gate looser so
        # shared-runner noise can't flake the job
        assert speedup >= 1.5


class TestBFSScan:
    @pytest.fixture(scope="class")
    def graph_conn(self, edges):
        conn = fresh_conn()
        ingest(conn, edges, 10_000)
        conn.compact("A")
        return conn

    def frontier_fetch(self, conn, frontier, coalesced):
        ranges = [Range.exact_row(v) for v in frontier]
        sets = [ranges] if coalesced else [[r] for r in ranges]
        return [(c.key.row, c.key.qualifier, c.key.timestamp, c.value)
                for rngs in sets
                for c in conn.batch_scanner("A").set_ranges(rngs)]

    def test_coalesced_frontier_fetch_identical_and_fewer_seeks(
            self, graph_conn, capsys):
        # a dense frontier (half the vertex set), the realistic shape a
        # power-law BFS reaches by hop 2 — coalescing trades gap-cell
        # filtering for seeks, so it shines when ranges are dense
        frontier = [f"v{i:05d}" for i in range(0, 4096, 2)]
        inst = graph_conn.instance

        before = inst.total_stats().snapshot()
        t_coal, out_coal = best_of(
            lambda: self.frontier_fetch(graph_conn, frontier, True), 1)
        d_coal = inst.total_stats().delta(before)

        before = inst.total_stats().snapshot()
        t_per, out_per = best_of(
            lambda: self.frontier_fetch(graph_conn, frontier, False), 1)
        d_per = inst.total_stats().delta(before)

        assert out_coal == out_per  # bit-identical frontier scan
        # compacted table: every stack seek fans out to memtable + 1 run.
        # Seeks are the headline metric here — each one stands in for an
        # RPC + RFile index walk in the distributed system the sim
        # models, which one-process wall-clock cannot show (coalescing
        # trades them for reading the gap cells between ranges).
        assert d_coal.seeks <= 2 * (len(SPLITS) + 1)
        _RESULTS["bfs_frontier_fetch"] = {
            "frontier_rows": len(frontier),
            "coalesced_s": round(t_coal, 4),
            "per_range_s": round(t_per, 4),
            "coalesced_seeks": d_coal.seeks,
            "per_range_seeks": d_per.seeks,
            "coalesced_entries_read": d_coal.entries_read,
            "per_range_entries_read": d_per.entries_read,
            "bit_identical": True,
        }
        with capsys.disabled():
            print(f"\nfrontier fetch ({len(frontier)} rows): coalesced "
                  f"{d_coal.seeks} seeks / {d_coal.entries_read} reads / "
                  f"{t_coal:.4f}s vs per-range {d_per.seeks} seeks / "
                  f"{d_per.entries_read} reads / {t_per:.4f}s")

    def test_table_bfs_3hop(self, benchmark, graph_conn):
        seed = "v00000"
        dist = benchmark(table_bfs, graph_conn, "A", [seed], 3)
        assert dist[seed] == 0
        _RESULTS["table_bfs"] = {"hops": 3, "seed": seed,
                                 "reached": len(dist)}
