"""repro.net benchmark: RPC round-trip latency (with and without
distributed tracing), streamed-scan throughput vs the in-process
backend, bytes on the wire per scan / per BatchWriter flush, and
ingest throughput under injected fault rates.

The cluster runs in thread mode — the same services, sockets and wire
protocol as ``repro cluster``, minus the process-spawn cost — so the
numbers isolate fabric overhead (framing, JSON codecs, chunked scan
streaming, retry machinery) from OS scheduling noise.

Ingest is measured at 0%, 1% and 5% ``write_batch`` ack-drop rates: a
dropped ack forces a client retry that the server must answer from its
dedup cache, so the fault series prices the exactly-once machinery.
Every faulted run must still land *exactly* the same cells.

Results go to ``BENCH.net.json`` (override with ``REPRO_BENCH_JSON``).
"""

import math
import statistics
import time

import pytest

from benchmarks._benchjson import write_bench_json
from benchmarks.e2e import hostspeed
from repro.dbsim import Connector, decode_number
from repro.dbsim.server import Instance
from repro.net import wire
from repro.net.cluster import LocalCluster
from repro.net.iterspec import IterSpec
from repro.obs.metrics import MetricsRegistry

N_CELLS = 10_000
SPLITS = [f"r{i:05d}" for i in range(2000, 10_000, 2000)]  # 5 tablets
FAULT_RATES = (0.0, 0.01, 0.05)
#: (remote scan, in-process columnar drain) pairs each scan gate takes
#: the median ratio of
SCAN_PAIRS = 15

#: what span + wire-context propagation may add to one RPC, in
#: microseconds at the e2e benchmark's reference host speed.  This gate used to read "< 20 % of the untraced ping"
#: when the ping's p50 was ~190 us (measured at the parent of the
#: change that moved the client off its event-loop thread: +8.4 %,
#: 16 us): 0.20 x 190 us = 38 us.  The same span work on the ~80 us
#: ping that change left reads +26 % and would have failed a gate it
#: had not touched, so the bound is carried over in the unit the cost
#: is paid in — not loosened.
PROPAGATION_GATE_US = 38.0

_RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def bench_json():
    yield
    write_bench_json("net", _RESULTS, benchmark="net_rpc_fabric",
                     workload={"cells": N_CELLS,
                               "tablets": len(SPLITS) + 1,
                               "servers": 3,
                               "fault_rates": list(FAULT_RATES)})


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_servers=3, processes=False) as c:
        yield c


def _rows():
    return [(f"r{i:05d}", i) for i in range(N_CELLS)]


def _ingest(conn, buffer_size=1000):
    conn.create_table("A", splits=SPLITS)
    with conn.batch_writer("A", buffer_size=buffer_size) as w:
        for r, v in _rows():
            w.put(r, "", "c", v)


def _wipe(conn):
    for table in list(conn.instance.list_tables()):
        conn.instance.delete_table(table)


class TestRpcRtt:
    def test_ping_round_trip(self, cluster, capsys):
        conn = cluster.connect()
        try:
            core = conn.instance.core
            addr = cluster.server_addrs[0]
            core.call(addr, wire.PING, {})  # warm the pooled connection
            samples = []
            for _ in range(500):
                t0 = time.perf_counter()
                core.call(addr, wire.PING, {})
                samples.append(time.perf_counter() - t0)
        finally:
            conn.close()
        samples.sort()
        p50 = samples[len(samples) // 2]
        p99 = samples[int(len(samples) * 0.99)]
        _RESULTS["rpc_rtt"] = {
            "pings": len(samples),
            "p50_us": round(1e6 * p50, 1),
            "p99_us": round(1e6 * p99, 1),
            "mean_us": round(1e6 * statistics.mean(samples), 1),
        }
        with capsys.disabled():
            print(f"\nRPC RTT over {len(samples)} pings: "
                  f"p50 {1e6 * p50:.0f}us p99 {1e6 * p99:.0f}us")
        assert p50 < 0.05  # localhost ping must be well under 50ms

    def test_trace_propagation_overhead(self, cluster, tmp_path,
                                        capsys):
        """p50 ping RTT under four conditions:

        * ``base``     — tracing off
        * ``traced``   — full tracing, records dropped in a NullSink
          (isolates span + wire-context propagation cost)
        * ``jsonl``    — full tracing into a real batched JSONL sink
          (what always-on tracing would actually cost)
        * ``sampled``  — rate 0.1 head sampling + tail ring into the
          same JSONL sink (the always-on production posture: 90% of
          traces skip serialization and IO, errored/slow ones are
          still promoted)

        An empty-payload localhost ping is the *worst case*: the span
        cost is fixed per RPC, so this is the largest share of a call
        the fabric can show (see the scan-workload test below for the
        realistic-rate figure).  Honest measurement on a
        noisy shared host: every condition samples a warmed connection
        (each toggle is followed by unmeasured pings), the condition
        order is rotated across rounds (later-in-round conditions
        systematically measure slower), and the estimator is the
        *median of per-round paired overheads* — each round's
        conditions share that round's scheduling weather, so pairing
        against the same round's base cancels drift that independent
        mins/medians cannot.

        The propagation gate is the *microseconds tracing adds to one
        RPC* (``PROPAGATION_GATE_US``), not a share of the untraced
        ping: the share has the transport in its denominator, so a
        faster ping failed it with the span cost unchanged.  The
        sampled condition must still beat always-on JSONL in the same
        round — that relative gate is what sampling buys."""
        from repro.obs import sampling as _sampling
        from repro.obs import trace as _trace

        conn = cluster.connect()
        state = {"seq": 0}
        try:
            core = conn.instance.core
            addr = cluster.server_addrs[0]

            def warm(n=50):
                for _ in range(n):
                    core.call(addr, wire.PING, {})

            def p50(n=300):
                samples = []
                for _ in range(n):
                    t0 = time.perf_counter()
                    core.call(addr, wire.PING, {})
                    samples.append(time.perf_counter() - t0)
                samples.sort()
                return samples[n // 2]

            def fresh_jsonl():
                state["seq"] += 1
                return _trace.JSONLSink(
                    str(tmp_path / f"bench{state['seq']}.jsonl"))

            def run_base():
                return p50()

            def run_traced():
                _trace.enable(_trace.NullSink())
                try:
                    warm()
                    return p50()
                finally:
                    _trace.disable()
                    _trace.set_sink(_trace.NullSink())

            def run_jsonl():
                _trace.enable(fresh_jsonl())
                try:
                    warm()
                    return p50()
                finally:
                    _trace.disable(close=True)
                    _trace.set_sink(_trace.NullSink())

            def run_sampled():
                _trace.enable(fresh_jsonl())
                _sampling.configure(0.1, registry=MetricsRegistry())
                try:
                    warm()
                    return p50()
                finally:
                    _sampling.unconfigure()
                    _trace.disable(close=True)
                    _trace.set_sink(_trace.NullSink())

            conditions = [("base", run_base), ("traced", run_traced),
                          ("jsonl", run_jsonl),
                          ("sampled", run_sampled)]
            rounds = []
            mark = hostspeed.mark()
            for round_i in range(6):
                rotated = (conditions[round_i % 4:]
                           + conditions[:round_i % 4])
                row = {}
                for name, run in rotated:
                    warm()
                    row[name] = run()
                    hostspeed.sample(force=True)  # between, never inside
                rounds.append(row)
        finally:
            conn.close()
        # an absolute gate needs the host's speed taken out of it, the
        # way the e2e benchmark takes it out of every time it reports
        host_scale = hostspeed.REF_LOOP_S / hostspeed.mean_since(mark)

        def paired(name):
            """Median across rounds of (condition - base) / base."""
            return statistics.median(
                (row[name] - row["base"]) / row["base"]
                for row in rounds)

        base = statistics.median(row["base"] for row in rounds)
        overhead = paired("traced")
        added_us = 1e6 * host_scale * statistics.median(
            row["traced"] - row["base"] for row in rounds)
        jsonl_overhead = paired("jsonl")
        sampled_overhead = paired("sampled")
        # the relative gate pairs within rounds too: in each round,
        # how much of the JSONL cost did sampling remove?
        sampling_win = statistics.median(
            (row["jsonl"] - row["sampled"]) / row["base"]
            for row in rounds)
        _RESULTS["trace_overhead"] = {
            "untraced_p50_us": round(1e6 * base, 1),
            "propagation_added_us": round(added_us, 1),
            "gate_added_us": PROPAGATION_GATE_US,
            "host_scale": round(host_scale, 2),
            "overhead_pct": round(100 * overhead, 1),
            "jsonl_pct": round(100 * jsonl_overhead, 1),
            "sampled_pct": round(100 * sampled_overhead, 1),
            "sampling_win_pct": round(100 * sampling_win, 1),
            "sample_rate": 0.1,
        }
        with capsys.disabled():
            print(f"\ntracing overhead (p50 ping {1e6 * base:.0f}us, "
                  f"worst case): propagation {added_us:+.1f}us at "
                  f"reference host speed (x{host_scale:.2f}; "
                  f"{100 * overhead:+.1f}%), "
                  f"jsonl {100 * jsonl_overhead:+.1f}%, sampled@0.1 "
                  f"{100 * sampled_overhead:+.1f}% "
                  f"(win {100 * sampling_win:+.1f}pp)")
        assert added_us < PROPAGATION_GATE_US
        # sampling must beat always-on JSONL tracing: 90% of traces
        # skip record serialization and sink IO entirely
        assert sampled_overhead < jsonl_overhead

    def test_trace_overhead_at_realistic_rate(self, cluster, tmp_path,
                                              capsys):
        """Sampled-tracing overhead on a real workload: full-table
        scans of 10k cells (~tens of ms per op), tracing off vs head
        sampling at rate 0.1 into a batched JSONL sink.  The span cost
        is fixed per RPC, so at realistic op sizes it amortizes to
        low single digits — this is the series the 5% target applies
        to (the ping test above is the deliberate worst case).  On
        this shared host the true figure is below measurement noise,
        so the hard gate is 20% (same bar as the ping series) with
        the 5% target recorded alongside the honest number."""
        from repro.obs import sampling as _sampling
        from repro.obs import trace as _trace

        conn = cluster.connect()
        try:
            _wipe(conn)
            _ingest(conn)

            def scan_p50(n=5):
                samples = []
                for _ in range(n):
                    t0 = time.perf_counter()
                    for _ in conn.scanner("A"):
                        pass
                    samples.append(time.perf_counter() - t0)
                samples.sort()
                return samples[n // 2]

            def run_base():
                return scan_p50()

            def run_sampled():
                state = len(list(tmp_path.iterdir()))
                _trace.enable(_trace.JSONLSink(
                    str(tmp_path / f"scan{state}.jsonl")))
                _sampling.configure(0.1, registry=MetricsRegistry())
                try:
                    return scan_p50()
                finally:
                    _sampling.unconfigure()
                    _trace.disable(close=True)
                    _trace.set_sink(_trace.NullSink())

            conditions = [("base", run_base), ("sampled", run_sampled)]
            rounds = []
            for round_i in range(6):
                rotated = (conditions[round_i % 2:]
                           + conditions[:round_i % 2])
                row = {}
                for name, run in rotated:
                    row[name] = run()
                rounds.append(row)
        finally:
            _wipe(conn)
            conn.close()
        base = statistics.median(row["base"] for row in rounds)
        sampled_overhead = statistics.median(
            (row["sampled"] - row["base"]) / row["base"]
            for row in rounds)
        _RESULTS.setdefault("trace_overhead", {})["scan"] = {
            "cells": N_CELLS,
            "base_scan_p50_ms": round(1e3 * base, 1),
            "sampled_pct": round(100 * sampled_overhead, 1),
            "sample_rate": 0.1,
            "target_pct": 5.0,
            "gate_pct": 20.0,
        }
        with capsys.disabled():
            print(f"\nsampled tracing @ realistic rate: {N_CELLS} cell "
                  f"scan p50 {1e3 * base:.1f}ms, overhead "
                  f"{100 * sampled_overhead:+.1f}% (target 5%)")
        assert sampled_overhead < 0.2


class TestScanThroughput:
    def test_streamed_scan_vs_in_process(self, cluster, capsys):
        local = Connector(Instance(n_servers=3,
                                   metrics=MetricsRegistry()))
        _ingest(local)
        t_local = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            local_cells = list(local.scanner("A"))
            t_local = min(t_local, time.perf_counter() - t0)

        registry = MetricsRegistry()
        remote = cluster.connect(metrics=registry)
        try:
            _wipe(remote)
            _ingest(remote)
            after_ingest = registry.export()
            # best-of-3 on both sides: single-shot timings on a shared
            # 1-cpu host are too noisy to gate on
            t_remote = math.inf
            scanned = 0  # cells of every scan the byte window holds
            for _ in range(3):
                t0 = time.perf_counter()
                remote_cells = list(remote.scanner("A"))
                t_remote = min(t_remote, time.perf_counter() - t0)
                scanned += len(remote_cells)
            after_scan = registry.export()
            # the gate's statistic: alternating pairs, each remote
            # per-cell scan next to an in-process columnar drain of the
            # same table, and the median of the pairs' ratios — a host
            # slowdown lands on both halves of a pair, and no lone fast
            # drain decides the divisor
            t_columns, ratios = math.inf, []
            for _ in range(SCAN_PAIRS):
                t0 = time.perf_counter()
                list(remote.scanner("A"))
                t_pair = time.perf_counter() - t0
                t0 = time.perf_counter()
                for _batch in local.scanner("A").scan_columns():
                    pass
                t_drain = time.perf_counter() - t0
                ratios.append(t_pair / t_drain)
                t_columns = min(t_columns, t_drain)
        finally:
            _wipe(remote)
            remote.close()
        vs_columnar = statistics.median(ratios)

        assert remote_cells == local_cells  # incl. timestamps
        n = len(local_cells)
        _RESULTS["streamed_scan"] = {
            "cells": n,
            "remote_s": round(t_remote, 4),
            "in_process_s": round(t_local, 4),
            "remote_cells_per_s": round(n / t_remote),
            "in_process_cells_per_s": round(n / t_local),
            "in_process_columnar_s": round(t_columns, 5),
            "fabric_overhead_x": round(t_remote / t_local, 2),
            "remote_vs_columnar_x": round(vs_columnar, 2),
            "remote_vs_columnar_pairs": len(ratios),
            "bit_identical": True,
        }
        with capsys.disabled():
            print(f"\nscan {n} cells: remote {t_remote:.3f}s "
                  f"({n / t_remote:,.0f}/s) vs in-process {t_local:.3f}s "
                  f"({n / t_local:,.0f}/s); median {vs_columnar:.2f}x the "
                  f"in-process columnar drain over {len(ratios)} pairs")
        # perf gate: the remote per-cell scan against the in-process
        # columnar drain of the same table.  It read ``t_remote /
        # t_local < 1.5`` while the in-process per-cell scan ran the
        # iterator stack, 7.8x (6.2-8.5x over seven runs) this drain on
        # this workload; that scan is now the drain plus
        # ``batch.cells()``, so the same bound on the remote time is
        # stated against the one in-process figure the staged pipeline
        # did not move: 1.5 x 7.8 = 11.7
        assert vs_columnar < 11.7

        # wire-byte accounting: what the ingest cost per BatchWriter
        # flush and what the streamed scan cost per cell/chunk
        wb_sent = after_ingest.get("net.client.op.write_batch.bytes_sent",
                                   0)
        wb_acks = after_ingest.get(
            "net.client.op.write_batch.bytes_received", 0)
        flushes = max(round(N_CELLS / 1000), 1)  # buffer_size=1000 ingest
        scan_rx = (after_scan.get("net.client.op.scan.bytes_received", 0)
                   - after_ingest.get("net.client.op.scan.bytes_received",
                                      0))
        chunks = (after_scan.get("net.client.scan_chunks", 0)
                  - after_ingest.get("net.client.scan_chunks", 0))
        assert wb_sent > 0 and scan_rx > 0 and chunks > 0
        _RESULTS["wire_bytes"] = {
            "ingest": {
                "write_batch_bytes_sent": wb_sent,
                "ack_bytes_received": wb_acks,
                "bytes_per_cell": round(wb_sent / N_CELLS, 1),
                "bytes_per_flush": round(wb_sent / flushes),
            },
            "scan": {
                "scan_bytes_received": scan_rx,
                "chunks": chunks,
                "bytes_per_cell": round(scan_rx / scanned, 1),
                "bytes_per_chunk": round(scan_rx / chunks),
            },
        }
        with capsys.disabled():
            print(f"wire bytes: ingest sent {wb_sent:,} "
                  f"({wb_sent / N_CELLS:.1f}/cell), scan received "
                  f"{scan_rx:,} over {chunks} chunks "
                  f"({scan_rx / scanned:.1f}/cell)")

    def test_bulk_scan_columnar(self, cluster, capsys):
        """Zero-materialization gate: ``scan_columns`` (ColumnBatches
        end to end, no ``Cell`` objects) must stay within the bound
        below of the in-process columnar drain of the same table, and
        its batches must still materialise to the bit-identical cell
        stream.  The two are timed in alternating pairs, each remote
        scan next to an in-process drain, and the gate reads the median
        of the pairs' ratios: a host slowdown lands on both halves of a
        pair, and no lone fast drain decides the divisor."""
        per_cell = _RESULTS["streamed_scan"]  # set by the test above
        local = Connector(Instance(n_servers=3, metrics=MetricsRegistry()))
        _ingest(local)
        remote = cluster.connect()
        try:
            _wipe(remote)
            _ingest(remote)
            t_cols, ratios = math.inf, []
            for _ in range(SCAN_PAIRS):
                t0 = time.perf_counter()
                n = batches = 0
                for batch in remote.scanner("A").scan_columns():
                    n += len(batch)
                    batches += 1
                t_remote = time.perf_counter() - t0
                t0 = time.perf_counter()
                for _batch in local.scanner("A").scan_columns():
                    pass
                ratios.append(t_remote / (time.perf_counter() - t0))
                t_cols = min(t_cols, t_remote)
            flat = [c for b in remote.scanner("A").scan_columns()
                    for c in b.cells()]
            assert flat == list(remote.scanner("A"))  # incl. timestamps
        finally:
            _wipe(remote)
            remote.close()
        assert n == N_CELLS
        cps = n / t_cols
        ratio = cps / per_cell["remote_cells_per_s"]
        vs_columnar = statistics.median(ratios)
        _RESULTS["bulk_scan"] = {
            "cells": n,
            "batches": batches,
            "columnar_s": round(t_cols, 4),
            "columnar_cells_per_s": round(cps),
            "per_cell_remote_cells_per_s":
                per_cell["remote_cells_per_s"],
            "speedup_vs_per_cell_x": round(ratio, 2),
            "bulk_vs_columnar_x": round(vs_columnar, 2),
            "bulk_vs_columnar_pairs": len(ratios),
            "bit_identical": True,
        }
        with capsys.disabled():
            print(f"\nbulk scan {n} cells in {batches} batches: "
                  f"{t_cols:.3f}s ({cps:,.0f}/s columnar vs "
                  f"{per_cell['remote_cells_per_s']:,}/s per-cell, "
                  f"{ratio:.2f}x; median {vs_columnar:.2f}x the in-process "
                  f"columnar drain over {len(ratios)} pairs)")
        # perf gate: the remote columnar scan against the in-process
        # columnar drain of the same table.  It read ``ratio >= 2``, i.e.
        # ``t_cols <= t_remote / 2``, while the remote per-cell scan built
        # each cell in Python: 9.0x (8.8-9.5x over six runs) this drain.
        # Cells are now tuples built in C, so the per-cell scan got faster
        # and the same bound on the columnar time is stated against the
        # one figure that change did not move: 9.0 / 2 = 4.5
        assert vs_columnar < 4.5


class TestPushdown:
    def test_filtered_fetch_wire_reduction(self, cluster, capsys):
        """Iterator push-down gate: a frontier-style filtered fetch
        with the predicate running inside the tablet servers
        (``iterspec``) must ship >= 5x fewer scan bytes than fetching
        everything and filtering client-side — while staying
        bit-identical to both the client-side filter and the
        in-process backend."""
        threshold = float(N_CELLS - N_CELLS // 10)  # keeps 10% of cells
        spec = IterSpec().value_ge(threshold)
        registry = MetricsRegistry()
        remote = cluster.connect(metrics=registry)
        try:
            _wipe(remote)
            _ingest(remote)

            def scan_rx():
                return registry.export().get(
                    "net.client.op.scan.bytes_received", 0)

            r0 = scan_rx()
            client_side = [c for c in remote.scanner("A")
                           if decode_number(c.value) >= threshold]
            r1 = scan_rx()
            pushed = list(remote.scanner("A", iterspec=spec))
            r2 = scan_rx()
            servers = remote.instance.cluster_metrics()["servers"]
        finally:
            _wipe(remote)
            remote.close()

        local = Connector(Instance(n_servers=3,
                                   metrics=MetricsRegistry()))
        _ingest(local)
        want = list(local.scanner("A", iterspec=spec))
        assert pushed == client_side  # incl. timestamps
        assert pushed == want         # local/remote bit-identity
        assert len(pushed) == N_CELLS // 10

        full_rx, pushed_rx = r1 - r0, r2 - r1
        assert full_rx > 0 and pushed_rx > 0
        reduction = full_rx / pushed_rx
        stacks = sum(m.get("net.server.pushdown.stacks", 0)
                     for m in servers.values())
        folded = sum(m.get("net.server.pushdown.cells_folded", 0)
                     for m in servers.values())
        _RESULTS["pushdown"] = {
            "cells": N_CELLS,
            "kept_cells": len(pushed),
            "client_filter_bytes_received": full_rx,
            "pushdown_bytes_received": pushed_rx,
            "wire_reduction_x": round(reduction, 2),
            "gate_x": 5.0,
            "server_stacks": stacks,
            "server_cells_folded": folded,
            "bit_identical": True,
        }
        with capsys.disabled():
            print(f"\npush-down filtered fetch: {pushed_rx:,} bytes vs "
                  f"{full_rx:,} client-side ({reduction:.1f}x fewer); "
                  f"{stacks} server stacks folded {folded:,} cells")
        assert stacks > 0 and folded > 0
        # the CI gate: filtered frontier fetches must ship >= 5x fewer
        # wire bytes than client-side filtering
        assert reduction >= 5.0


class TestEncodeBlock:
    def test_encode_vs_plain_reference(self, capsys):
        """Micro-bench of the CHUNK encoder: ``encode_block`` against a
        plain per-column statement of the same layout (block format 2:
        per string column U, the distinct strings' lengths and bytes,
        then a 1/2/4-byte index when 1 < U < N), which must produce the
        same bytes.  Rows and values are all distinct here, the
        dictionary's worst case: the index buys nothing, and the
        encoder still pays for finding the distinct strings."""
        import struct as _struct

        from repro.net import cells as _cells

        muts = [(f"r{i:05d}", "f", "qual", "", 1_000_000 + i, False,
                 str(i * 31)) for i in range(N_CELLS)]

        def reference_encode(ms):
            n = len(ms)
            parts = [_struct.pack("!BI", 2, n)]
            for field in (0, 1, 2, 3, 6):
                col = [m[field] for m in ms]
                uniq = list(dict.fromkeys(col))
                u = len(uniq)
                enc = [s.encode("utf-8") for s in uniq]
                parts.append(_struct.pack(f"!I{u}I", u, *map(len, enc)))
                parts.append(b"".join(enc))
                if 1 < u < n:
                    pos = {s: i for i, s in enumerate(uniq)}
                    code = "B" if u <= 256 else "H" if u <= 65536 else "I"
                    parts.append(_struct.pack(f"!{n}{code}",
                                              *(pos[s] for s in col)))
            parts.append(_struct.pack(f"!{n}q", *(m[4] for m in ms)))
            parts.append(bytes(1 if m[5] else 0 for m in ms))
            return b"".join(parts)

        block = _cells.encode_block(muts)
        assert block == reference_encode(muts)  # same bytes out

        def best_of(fn, rounds=5):
            best = math.inf
            for _ in range(rounds):
                t0 = time.perf_counter()
                fn(muts)
                best = min(best, time.perf_counter() - t0)
            return best

        t_ref = best_of(reference_encode)
        t_new = best_of(_cells.encode_block)
        _RESULTS.setdefault("wire_bytes", {})["encode_block"] = {
            "cells": N_CELLS,
            "block_format": _cells.BLOCK_FORMAT,
            "block_bytes": len(block),
            "same_bytes": True,
            "reference_ms": round(1e3 * t_ref, 2),
            "encode_ms": round(1e3 * t_new, 2),
            "speedup_x": round(t_ref / t_new, 2),
            "gate_x": 1.2,
            "mb_per_s": round(len(block) / t_new / 1e6, 1),
        }
        with capsys.disabled():
            print(f"\nencode_block {N_CELLS} cells, {len(block):,} bytes: "
                  f"{1e3 * t_ref:.2f}ms reference -> "
                  f"{1e3 * t_new:.2f}ms encode_block "
                  f"({t_ref / t_new:.2f}x, "
                  f"{len(block) / t_new / 1e6:.0f} MB/s)")
        assert t_new <= t_ref * 1.2  # never slower (noise allowance)


class TestIngestUnderFaults:
    def test_ingest_throughput_by_fault_rate(self, capsys):
        want = None
        series = {}
        for rate in FAULT_RATES:
            specs = [f"write_batch:drop:{rate:g}"] if rate else []
            with LocalCluster(n_servers=3, processes=False,
                              fault_specs=specs, fault_seed=5) as c:
                registry = MetricsRegistry()
                conn = c.connect(metrics=registry)
                try:
                    t0 = time.perf_counter()
                    # 50-cell batches -> ~200 write RPCs, enough for
                    # the 1% rate to actually fire
                    _ingest(conn, buffer_size=50)
                    elapsed = time.perf_counter() - t0
                    got = [(cell.key.row, cell.key.timestamp, cell.value)
                           for cell in conn.scanner("A")]
                finally:
                    conn.close()
            if want is None:
                want = got
            # faults must cost time, never cells (exactly-once dedup)
            assert got == want
            export = registry.export()
            series[f"{100 * rate:g}%"] = {
                "ingest_s": round(elapsed, 4),
                "cells_per_s": round(N_CELLS / elapsed),
                "retries": export["net.client.retries"],
            }
            with capsys.disabled():
                print(f"\ningest {N_CELLS} cells @ {100 * rate:g}% ack "
                      f"drop: {elapsed:.3f}s ({N_CELLS / elapsed:,.0f}/s, "
                      f"{export['net.client.retries']} retries)")
        _RESULTS["ingest_under_faults"] = series
