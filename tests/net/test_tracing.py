"""Distributed tracing end to end: context propagation over the wire,
cross-process stitching, the golden structural digest, and propagation
under fault injection / retries / dedup replays.

The golden test pins the *structure* of a stitched BFS run — the
sorted cross-process parent→child edges with multiplicities — not
timings or ids, so it is stable across machines.  Regenerate with::

    PYTHONPATH=src python -m pytest tests/net/test_tracing.py \
        -k golden --regen-golden
"""

import glob
import os
import select
import time

import pytest

from repro.assoc import AssocArray
from repro.dbsim.graphulo import create_combiner_table, table_bfs
from repro.dbsim import assoc_to_table
from repro.generators import rmat_graph
from repro.net import wire
from repro.net.cluster import LocalCluster
from repro.obs import sampling as _sampling
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.stitch import stitch_files
from repro.obs.trace import InMemorySink, JSONLSink, NullSink

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "golden_stitched_edges.txt")


@pytest.fixture(autouse=True)
def _clean_tracing():
    _sampling.unconfigure()
    _trace.disable()
    _trace.set_sink(NullSink())
    yield
    _sampling.unconfigure()
    _trace.disable()
    _trace.set_sink(NullSink())


def _small_graph():
    g = rmat_graph(4, edge_factor=4, seed=7)
    rows, cols, vals = g.to_coo()
    width = len(str(g.nrows - 1))
    return AssocArray.from_triples(
        [f"v{u:0{width}d}" for u in rows],
        [f"v{v:0{width}d}" for v in cols], vals)


def _run_traced_bfs(trace_dir, processes=True, n_servers=3,
                    fault_specs=(), fault_seed=0):
    """The acceptance workload: one client-rooted trace covering an
    ingest + BFS through a LocalCluster.  Returns (trace_id, result)."""
    os.makedirs(trace_dir, exist_ok=True)
    _trace.seed_ids(1234)
    _trace.enable(JSONLSink(os.path.join(trace_dir, "trace.client.jsonl"),
                            process="client"))
    a = _small_graph()
    source = str(min(a.row_keys))
    try:
        with LocalCluster(n_servers=n_servers, processes=processes,
                          trace_dir=trace_dir, fault_specs=fault_specs,
                          fault_seed=fault_seed) as cluster:
            conn = cluster.connect()
            try:
                # one enclosing span => every RPC of the workload shares
                # its trace_id (cluster teardown traffic does not)
                with _trace.span("workload") as sp:
                    trace_id = sp.trace_id
                    assoc_to_table(conn, a, "A", n_splits=3)
                    result = table_bfs(conn, "A", [source], 2)
            finally:
                conn.close()
    finally:
        _trace.disable(close=True)
    return trace_id, result


def _stitched(trace_dir):
    return stitch_files(sorted(glob.glob(
        os.path.join(trace_dir, "trace.*.jsonl"))))


class TestGoldenStitchedBFS:
    """ISSUE acceptance: BFS through a 3-server process cluster yields
    per-process traces that stitch into a single forest where every
    ``rpc.server.*`` span parents under the originating client call —
    pinned by a checked-in structural golden."""

    def test_bfs_trace_stitches_to_golden(self, tmp_path, request):
        trace_dir = str(tmp_path / "traces")
        trace_id, result = _run_traced_bfs(trace_dir, processes=True)
        assert result  # BFS reached something

        st = _stitched(trace_dir)
        assert st.processes() == ["client", "manager", "tserver0",
                                  "tserver1", "tserver2"]
        assert st.orphan_spans() == []

        # the workload is ONE stitched forest: a single root (the
        # enclosing client span), with every rpc.server.* span parented
        # under an rpc.client.* span of the process that called it
        workload = [r for r in st.records if r["trace_id"] == trace_id]
        assert workload
        by_id = {r["span_id"]: r for r in workload}
        roots = [r for r in workload if not r["parent_id"]]
        assert [(r["process"], r["name"]) for r in roots] == \
            [("client", "workload")]
        for r in workload:
            if not r["name"].startswith("rpc.server."):
                continue
            parent = by_id[r["parent_id"]]
            assert parent["name"].startswith("rpc.client."), \
                f"{r['name']} parented under {parent['name']}"
            assert parent["process"] != r["process"]

        # structural digest vs the checked-in golden
        lines = _edge_summary_for_trace(st, trace_id)
        if request.config.getoption("--regen-golden"):
            os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
            with open(GOLDEN, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            pytest.skip("golden regenerated")
        with open(GOLDEN, encoding="utf-8") as fh:
            want = fh.read().splitlines()
        assert lines == want

    def test_stitched_breakdown_reports_server_time(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        trace_id, _ = _run_traced_bfs(trace_dir, processes=True)
        st = _stitched(trace_dir)
        from repro.obs.analyze import TraceAnalysis, filter_by_trace

        ta = TraceAnalysis(filter_by_trace(st.records, trace_id))
        rpc = ta.rpc_breakdown()
        assert rpc  # the workload is RPC-heavy
        for op in ("write_batch", "scan"):
            row = rpc[op]
            assert row["server_spans"] >= row["count"] > 0
            assert row["server_service_s"] > 0.0
            assert row["client_s"] > 0.0

    def test_analyze_stitches_per_process_files(self, tmp_path, capsys):
        """``repro analyze`` on the per-process files prints the stitch
        summary, then the analysis of the stitched trace, and writes
        the trace ``stitch_files`` builds."""
        from repro.cli import main

        trace_dir = str(tmp_path / "traces")
        _run_traced_bfs(trace_dir, processes=True, n_servers=2)
        paths = sorted(glob.glob(os.path.join(trace_dir, "trace.*.jsonl")))
        assert len(paths) == 4  # client, manager, two servers
        out, want = tmp_path / "stitched.jsonl", tmp_path / "want.jsonl"
        capsys.readouterr()
        assert main(["analyze", *paths, "--out", str(out),
                     "--check-cross-process"]) == 0
        text = capsys.readouterr().out
        st = stitch_files(paths)
        st.write(str(want))
        assert out.read_bytes() == want.read_bytes()
        summary, analysis = text.split("\nstitched trace: ", 1)
        assert summary.splitlines()[0] == (
            f"stitched 4 file(s): {len(st.records)} spans, "
            f"{len(st.traces())} trace(s), processes: client, manager, "
            f"tserver0, tserver1")
        assert summary.splitlines()[-1] == f"wrote stitched trace to {out}"
        for edge in st.edge_summary():
            assert f"  {edge}" in summary
        assert analysis.startswith(f"{len(st.records)} records")
        assert "RPC time breakdown" in analysis


class TestPipelinedCallTiming:
    """A ``submit``ted call's span ends in ``result()``.  The time it sat
    sent with nobody waiting — the caller binning its next flush while
    the ack waited in the socket — is the caller's, not the network's."""

    def test_idle_ack_is_unawaited_not_network(self):
        from repro.obs.analyze import TraceAnalysis

        sink = InMemorySink()
        with LocalCluster(n_servers=1, processes=False) as cluster:
            conn = cluster.connect()
            try:
                conn.create_table("t")
                (entry,) = conn.instance.tablets("t")
                core = conn.instance.core
                core.call(entry.server.addr, wire.PING, {})  # dial, untraced
                (link,) = [c for c in core._conns.values()
                           if c.addr == entry.server.addr]
                _trace.enable(sink)
                answer = entry.server.submit(
                    "write_tablet", "t", entry.tablet_id,
                    [["r"], [""], ["q"], [""], [0], [False], ["1"]])
                # the ack has arrived; nobody reads it for 50 ms
                assert select.select([link.sock], [], [], 5.0)[0]
                time.sleep(0.05)
                assert answer() == 1
                _trace.disable()
            finally:
                conn.close()

        (span,) = sink.spans("rpc.client.call")
        assert span["attrs"]["unawaited_s"] >= 0.05
        row = TraceAnalysis(sink.records).rpc_breakdown()["write_batch"]
        assert row["server_spans"] == row["count"] == 1
        assert row["unawaited_s"] == span["attrs"]["unawaited_s"]
        assert row["client_s"] >= 0.05
        # the 50 ms are not booked as network: what is left is reading
        # and decoding the ack
        assert row["network_s"] < 0.02
        assert row["client_s"] - row["network_s"] >= 0.05

    def test_rpc_seconds_stop_at_the_answer(self):
        """``net.client.rpc_seconds`` times the round trip: an ack that
        another call's read took off the socket, and that its own
        caller reads 50 ms later, adds less than those 50 ms."""
        registry = MetricsRegistry()
        with LocalCluster(n_servers=1, processes=False) as cluster:
            conn = cluster.connect(metrics=registry)
            try:
                conn.create_table("t")
                (entry,) = conn.instance.tablets("t")
                core = conn.instance.core
                core.call(entry.server.addr, wire.PING, {})  # dial
                (link,) = [c for c in core._conns.values()
                           if c.addr == entry.server.addr]
                before = registry.export()["net.client.rpc_seconds"]
                answer = entry.server.submit(
                    "write_tablet", "t", entry.tablet_id,
                    [["r"], [""], ["q"], [""], [0], [False], ["1"]])
                assert select.select([link.sock], [], [], 5.0)[0]
                # the ping's answer is behind the ack on the socket, so
                # waiting for it reads (and stamps) the ack first
                core.call(entry.server.addr, wire.PING, {})
                time.sleep(0.05)
                assert answer() == 1
                after = registry.export()["net.client.rpc_seconds"]
            finally:
                conn.close()
        assert after["count"] == before["count"] + 2
        assert after["sum"] - before["sum"] < 0.05


def _edge_summary_for_trace(st, trace_id):
    """st.edge_summary(), restricted to one trace."""
    by_id = {r["span_id"]: r for r in st.records if r.get("span_id")}
    counts = {}
    for r in st.records:
        if r.get("trace_id") != trace_id:
            continue
        parent = by_id.get(r.get("parent_id") or "")
        if parent is None or parent.get("process") == r.get("process"):
            continue
        edge = (parent["process"], parent["name"],
                r["process"], r["name"])
        counts[edge] = counts.get(edge, 0) + 1
    return [f"{pp}/{pn} -> {cp}/{cn} x{n}"
            for (pp, pn, cp, cn), n in sorted(counts.items())]


class TestSampledPropagation:
    """Head sampling across the wire: the decision rides the TC flag
    byte of every frame, every process agrees without coordination, and
    seeded runs are reproducible.  Seed 42 head-samples the workload
    trace at rate 0.3; seed 1234 drops it (pinned by the assertions)."""

    RATE = 0.3

    @staticmethod
    def _decision(trace_id, rate=0.3):
        # the deterministic head-sampling function, restated
        return int(trace_id[16:], 16) < int(rate * (1 << 64))

    def _run_sampled(self, trace_dir, seed, processes=True):
        os.makedirs(trace_dir, exist_ok=True)
        _trace.seed_ids(seed)
        _sampling.configure(self.RATE)
        _trace.enable(JSONLSink(
            os.path.join(trace_dir, "trace.client.jsonl"),
            process="client"))
        a = _small_graph()
        source = str(min(a.row_keys))
        try:
            with LocalCluster(n_servers=2, processes=processes,
                              trace_dir=trace_dir,
                              sample_rate=self.RATE) as cluster:
                conn = cluster.connect()
                try:
                    with _trace.span("workload") as sp:
                        trace_id, sampled = sp.trace_id, sp.sampled
                        assoc_to_table(conn, a, "A", n_splits=3)
                        result = table_bfs(conn, "A", [source], 2)
                finally:
                    conn.close()
        finally:
            _sampling.unconfigure()
            _trace.disable(close=True)
        assert result
        return trace_id, sampled

    def test_flag_preserved_end_to_end(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        trace_id, sampled = self._run_sampled(trace_dir, seed=42)
        assert sampled is True  # pinned: seed 42 samples the workload

        st = _stitched(trace_dir)
        workload = [r for r in st.records if r["trace_id"] == trace_id]
        # the sampled trace crossed process boundaries intact: server
        # handler spans exist and stitch under their client calls
        assert any(r["name"].startswith("rpc.server.")
                   and r["process"].startswith("tserver")
                   for r in workload)
        assert st.orphan_spans() == []
        assert st.cross_process_edges()
        # every recorded trace was genuinely head-sampled (or promoted
        # and marked); sampling never leaks silently
        for rec in st.records:
            if rec.get("sampled") is False:
                continue
            assert self._decision(rec["trace_id"]), \
                f"unsampled trace leaked: {rec['name']}"

    def test_dropped_trace_records_nothing(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        trace_id, sampled = self._run_sampled(trace_dir, seed=1234,
                                              processes=False)
        assert sampled is False  # pinned: seed 1234 drops the workload
        st = _stitched(trace_dir)
        assert [r for r in st.records
                if r["trace_id"] == trace_id] == []

    def test_seeded_sampled_run_is_reproducible(self, tmp_path):
        """Same seed, same rate -> same trace ids, same decisions, same
        stitched structure, run to run."""
        runs = []
        for name in ("a", "b"):
            trace_dir = str(tmp_path / name)
            trace_id, sampled = self._run_sampled(trace_dir, seed=42)
            st = _stitched(trace_dir)
            runs.append({
                "workload": (trace_id, sampled),
                "traces": sorted({r["trace_id"] for r in st.records}),
                "shape": sorted((r["trace_id"], r["process"], r["name"])
                                for r in st.records),
                "edges": st.edge_summary(),
            })
        assert runs[0] == runs[1]

    def test_slow_spans_promoted_despite_rate_zero(self, tmp_path):
        """Tail retention end to end: at sample rate 0 nothing is
        head-sampled, but a delay fault pushes the client's rpc spans
        over the 0.25s threshold, so the whole client-side trace is
        promoted and lands in the file marked ``"sampled": false``.
        (The server's handler span stays fast — the delay is injected
        at response-send time — so its half is legitimately dropped,
        which is exactly the sampled-out-parent shape stitch must not
        call an orphan.)"""
        trace_dir = str(tmp_path / "traces")
        os.makedirs(trace_dir)
        _trace.seed_ids(7)
        _sampling.configure(0.0)
        _trace.enable(JSONLSink(
            os.path.join(trace_dir, "trace.client.jsonl"),
            process="client"))
        try:
            with LocalCluster(n_servers=1, processes=True,
                              fault_specs=["scan:delay:1.0:0.4"],
                              fault_seed=3, trace_dir=trace_dir,
                              sample_rate=0.0) as cluster:
                conn = cluster.connect()
                try:
                    with _trace.span("workload"):
                        conn.create_table("t")
                        with conn.batch_writer("t") as w:
                            for i in range(30):
                                w.put(f"r{i:02d}", "", "c", i)
                        assert sum(1 for _ in conn.scanner("t")) == 30
                finally:
                    conn.close()
        finally:
            _sampling.unconfigure()
            _trace.disable(close=True)

        st = _stitched(trace_dir)
        promoted = [r for r in st.records if r.get("sampled") is False]
        assert promoted and all(r.get("sampled") is False
                                for r in st.records)
        # the slow client scan breached the rpc.* threshold and dragged
        # its whole local trace out of the ring, enclosing span included
        slow = [r for r in promoted if r["name"] == "rpc.client.scan"]
        assert slow and any(r["duration_s"] > 0.25 for r in slow)
        assert any(r["name"] == "workload" for r in promoted)
        # no phantom orphans from the legitimately-dropped server half
        assert st.orphan_spans() == []


class TestPropagationUnderFaults:
    """Corrupted frames, dropped acks, retries and dedup-replayed
    writes must still produce a stitchable trace: no orphaned server
    spans, every server span under a client span."""

    SPECS = ["scan:corrupt:0.3", "write_batch:drop:0.25"]

    @pytest.mark.parametrize("processes", [False, True],
                             ids=["threads", "processes"])
    def test_faulted_workload_stitches_clean(self, tmp_path, processes):
        from repro.obs.metrics import MetricsRegistry

        trace_dir = str(tmp_path / "traces")
        os.makedirs(trace_dir)
        _trace.seed_ids(99)
        _trace.enable(JSONLSink(
            os.path.join(trace_dir, "trace.client.jsonl"),
            process="client"))
        try:
            with LocalCluster(n_servers=2, processes=processes,
                              fault_specs=self.SPECS, fault_seed=11,
                              trace_dir=trace_dir) as cluster:
                registry = MetricsRegistry()
                conn = cluster.connect(metrics=registry)
                try:
                    create_combiner_table(conn, "sums", "sum")
                    with conn.batch_writer("sums", buffer_size=10) as w:
                        for i in range(150):
                            w.put(f"r{i:03d}", "", "n", 1)
                    # dropped acks forced retries; dedup must have kept
                    # writes exactly-once
                    values = [c.value for c in conn.scanner("sums")]
                    assert values == ["1"] * 150
                finally:
                    conn.close()
                export = registry.export()
                assert export["net.client.retries"] > 0
        finally:
            _trace.disable(close=True)

        st = _stitched(trace_dir)
        server_spans = [r for r in st.records
                        if r["name"].startswith("rpc.server.")]
        assert server_spans
        orphans = st.orphan_spans()
        assert [r for r in orphans
                if r["name"].startswith("rpc.server.")] == []
        by_id = {r["span_id"]: r for r in st.records if r.get("span_id")}
        for r in server_spans:
            parent = by_id[r["parent_id"]]
            assert parent["name"].startswith("rpc.client.")
            assert parent["trace_id"] == r["trace_id"]
        if processes:
            # real isolation: the retried/replayed handler spans landed
            # in other processes yet still stitched under their callers
            assert st.cross_process_edges()

    def test_retried_write_shares_one_client_span(self, tmp_path):
        """A dropped ack means >1 server span for 1 client call; both
        attempts must parent under the same rpc.client.call span."""
        from repro.obs.metrics import MetricsRegistry

        trace_dir = str(tmp_path / "traces")
        os.makedirs(trace_dir)
        _trace.seed_ids(7)
        _trace.enable(JSONLSink(
            os.path.join(trace_dir, "trace.client.jsonl"),
            process="client"))
        try:
            with LocalCluster(n_servers=1, processes=False,
                              fault_specs=["write_batch:drop:0.5"],
                              fault_seed=3,
                              trace_dir=trace_dir) as cluster:
                registry = MetricsRegistry()
                conn = cluster.connect(metrics=registry)
                try:
                    conn.create_table("t")
                    with conn.batch_writer("t", buffer_size=5) as w:
                        for i in range(60):
                            w.put(f"r{i:02d}", "", "c", i)
                    assert sum(1 for _ in conn.scanner("t")) == 60
                finally:
                    conn.close()
                assert registry.export()["net.client.retries"] > 0
        finally:
            _trace.disable(close=True)

        st = _stitched(trace_dir)
        parents = {}
        for r in st.records:
            if r["name"] == "rpc.server.write_batch":
                parents.setdefault(r["parent_id"], 0)
                parents[r["parent_id"]] += 1
        assert parents, "no server write_batch spans traced"
        # at least one client call span fathered multiple attempts
        assert max(parents.values()) > 1
        by_id = {r["span_id"]: r for r in st.records if r.get("span_id")}
        assert all(by_id[pid]["name"] == "rpc.client.call"
                   for pid in parents)
