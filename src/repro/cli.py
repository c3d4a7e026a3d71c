"""Command-line interface: graph analytics over TSV triple files.

The exchange format is the D4M triple TSV (``row<TAB>col[<TAB>value]``)
read/written by :mod:`repro.assoc.io`; vertices keep their string keys
end to end.

Subcommands::

    python -m repro info      graph.tsv
    python -m repro generate  rmat --scale 8 --out graph.tsv
    python -m repro bfs       graph.tsv --source v00001
    python -m repro pagerank  graph.tsv --top 10
    python -m repro ktruss    graph.tsv --k 4 [--out truss.tsv]
    python -m repro jaccard   graph.tsv --top 10
    python -m repro topics    --docs 2000 --k 5
    python -m repro stats     graph.tsv [--json] [--prom] [--connect H:P]
    python -m repro analyze   trace.jsonl [--top N] [--trace-id HEX]
    python -m repro stitch    trace.*.jsonl --out stitched.jsonl
    python -m repro monitor   --metrics-json snapshot.json
    python -m repro top       --connect H:P [--interval 2]
    python -m repro health    --connect H:P [--window 2] [--json]
    python -m repro serve     [--port 41100] [--fault SPEC ...]
    python -m repro cluster   --servers 3 [--fault SPEC ...] [--smoke]

Every subcommand accepts ``--trace out.jsonl`` (spans with OpStats
deltas plus convergence records, one JSON object per line),
``--slowlog slow.jsonl`` (only the spans that blow a wall-clock
threshold or OpStats budget — see docs/OBSERVABILITY.md), and
``--sample-rate R`` (deterministic head sampling: record 1 in 1/R
traces, retain the rest in a tail ring that promotes errored/slow
traces — see docs/OBSERVABILITY.md).  The trace sink buffers a bounded
batch of records but is flushed and closed on every exit path, so an
interrupted run still leaves a readable trace.  ``analyze`` rolls a
trace up into per-span-name percentiles, a critical path and an
optional flamegraph; ``monitor`` tails a metrics snapshot file a
workload writes and prints counter deltas as they move; ``health``
evaluates the cluster's SLOs (p99 latency targets, error budgets) and
exits nonzero on breach.
Input-loading failures exit with status 2 and a one-line ``error:``
message, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np

from repro.assoc import AssocArray, read_tsv_triples, write_tsv_triples
from repro.obs import ConvergenceLog, JSONLSink
from repro.obs import trace as _trace


class CliError(Exception):
    """User-facing failure: printed as ``error: <msg>``, exit status 2."""


def _load(path: str) -> AssocArray:
    try:
        a = read_tsv_triples(path)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}") from None
    except (OSError, UnicodeError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    if a.nnz == 0:
        raise CliError(f"{path} holds no triples")
    return a


def _square(a: AssocArray) -> tuple:
    """Align row and column key universes (graph tables need one vertex
    set); returns (matrix, key array)."""
    from repro.assoc.keyset import union_keys

    keys = union_keys(a.row_keys, a.col_keys)
    m = a._expand_to(keys, keys)
    return m, keys


def cmd_info(args) -> int:
    a = _load(args.path)
    m, keys = _square(a)
    deg = m.pattern().reduce_rows()
    print(f"{args.path}: {len(keys)} vertices, {m.nnz} stored entries")
    print(f"degree: min={int(deg.min())} mean={deg.mean():.2f} "
          f"max={int(deg.max())}")
    order = np.argsort(-deg)[:5]
    print("top-degree vertices:",
          ", ".join(f"{keys[i]}({int(deg[i])})" for i in order))
    return 0


def cmd_generate(args) -> int:
    from repro.generators import erdos_renyi, rmat_graph

    if args.model == "rmat":
        g = rmat_graph(args.scale, edge_factor=args.edge_factor,
                       seed=args.seed)
    else:
        g = erdos_renyi(1 << args.scale, args.p, seed=args.seed)
    rows, cols, vals = g.to_coo()
    width = len(str(g.nrows - 1))
    a = AssocArray.from_triples(
        [f"v{u:0{width}d}" for u in rows],
        [f"v{v:0{width}d}" for v in cols], vals)
    n = write_tsv_triples(a, args.out)
    print(f"wrote {n} triples ({g.nrows} vertices) to {args.out}")
    return 0


def cmd_bfs(args) -> int:
    from repro.algorithms import bfs

    a = _load(args.path)
    m, keys = _square(a)
    matches = np.flatnonzero(keys == args.source)
    if len(matches) == 0:
        raise SystemExit(f"error: source vertex {args.source!r} not in graph")
    dist = bfs(m, int(matches[0]))
    reached = int((dist >= 0).sum())
    print(f"reached {reached}/{len(keys)} vertices from {args.source}")
    for hop in range(dist.max() + 1):
        members = keys[dist == hop]
        shown = ", ".join(map(str, members[:8]))
        more = f" (+{len(members) - 8} more)" if len(members) > 8 else ""
        print(f"  hop {hop}: {shown}{more}")
    return 0


def cmd_pagerank(args) -> int:
    from repro.algorithms import pagerank

    a = _load(args.path)
    m, keys = _square(a)
    log = ConvergenceLog("pagerank")
    pr = pagerank(m, jump=args.jump, log=log)
    log.emit()  # forwarded to the trace sink when --trace is active
    order = np.argsort(-pr)[:args.top]
    print(f"PageRank (jump={args.jump}) top {args.top}:")
    for i in order:
        print(f"  {keys[i]:<20} {pr[i]:.6f}")
    print(f"converged in {log.iterations} iterations "
          f"(last residual {log.last_residual:.2e})")
    return 0


def cmd_ktruss(args) -> int:
    from repro.algorithms import ktruss
    from repro.schemas import edge_list_from_adjacency, incidence_unoriented
    from repro.schemas.adjacency import symmetrize

    a = _load(args.path)
    m, keys = _square(a)
    sym = symmetrize(m.pattern())
    edges = edge_list_from_adjacency(sym)
    e = incidence_unoriented(len(keys), edges)
    log = ConvergenceLog("ktruss")
    kept = ktruss(e, args.k, log=log)
    log.emit()  # forwarded to the trace sink when --trace is active
    print(f"{args.k}-truss: {kept.nrows}/{e.nrows} edges survive "
          f"({log.iterations} peel rounds)")
    pairs = kept.indices.reshape(-1, 2)
    for u, v in pairs[:args.top]:
        print(f"  {keys[u]} -- {keys[v]}")
    if len(pairs) > args.top:
        print(f"  ... {len(pairs) - args.top} more")
    if args.out:
        out = AssocArray.from_triples([str(keys[u]) for u, _ in pairs],
                                      [str(keys[v]) for _, v in pairs],
                                      np.ones(len(pairs)))
        write_tsv_triples(out, args.out)
        print(f"wrote surviving edges to {args.out}")
    return 0


def cmd_jaccard(args) -> int:
    from repro.algorithms import jaccard
    from repro.schemas.adjacency import symmetrize

    a = _load(args.path)
    m, keys = _square(a)
    j = jaccard(symmetrize(m.pattern()).prune())
    rows = j.row_ids()
    entries = [(float(v), int(r), int(c))
               for r, c, v in zip(rows, j.indices, j.values) if r < c]
    entries.sort(key=lambda t: (-t[0], t[1], t[2]))
    print(f"Jaccard: {len(entries)} similar pairs; top {args.top}:")
    for v, r, c in entries[:args.top]:
        print(f"  {keys[r]} ~ {keys[c]}  J={v:.4f}")
    return 0


def cmd_triangles(args) -> int:
    from repro.algorithms import triangle_count
    from repro.schemas.adjacency import symmetrize

    a = _load(args.path)
    m, keys = _square(a)
    total, per_vertex = triangle_count(symmetrize(m.pattern()).prune())
    print(f"{total} triangles")
    order = np.argsort(-per_vertex)[:args.top]
    for i in order:
        if per_vertex[i] > 0:
            print(f"  {keys[i]:<20} {per_vertex[i]}")
    return 0


def cmd_components(args) -> int:
    from repro.algorithms import connected_components
    from repro.schemas.adjacency import symmetrize

    a = _load(args.path)
    m, keys = _square(a)
    labels = connected_components(symmetrize(m.pattern()))
    unique, counts = np.unique(labels, return_counts=True)
    print(f"{len(unique)} connected component(s)")
    order = np.argsort(-counts)[:args.top]
    for i in order:
        print(f"  component rooted at {keys[unique[i]]}: {counts[i]} vertices")
    return 0


def cmd_topics(args) -> int:
    from repro.algorithms.topics import fit_topics, nmi, purity
    from repro.generators import generate_tweets

    corpus = generate_tweets(n_docs=args.docs, seed=args.seed)
    dt, vocab = corpus.to_matrix()
    model = fit_topics(dt, vocab, args.k, seed=args.seed, max_iter=40)
    print(model.report(top=args.top))
    pred = model.doc_topics()
    print(f"purity={purity(pred, corpus.labels):.3f} "
          f"nmi={nmi(pred, corpus.labels):.3f}")
    return 0


def cmd_stats(args) -> int:
    """Ingest the graph into a simulated Accumulo and report the full
    instrumentation surface: per-table metrics registry, per-server
    OpStats, and the merged cost-model counters.  With ``--connect``
    the same workload runs over the RPC fabric against a live ``repro
    serve`` / ``repro cluster``, and the report adds the client's
    ``net.client.*`` retry/timeout counters plus every server-process
    registry (prefixed ``cluster.<name>.``)."""
    from repro.dbsim import Connector, assoc_to_table, degree_table
    from repro.dbsim.server import Instance
    from repro.obs.metrics import MetricsRegistry

    a = _load(args.path)
    if args.connect:
        return _stats_remote(args, a)
    inst = Instance(n_servers=args.servers, metrics=MetricsRegistry())
    conn = Connector(inst)
    assoc_to_table(conn, a, "A", n_splits=args.splits)
    conn.compact("A")
    degree_table(conn, "A", "Adeg")
    scanned = sum(1 for _ in conn.scanner("A"))

    if args.metrics_json:
        inst.write_metrics_snapshot(args.metrics_json)
    if args.prom:
        from repro.obs.expose import to_prometheus

        print(to_prometheus(inst.metrics), end="")
        return 0
    report = inst.observability_export()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"{args.path}: ingested {a.nnz} triples into table 'A' "
          f"({args.servers} servers, {args.splits} splits); "
          f"scan returned {scanned} entries")
    print("\nper-table / per-server metrics:")
    for name, value in report["metrics"].items():
        print(f"  {name:<44} {value}")
    print("\nper-server cost counters:")
    for server, counters in report["servers"].items():
        print(f"  {server:<10} "
              + " ".join(f"{k}={v}" for k, v in counters.items()))
    print(f"\ntotal: {' '.join(f'{k}={v}' for k, v in report['total'].items())}")
    return 0


def _stats_remote(args, a) -> int:
    """The ``stats --connect`` path: same ingest/compact/degree/scan
    workload, but through :class:`~repro.net.client.RemoteConnector`
    against a live cluster.  The metrics report merges the client's own
    registry (``net.client.*``) with the registries fetched from the
    manager and every tablet-server process."""
    from repro.dbsim import assoc_to_table, degree_table
    from repro.net.client import RemoteConnector
    from repro.net.wire import RpcError
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    conn = RemoteConnector(args.connect, metrics=registry)
    try:
        inst = conn.instance
        for table in ("A", "Adeg"):  # rerunnable against a live cluster
            if inst.table_exists(table):
                inst.delete_table(table)
        assoc_to_table(conn, a, "A", n_splits=args.splits)
        conn.compact("A")
        degree_table(conn, "A", "Adeg")
        scanned = sum(1 for _ in conn.scanner("A"))
        merged = dict(registry.export())
        cluster = inst.cluster_metrics()
        for k, v in cluster.get("manager", {}).items():
            merged[f"cluster.manager.{k}"] = v
        for sname in sorted(cluster.get("servers", {})):
            for k, v in cluster["servers"][sname].items():
                merged[f"cluster.{sname}.{k}"] = v
        total = inst.total_stats()
    except (RpcError, OSError) as exc:
        raise CliError(
            f"cluster at {args.connect} unreachable: {exc}") from exc
    finally:
        conn.close()

    if args.metrics_json:
        from repro.obs.expose import write_snapshot

        write_snapshot(merged, args.metrics_json)
    if args.prom:
        from repro.obs.expose import to_prometheus

        print(to_prometheus(merged), end="")
        return 0
    if args.json:
        print(json.dumps({"connect": args.connect, "metrics": merged,
                          "total": total.as_dict()},
                         indent=2, sort_keys=True))
        return 0
    print(f"{args.path}: ingested {a.nnz} triples into table 'A' over "
          f"RPC at {args.connect} ({args.splits} splits); "
          f"scan returned {scanned} entries")
    print("\nclient RPC counters:")
    for name in sorted(merged):
        if name.startswith("net.client.") \
                and not isinstance(merged[name], dict):
            print(f"  {name:<44} {merged[name]}")
    print("\ncluster metrics (nonzero):")
    for name in sorted(merged):
        if name.startswith("cluster.") \
                and not isinstance(merged[name], dict) and merged[name]:
            print(f"  {name:<52} {merged[name]}")
    print(f"\ntotal: "
          f"{' '.join(f'{k}={v}' for k, v in total.as_dict().items())}")
    return 0


def _cluster_banner(cluster, args) -> None:
    for name, addr in zip(cluster.server_names, cluster.server_addrs):
        print(f"tablet server {name} on {addr[0]}:{addr[1]}")
    print(f"manager listening on {cluster.manager_addr_str}")
    if args.fault:
        print(f"fault plan: {', '.join(args.fault)} "
              f"(seed {args.fault_seed})")
    if args.trace_dir:
        print(f"rpc traces under {args.trace_dir}/")
    if getattr(args, "sample_rate", 1.0) < 1.0:
        print(f"trace sampling: rate {args.sample_rate} with tail "
              f"retention (errored/slow traces always promoted)")
    sys.stdout.flush()


def _foreground(duration: float) -> int:
    """Block until Ctrl-C (or for ``duration`` seconds if positive)."""
    import time as _time

    deadline = _time.monotonic() + duration if duration > 0 else None
    try:
        while deadline is None or _time.monotonic() < deadline:
            _time.sleep(0.2)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        print("shutting down", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    """Run a dbsim server in the foreground: the calling process hosts
    the tablet server(s) and the manager on localhost sockets until
    Ctrl-C.  Clients connect with ``RemoteConnector("host:port")`` or
    ``repro stats graph.tsv --connect host:port``."""
    from repro.net.cluster import LocalCluster

    cluster = LocalCluster(
        n_servers=args.servers, fault_specs=args.fault or (),
        fault_seed=args.fault_seed, trace_dir=args.trace_dir,
        processes=False, host=args.host, manager_port=args.port,
        telemetry_interval=args.telemetry_interval,
        sample_rate=args.sample_rate).start()
    try:
        _cluster_banner(cluster, args)
        print(f"serving until Ctrl-C; try: repro stats graph.tsv "
              f"--connect {cluster.manager_addr_str} --prom")
        sys.stdout.flush()
        return _foreground(args.duration)
    finally:
        cluster.stop()


def cmd_cluster(args) -> int:
    """Boot a multi-process cluster: N tablet-server processes plus a
    manager process.  With ``--smoke``, run a BFS workload through the
    RPC fabric, check it is bit-identical to the in-process backend,
    print the client's retry counters, and exit (nonzero on any
    mismatch) — the CI net-fabric gate."""
    from repro.net.cluster import LocalCluster

    cluster = LocalCluster(
        n_servers=args.servers, fault_specs=args.fault or (),
        fault_seed=args.fault_seed, trace_dir=args.trace_dir,
        processes=not args.threads, host=args.host,
        manager_port=args.port,
        telemetry_interval=args.telemetry_interval,
        sample_rate=args.sample_rate).start()
    try:
        _cluster_banner(cluster, args)
        if args.smoke:
            return _net_smoke(cluster, scale=args.scale, hops=args.hops)
        print("cluster up until Ctrl-C")
        sys.stdout.flush()
        return _foreground(args.duration)
    finally:
        cluster.stop()


def _net_smoke(cluster, scale: int = 6, hops: int = 3) -> int:
    """Same graph ingested and BFS'd through the RPC fabric and through
    the in-process backend; the two must agree bit for bit — BFS result
    *and* full cell-level table snapshot — even with fault injection in
    the response path."""
    from repro.dbsim import (Connector, assoc_to_table, decode_number,
                             degree_table, table_bfs)
    from repro.dbsim.server import Instance
    from repro.generators import rmat_graph
    from repro.net.iterspec import IterSpec
    from repro.obs.metrics import MetricsRegistry

    g = rmat_graph(scale, edge_factor=4, seed=7)
    rows, cols, vals = g.to_coo()
    width = len(str(g.nrows - 1))
    a = AssocArray.from_triples(
        [f"v{u:0{width}d}" for u in rows],
        [f"v{v:0{width}d}" for v in cols], vals)
    source = str(min(a.row_keys))

    local = Connector(Instance(n_servers=cluster.n_servers,
                               metrics=MetricsRegistry()))
    assoc_to_table(local, a, "A", n_splits=4)
    want_bfs = table_bfs(local, "A", [source], hops)
    want_cells = list(local.scanner("A"))

    registry = MetricsRegistry()
    conn = cluster.connect(metrics=registry)
    try:
        assoc_to_table(conn, a, "A", n_splits=4)
        got_bfs = table_bfs(conn, "A", [source], hops)
        got_cells = list(conn.scanner("A"))
        # columnar canary: the bulk ColumnBatch path must materialise
        # to the same cells (timestamps included) as the per-cell scan
        got_columnar = [c for b in conn.scanner("A").scan_columns()
                        for c in b.cells()]
        # push-down leg: degree maintenance (a server-side Reduce) and
        # a degree-filtered BFS through repro.net.iterspec must stay
        # bit-identical to the in-process backend, and a filtered scan
        # whose predicate runs inside the tablet servers must ship
        # fewer scan bytes than the same scan filtered client-side
        degree_table(local, "A", "Adeg", count_entries=True)
        degree_table(conn, "A", "Adeg", count_entries=True)
        want_deg = list(local.scanner("Adeg"))
        got_deg = list(conn.scanner("Adeg"))
        degs = sorted(decode_number(c.value) for c in want_deg)
        min_deg = degs[len(degs) // 2]  # median keeps the BFS alive
        want_fbfs = table_bfs(local, "A", [source], hops,
                              min_degree=min_deg, degree_table_name="Adeg")
        got_fbfs = table_bfs(conn, "A", [source], hops,
                             min_degree=min_deg, degree_table_name="Adeg")
        spec = IterSpec().value_ge(2.0)
        want_filtered = [c for c in list(local.scanner("A"))
                         if decode_number(c.value) >= 2.0]

        def scan_rx() -> float:
            return registry.export().get(
                "net.client.op.scan.bytes_received", 0)

        r0 = scan_rx()
        client_filtered = [c for c in list(conn.scanner("A"))
                           if decode_number(c.value) >= 2.0]
        r1 = scan_rx()
        got_filtered = list(conn.scanner("A", iterspec=spec))
        r2 = scan_rx()
        full_rx, pushed_rx = r1 - r0, r2 - r1
        server_metrics = conn.instance.cluster_metrics()
    finally:
        conn.close()

    export = registry.export()
    counters = {k[len("net.client."):]: v
                for k, v in sorted(export.items())
                if k.startswith("net.client.")
                and not isinstance(v, dict) and v}
    print("client counters: "
          + " ".join(f"{k}={v}" for k, v in counters.items()))

    # wire accounting must have moved: the client counted bytes both
    # ways, and every tablet server counted bytes it sent back
    client_sent = sum(v for k, v in export.items()
                      if k.startswith("net.client.op.")
                      and k.endswith(".bytes_sent"))
    client_received = sum(v for k, v in export.items()
                          if k.startswith("net.client.op.")
                          and k.endswith(".bytes_received"))
    servers_sent = {
        name: metrics.get("net.server.bytes_sent", 0)
        for name, metrics in server_metrics.get("servers", {}).items()}
    print(f"wire bytes: client sent {client_sent} / received "
          f"{client_received}; server sent "
          + " ".join(f"{n}={v}" for n, v in sorted(servers_sent.items())))

    reduction = (full_rx / pushed_rx) if pushed_rx else float("inf")
    print(f"push-down: filtered scan shipped {pushed_rx} bytes vs "
          f"{full_rx} client-side ({reduction:.1f}x fewer); "
          f"degree-filtered BFS (min_degree={min_deg:g}) reached "
          f"{len(got_fbfs)} vertices")

    ok_bfs = got_bfs == want_bfs
    ok_cells = got_cells == want_cells
    ok_columnar = got_columnar == want_cells
    ok_bytes = (client_sent > 0 and client_received > 0
                and servers_sent and all(v > 0
                                         for v in servers_sent.values()))
    ok_pushdown = (got_deg == want_deg and got_fbfs == want_fbfs
                   and got_filtered == want_filtered
                   and got_filtered == client_filtered
                   and pushed_rx < full_rx)
    if ok_bfs and ok_cells and ok_columnar and ok_bytes and ok_pushdown:
        print(f"smoke OK: remote BFS from {source} "
              f"({hops} hops over {g.nrows} vertices), the "
              f"{len(want_cells)}-cell table snapshot — per-cell and "
              f"columnar — and the server-side push-down leg (degree "
              f"Reduce + filtered BFS) are bit-identical to the "
              f"in-process backend")
        return 0
    problems = []
    if not ok_bfs:
        problems.append("BFS result mismatch")
    if not ok_cells:
        problems.append(f"table snapshot mismatch "
                        f"({len(got_cells)} cells vs {len(want_cells)})")
    if not ok_columnar:
        problems.append(f"columnar scan snapshot mismatch "
                        f"({len(got_columnar)} cells vs "
                        f"{len(want_cells)})")
    if not ok_bytes:
        problems.append("wire byte accounting did not move "
                        f"(client sent={client_sent} "
                        f"received={client_received} "
                        f"servers={servers_sent})")
    if not ok_pushdown:
        detail = []
        if got_deg != want_deg:
            detail.append("degree table mismatch")
        if got_fbfs != want_fbfs:
            detail.append("filtered BFS mismatch")
        if got_filtered != want_filtered or got_filtered != client_filtered:
            detail.append("filtered scan mismatch")
        if pushed_rx >= full_rx:
            detail.append(f"no wire saving (pushed={pushed_rx} "
                          f"full={full_rx})")
        problems.append("push-down leg failed: " + ", ".join(detail))
    print(f"smoke FAILED: {'; '.join(problems)}", file=sys.stderr)
    return 1


def _fmt_ms(seconds: float) -> str:
    return f"{1e3 * seconds:.2f}"


def cmd_analyze(args) -> int:
    """Roll a JSONL trace up into per-span-name statistics, print the
    critical path of the longest root span, the per-RPC client/network/
    queue/service breakdown (when the trace has rpc.client spans), and
    optionally export a folded-stack flamegraph."""
    from repro.obs.analyze import (TraceAnalysis, filter_by_trace,
                                   read_records)

    try:
        records = read_records(args.path)
    except FileNotFoundError:
        raise CliError(f"no such file: {args.path}") from None
    except (OSError, UnicodeError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    if args.trace_id:
        records = filter_by_trace(records, args.trace_id)
        if not records:
            raise CliError(f"{args.path} has no spans with trace_id "
                           f"{args.trace_id}")
    ta = TraceAnalysis(records)
    if ta.n_spans == 0:
        raise CliError(f"{args.path} holds no spans "
                       f"({ta.n_records} records)")

    if args.json:
        print(json.dumps(ta.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"{args.path}: {ta.n_records} records, {ta.n_spans} spans, "
              f"{len(ta.roots)} root span(s)")
        print(f"\n{'name':<28} {'count':>5} {'total_ms':>9} {'self_ms':>9} "
              f"{'p50_ms':>8} {'p95_ms':>8} {'p99_ms':>8} "
              f"{'seeks':>7} {'reads':>9}")
        for r in ta.top(args.top):
            print(f"{r.name:<28} {r.count:>5} {_fmt_ms(r.total_s):>9} "
                  f"{_fmt_ms(r.self_s):>9} {_fmt_ms(r.p50):>8} "
                  f"{_fmt_ms(r.p95):>8} {_fmt_ms(r.p99):>8} "
                  f"{r.opstats['seeks']:>7} "
                  f"{r.opstats['entries_read']:>9}")
        path = ta.critical_path()
        root = path[0]
        print(f"\ncritical path of longest root "
              f"({root.name}, {_fmt_ms(root.duration_s)} ms):")
        for i, node in enumerate(path):
            pct = (100.0 * node.duration_s / root.duration_s
                   if root.duration_s else 100.0)
            print(f"  {'  ' * i}{node.name}  "
                  f"{_fmt_ms(node.duration_s)} ms total / "
                  f"{_fmt_ms(node.self_s)} ms self ({pct:.0f}%)")
        rpc = ta.rpc_breakdown()
        if rpc:
            print(f"\nRPC time breakdown (client ms = network + "
                  f"server queue + server service, or + unawaited):")
            print(f"{'op':<14} {'calls':>6} {'srv':>5} {'client_ms':>10} "
                  f"{'network_ms':>11} {'queue_ms':>9} {'service_ms':>11} "
                  f"{'unawaited_ms':>13}")
            for op in sorted(rpc):
                r = rpc[op]
                print(f"{r['op']:<14} {r['count']:>6} "
                      f"{r['server_spans']:>5} "
                      f"{_fmt_ms(r['client_s']):>10} "
                      f"{_fmt_ms(r['network_s']):>11} "
                      f"{_fmt_ms(r['server_queue_s']):>9} "
                      f"{_fmt_ms(r['server_service_s']):>11} "
                      f"{_fmt_ms(r['unawaited_s']):>13}")
    if args.flamegraph:
        lines = ta.folded_stacks()
        with open(args.flamegraph, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} folded stacks to {args.flamegraph}",
              file=sys.stderr if args.json else sys.stdout)
    return 0


def cmd_stitch(args) -> int:
    """Merge per-process JSONL traces (client + manager + each tablet
    server) into one cross-process trace file whose parent/child links
    resolve across process boundaries.  With ``--check-cross-process``
    the command exits 1 unless at least one cross-process parent→child
    edge was stitched and no span is orphaned — the CI tracing gate."""
    from repro.obs.stitch import stitch_files

    try:
        st = stitch_files(args.paths)
    except FileNotFoundError as exc:
        raise CliError(f"no such file: {exc.filename}") from None
    except (OSError, UnicodeError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    if not st.records:
        raise CliError("no spans found in "
                       + ", ".join(map(str, args.paths)))
    if args.out:
        st.write(args.out)
    summary = st.as_dict()
    print(f"stitched {len(args.paths)} file(s): {summary['spans']} spans, "
          f"{summary['traces']} trace(s), processes: "
          f"{', '.join(summary['processes'])}")
    edges = st.edge_summary()
    if edges:
        print(f"{summary['cross_process_edges']} cross-process edge(s):")
        for line in edges:
            print(f"  {line}")
    else:
        print("no cross-process edges (single-process trace, or the "
              "server trace files are missing)")
    sampled_out = st.sampled_out_parents()
    if sampled_out:
        # tail-promoted spans whose parent was head-sampled away in
        # another process: expected under --sample-rate < 1, not a loss
        print(f"{len(sampled_out)} tail-promoted span(s) with "
              f"sampled-out parents (expected under partial sampling)")
    orphans = st.orphan_spans()
    if orphans:
        names = sorted({r.get("name", "?") for r in orphans})
        print(f"warning: {len(orphans)} orphaned span(s) "
              f"(parent not in any input file): {', '.join(names)}",
              file=sys.stderr)
    if args.out:
        print(f"wrote stitched trace to {args.out}")
    if args.check_cross_process and (not edges or orphans):
        problems = []
        if not edges:
            problems.append("no cross-process edges")
        if orphans:
            problems.append(f"{len(orphans)} orphaned spans")
        print(f"stitch check FAILED: {'; '.join(problems)}",
              file=sys.stderr)
        return 1
    return 0


def cmd_top(args) -> int:
    """Live per-server cluster view over RPC: poll the manager's
    telemetry ring (``TELEMETRY`` op) and render QPS, bytes/s in and
    out, in-flight requests, error rate, and the hottest tables per
    tablet server."""
    import time as _time

    from repro.net.client import RemoteConnector
    from repro.net.telemetry import ClusterTelemetry, render_top
    from repro.net.wire import RpcError

    conn = RemoteConnector(args.connect)
    shown = 0
    try:
        while True:
            try:
                data = conn.instance.telemetry(sample=True)
            except (RpcError, OSError) as exc:
                raise CliError(f"cluster at {args.connect} "
                               f"unreachable: {exc}") from exc
            tel = ClusterTelemetry.from_dict(data)
            clock = _time.strftime("%H:%M:%S")
            print(render_top(tel.summary(hot_tables=args.hot_tables),
                             clock=clock))
            shown += 1
            if args.iterations and shown >= args.iterations:
                return 0
            print()
            sys.stdout.flush()
            _time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
    finally:
        conn.close()


def cmd_health(args) -> int:
    """Evaluate the cluster's SLOs from two metric snapshots taken
    ``--window`` seconds apart: p99 latency targets straight from the
    server histograms, error budgets as windowed burn rates over the
    interval.  Exits 1 when any objective is breached — the CI health
    gate.  ``--out`` writes the full report JSON (the CI artifact)."""
    import time as _time

    from repro.net.client import RemoteConnector
    from repro.net.wire import RpcError
    from repro.obs import health as _health

    try:
        slos = _health.load_slos(args.slos) if args.slos else None
    except FileNotFoundError:
        raise CliError(f"no such file: {args.slos}") from None
    except (OSError, ValueError, TypeError) as exc:
        raise CliError(f"bad SLO spec file {args.slos}: {exc}") from exc
    conn = RemoteConnector(args.connect)
    try:
        before = conn.instance.cluster_metrics()
        _time.sleep(args.window)
        after = conn.instance.cluster_metrics()
    except (RpcError, OSError) as exc:
        raise CliError(f"cluster at {args.connect} "
                       f"unreachable: {exc}") from exc
    finally:
        conn.close()
    report = _health.evaluate(after, slos=slos, before=before,
                              seconds=max(args.window, 1e-9))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if not report.ok:
        print(f"health check FAILED: {len(report.breaches())} "
              f"SLO breach(es)", file=sys.stderr)
        return 1
    return 0


def cmd_monitor(args) -> int:
    """Poll a metrics snapshot file (written by ``repro stats
    --metrics-json``, ``Instance.write_metrics_snapshot`` or the
    benchmark harness under ``REPRO_METRICS_JSON``) and print counter
    deltas between refreshes — a live view of a workload running in
    another process."""
    import time as _time

    from repro.obs.expose import SnapshotDelta, read_snapshot

    prev = None
    shown = 0
    iterations = args.iterations
    try:
        while True:
            snap = read_snapshot(args.metrics_json)
            if snap is None:
                print(f"[monitor] waiting for {args.metrics_json} ...")
            else:
                ts = snap.get("ts")
                stamp = (_time.strftime("%H:%M:%S", _time.localtime(ts))
                         if isinstance(ts, (int, float)) else "?")
                if prev is None:
                    nonzero = {k: v for k, v in snap["metrics"].items()
                               if not isinstance(v, dict) and v}
                    print(f"[monitor {stamp}] baseline: "
                          f"{len(snap['metrics'])} metrics, "
                          f"{len(nonzero)} nonzero")
                else:
                    seconds = None
                    if isinstance(ts, (int, float)) and \
                            isinstance(prev.get("ts"), (int, float)):
                        seconds = max(ts - prev["ts"], 0.0) or None
                    delta = SnapshotDelta(prev["metrics"], snap["metrics"],
                                          seconds=seconds)
                    moved = delta.deltas()
                    if moved:
                        print(f"[monitor {stamp}] "
                              f"{len(moved)} metric(s) moved:")
                        rates = delta.rates() if seconds else {}
                        for name, d in moved.items():
                            rate = (f"  ({rates[name]:,.0f}/s)"
                                    if name in rates else "")
                            reset = (" (reset)" if name in delta.resets
                                     else "")
                            print(f"  {name:<52} {d:+}{rate}{reset}")
                    else:
                        print(f"[monitor {stamp}] idle")
                prev = snap
            shown += 1
            if iterations and shown >= iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro",
                                description=__doc__.splitlines()[0])
    # options shared by every subcommand (argparse wants them after the
    # subcommand name, so they ride in via parents=)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace", metavar="PATH", default=None,
        help="append spans + convergence records to PATH as JSON lines")
    common.add_argument(
        "--slowlog", metavar="PATH", default=None,
        help="append spans exceeding the default wall-clock thresholds "
             "/ OpStats budgets to PATH as JSON lines")
    common.add_argument(
        "--sample-rate", type=float, default=1.0, metavar="R",
        dest="sample_rate",
        help="head-sample traces at rate R in [0,1] (deterministic per "
             "trace id; errored/slow traces are always promoted from "
             "the tail ring; default 1.0 = record everything)")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    s = add_parser("info", help="graph statistics from a triple TSV")
    s.add_argument("path")
    s.set_defaults(fn=cmd_info)

    s = add_parser("generate", help="generate a graph to a triple TSV")
    s.add_argument("model", choices=["rmat", "er"])
    s.add_argument("--scale", type=int, default=8)
    s.add_argument("--edge-factor", type=int, default=8)
    s.add_argument("--p", type=float, default=0.05)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_generate)

    s = add_parser("bfs", help="breadth-first hop levels")
    s.add_argument("path")
    s.add_argument("--source", required=True)
    s.set_defaults(fn=cmd_bfs)

    s = add_parser("pagerank", help="PageRank ranking")
    s.add_argument("path")
    s.add_argument("--jump", type=float, default=0.15)
    s.add_argument("--top", type=int, default=10)
    s.set_defaults(fn=cmd_pagerank)

    s = add_parser("ktruss", help="k-truss subgraph (Algorithm 1)")
    s.add_argument("path")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--top", type=int, default=10)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_ktruss)

    s = add_parser("jaccard", help="Jaccard similarity (Algorithm 2)")
    s.add_argument("path")
    s.add_argument("--top", type=int, default=10)
    s.set_defaults(fn=cmd_jaccard)

    s = add_parser("triangles", help="triangle counts (masked SpGEMM)")
    s.add_argument("path")
    s.add_argument("--top", type=int, default=10)
    s.set_defaults(fn=cmd_triangles)

    s = add_parser("components", help="connected components")
    s.add_argument("path")
    s.add_argument("--top", type=int, default=10)
    s.set_defaults(fn=cmd_components)

    s = add_parser("topics",
                   help="NMF topic demo on the synthetic corpus (Fig 3)")
    s.add_argument("--docs", type=int, default=2000)
    s.add_argument("--k", type=int, default=5)
    s.add_argument("--top", type=int, default=8)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_topics)

    s = add_parser("stats",
                   help="ingest into the dbsim and dump the metrics registry")
    s.add_argument("path")
    s.add_argument("--servers", type=int, default=2)
    s.add_argument("--splits", type=int, default=1)
    s.add_argument("--json", action="store_true",
                   help="emit the full observability export as JSON")
    s.add_argument("--prom", action="store_true",
                   help="emit the metrics registry in Prometheus text "
                        "exposition format instead")
    s.add_argument("--metrics-json", metavar="PATH",
                   help="also write a timestamped metrics snapshot file "
                        "(the input `repro monitor` polls)")
    s.add_argument("--connect", metavar="HOST:PORT",
                   help="run the workload over the RPC fabric against a "
                        "live `repro serve`/`repro cluster` manager; the "
                        "report then includes net.client.* retry/timeout "
                        "counters and each server's registry")
    s.set_defaults(fn=cmd_stats)

    def add_cluster_args(s, default_servers):
        s.add_argument("--servers", type=int, default=default_servers,
                       help=f"tablet servers (default {default_servers})")
        s.add_argument("--host", default="127.0.0.1")
        s.add_argument("--port", type=int, default=0,
                       help="manager port (default: ephemeral, printed)")
        s.add_argument("--fault", action="append", metavar="SPEC",
                       help="fault-injection rule op:kind:rate[:param], "
                            "e.g. scan:delay:0.05:0.02 or "
                            "write_batch:drop:0.01 (repeatable; see "
                            "docs/NET.md)")
        s.add_argument("--fault-seed", type=int, default=0)
        s.add_argument("--trace-dir", metavar="DIR",
                       help="write per-process rpc.* span traces under DIR")
        s.add_argument("--telemetry-interval", type=float, default=0.0,
                       metavar="SECONDS",
                       help="manager samples cluster metrics into the "
                            "telemetry ring every N seconds (default 0: "
                            "sample only when `repro top` polls)")
        s.add_argument("--duration", type=float, default=0.0,
                       help="serve for N seconds then exit "
                            "(default: until ^C)")

    s = add_parser("serve",
                   help="run a dbsim server cluster in the foreground "
                        "(this process hosts the sockets)")
    add_cluster_args(s, default_servers=1)
    s.set_defaults(fn=cmd_serve)

    s = add_parser("cluster",
                   help="boot a multi-process cluster: N tablet-server "
                        "processes + a manager process")
    add_cluster_args(s, default_servers=3)
    s.add_argument("--threads", action="store_true",
                   help="run the services on threads in this process "
                        "instead of spawning server processes")
    s.add_argument("--smoke", action="store_true",
                   help="run a BFS workload over RPC, verify bit-identical "
                        "output against the in-process backend, and exit")
    s.add_argument("--scale", type=int, default=6,
                   help="R-MAT scale of the --smoke graph (default 6)")
    s.add_argument("--hops", type=int, default=3,
                   help="--smoke BFS hops (default 3)")
    s.set_defaults(fn=cmd_cluster)

    s = add_parser("analyze",
                   help="roll up a JSONL trace: per-span-name stats, "
                        "critical path, flamegraph export")
    s.add_argument("path", help="JSONL trace written via --trace / "
                                "REPRO_TRACE")
    s.add_argument("--top", type=int, default=20,
                   help="show the N heaviest span names (default 20)")
    s.add_argument("--flamegraph", metavar="PATH",
                   help="write folded stacks (name;child self-µs) to PATH")
    s.add_argument("--trace-id", metavar="HEX",
                   help="only analyze spans of one distributed trace")
    s.add_argument("--json", action="store_true",
                   help="emit the full analysis as JSON")
    s.set_defaults(fn=cmd_analyze)

    s = add_parser("stitch",
                   help="merge per-process JSONL traces into one "
                        "cross-process trace (by trace/span identity)")
    s.add_argument("paths", nargs="+",
                   help="per-process trace files (client + manager + "
                        "tablet servers, e.g. traces/trace.*.jsonl)")
    s.add_argument("--out", metavar="PATH",
                   help="write the stitched trace (JSONL, analyzable "
                        "with `repro analyze`)")
    s.add_argument("--check-cross-process", action="store_true",
                   help="exit 1 unless the stitched trace has "
                        "cross-process parent->child edges and no "
                        "orphaned spans (CI gate)")
    s.set_defaults(fn=cmd_stitch)

    s = add_parser("top",
                   help="live per-server cluster telemetry over RPC "
                        "(QPS, bytes/s, in-flight, hot tables)")
    s.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="manager address of a live `repro serve` / "
                        "`repro cluster`")
    s.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes (default 2)")
    s.add_argument("--iterations", type=int, default=0,
                   help="stop after N refreshes (default: run until ^C)")
    s.add_argument("--hot-tables", type=int, default=3,
                   help="hottest tables shown per server (default 3)")
    s.set_defaults(fn=cmd_top)

    s = add_parser("health",
                   help="evaluate cluster SLOs (p99 targets, error "
                        "budgets) and exit nonzero on breach")
    s.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="manager address of a live `repro serve` / "
                        "`repro cluster`")
    s.add_argument("--window", type=float, default=2.0,
                   help="seconds between the two metric snapshots the "
                        "error burn rates are computed over (default 2)")
    s.add_argument("--slos", metavar="PATH",
                   help="JSON file with a list of SLO spec objects "
                        "(default: the built-in RPC-plane SLOs)")
    s.add_argument("--json", action="store_true",
                   help="emit the full health report as JSON")
    s.add_argument("--out", metavar="PATH",
                   help="also write the report JSON to PATH "
                        "(the CI health artifact)")
    s.set_defaults(fn=cmd_health)

    s = add_parser("monitor",
                   help="live counter deltas from a metrics snapshot file")
    s.add_argument("--metrics-json", required=True, metavar="PATH",
                   help="snapshot file the workload writes (repro stats "
                        "--metrics-json / REPRO_METRICS_JSON)")
    s.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes (default 2)")
    s.add_argument("--iterations", type=int, default=0,
                   help="stop after N refreshes (default: run until ^C)")
    s.set_defaults(fn=cmd_monitor)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    slow_path = getattr(args, "slowlog", None)
    slowlog = None
    for path, what in ((trace_path, "trace"), (slow_path, "slow-op log")):
        if path:
            try:  # fail now, not from inside the first span's lazy open
                open(path, "a", encoding="utf-8").close()
            except OSError as exc:
                print(f"error: cannot open {what} file: {exc}",
                      file=sys.stderr)
                return 2
    if trace_path:
        # the header names this process "client" so stitched traces
        # attribute our spans correctly
        _trace.enable(JSONLSink(trace_path, process="client"))
    if slow_path:
        from repro.obs.slowlog import SlowLog

        if not _trace.is_enabled():
            # no full trace requested: record only the slow spans
            _trace.enable(_trace.NullSink())
        slowlog = SlowLog(path=slow_path).attach()
    sample_rate = getattr(args, "sample_rate", 1.0)
    sampling_on = sample_rate < 1.0
    if sampling_on:
        # this process is the trace's client half; server processes get
        # the same rate via LocalCluster(sample_rate=...) and agree on
        # every decision because sampling is a pure function of trace id
        from repro.obs import sampling as _sampling

        _sampling.configure(sample_rate)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if sampling_on:
            from repro.obs import sampling as _sampling

            _sampling.unconfigure()
        if slowlog is not None:
            slowlog.detach()
            print(f"slow-op log: {slowlog.caught}/{slowlog.checked} "
                  f"span(s) over limits -> {slow_path}", file=sys.stderr)
        if trace_path or slow_path:
            _trace.disable(close=True)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
