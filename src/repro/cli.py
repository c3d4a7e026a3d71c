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
    python -m repro analyze   trace.*.jsonl --out stitched.jsonl
    python -m repro health    --connect H:P [--window 2] [--json]
    python -m repro cluster   --servers 3 [--fault SPEC ...]

Every subcommand accepts ``--trace out.jsonl`` (spans with OpStats
deltas plus convergence records, one JSON object per line) and
``--sample-rate R`` (deterministic head sampling: record 1 in 1/R
traces, retain the rest in a tail ring that promotes errored/slow
traces — see docs/OBSERVABILITY.md; ``--sample-rate 0`` records only
the traces that errored or blew a wall-clock threshold or OpStats
budget).  The trace sink buffers a bounded batch of records but is
flushed and closed on every exit path, so an interrupted run still
leaves a readable trace.  ``analyze`` rolls a trace up into
per-span-name percentiles, a critical path and an optional flamegraph,
stitching several per-process traces into one first; ``health`` prints
per-server rates between two polls of the cluster's metrics, evaluates
its SLOs (p99 latency targets, error budgets) over the same polls and
exits nonzero on breach.  Input failures exit with status 2 and a
one-line ``error:`` message, never a traceback; a reader that closes
stdout early (``repro stats … | head -3``) ends the run with status 1
and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
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
        raise CliError(f"source vertex {args.source!r} not in graph")
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
    the same workload runs through the same code against a live
    ``repro cluster``, and the report adds the client's
    ``net.client.*`` retry/timeout counters plus every server-process
    registry (prefixed ``cluster.<name>.``)."""
    from repro.dbsim import Connector, assoc_to_table, degree_table
    from repro.dbsim.server import Instance
    from repro.net.client import RemoteConnector
    from repro.net.wire import RpcError
    from repro.obs.expose import to_prometheus
    from repro.obs.health import flatten
    from repro.obs.metrics import MetricsRegistry

    a = _load(args.path)
    registry = MetricsRegistry()
    conn = (RemoteConnector(args.connect, metrics=registry) if args.connect
            else Connector(Instance(n_servers=args.servers,
                                    metrics=registry)))
    inst = conn.instance
    try:
        for table in ("A", "Adeg"):  # rerunnable against a live cluster
            if inst.table_exists(table):
                inst.delete_table(table)
        assoc_to_table(conn, a, "A", n_splits=args.splits)
        conn.compact("A")
        degree_table(conn, "A", "Adeg")
        scanned = sum(1 for _ in conn.scanner("A"))
        if args.connect:
            metrics = dict(registry.export())
            for name, export in sorted(
                    flatten(inst.cluster_metrics()).items()):
                metrics.update((f"cluster.{name}.{k}", v)
                               for k, v in export.items())
            report = {"connect": args.connect, "metrics": metrics,
                      "total": inst.total_stats().as_dict()}
        else:
            report = inst.observability_export()
    except (RpcError, OSError) as exc:
        if not args.connect:
            raise
        raise CliError(
            f"cluster at {args.connect} unreachable: {exc}") from exc
    finally:
        if args.connect:
            conn.close()

    if args.prom:
        # a registry renders typed; the merged remote export untyped
        print(to_prometheus(report["metrics"] if args.connect
                            else registry), end="")
        return 0
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    where = (f"over RPC at {args.connect} ({args.splits} splits)"
             if args.connect
             else f"({args.servers} servers, {args.splits} splits)")
    print(f"{args.path}: ingested {a.nnz} triples into table 'A' "
          f"{where}; scan returned {scanned} entries")
    metrics = report["metrics"]
    if args.connect:
        print("\nclient RPC counters:")
        for name in sorted(metrics):
            if name.startswith("net.client.") \
                    and not isinstance(metrics[name], dict):
                print(f"  {name:<44} {metrics[name]}")
        print("\ncluster metrics (nonzero):")
        for name in sorted(metrics):
            if name.startswith("cluster.") \
                    and not isinstance(metrics[name], dict) and metrics[name]:
                print(f"  {name:<52} {metrics[name]}")
    else:
        print("\nper-table / per-server metrics:")
        for name, value in metrics.items():
            print(f"  {name:<44} {value}")
        print("\nper-server cost counters:")
        for server, counters in report["servers"].items():
            print(f"  {server:<10} "
                  + " ".join(f"{k}={v}" for k, v in counters.items()))
    print(f"\ntotal: {' '.join(f'{k}={v}' for k, v in report['total'].items())}")
    return 0


def cmd_cluster(args) -> int:
    """Boot a multi-process cluster: N tablet-server processes plus a
    manager process, serving until Ctrl-C (or ``--duration``)."""
    import time as _time

    from repro.net.cluster import LocalCluster

    cluster = LocalCluster(
        n_servers=args.servers, fault_specs=args.fault or (),
        fault_seed=args.fault_seed, trace_dir=args.trace_dir,
        processes=not args.threads, host=args.host,
        manager_port=args.port, sample_rate=args.sample_rate).start()
    try:
        for name, addr in zip(cluster.server_names, cluster.server_addrs):
            print(f"tablet server {name} on {addr[0]}:{addr[1]}")
        print(f"manager listening on {cluster.manager_addr_str}")
        if args.fault:
            print(f"fault plan: {', '.join(args.fault)} "
                  f"(seed {args.fault_seed})")
        if args.trace_dir:
            print(f"rpc traces under {args.trace_dir}/")
        if args.sample_rate < 1.0:
            print(f"trace sampling: rate {args.sample_rate} with tail "
                  f"retention (errored/slow traces always promoted)")
        print("cluster up until Ctrl-C")
        sys.stdout.flush()
        deadline = (_time.monotonic() + args.duration
                    if args.duration > 0 else None)
        try:
            while deadline is None or _time.monotonic() < deadline:
                _time.sleep(0.2)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            print("shutting down", file=sys.stderr)
        return 0
    finally:
        cluster.stop()


def _fmt_ms(seconds: float) -> str:
    return f"{1e3 * seconds:.2f}"


def _report_stitch(args, st) -> list:
    """Print the summary of a stitched trace (on stderr under
    ``--json``), write it to ``--out``, and return what fails
    ``--check-cross-process``, the CI tracing gate: no cross-process
    parent→child edge, or orphaned spans."""
    if not st.records:
        raise CliError("no spans found in "
                       + ", ".join(map(str, args.paths)))
    out = sys.stderr if args.json else sys.stdout
    if args.out:
        st.write(args.out)
    summary = st.as_dict()
    print(f"stitched {len(args.paths)} file(s): {summary['spans']} spans, "
          f"{summary['traces']} trace(s), processes: "
          f"{', '.join(summary['processes'])}", file=out)
    edges = st.edge_summary()
    print(f"{summary['cross_process_edges']} cross-process edge(s):"
          if edges else "no cross-process edges (single-process trace, "
          "or the server trace files are missing)", file=out)
    for line in edges:
        print(f"  {line}", file=out)
    sampled_out = st.sampled_out_parents()
    if sampled_out:
        # tail-promoted spans whose parent was head-sampled away in
        # another process: expected under --sample-rate < 1, not a loss
        print(f"{len(sampled_out)} tail-promoted span(s) with "
              f"sampled-out parents (expected under partial sampling)",
              file=out)
    orphans = st.orphan_spans()
    if orphans:
        names = sorted({r.get("name", "?") for r in orphans})
        print(f"warning: {len(orphans)} orphaned span(s) "
              f"(parent not in any input file): {', '.join(names)}",
              file=sys.stderr)
    if args.out:
        print(f"wrote stitched trace to {args.out}", file=out)
    return ((["no cross-process edges"] if not edges else [])
            + ([f"{len(orphans)} orphaned spans"] if orphans else []))


def cmd_analyze(args) -> int:
    """Roll a JSONL trace up into per-span-name statistics, print the
    critical path of the longest root span, the per-RPC client/network/
    queue/service breakdown (when the trace has rpc.client spans), and
    optionally export a folded-stack flamegraph.  Several per-process
    traces are first stitched into one cross-process trace, whose
    summary prints above the analysis (see :func:`_report_stitch`)."""
    from repro.obs.analyze import (TraceAnalysis, filter_by_trace,
                                   read_records)
    from repro.obs.stitch import stitch_files

    stitch = len(args.paths) > 1 or args.out or args.check_cross_process
    label = "stitched trace" if stitch else args.paths[0]
    try:
        st = stitch_files(args.paths) if stitch else None
        records = st.records if stitch else read_records(label)
    except FileNotFoundError as exc:
        raise CliError(f"no such file: {exc.filename}") from None
    except (OSError, UnicodeError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    problems = _report_stitch(args, st) if stitch else []
    if args.trace_id:
        records = filter_by_trace(records, args.trace_id)
        if not records:
            raise CliError(f"{label} has no spans with trace_id "
                           f"{args.trace_id}")
    ta = TraceAnalysis(records)
    if ta.n_spans == 0:
        raise CliError(f"{label} holds no spans "
                       f"({ta.n_records} records)")

    if args.json:
        print(json.dumps(ta.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"{label}: {ta.n_records} records, {ta.n_spans} spans, "
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
    if args.check_cross_process and problems:
        print(f"stitch check FAILED: {'; '.join(problems)}",
              file=sys.stderr)
        return 1
    return 0


def cmd_health(args) -> int:
    """The live cluster view, from two metric snapshots taken
    ``--window`` seconds apart: each component's rates over the
    interval (QPS, bytes/s in and out, in-flight requests, error rate,
    push-down, hot tables, restarts), then its SLOs — p99 latency
    targets straight from the server histograms, error budgets as
    windowed burn rates over the same interval.  Exits 1 when any
    objective is breached — the CI health gate.  ``--out`` writes the
    full report JSON (the CI artifact)."""
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
    as_json = json.dumps(report.as_dict(), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(as_json + "\n")
    print(as_json if args.json else report.render())
    if not report.ok:
        print(f"health check FAILED: {len(report.breaches())} "
              f"SLO breach(es)", file=sys.stderr)
        return 1
    return 0


def _sample_rate(text: str) -> float:
    """``--sample-rate`` parser: a fraction in [0, 1], else exit 2."""
    try:
        rate = float(text)
    except ValueError:
        rate = float("nan")
    if not 0.0 <= rate <= 1.0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rate in [0, 1]")
    return rate


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
        "--sample-rate", type=_sample_rate, default=1.0, metavar="R",
        dest="sample_rate",
        help="head-sample traces at rate R in [0,1] (deterministic per "
             "trace id; errored traces and spans over a wall-clock "
             "threshold or OpStats budget are always promoted from the "
             "tail ring, so 0 records only those; default 1.0 = record "
             "everything)")
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
    s.add_argument("--connect", metavar="HOST:PORT",
                   help="run the workload over the RPC fabric against a "
                        "live `repro cluster` manager; the report then "
                        "includes net.client.* retry/timeout counters "
                        "and each server's registry")
    s.set_defaults(fn=cmd_stats)

    s = add_parser("cluster",
                   help="boot a multi-process cluster: N tablet-server "
                        "processes + a manager process")
    s.add_argument("--servers", type=int, default=3,
                   help="tablet servers (default 3)")
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
    s.add_argument("--duration", type=float, default=0.0,
                   help="serve for N seconds then exit "
                        "(default: until ^C)")
    s.add_argument("--threads", action="store_true",
                   help="run the services on threads in this process "
                        "instead of spawning server processes")
    s.set_defaults(fn=cmd_cluster)

    s = add_parser("analyze",
                   help="roll up JSONL traces: per-span-name stats, "
                        "critical path, flamegraph export; several "
                        "per-process traces are stitched first")
    s.add_argument("paths", nargs="+", metavar="path",
                   help="JSONL trace written via --trace / REPRO_TRACE, "
                        "or per-process traces (client + manager + "
                        "tablet servers, e.g. traces/trace.*.jsonl)")
    s.add_argument("--top", type=int, default=20,
                   help="show the N heaviest span names (default 20)")
    s.add_argument("--flamegraph", metavar="PATH",
                   help="write folded stacks (name;child self-µs) to PATH")
    s.add_argument("--trace-id", metavar="HEX",
                   help="only analyze spans of one distributed trace")
    s.add_argument("--json", action="store_true",
                   help="emit the full analysis as JSON")
    s.add_argument("--out", metavar="PATH",
                   help="write the stitched trace (JSONL, analyzable "
                        "with `repro analyze`)")
    s.add_argument("--check-cross-process", action="store_true",
                   help="exit 1 unless the stitched trace has "
                        "cross-process parent->child edges and no "
                        "orphaned spans (CI gate)")
    s.set_defaults(fn=cmd_analyze)

    s = add_parser("health",
                   help="live cluster view: per-server rates (QPS, "
                        "bytes/s, in-flight, hot tables) and SLOs (p99 "
                        "targets, error budgets); exit nonzero on breach")
    s.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="manager address of a live `repro cluster`")
    s.add_argument("--window", type=float, default=2.0,
                   help="seconds between the two metric snapshots the "
                        "rates and error burn rates are computed over "
                        "(default 2)")
    s.add_argument("--slos", metavar="PATH",
                   help="JSON file with a list of SLO spec objects "
                        "(default: the built-in RPC-plane SLOs)")
    s.add_argument("--json", action="store_true",
                   help="emit the full health report as JSON")
    s.add_argument("--out", metavar="PATH",
                   help="also write the report JSON to PATH "
                        "(the CI health artifact)")
    s.set_defaults(fn=cmd_health)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path:
        try:  # fail now, not from inside the first span's lazy open
            open(trace_path, "a", encoding="utf-8").close()
        except OSError as exc:
            print(f"error: cannot open trace file: {exc}", file=sys.stderr)
            return 2
        # the header names this process "client" so stitched traces
        # attribute our spans correctly
        _trace.enable(JSONLSink(trace_path, process="client"))
    sample_rate = getattr(args, "sample_rate", 1.0)
    sampling_on = sample_rate < 1.0
    if sampling_on:
        # this process is the trace's client half; server processes get
        # the same rate via LocalCluster(sample_rate=...) and agree on
        # every decision because sampling is a pure function of trace id
        from repro.obs import sampling as _sampling

        _sampling.configure(sample_rate)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so the
        # interpreter's exit flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        if sampling_on:
            from repro.obs import sampling as _sampling

            _sampling.unconfigure()
        if trace_path:
            _trace.disable(close=True)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
