"""Set-up, the measuring loop, and turning samples into metrics.

One run = one workload, one seed.  Closed loop, one client thread in
one process: the next call is issued when the previous one returns.

* Set-up (graph generation, cluster start, preload, in-process oracle)
  happens ``SETUPS`` times and ``setup_s`` is the median; the last
  set-up is the one measured against.
* One warm-up block, then identical-shape blocks until ``--seconds``
  have passed (at least ``MIN_BLOCKS``).  Each block's results are
  compared with the oracle's, cell for cell.
* Every time taken by the benchmark's own clock — set-up, blocks, pooled
  samples, per-layer probes — is scaled to a reference host speed
  measured inside the same interval (``hostspeed.py``); times the
  program reports about itself (server histograms, stitched traces) are
  as the program measured them.
* ``--trace``: two environments stay up — one untraced, one whose
  cluster writes program traces — and blocks alternate between them, so
  host drift hits both alike.  Counters are read as before/after deltas
  around the untraced blocks; spans and the stitched RPC breakdown come
  from the traced ones.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import platform
import shutil
import statistics
import time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dbsim import Connector, Instance
from repro.net import LocalCluster, RetryPolicy
from repro.obs import JSONLSink, MetricsRegistry, stitch_files, trace

from benchmarks.e2e import hostspeed, probes
from benchmarks.e2e.calls import FAILED, Calls
from benchmarks.e2e.spans import SpanRecorder
from benchmarks.e2e.workloads import Metric, OracleError, Workload

N_SERVERS = 2
SETUPS = 3
MIN_BLOCKS = 3

#: the one client policy every connection is built with.  The library
#: default (deadline 5 s) fails the COMPACT of a TableMult result at
#: scale 10 "after 8 attempts"; 30 s clears every call these sizes make
#: with an order of magnitude to spare and still bounds a hung stream
#: well inside the driver's 180 s limit.
CLIENT_POLICY = {"attempts": 3, "deadline": 30.0}


def host_info() -> dict:
    return {"host_cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "servers": N_SERVERS,
            "client_policy": CLIENT_POLICY,
            "load": "closed loop, one client thread in one process"}


# -- one environment --------------------------------------------------------


class Env:
    """A started cluster, a client, the inputs and the oracle's answers."""

    def __init__(self, workload: Workload, seed: int,
                 trace_dir: Optional[str] = None) -> None:
        mark = hostspeed.mark()
        laps: List[float] = []
        last = [time.perf_counter(), hostspeed.spent_s()]

        def lap() -> None:
            """Close one phase of set-up: its seconds, without the
            reference loops that ran inside it."""
            now, spent = time.perf_counter(), hostspeed.spent_s()
            laps.append(now - last[0] - (spent - last[1]))
            hostspeed.sample()
            last[:] = time.perf_counter(), hostspeed.spent_s()

        self.traced = trace_dir is not None
        self.inp = workload.inputs(seed)
        lap()
        self.cluster = LocalCluster(n_servers=N_SERVERS,
                                    trace_dir=trace_dir).start()
        try:
            self.registry = MetricsRegistry()
            self.conn = self.cluster.connect(
                metrics=self.registry, retry=RetryPolicy(**CLIENT_POLICY))
            lap()
            workload.preload(self.conn, self.inp)
            lap()
            self.expected, self.oracle_block_ms = _oracle(workload, self.inp)
            lap()
        except BaseException:
            self.close()
            raise
        # like every block, at the reference host speed (hostspeed.py)
        self.loop_s = hostspeed.mean_since(mark)
        scale = hostspeed.REF_LOOP_S / self.loop_s
        self.setup_s = sum(laps) * scale
        self.parts = {"cluster_start_s": laps[1] * scale,
                      "preload_s": laps[2] * scale,
                      "oracle_s": laps[3] * scale}
        self.blocks: List[Dict[str, float]] = []
        self.result_cells = 0

    def close(self) -> None:
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        self.cluster.stop()


def _oracle(workload: Workload, inp) -> Tuple[list, List[float]]:
    """The same preload and blocks through the in-process backend."""
    conn = Connector(Instance(n_servers=N_SERVERS))
    workload.preload(conn, inp)
    calls = Calls(SpanRecorder())
    expected, block_ms = [], []
    for variant in range(workload.period):
        expected.append(workload.block(conn, inp, variant, calls))
        block_ms.append(1e3 * sum(calls.end_block().values()))
    if calls.failed:
        raise OracleError(f"in-process run failed: {calls.errors}")
    workload.check_oracle(inp, expected)
    return expected, block_ms


def _size(value) -> int:
    return len(value) if isinstance(value, (list, dict)) else 0


def run_block(workload: Workload, env: Env, index: int, calls: Calls,
              spans: SpanRecorder) -> bool:
    """One block against ``env``; False when the block broke and the
    store can no longer be trusted to be in its starting state."""
    variant = index % workload.period
    gc.collect()   # each block starts from the same collector state
    if env.traced:
        spans.enabled = True
        trace.enable()
    try:
        with spans.trace(f"{workload.name}/{index}"), \
                spans.span("block", workload=workload.name, index=index):
            got = workload.block(env.conn, env.inp, variant, calls)
    except Exception:  # noqa: BLE001 - a broken block is a failed run, reported
        calls.attempted += 1
        calls.fail("block raised:\n" + traceback.format_exc())
        return False
    finally:
        if env.traced:
            trace.disable()
            spans.enabled = False
    want = env.expected[variant]
    if len(got) != len(want):
        calls.fail(f"block returned {len(got)} results, oracle {len(want)}")
        return False
    for (stage, g), (_, w) in zip(got, want):
        if g is FAILED:
            continue
        env.result_cells += _size(g)
        if g != w:
            calls.fail(f"{stage}: result differs from the in-process oracle")
    return True


# -- counters ---------------------------------------------------------------


def _sum_matching(export: dict, prefix: str, suffix: str) -> float:
    return float(sum(v for k, v in export.items()
                     if k.startswith(prefix) and k.endswith(suffix)))


def _hist_sum(export: dict, name: str) -> float:
    return float(export.get(name, {}).get("sum", 0.0))


def snapshot(env: Env, closing: bool) -> dict:
    """Counters the program already exports.  The closing snapshot
    reads the client registry first and the opening one last, so the
    snapshot RPCs themselves stay out of the client-side delta."""
    inst = env.conn.instance
    if closing:
        client = env.registry.export()
        cluster = inst.cluster_metrics()
        stats = inst.total_stats().as_dict()
    else:
        stats = inst.total_stats().as_dict()
        cluster = inst.cluster_metrics()
        client = env.registry.export()
    servers = cluster["servers"]
    flat: Dict[str, float] = {f"dbsim.{k}": float(v)
                              for k, v in stats.items()}
    for name in ("bloom_hits", "bloom_misses"):
        flat[f"dbsim.{name}"] = sum(
            _sum_matching(s, "dbsim.table.", "." + name)
            for s in servers.values())
    service = {s: _hist_sum(x, "net.server.service_seconds")
               for s, x in servers.items()}
    flat["net.server.service_s"] = sum(service.values())
    flat["net.server.queue_s"] = sum(
        _hist_sum(x, "net.server.queue_seconds") for x in servers.values())
    for short, key in (("requests", "net.server.requests"),
                       ("busy_rejects", "net.server.busy_rejects"),
                       ("pushdown_cells_folded",
                        "net.server.pushdown.cells_folded")):
        flat[f"net.server.{short}"] = float(sum(
            x.get(key, 0) for x in servers.values()))
    flat["net.client.rpc_s"] = _hist_sum(client, "net.client.rpc_seconds")
    for short in ("requests", "retries", "timeouts", "bytes_sent",
                  "bytes_received", "scan_chunks"):
        flat[f"net.client.{short}"] = float(
            client.get(f"net.client.{short}", 0))
    flat["_service_by_server"] = service
    return flat


def counter_metrics(before: dict, after: dict, blocks: int,
                    result_cells: int) -> Dict[str, probes.Probe]:
    """Per-block deltas, plus the ratios taken where the work happens."""
    out: Dict[str, probes.Probe] = {}
    delta = {k: after[k] - before[k] for k in after
             if not k.startswith("_")}
    for name, value in delta.items():
        unit = "s" if name.endswith("_s") else (
            "bytes" if "bytes" in name else "count")
        out[name] = probes.Probe(value / blocks, unit)
    by_server = {s: after["_service_by_server"][s]
                 - before["_service_by_server"].get(s, 0.0)
                 for s in after["_service_by_server"]}
    busiest = max(by_server.values())
    out["net.server.service_max_share"] = probes.Probe(
        busiest / sum(by_server.values()) if busiest else 0.0, "share")
    out["dbsim.entries_read_per_result"] = probes.Probe(
        delta["dbsim.entries_read"] / max(result_cells, 1), "ratio")
    moved = delta["dbsim.entries_written"] + result_cells
    out["net.client.wire_bytes_per_cell"] = probes.Probe(
        (delta["net.client.bytes_sent"] + delta["net.client.bytes_received"])
        / max(moved, 1), "bytes")
    return out


def rpc_breakdown(trace_dir: str, blocks: int) -> Dict[str, probes.Probe]:
    """Client / network / queue / service split of RPC time from the
    program's own stitched traces, per traced block."""
    paths = sorted(os.path.join(trace_dir, f) for f in os.listdir(trace_dir)
                   if f.startswith("trace.") and f.endswith(".jsonl"))
    analysis = stitch_files(paths).analysis()
    rows = analysis.rpc_breakdown().values()
    out = {}
    for short, key in (("client_s", "client_s"), ("network_s", "network_s"),
                       ("queue_s", "server_queue_s"),
                       ("service_s", "server_service_s")):
        out[f"net.rpc.{short}"] = probes.Probe(
            sum(r[key] for r in rows) / blocks, "s")
    out["obs.spans_recorded"] = probes.Probe(analysis.n_spans / blocks,
                                             "count")
    return out


# -- one run ----------------------------------------------------------------


class RunResult:
    def __init__(self, workload: Workload, seed: int, traced: bool) -> None:
        self.workload = workload.name
        self.seed = seed
        self.traced = traced
        self.end_to_end: List[Metric] = []      # the contract's three
        self.named: List[Metric] = []           # the workload's own
        self.per_layer: Dict[str, probes.Probe] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.leftover_children = 0
        self.span_rollup: Dict[str, dict] = {}
        self.host: Dict[str, float] = {}    # what the scaling did
        self.info: dict = {}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.leftover_children == 0

    def as_dict(self) -> dict:
        def rows(metrics):
            return {m.name: {"value": m.value, "unit": m.unit, "n": m.n}
                    for m in metrics}
        return {
            "workload": self.workload, "seed": self.seed,
            "traced": self.traced, "correct": self.correct,
            "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors, "info": self.info,
            "end_to_end": rows(self.end_to_end), "named": rows(self.named),
            "per_layer": {k: p._asdict() for k, p in self.per_layer.items()},
            "spans": self.span_rollup,
        }


def _block_ms(blocks: List[Dict[str, float]]) -> List[float]:
    return [1e3 * sum(b.values()) for b in blocks]


def run(workload: Workload, seed: int, seconds: float, traced: bool,
        out_dir: str, spans: SpanRecorder) -> RunResult:
    result = RunResult(workload, seed, traced)
    first_span = len(spans.spans)
    trace_dir = os.path.join(out_dir, f"trace-{workload.name}")
    if traced:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    envs: List[Env] = []
    setups: List[Env] = []
    sink = None
    try:
        for i in range(SETUPS):
            last = i == SETUPS - 1
            env = Env(workload, seed, trace_dir if traced and last else None)
            setups.append(env)
            if last or (traced and i == SETUPS - 2):
                envs.append(env)
            else:
                env.close()
        if traced:
            sink = JSONLSink(os.path.join(trace_dir, "trace.client.jsonl"),
                             process="client")
            trace.enable(sink)
            trace.disable()
        _measure(workload, envs, seconds, spans, result, seed)
    finally:
        if sink is not None:
            trace.disable(close=True)
        for env in envs:
            env.close()
    result.leftover_children = len(multiprocessing.active_children())
    if result.leftover_children:
        result.errors.append(
            f"{result.leftover_children} child processes left behind")
    result.end_to_end.insert(0, Metric(
        "setup_s", statistics.median(e.setup_s for e in setups), "s",
        len(setups)))
    if traced and envs[0].blocks:
        # the traced environment's warm-up block was traced as well
        result.per_layer.update(
            rpc_breakdown(trace_dir, len(envs[-1].blocks) + 1))
        result.per_layer.update(setup_layers(setups, envs[0]))
        result.span_rollup = spans.rollup(first_span)
    result.info = dict(host_info(), host_speed=result.host,
                       scale=workload.scale,
                       work_unit=workload.work_unit,
                       blocks=[len(e.blocks) for e in envs])
    return result


def setup_layers(setups: List[Env], plain: Env) -> Dict[str, probes.Probe]:
    """What set-up spent where, and the in-process backend's share of a
    block: the oracle run *is* the same block without the fabric, so
    cluster minus in-process is what the fabric costs (negative when
    the servers' parallelism buys more than the wire takes)."""
    out = {f"setup.{part}": probes.Probe(
        statistics.median(e.parts[part] for e in setups), "s")
        for part in ("cluster_start_s", "preload_s", "oracle_s")}
    out["generators.rmat_s"] = probes.Probe(
        statistics.median(e.inp.graph.rmat_s * hostspeed.REF_LOOP_S
                          / e.loop_s for e in setups), "s")
    in_process = statistics.median(
        ms for e in setups for ms in e.oracle_block_ms)
    cluster_ms = statistics.median(_block_ms(plain.blocks))
    out["dbsim.block_p50_ms"] = probes.Probe(in_process, "ms")
    out["net.fabric_ms"] = probes.Probe(cluster_ms - in_process, "ms")
    out["net.fabric_share"] = probes.Probe(
        (cluster_ms - in_process) / cluster_ms, "share")
    return out


def _measure(workload: Workload, envs: List[Env], seconds: float,
             spans: SpanRecorder, result: RunResult, seed: int) -> None:
    """Warm-up, the timed loop, and everything that needs the clusters
    still up."""
    all_calls: List[Calls] = []
    healthy = True
    for env in envs:
        warm = Calls(spans)
        all_calls.append(warm)
        healthy = healthy and run_block(workload, env, 0, warm, spans)
        env.result_cells = 0
    timed = [Calls(spans) for _ in envs]
    all_calls.extend(timed)
    plain = envs[0]
    before = snapshot(plain, closing=False) if result.traced else None
    start = time.perf_counter()
    turn = 0
    while healthy and (time.perf_counter() - start < seconds
                       or turn < MIN_BLOCKS * len(envs)):
        which = turn % len(envs)
        env, calls = envs[which], timed[which]
        healthy = run_block(workload, env, len(env.blocks), calls, spans)
        env.blocks.append(calls.end_block())
        turn += 1
    result.attempted = sum(c.attempted for c in all_calls)
    result.failed = sum(c.failed for c in all_calls)
    result.errors = [e for c in all_calls for e in c.errors]
    if not healthy or not plain.blocks:
        return
    blocks = plain.blocks
    total_s = sum(sum(b.values()) for b in blocks)
    result.end_to_end = [
        Metric("block_p50_ms", statistics.median(_block_ms(blocks)), "ms",
               len(blocks)),
        Metric("work_per_s",
               workload.work_units(plain.inp) * len(blocks) / total_s,
               "1/s", len(blocks)),
    ]
    loop_s = timed[0].loop_s
    result.host = {
        "ref_loop_ms": 1e3 * hostspeed.REF_LOOP_S,
        "loop_p50_ms": 1e3 * statistics.median(loop_s),
        "block_p50_raw_ms": statistics.median(
            ms * at / hostspeed.REF_LOOP_S
            for ms, at in zip(_block_ms(blocks), loop_s)),
    }
    result.named = workload.named(plain.inp, blocks, timed[0].pooled)
    result.named.append(Metric(
        "failed_ops_share", result.failed / max(result.attempted, 1),
        "share", result.attempted))
    if not result.traced:
        return
    after = snapshot(plain, closing=True)
    layer = result.per_layer
    layer["host.loop_ms"] = probes.Probe(result.host["loop_p50_ms"], "ms")
    layer.update(counter_metrics(before, after, len(blocks),
                                 plain.result_cells))
    for m in workload.stage_metrics(plain.inp, blocks):
        layer[m.name] = probes.Probe(m.value, m.unit)
    layer.update(workload.layer_probes(plain.conn))
    untraced = statistics.median(_block_ms(blocks))
    with_trace = statistics.median(_block_ms(envs[-1].blocks))
    layer["obs.trace_overhead_pct"] = probes.Probe(
        100.0 * (with_trace / untraced - 1.0), "%")
    spans.enabled = True
    with spans.trace("probes"):
        layer.update(probes.run_all(spans, seed, plain.conn))
    spans.enabled = False
