"""``python -m benchmarks.e2e`` (or ``python3 benchmarks/e2e``).

Process-mode servers are spawned, and a spawned child re-imports the
parent's main module: everything here therefore lives under ``main()``
behind the ``__main__`` check, and nothing is generated at import time.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))


def _bootstrap() -> None:
    """Make ``repro`` (src layout) and ``benchmarks`` importable from a
    plain checkout; spawned servers inherit ``sys.path``."""
    src = os.path.join(_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"benchmarks/e2e: no program to measure — {src}/repro "
                 "is missing (run from a full checkout)")
    for path in (_ROOT, src):
        if path not in sys.path:
            sys.path.insert(0, path)


def _contract() -> dict:
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    return f"{value:,.4f}" if abs(value) < 1000 else f"{value:,.1f}"


def print_report(result, bounds: Dict[str, float]) -> None:
    info = result.info
    print(f"== {result.workload}  seed={result.seed}  "
          f"{'traced' if result.traced else 'untraced'} pass  "
          f"host_cpus={info.get('host_cpus')}  "
          f"python={info.get('python')}  numpy={info.get('numpy')}")
    print(f"   {info.get('load')}; {info.get('servers')} servers; "
          f"client policy {info.get('client_policy')}; "
          f"scale {info.get('scale')}; blocks {info.get('blocks')}")
    print(f"   work_per_s counts {info.get('work_unit')}")
    host = info.get("host_speed")
    if host:
        print(f"   times are at reference host speed (reference loop "
              f"{host['ref_loop_ms']:.2f} ms); in this run the loop took "
              f"{host['loop_p50_ms']:.3f} ms and the raw block_p50_ms was "
              f"{host['block_p50_raw_ms']:.1f}")
    print("-- end to end")
    for m in result.end_to_end + result.named:
        bound = bounds.get(m.name)
        tail = f"  bound {bound:.0%}" if bound is not None else ""
        print(f"   {m.name:<28} {_fmt(m.value):>16} {m.unit:<8} "
              f"n={m.n}{tail}")
    if result.traced:
        print("-- per layer")
        for name in sorted(result.per_layer):
            p = result.per_layer[name]
            why = f"  ({p.reason})" if p.value is None else ""
            print(f"   {name:<36} {_fmt(p.value):>16} {p.unit}{why}")
        print("-- benchmark-owned spans (self = span minus children)")
        for name, row in sorted(result.span_rollup.items(),
                                key=lambda kv: -kv[1]["self_s"]):
            print(f"   {name:<36} n={row['count']:<7} "
                  f"total {row['total_s']:.4f} s  self {row['self_s']:.4f} s")
    print(f"-- ops attempted {result.attempted}, failed {result.failed}, "
          f"correct {result.correct}")
    for err in result.errors[:10]:
        print(f"   ! {err}")


def result_line(result, contract: dict) -> Optional[str]:
    """The driver's one JSON object: the contract's end-to-end metrics
    for an untraced pass, its per-layer metrics for a traced one."""
    metrics = {}
    if result.traced:
        for spec in contract["per_layer"]:
            p = result.per_layer.get(spec["name"])
            if p is None:
                return None
            metrics[spec["name"]] = {"value": p.value, "unit": p.unit}
    else:
        have = {m.name: m for m in result.end_to_end}
        for spec in contract["end_to_end"]:
            m = have.get(spec["name"])
            if m is None:
                return None
            metrics[m.name] = {"value": m.value, "unit": m.unit}
    return json.dumps({"correct": result.correct,
                       "attempted": max(result.attempted, 1),
                       "failed": result.failed, "metrics": metrics})


def check_noise(first, second, bounds: Dict[str, float]) -> bool:
    """Two untraced passes of the same code: every end-to-end metric
    must agree within its own bound."""
    ok = True
    print(f"== noise check  {first.workload}  seed={first.seed}")
    again = {m.name: m for m in second.end_to_end + second.named}
    for m in first.end_to_end + first.named:
        other = again[m.name]
        bound = bounds[m.name]
        if m.name == "failed_ops_share":
            within = m.value == 0 and other.value == 0
            rel = other.value - m.value
        else:
            rel = abs(other.value - m.value) / min(abs(m.value),
                                                   abs(other.value))
            within = rel <= bound
        ok = ok and within
        print(f"   {m.name:<28} {_fmt(m.value):>16} {_fmt(other.value):>16} "
              f"{m.unit:<8} diff {rel:6.1%}  bound {bound:.0%}  "
              f"{'ok' if within else 'NOISY'}")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    _bootstrap()
    from benchmarks.e2e import harness
    from benchmarks.e2e.spans import SpanRecorder
    from benchmarks.e2e.workloads import NAMED_BOUNDS, WORKLOADS

    contract = _contract()
    ap = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark: four paper workloads on a "
                    "process-mode cluster, checked against the in-process "
                    "backend, with a per-layer --trace pass.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=1,
                    help="picks the graph, lookup keys and BFS seeds")
    ap.add_argument("--seconds", type=float,
                    default=float(contract["run_seconds"]),
                    help="measuring window per pass")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="per-layer pass: spans, counters, probes")
    ap.add_argument("--check-noise", action="store_true",
                    help="run the untraced pass twice; fail if any "
                         "end-to-end metric disagrees beyond its bound")
    ap.add_argument("--out", help="write every result as JSON to this file")
    ap.add_argument("--out-dir", default=".bench_e2e",
                    help="spans.jsonl and program traces go here")
    args = ap.parse_args(argv)

    bounds = dict(NAMED_BOUNDS)
    bounds.update({m["name"]: m["bound"] for m in contract["end_to_end"]})
    os.makedirs(args.out_dir, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    traced = bool(args.trace) and not args.check_noise
    spans = SpanRecorder()
    ok = True
    results = []
    lines = []
    try:
        for name in names:
            workload = WORKLOADS[name]
            result = harness.run(workload, args.seed, args.seconds, traced,
                                 args.out_dir, spans)
            results.append(result)
            print_report(result, bounds)
            ok = ok and result.correct
            if args.check_noise:
                second = harness.run(workload, args.seed, args.seconds,
                                     False, args.out_dir, spans)
                results.append(second)
                ok = (ok and second.correct
                      and check_noise(result, second, bounds))
            line = result_line(result, contract)
            if line is None:
                print(f"   ! {name}: a contract metric was not measured")
                ok = False
            else:
                lines.append(line)
    finally:
        if traced:
            spans.write(os.path.join(args.out_dir, "spans.jsonl"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump([r.as_dict() for r in results], fh, indent=1)
    for line in lines:
        print(line)
    return 0 if ok else 1


def _child_pids() -> List[int]:
    me, out = os.getpid(), []
    if not os.path.isdir("/proc"):      # not Linux: only the tracker is known
        return out
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            out.append(int(entry))
    return out


def stop_children() -> int:
    """Stop every process this run started and wait until each has ended.

    The servers are joined by ``LocalCluster.stop()``; what is left is
    multiprocessing's resource tracker, which the ``spawn`` context
    starts behind the scenes and which otherwise outlives this process
    (it only exits once it sees our end of its pipe close — and where
    nothing reaps orphans it then stays behind as a zombie).  Returns
    how many *other* children had to be killed: servers that survived
    their cluster's ``stop()``.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    stop = getattr(tracker, "_stop", None)
    # servers first: each holds a copy of the tracker's pipe, and the
    # tracker ends only when the last copy is closed
    stray = [pid for pid in _child_pids() if pid != tracker_pid]
    for pid in stray:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in stray:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    if tracker_pid is not None and stop is not None:
        stop()          # closes our end of its pipe and waits for it
    elif tracker_pid is not None:
        os.kill(tracker_pid, signal.SIGKILL)
        os.waitpid(tracker_pid, 0)
    return len(stray)


def _terminated(signum, frame) -> None:
    sys.exit(128 + signum)      # unwind through every ``finally``


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    try:
        code = main()
    finally:
        stray = stop_children()
    if stray:
        print(f"benchmarks/e2e: {stray} child processes had to be killed "
              "at exit", file=sys.stderr)
    sys.exit(code or (1 if stray else 0))
