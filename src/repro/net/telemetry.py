"""``repro top`` rows: per-component rates between two ``METRICS``
samples.

:func:`summary_rows` turns two ``cluster_metrics()`` snapshots
(``{"manager": export, "servers": {name: export}}``) taken ``seconds``
apart into one row per component — QPS, bytes/s in and out, queue
depth, error rate, SLO breaches and hot tables — from one
:class:`~repro.obs.expose.SnapshotDelta` each, so counter resets from a
crash/recover show up as flagged restarts, never negative rates.
:func:`render_top` prints the rows as the fixed-width table ``repro
top`` refreshes.  The client keeps the previous sample; nothing is
stored server-side.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.obs import health as _health
from repro.obs.expose import SnapshotDelta

#: metric names the summary rows are built from
_REQUESTS = "net.server.requests"
_BYTES_SENT = "net.server.bytes_sent"
_BYTES_RECEIVED = "net.server.bytes_received"
_INFLIGHT = "net.server.inflight"
_ERRORS = "net.server.errors"

#: iterator push-down counters (``repro top`` PUSHDOWN column:
#: installed stacks / cells folded server-side)
_PUSHDOWN = ("net.server.pushdown.stacks",
             "net.server.pushdown.cells_folded")

#: per-table activity sources mined for the "hot tables" column:
#: (prefix, suffixes) — names look like ``<prefix><table>.<suffix>``
_TABLE_SOURCES = (
    ("dbsim.table.", ("entries_read", "entries_written", "seeks")),
    ("net.server.table.", ("scan_bytes",)),
)


def _table_activity(delta: SnapshotDelta) -> Dict[str, float]:
    """Per-table activity score over one interval (sum of counter
    deltas from every per-table source)."""
    scores: Dict[str, float] = {}
    for name in set(delta.before) | set(delta.after):
        for prefix, suffixes in _TABLE_SOURCES:
            if not name.startswith(prefix):
                continue
            rest = name[len(prefix):]
            if "." not in rest:
                continue
            table, metric = rest.rsplit(".", 1)
            if metric in suffixes:
                scores[table] = scores.get(table, 0) + delta.delta(name)
    return {t: s for t, s in scores.items() if s > 0}


def format_bytes(n: float) -> str:
    """``1536`` → ``'1.5K'`` (single-letter suffixes, fits a column)."""
    for suffix in ("", "K", "M", "G", "T"):
        if abs(n) < 1024:
            return f"{n:.0f}{suffix}" if suffix == "" else f"{n:.1f}{suffix}"
        n /= 1024
    return f"{n:.1f}P"


def summary_rows(before: Optional[Mapping[str, Any]],
                 after: Mapping[str, Any], seconds: float,
                 hot_tables: int = 3) -> Dict[str, Dict[str, Any]]:
    """One row per component of ``after`` for the ``repro top``
    display.  Without a ``before`` sample for a component, rate fields
    come back ``None`` (totals are still reported)."""
    previous = _health.flatten(before)
    out: Dict[str, Dict[str, Any]] = {}
    for component, export in _health.flatten(after).items():
        row: Dict[str, Any] = {
            "requests": export.get(_REQUESTS, 0),
            "bytes_sent": export.get(_BYTES_SENT, 0),
            "bytes_received": export.get(_BYTES_RECEIVED, 0),
            "inflight": export.get(_INFLIGHT, 0),
            "qps": None,
            "tx_bps": None,
            "rx_bps": None,
            "err_ps": None,
            "reset": False,
            "health": None,
            "hot_tables": [],
            "pushdown": [export.get(name, 0) for name in _PUSHDOWN],
        }
        if component in previous:
            d = SnapshotDelta(previous[component], export,
                              seconds=max(seconds, 1e-9))
            rates = d.rates(nonzero=False)
            row["qps"] = rates.get(_REQUESTS, 0.0)
            row["tx_bps"] = rates.get(_BYTES_SENT, 0.0)
            row["rx_bps"] = rates.get(_BYTES_RECEIVED, 0.0)
            row["err_ps"] = rates.get(_ERRORS, 0.0)
            row["reset"] = bool(d.resets)
            row["health"] = _health.breaches_for(export, delta=d)
            activity = _table_activity(d)
            row["hot_tables"] = sorted(
                activity, key=lambda t: (-activity[t], t))[:hot_tables]
        out[component] = row
    return out


def render_top(summary: Dict[str, Dict[str, Any]],
               clock: Optional[str] = None) -> str:
    """Render :func:`summary_rows` as the fixed-width table ``repro
    top`` prints (one row per component)."""
    header = (f"{'SERVER':<12} {'QPS':>8} {'TX/s':>9} {'RX/s':>9} "
              f"{'INFLIGHT':>8} {'ERR/s':>7} {'REQS':>9} "
              f"{'PUSHDOWN':>10} {'HEALTH':>7}  HOT TABLES")
    lines = []
    if clock:
        lines.append(f"-- repro top @ {clock} --")
    lines.append(header)
    for component, row in sorted(summary.items()):
        def rate(key: str, fmt: str = "{:.1f}") -> str:
            value = row.get(key)
            return "-" if value is None else fmt.format(value)

        tx = ("-" if row.get("tx_bps") is None
              else format_bytes(row["tx_bps"]))
        rx = ("-" if row.get("rx_bps") is None
              else format_bytes(row["rx_bps"]))
        hot = ",".join(row.get("hot_tables") or []) or "-"
        pd = row.get("pushdown") or [0, 0]
        # installed stacks / cells folded server-side
        pd_col = "/".join(str(v) for v in pd) if any(pd) else "-"
        breaches = row.get("health")
        # "-" until two samples exist, "ok" when every SLO holds,
        # "SLO!n" counting distinct breached objectives otherwise
        health_col = ("-" if breaches is None
                      else f"SLO!{len(breaches)}" if breaches else "ok")
        name = component + ("*" if row.get("reset") else "")
        lines.append(
            f"{name:<12} {rate('qps'):>8} {tx:>9} {rx:>9} "
            f"{row.get('inflight', 0):>8} {rate('err_ps'):>7} "
            f"{row.get('requests', 0):>9} {pd_col:>10} "
            f"{health_col:>7}  {hot}")
    if any(row.get("reset") for row in summary.values()):
        lines.append("(* counters reset since last sample)")
    return "\n".join(lines)
