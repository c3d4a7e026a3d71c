"""SLO health plane: declarative targets evaluated from the metrics
registry exports the cluster already publishes.

An :class:`SLOSpec` names a target — a p99 latency ceiling on a
histogram (``net.server.queue_seconds``, ``net.server.service_seconds``,
or a glob over histogram names) and/or an error-rate budget over a
requests/errors counter pair.  :func:`evaluate` applies a spec list to
a ``cluster_metrics()``-shaped snapshot (``{"manager": export,
"servers": {name: export}}``) and returns a :class:`HealthReport` of
per-component checks.

Burn rates come from :class:`~repro.obs.expose.SnapshotDelta`: given a
``before`` snapshot and the seconds between the two, error budgets are
checked against the *windowed* error fraction (errors this interval /
requests this interval), so one ancient error can't fail a healthy
cluster forever.  Without a window, the cumulative ratio is used.
Latency checks read the histogram's exported ``p99`` directly — that
quantile is cumulative over the component's lifetime (the export
carries no windowed percentiles), which the check's detail string says
out loud.

Specs are declarative and serializable: :func:`load_slos` reads a JSON
list of spec dicts, which is what ``repro health --slos specs.json``
feeds in; :data:`DEFAULT_SLOS` covers the RPC plane out of the box.
``repro health`` exits nonzero when any check breaches — the CI gate.
The same delta per component feeds its :func:`rate_row` (QPS, bytes/s,
errors/s, hot tables), where a crash/recover's counter reset shows as
a flagged restart, never a negative rate.
"""

from __future__ import annotations

import json
from fnmatch import fnmatchcase
from typing import (Any, Dict, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

from repro.obs.expose import SnapshotDelta


class SLOSpec(NamedTuple):
    """One declarative service-level objective.

    ``histogram`` + ``p99_target_s`` define a latency objective;
    ``requests`` + ``errors`` + ``error_budget`` (a fraction, e.g.
    ``0.01`` = 1%) define an error-rate objective.  A spec may carry
    both.  ``histogram`` may be a glob (``net.server.op.*_seconds``)
    to express per-op/per-table objectives over metric families.
    """

    name: str
    histogram: Optional[str] = None
    p99_target_s: Optional[float] = None
    requests: Optional[str] = None
    errors: Optional[str] = None
    error_budget: Optional[float] = None
    description: str = ""

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SLOSpec":
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ValueError(f"unknown SLO spec field(s) {sorted(unknown)}; "
                             f"known: {list(cls._fields)}")
        if "name" not in data:
            raise ValueError("SLO spec needs a 'name'")
        spec = cls(**data)
        if spec.p99_target_s is None and spec.error_budget is None:
            raise ValueError(f"SLO {spec.name!r} declares no objective "
                             f"(need p99_target_s and/or error_budget)")
        if spec.p99_target_s is not None and spec.histogram is None:
            raise ValueError(f"SLO {spec.name!r} has a p99 target but "
                             f"no histogram to check it against")
        return spec

    def as_dict(self) -> Dict[str, Any]:
        return {k: v for k, v in self._asdict().items() if v not in
                (None, "")}


#: Out-of-the-box objectives for the RPC plane.  Deliberately loose —
#: they flag pathologies (a wedged queue, an error storm), not warm-up
#: jitter, so `repro health` in CI stays green on a healthy cluster
#: even under the net-smoke delay faults.
DEFAULT_SLOS: Tuple[SLOSpec, ...] = (
    SLOSpec(name="rpc.queue.p99",
            histogram="net.server.queue_seconds", p99_target_s=0.25,
            description="p99 time a unary request sits in the "
                        "admission queue before dispatch"),
    SLOSpec(name="rpc.service.p99",
            histogram="net.server.service_seconds", p99_target_s=1.0,
            description="p99 handler execution time"),
    SLOSpec(name="rpc.errors",
            requests="net.server.requests", errors="net.server.errors",
            error_budget=0.02,
            description="server-side handler error fraction"),
)


def load_slos(path: str) -> List[SLOSpec]:
    """Read a JSON file holding a list of SLO spec dicts."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a non-empty JSON list of "
                         f"SLO spec objects")
    return [SLOSpec.from_dict(item) for item in data]


class HealthCheck(NamedTuple):
    """One evaluated (component, objective) pair."""

    component: str
    slo: str
    kind: str              # "p99" | "error_rate"
    metric: str
    value: Optional[float]  # None = no data (vacuously ok)
    limit: float
    ok: bool
    detail: str

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._asdict())


def _matching_histograms(export: Mapping[str, Any],
                         pattern: str) -> List[str]:
    if pattern in export:
        return [pattern]
    return sorted(name for name, value in export.items()
                  if isinstance(value, dict) and "p99" in value
                  and fnmatchcase(name, pattern))


def check_component(component: str, export: Mapping[str, Any],
                    slos: Sequence[SLOSpec] = DEFAULT_SLOS,
                    delta: Optional[SnapshotDelta] = None
                    ) -> List[HealthCheck]:
    """Evaluate every spec against one component's registry export.
    ``delta`` (when given) supplies windowed counter burn rates for
    error budgets; latency uses the export's cumulative p99."""
    checks: List[HealthCheck] = []
    for slo in slos:
        if slo.histogram is not None and slo.p99_target_s is not None:
            names = _matching_histograms(export, slo.histogram)
            if not names:
                checks.append(HealthCheck(
                    component, slo.name, "p99", slo.histogram, None,
                    slo.p99_target_s, True, "no such histogram"))
            for metric in names:
                hist = export.get(metric)
                if not isinstance(hist, dict) or not hist.get("count"):
                    checks.append(HealthCheck(
                        component, slo.name, "p99", metric, None,
                        slo.p99_target_s, True, "no observations"))
                    continue
                p99 = float(hist.get("p99", 0.0))
                ok = p99 <= slo.p99_target_s
                checks.append(HealthCheck(
                    component, slo.name, "p99", metric, p99,
                    slo.p99_target_s, ok,
                    f"cumulative p99 {p99 * 1e3:.2f}ms vs target "
                    f"{slo.p99_target_s * 1e3:.0f}ms "
                    f"({int(hist['count'])} obs)"))
        if slo.error_budget is not None:
            req_name = slo.requests or "net.server.requests"
            err_name = slo.errors or "net.server.errors"
            if delta is not None:
                requests = float(delta.delta(req_name))
                errors = float(delta.delta(err_name))
                window = "windowed"
            else:
                requests = float(export.get(req_name, 0) or 0)
                errors = float(export.get(err_name, 0) or 0)
                window = "cumulative"
            if requests <= 0:
                checks.append(HealthCheck(
                    component, slo.name, "error_rate", err_name, None,
                    slo.error_budget, True, f"no requests ({window})"))
                continue
            rate = errors / requests
            ok = rate <= slo.error_budget
            checks.append(HealthCheck(
                component, slo.name, "error_rate", err_name, rate,
                slo.error_budget, ok,
                f"{window} {int(errors)}/{int(requests)} = "
                f"{100 * rate:.2f}% vs budget "
                f"{100 * slo.error_budget:.2f}%"))
    return checks


#: (row field, counter) pairs a component's rate row turns into
#: per-second rates
_RATES = (("qps", "net.server.requests"),
          ("tx_bps", "net.server.bytes_sent"),
          ("rx_bps", "net.server.bytes_received"),
          ("err_ps", "net.server.errors"))

#: iterator push-down counters (the PUSHDOWN column: installed stacks /
#: cells folded server-side)
_PUSHDOWN = ("net.server.pushdown.stacks",
             "net.server.pushdown.cells_folded")

#: per-table activity sources mined for the "hot tables" column:
#: (prefix, suffixes) — names look like ``<prefix><table>.<suffix>``
_TABLE_SOURCES = (
    ("dbsim.table.", ("entries_read", "entries_written", "seeks")),
    ("net.server.table.", ("scan_bytes",)),
)

#: hottest tables listed per component
_HOT_TABLES = 3


def _table_activity(delta: SnapshotDelta) -> Dict[str, float]:
    """Per-table activity score over one interval (sum of counter
    deltas from every per-table source)."""
    scores: Dict[str, float] = {}
    for name in set(delta.before) | set(delta.after):
        for prefix, suffixes in _TABLE_SOURCES:
            table, _, metric = name[len(prefix):].rpartition(".")
            if name.startswith(prefix) and table and metric in suffixes:
                scores[table] = scores.get(table, 0) + delta.delta(name)
    return {t: s for t, s in scores.items() if s > 0}


def rate_row(export: Mapping[str, Any],
             delta: Optional[SnapshotDelta] = None) -> Dict[str, Any]:
    """One component's rate row.  Totals come from ``export``; the
    rates, the restart flag and the hot tables need a ``delta`` with
    ``seconds`` and are ``None`` / ``False`` / ``[]`` without one."""
    rates = (delta.rates(nonzero=False)
             if delta is not None and delta.seconds else None)
    activity = _table_activity(delta) if rates is not None else {}
    return {
        "requests": export.get("net.server.requests", 0),
        "inflight": export.get("net.server.inflight", 0),
        "pushdown": [export.get(name, 0) for name in _PUSHDOWN],
        **{field: None if rates is None else rates.get(name, 0.0)
           for field, name in _RATES},
        "reset": rates is not None and bool(delta.resets),
        "hot_tables": sorted(activity, key=lambda t: (-activity[t], t)
                             )[:_HOT_TABLES],
    }


def format_bytes(n: float) -> str:
    """``1536`` → ``'1.5K'`` (single-letter suffixes, fits a column)."""
    for suffix in ("", "K", "M", "G", "T"):
        if abs(n) < 1024:
            return f"{n:.0f}{suffix}" if suffix == "" else f"{n:.1f}{suffix}"
        n /= 1024
    return f"{n:.1f}P"


def render_rates(rows: Mapping[str, Mapping[str, Any]],
                 seconds: Optional[float] = None) -> str:
    """Render :func:`rate_row` rows as a fixed-width table, one line
    per component, titled with the window when ``seconds`` is given."""
    header = (f"{'SERVER':<12} {'QPS':>8} {'TX/s':>9} {'RX/s':>9} "
              f"{'INFLIGHT':>8} {'ERR/s':>7} {'REQS':>9} "
              f"{'PUSHDOWN':>10}  HOT TABLES")
    lines = []
    if seconds:
        lines.append(f"-- rates over the last {seconds:g}s --")
    lines.append(header)
    for component, row in sorted(rows.items()):
        def rate(key: str, fmt=lambda v: f"{v:.1f}") -> str:
            return "-" if row[key] is None else fmt(row[key])

        name = component + ("*" if row["reset"] else "")
        # installed stacks / cells folded server-side
        pd = "/".join(map(str, row["pushdown"])) if any(row["pushdown"]) \
            else "-"
        lines.append(
            f"{name:<12} {rate('qps'):>8} {rate('tx_bps', format_bytes):>9} "
            f"{rate('rx_bps', format_bytes):>9} {row['inflight']:>8} "
            f"{rate('err_ps'):>7} {row['requests']:>9} {pd:>10}  "
            f"{','.join(row['hot_tables']) or '-'}")
    if any(row["reset"] for row in rows.values()):
        lines.append("(* counters reset since last sample)")
    return "\n".join(lines)


class HealthReport:
    """Every check from one :func:`evaluate` pass, and the rate row of
    every component it evaluated."""

    def __init__(self, checks: Iterable[HealthCheck],
                 seconds: Optional[float] = None,
                 rows: Optional[Dict[str, Dict[str, Any]]] = None):
        self.checks = list(checks)
        self.seconds = seconds
        self.rows = rows or {}

    @property
    def ok(self) -> bool:
        return not self.breaches()

    def breaches(self) -> List[HealthCheck]:
        return [c for c in self.checks if not c.ok]

    def component_status(self) -> Dict[str, str]:
        status: Dict[str, str] = {}
        for c in self.checks:
            current = status.get(c.component)
            if not c.ok:
                status[c.component] = "breach"
            elif current != "breach":
                status[c.component] = ("ok" if c.value is not None
                                       else current or "no-data")
        return status

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "window_s": self.seconds,
            "components": self.component_status(),
            "breaches": [c.as_dict() for c in self.breaches()],
            "checks": [c.as_dict() for c in self.checks],
            "rates": self.rows,
        }

    def render(self) -> str:
        lines = [render_rates(self.rows, self.seconds), "",
                 f"{'COMPONENT':<12} {'SLO':<18} {'KIND':<10} "
                 f"{'VALUE':>10} {'LIMIT':>10} {'STATUS':<7} DETAIL"]
        for c in self.checks:
            if c.value is None:
                value = "-"
            elif c.kind == "p99":
                value = f"{c.value * 1e3:.2f}ms"
            else:
                value = f"{100 * c.value:.2f}%"
            limit = (f"{c.limit * 1e3:.0f}ms" if c.kind == "p99"
                     else f"{100 * c.limit:.2f}%")
            status = "ok" if c.ok else "BREACH"
            lines.append(f"{c.component:<12} {c.slo:<18} {c.kind:<10} "
                         f"{value:>10} {limit:>10} {status:<7} {c.detail}")
        n = len(self.breaches())
        lines.append(f"{n} breach(es) across "
                     f"{len(self.component_status())} component(s)"
                     if n else "all SLOs met")
        return "\n".join(lines)


def flatten(cluster: Optional[Mapping[str, Any]]) -> Dict[str, dict]:
    """``cluster_metrics()`` shape → flat ``{component: export}``."""
    if not cluster:
        return {}
    if "servers" in cluster and isinstance(cluster["servers"], dict):
        out: Dict[str, dict] = {}
        if isinstance(cluster.get("manager"), dict):
            out["manager"] = cluster["manager"]
        out.update(cluster["servers"])
        return out
    return dict(cluster)


def evaluate(cluster: Mapping[str, Any],
             slos: Optional[Sequence[SLOSpec]] = None,
             before: Optional[Mapping[str, Any]] = None,
             seconds: Optional[float] = None) -> HealthReport:
    """Evaluate ``slos`` (default :data:`DEFAULT_SLOS`) against a
    cluster metrics snapshot and build each component's rate row.
    With ``before`` given, error budgets burn against the interval
    between the two snapshots, and with ``seconds`` as well the rows
    carry that interval's rates."""
    slos = DEFAULT_SLOS if slos is None else list(slos)
    components = flatten(cluster)
    previous = flatten(before)
    checks: List[HealthCheck] = []
    rows: Dict[str, Dict[str, Any]] = {}
    for component in sorted(components):
        export = components[component]
        delta = None
        if component in previous:
            delta = SnapshotDelta(previous[component], export,
                                  seconds=seconds)
        checks.extend(check_component(component, export, slos,
                                      delta=delta))
        rows[component] = rate_row(export, delta)
    return HealthReport(checks, seconds=seconds, rows=rows)
