"""The metrics docs/OBSERVABILITY.md lists are the ones the code
registers.

The ``dbsim.table.<table>.*`` entries of the doc's dbsim naming block
(``a | b | c`` alternatives, continued on indented ``| d`` lines) must
equal the names a freshly bound tablet pre-registers, its
``dbsim.server.<name>.*`` and ``dbsim.locate.*`` entries the names an
``Instance`` registers once it has hosted a table and located a row,
and every ``net.client.*`` counter an ``RpcCore`` pre-registers, or a
faulted remote scan bumps, must appear among the doc's
``net.client.*`` entries — so adding, renaming or dropping one fails
here until the doc follows.
"""

import re
from pathlib import Path

from repro.dbsim.key import Range
from repro.dbsim.server import Instance
from repro.dbsim.tablet import Tablet
from repro.net.client import RpcCore
from repro.obs.metrics import MetricsRegistry
from tests.net.test_range_set import faulted_moving_scan

DOC = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"


def documented_metrics(prefix):
    """Short names of the doc's ``<prefix>*`` entries.  An entry's
    alternatives share its first name's dotted head: ``op.<op>.a | b``
    lists ``op.<op>.a`` and ``op.<op>.b``."""
    names, inside = set(), False
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith(prefix):
            inside, listed = True, line[len(prefix):]
            head = listed.split("|", 1)[0].strip().rpartition(".")[0]
        elif inside and re.match(r"\s+\|", line):
            listed = line  # a continuation: more alternatives
        else:
            inside = inside and line.startswith(" ")
            continue
        for name in listed.split("(", 1)[0].split("|"):
            name = name.strip()
            if name:
                names.add(name if "." in name or not head
                          else f"{head}.{name}")
    return names


def registered(registry, prefix):
    return {name[len(prefix):] for name in registry.export()
            if name.startswith(prefix)}


def test_documented_table_metrics_are_preregistered():
    registry = MetricsRegistry()
    Tablet(Range()).bind_metrics(registry, "t")
    assert registered(registry, "dbsim.table.t.") == \
        documented_metrics("dbsim.table.<table>.")


def test_documented_server_and_locate_metrics_are_registered():
    registry = MetricsRegistry()
    inst = Instance(n_servers=1, metrics=registry)
    inst.create_table("t")
    inst.locate("t", "a")
    assert registered(registry, "dbsim.server.tserver0.") == \
        documented_metrics("dbsim.server.<name>.")
    assert registered(registry, "dbsim.locate.") == \
        documented_metrics("dbsim.locate.")
    # nothing else under dbsim.* outside the doc's three blocks
    assert {name.split(".")[1] for name in registry.export()
            if name.startswith("dbsim.")} == {"table", "server", "locate"}


def test_preregistered_client_counters_are_documented():
    registry = MetricsRegistry()
    RpcCore(metrics=registry).close()
    client = registered(registry, "net.client.")
    assert client  # the scan found the pre-registered block
    missing = client - documented_metrics("net.client.")
    assert not missing, f"undocumented net.client counters: {missing}"


def test_a_faulted_remote_scans_client_counters_are_documented(
        monkeypatch):
    """Every ``net.client.*`` counter one remote scan bumps through
    resets, a backoff, a shed stream and a re-plan — the per-op byte
    counters as the doc's ``op.<op>.`` family."""
    *_, export = faulted_moving_scan(monkeypatch)
    bumped = {re.sub(r"^op\.[a-z_]+\.", "op.<op>.", name)
              for name in registered_counts(export, "net.client.")}
    assert {"scan_resumes", "scan_chunks", "stream_overruns", "retries",
            "relocates", "op.<op>.bytes_received"} <= bumped
    missing = bumped - documented_metrics("net.client.")
    assert not missing, f"undocumented net.client counters: {missing}"


def registered_counts(export, prefix):
    """Short names of the counters under ``prefix`` that moved."""
    return {name[len(prefix):] for name, value in export.items()
            if name.startswith(prefix) and isinstance(value, int) and value}
