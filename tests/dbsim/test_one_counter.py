"""A hosted tablet counts each event with no registry lookup.

A tablet resolves the instruments it counts into once, when it is
hosted (``Tablet._resolve``): the hosting server's cost-model counters
and its table's ``dbsim.table.<table>.*`` counters and gauges.  With
``MetricsRegistry._get`` — the lookup behind every ``counter()`` and
``gauge()`` call — made to raise after hosting, a write batch, a
flush, a bloom-guarded exact-row lookup, a range scan and a compaction
still run, and still count, on a plain and on a combining table.
"""

import pytest

from repro.dbsim.key import Range, field_columns
from repro.dbsim.server import TableConfig, TabletServer
from repro.obs.metrics import MetricsRegistry

TABLET = "t!0001"


def _write(server, rows):
    server.write_tablet("t", TABLET, field_columns(
        [(row, "", "q", "", 0, False, "1") for row in rows], 7))


def _no_lookup(self, name, cls):
    raise AssertionError(f"registry lookup of {name!r} after hosting")


@pytest.mark.parametrize("config", [TableConfig(),
                                    TableConfig.combining("sum")],
                         ids=["plain", "combining"])
def test_no_registry_lookup_per_event(monkeypatch, config):
    registry = MetricsRegistry()
    server = TabletServer("ts", registry)
    server.host_tablet("t", TABLET, Range(), config)
    with monkeypatch.context() as patched:
        patched.setattr(MetricsRegistry, "_get", _no_lookup)
        _write(server, ["a", "c", "e"])
        server.flush_table("t")
        _write(server, ["b", "d", "f"])
        server.flush_table("t")
        _write(server, ["c"])  # a memtable beside the two runs
        # "c" is in the first run only; the second run's span holds it
        looked_up = list(server.scan_tablet("t", TABLET,
                                            [Range.exact_row("c")]))
        scanned = list(server.scan_tablet("t", TABLET, [Range("b", "e")]))
        server.compact_table("t")
    assert [row for batch in looked_up for row in batch.rows] == ["c"]
    assert [row for batch in scanned for row in batch.rows] == \
        ["b", "c", "d"]
    table = {name[len("dbsim.table.t."):]: value
             for name, value in registry.export().items()
             if name.startswith("dbsim.table.t.")}
    opened = table["bloom_misses"]  # the runs the lookup read
    assert opened >= 1 and table["bloom_hits"] + opened == 2
    # the lookup, the range scan and the compaction: a memtable and
    # the runs each opened, and the entries inside their ranges
    want = {"seeks": (1 + opened) + 3 + 3, "entries_read": 2 + 4 + 7,
            "entries_written": 7, "flushes": 2, "compactions": 1}
    assert server.stats.as_dict() == want
    assert {name: table[name] for name in want} == want
    assert table["index_seeks"] == opened + 2 + 2
    assert table["batched_mutations"] == 7
    assert table["scans_fused"] == 2  # a compaction is not a scan
    assert table["sstables"] == 1 and table["memtable_entries"] == 0
