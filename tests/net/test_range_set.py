"""Range-set scans over the fabric: faults, re-plans, the wire boundary
and the server's scan workers.

A coalesced ``BatchScanner`` is one pump over every tablet its sorted,
disjoint range list reaches into; each SCAN carries that tablet's share
of the list in the ``ranges`` field.  What must hold:

* under the seeded drop / delay / corrupt / reset plan a multi-tablet
  range-set scan resumes past the last delivered key — no duplicate, no
  missing cell, timestamps included — on thread and process clusters;
* a resume or a split re-plan re-sends only the ranges that end after
  the resume row, and a re-planned scan still returns the per-range
  result;
* a raw-wire SCAN whose ranges are unsorted or overlapping gets a typed
  ERROR frame, never a wrong answer;
* SCANs are served by per-connection workers that are reused, not by a
  thread per request.
"""

import random
import threading
import time

import pytest

from repro.dbsim.client import Connector
from repro.dbsim.key import Range
from repro.dbsim.server import Instance
from repro.net import wire
from repro.net.client import RemoteConnector, _RemoteScanStream
from repro.net.cluster import LocalCluster
from repro.net.iterspec import IterSpec
from repro.net.server import SCAN_CHUNK_CELLS
from repro.obs.metrics import MetricsRegistry
from tests.net import blocks

#: the last tablet's share of the range set alone is several CHUNKs
N_CELLS = 8 * SCAN_CHUNK_CELLS + 77
SPLITS = ["r02000", "r04500", "r07000"]


def _ingest(conn, table="t"):
    conn.create_table(table, splits=SPLITS)
    with conn.batch_writer(table) as w:
        for i in range(N_CELLS):
            w.put(f"r{i:05d}", "f", "q", i % 7)
    conn.flush(table)


def _range_set(seed=3):
    """~250 sorted disjoint ranges holding ~60 % of the rows: spans
    (often back to back) and exact rows, some straddling the splits."""
    rnd = random.Random(seed)
    cuts = sorted(rnd.sample(range(N_CELLS), 300))
    ranges = []
    for lo, hi in zip(cuts, cuts[1:]):
        kind = rnd.random()
        if kind < 0.6:
            ranges.append(Range(f"r{lo:05d}", f"r{hi:05d}"))
        elif kind < 0.8:
            ranges.append(Range.exact_row(f"r{lo:05d}"))
    ranges += [Range(f"r{int(s[1:]) - 40:05d}", f"r{int(s[1:]) + 40:05d}")
               for s in SPLITS]  # guaranteed straddlers
    ranges.sort(key=lambda r: r.start_row)
    out = []
    for rng in ranges:
        if not out or out[-1].stop_row <= rng.start_row:
            out.append(rng)
    return out


def _snap(cell_iter):
    return [(c.key.row, c.key.qualifier, c.key.timestamp, c.value)
            for c in cell_iter]


@pytest.fixture(scope="module")
def reference():
    """The in-process backend, scanned one range at a time."""
    local = Connector(Instance(n_servers=2, metrics=MetricsRegistry()))
    _ingest(local)
    return local


class TestFaultedRangeSetScan:
    SPECS = ["scan:drop:0.1", "scan:corrupt:0.15", "scan:reset:0.05",
             "*:delay:0.05:0.002"]
    SPEC = IterSpec().value_ge(3.0)

    @pytest.mark.parametrize("processes", [False, True],
                             ids=["threads", "processes"])
    def test_resumes_without_duplicates_or_gaps(self, reference, processes):
        ranges = _range_set()

        def scan(conn, coalesce, **kw):
            return conn.batch_scanner("t", coalesce=coalesce,
                                      **kw).set_ranges(ranges)

        want = _snap(scan(reference, False))
        want_spec = _snap(scan(reference, False, iterspec=self.SPEC))
        assert len(want) > 4 * SCAN_CHUNK_CELLS
        registry = MetricsRegistry()
        with LocalCluster(n_servers=2, processes=processes,
                          fault_specs=self.SPECS, fault_seed=42) as c:
            conn = c.connect(metrics=registry)
            try:
                _ingest(conn)
                per_cell = _snap(scan(conn, True))
                columnar = _snap(
                    cell for b in scan(conn, True).scan_columns()
                    for cell in b.cells())
                pushed = _snap(
                    cell for b in scan(conn, True,
                                       iterspec=self.SPEC).scan_columns()
                    for cell in b.cells())
            finally:
                conn.close()
        assert per_cell == want  # timestamps included
        assert columnar == want
        assert pushed == want_spec
        assert registry.export()["net.client.scan_resumes"] > 0


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_servers=2, processes=False) as c:
        yield c


@pytest.fixture
def conn(cluster):
    registry = MetricsRegistry()
    conn = cluster.connect(metrics=registry)
    for table in list(conn.instance.list_tables()):
        conn.instance.delete_table(table)
    conn.registry = registry
    yield conn
    conn.close()


class TestReplan:
    def test_split_inside_a_requested_range_mid_scan(self, conn, reference):
        ranges = _range_set()
        want = _snap(reference.batch_scanner(
            "t", coalesce=False).set_ranges(ranges))
        _ingest(conn)
        # planned on four tablets, nothing opened yet ...
        batches = conn.instance.scan_columns("t", ranges)
        # ... then the last tablet splits inside a requested range,
        # through another client: this one's plan is stale
        inside = next(r for r in ranges if r.start_row > "r08000"
                      and r.stop_row > r.start_row + "\0")
        other = RemoteConnector(conn.instance.manager_addr)
        try:
            other.instance.add_split("t", inside.start_row[:-1] + "5")
        finally:
            other.close()
        got = _snap(cell for b in batches for cell in b.cells())
        assert got == want
        # the stale segment answered NotHostedError after earlier
        # tablets had delivered: a re-plan past the resume row
        assert conn.registry.export()["net.client.relocates"] >= 1

    def test_reopen_sends_only_ranges_past_the_resume_row(self):
        ranges = [Range.exact_row("a"), Range("c", "f"), Range("f", "k"),
                  Range.exact_row("m")]
        pump = _RemoteScanStream(None, "t", ranges, [])
        assert pump._pending(ranges) == ranges
        pump._resume = ["d", "", "q", "", 7, False]
        # [c, f) holds the resume row and stays whole: the server
        # skips to the resume key inside it
        assert pump._pending(ranges) == ranges[1:]
        pump._resume = ["f", "", "q", "", 7, False]
        assert pump._pending(ranges) == ranges[2:]
        pump._resume = ["z", "", "q", "", 7, False]
        assert pump._pending(ranges) == []


class TestWireBoundary:
    @staticmethod
    def _raw_scan(conn, proxy, ranges=None, **fields):
        core = conn.instance.core
        if ranges is not None:
            fields["ranges"] = ranges
        stream = core.open_stream(proxy.addr, wire.SCAN, {
            "table": "w", "tablet_id": proxy.tablet_id,
            "columns": None, "resume": None, **fields})
        rows = []
        while True:
            code, pay, _ = stream.get(30.0)
            if code == wire.CHUNK:
                rows.extend(c.key.row
                            for c in blocks.block_to_cells(pay.block))
            else:
                return code, pay, rows

    def test_unsorted_or_overlapping_ranges_get_a_typed_error(self, conn):
        conn.create_table("w")
        with conn.batch_writer("w") as w:
            for row in "abcdefgh":
                w.put(row, "", "q", 1)
        (proxy,) = conn.instance.tablets("w")
        code, _, rows = self._raw_scan(
            conn, proxy, [["a", "c"], ["e", "e\0"], ["g", None]])
        assert (code, rows) == (wire.DONE, ["a", "b", "e", "g", "h"])
        code, _, rows = self._raw_scan(conn, proxy, [])
        assert (code, rows) == (wire.DONE, [])
        for bad in ([["e", "g"], ["a", "c"]],        # unsorted
                    [["a", "e"], ["c", "g"]],        # overlapping
                    [["a", None], ["c", "d"]],       # open stop mid-list
                    [["a", "c"], [None, "g"]],       # open start mid-list
                    [["a", "c"], ["g", "e"]]):       # inverted
            code, pay, rows = self._raw_scan(conn, proxy, bad)
            assert (code, rows) == (wire.ERROR, [])
            with pytest.raises(ValueError, match="sorted and disjoint"):
                wire.raise_error(pay)

    def test_ranges_is_required_and_range_is_refused(self, conn):
        conn.create_table("w")
        with conn.batch_writer("w") as w:
            for row in "abcdefgh":
                w.put(row, "", "q", 1)
        (proxy,) = conn.instance.tablets("w")
        # a stale client still sending the single "range" this field
        # replaced must not be answered with the whole tablet
        for fields, exc in (({}, KeyError),
                            ({"range": ["a", "c"]}, ValueError),
                            ({"range": ["a", "c"],
                              "ranges": [["a", "c"]]}, ValueError),
                            ({"range": [None, None]}, ValueError)):
            code, pay, rows = self._raw_scan(conn, proxy, **fields)
            assert (code, rows) == (wire.ERROR, []), fields
            with pytest.raises(exc):
                wire.raise_error(pay)
        code, _, rows = self._raw_scan(conn, proxy, [[None, None]])
        assert (code, rows) == (wire.DONE, list("abcdefgh"))


def _scan_workers():
    return {t for t in threading.enumerate() if t.name.endswith("-scan")}


class TestScanWorkers:
    def test_sequential_scans_reuse_one_worker(self):
        before = _scan_workers()
        with LocalCluster(n_servers=1, processes=False) as c:
            conn = c.connect()
            try:
                conn.create_table("t")
                with conn.batch_writer("t") as w:
                    for i in range(50):
                        w.put(f"r{i:02d}", "", "q", i)
                def lookups(rows):
                    for i in rows:
                        (cell,) = conn.scanner("t").set_range(
                            Range.exact_row(f"r{i:02d}"))
                        assert cell.value == str(i)

                lookups(range(5))
                early = _scan_workers() - before
                lookups(range(5, 50))
                started = _scan_workers() - before
                # one client connection, one stream open at a time: the
                # worker that served the first lookups serves the rest
                # (a second may start if a SCAN arrives while the first
                # is still between its DONE and its return to the pool)
                assert early and early <= started and len(started) <= 2
                assert all(t.is_alive() for t in started)
            finally:
                conn.close()
        deadline = time.monotonic() + 5.0
        while (any(t.is_alive() for t in started)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        # workers die with their connection
        assert not any(t.is_alive() for t in started)
