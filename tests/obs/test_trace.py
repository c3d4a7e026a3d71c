"""Span tracing core: enable/disable, sinks, nesting, OpStats deltas."""

import json
import threading

import pytest

from repro.dbsim.stats import OpStats
from repro.obs import trace
from repro.obs.trace import (InMemorySink, JSONLSink, NullSink, Span,
                             current_span, span)


@pytest.fixture(autouse=True)
def _clean_tracing():
    """Every test starts and ends with tracing off on a NullSink."""
    trace.disable()
    trace.set_sink(NullSink())
    yield
    trace.disable()
    trace.set_sink(NullSink())


class TestSwitch:
    def test_disabled_by_default(self):
        assert not trace.is_enabled()

    def test_disabled_span_is_shared_noop(self):
        s1 = span("a", rows=3)
        s2 = span("b")
        assert s1 is s2  # one shared object, nothing allocated
        with s1 as sp:
            assert sp.set(x=1) is sp  # set() is a no-op that chains

    def test_enable_installs_memory_sink_by_default(self):
        sink = trace.enable()
        assert isinstance(sink, InMemorySink)
        assert trace.is_enabled()

    def test_enable_keeps_existing_non_null_sink(self):
        mine = InMemorySink()
        trace.set_sink(mine)
        assert trace.enable() is mine

    def test_emit_dropped_when_disabled(self):
        sink = InMemorySink()
        trace.set_sink(sink)
        trace.emit({"kind": "x"})
        assert len(sink) == 0
        trace.enable()
        trace.emit({"kind": "x"})
        assert len(sink) == 1

    def test_set_sink_returns_previous(self):
        first = InMemorySink()
        old = trace.set_sink(first)
        assert isinstance(old, NullSink)
        assert trace.set_sink(NullSink()) is first


class TestSpan:
    def test_records_name_duration_attrs(self):
        sink = trace.enable(InMemorySink())
        with span("work", rows=5) as sp:
            sp.set(nnz_out=7)
        [rec] = sink.spans("work")
        assert rec["kind"] == "span"
        assert rec["duration_s"] >= 0
        assert rec["attrs"] == {"rows": 5, "nnz_out": 7}
        assert rec["parent"] is None and rec["depth"] == 0

    def test_nesting_parent_and_depth(self):
        sink = trace.enable(InMemorySink())
        with span("outer"):
            assert current_span().name == "outer"
            with span("inner"):
                assert current_span().name == "inner"
        assert current_span() is None
        inner, outer = sink.records  # inner closes (and emits) first
        assert inner["name"] == "inner"
        assert inner["parent"] == "outer" and inner["depth"] == 1
        assert outer["parent"] is None and outer["depth"] == 0

    def test_opstats_delta_from_object(self):
        sink = trace.enable(InMemorySink())
        stats = OpStats(seeks=10, entries_read=100)
        with span("scan", stats=stats):
            stats.seeks += 2
            stats.entries_read += 30
        [rec] = sink.spans("scan")
        assert rec["opstats"]["seeks"] == 2
        assert rec["opstats"]["entries_read"] == 30
        assert rec["opstats"]["entries_written"] == 0

    def test_opstats_delta_from_callable(self):
        # mirrors Instance.total_stats: a fresh merged snapshot per call
        sink = trace.enable(InMemorySink())
        backing = OpStats()
        with span("op", stats=lambda: backing):
            backing.flushes += 1
        [rec] = sink.spans("op")
        assert rec["opstats"]["flushes"] == 1

    def test_no_stats_source_reports_zeros(self):
        sink = trace.enable(InMemorySink())
        with span("pure"):
            pass
        [rec] = sink.spans("pure")
        assert rec["opstats"] == {"seeks": 0, "entries_read": 0,
                                  "entries_written": 0, "flushes": 0,
                                  "compactions": 0}

    def test_error_captured_and_exception_propagates(self):
        sink = trace.enable(InMemorySink())
        with pytest.raises(ValueError, match="boom"):
            with span("bad"):
                raise ValueError("boom")
        [rec] = sink.spans("bad")
        assert rec["error"] == "ValueError: boom"

    def test_opstats_fields_match_dbsim(self):
        # trace.py duplicates the field list to stay import-free; make
        # sure it cannot drift from the real OpStats dataclass
        assert set(trace.OPSTATS_FIELDS) == set(OpStats().as_dict())

    def test_threads_nest_independently(self):
        trace.enable(InMemorySink())
        seen = {}

        def worker():
            with span("t2"):
                seen["depth"] = current_span().depth

        with span("t1"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["depth"] == 0  # other thread's stack was empty


class TestSinks:
    def test_in_memory_filter_and_clear(self):
        sink = InMemorySink()
        sink.emit({"kind": "span", "name": "a"})
        sink.emit({"kind": "convergence", "name": "a"})
        sink.emit({"kind": "span", "name": "b"})
        assert len(sink.spans()) == 2
        assert [r["name"] for r in sink.spans("b")] == ["b"]
        sink.clear()
        assert len(sink) == 0

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JSONLSink(str(path))
        trace.enable(sink)
        with span("one", idx=1):
            pass
        trace.disable(close=True)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["name"] == "one" and rec["attrs"] == {"idx": 1}

    def test_jsonl_appends(self, tmp_path):
        path = tmp_path / "t.jsonl"
        for _ in range(2):
            sink = JSONLSink(str(path))
            sink.emit({"kind": "span"})
            sink.close()
        assert len(path.read_text().splitlines()) == 2

    def test_jsonl_lazy_open(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = JSONLSink(str(path))
        sink.close()  # no emit -> file never created
        assert not path.exists()

    def test_jsonl_batches_until_flush_every(self, tmp_path):
        """Records buffer in memory until the batch bound, then land on
        disk in one write — the per-record open/flush is gone."""
        path = tmp_path / "t.jsonl"
        sink = JSONLSink(str(path), flush_every=3)
        sink.emit({"kind": "span", "name": "a"})
        sink.emit({"kind": "span", "name": "b"})
        assert not path.exists()  # still buffered
        sink.emit({"kind": "span", "name": "c"})  # hits the bound
        lines = path.read_text().splitlines()
        assert [json.loads(l)["name"] for l in lines] == ["a", "b", "c"]
        sink.close()

    def test_jsonl_explicit_flush(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JSONLSink(str(path), flush_every=64)
        sink.flush()  # nothing emitted yet: stays lazy, no file
        assert not path.exists()
        sink.emit({"kind": "span", "name": "a"})
        assert not path.exists()
        sink.flush()
        assert [json.loads(l)["name"]
                for l in path.read_text().splitlines()] == ["a"]
        sink.close()

    def test_jsonl_close_flushes_partial_batch(self, tmp_path):
        """An interrupted run still leaves a complete trace: every exit
        path closes the sink, and close drains the buffer."""
        path = tmp_path / "t.jsonl"
        sink = JSONLSink(str(path), flush_every=64)
        sink.emit({"kind": "span", "name": "a"})
        sink.emit({"kind": "span", "name": "b"})
        sink.close()
        lines = path.read_text().splitlines()
        assert [json.loads(l)["name"] for l in lines] == ["a", "b"]


class TestInstrumentedCallSites:
    """The kernel/dbsim hot paths emit spans when (and only when) on."""

    def test_mxm_disabled_emits_nothing(self):
        from repro.generators import fig1_graph
        from repro.sparse.spgemm import mxm

        sink = InMemorySink()
        trace.set_sink(sink)
        a = fig1_graph()
        mxm(a, a)
        assert len(sink) == 0

    def test_mxm_span(self):
        from repro.generators import fig1_graph
        from repro.sparse.spgemm import mxm

        sink = trace.enable(InMemorySink())
        a = fig1_graph()
        c = mxm(a, a)
        [rec] = sink.spans("kernel.spgemm")
        assert rec["attrs"]["rows"] == a.nrows
        assert rec["attrs"]["nnz_out"] == c.nnz
        assert rec["attrs"]["semiring"] == "plus_times"

    def test_spmv_spans(self):
        import numpy as np

        from repro.generators import fig1_graph
        from repro.sparse.spmv import mxv, vxm

        sink = trace.enable(InMemorySink())
        a = fig1_graph()
        x = np.ones(a.ncols)
        mxv(a, x)
        vxm(np.ones(a.nrows), a)
        assert len(sink.spans("kernel.spmv")) == 1
        assert len(sink.spans("kernel.vxm")) == 1

    def test_table_mult_span_carries_opstats(self):
        from repro.assoc import AssocArray
        from repro.dbsim import (Connector, Instance, assoc_to_table,
                                 table_mult)
        from repro.obs.metrics import MetricsRegistry

        sink = trace.enable(InMemorySink())
        conn = Connector(Instance(n_servers=1, metrics=MetricsRegistry()))
        a = AssocArray.from_triples(["r1", "r1", "r2"], ["x", "y", "x"],
                                    [1.0, 2.0, 3.0])
        assoc_to_table(conn, a, "A")
        table_mult(conn, "A", "A", "C")
        [rec] = sink.spans("graphulo.table_mult")
        assert rec["opstats"]["entries_read"] > 0
        assert rec["opstats"]["entries_written"] > 0
        # one path: no ``via``; the block engine's work is on the span
        attrs = rec["attrs"]
        assert "via" not in attrs
        assert attrs["blocks"] == 1
        assert attrs["partial_products"] == 5   # r1: 2·2, r2: 1·1
        assert attrs["cells_written"] == 4      # x·x, x·y, y·x, y·y

    def test_tablet_flush_and_compact_spans(self):
        from repro.dbsim.key import Key, Range
        from repro.dbsim.tablet import Tablet

        sink = trace.enable(InMemorySink())
        t = Tablet(Range())
        t.write(Key("a", "", "q"), "1")
        t.flush()
        t.write(Key("b", "", "q"), "1")
        t.flush()
        t.compact()
        flushes = sink.spans("tablet.flush")
        assert len(flushes) == 2
        assert all(f["opstats"]["flushes"] == 1 for f in flushes)
        [comp] = sink.spans("tablet.compact")
        assert comp["opstats"]["compactions"] == 1
        assert comp["attrs"]["entries_out"] == 2
