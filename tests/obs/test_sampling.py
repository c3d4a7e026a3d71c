"""Head sampling + tail retention: deterministic decisions, sampled
record format, TailBuffer promotion/eviction, counters, configure."""

import json

import pytest

from repro.obs import sampling, trace
from repro.obs.metrics import MetricsRegistry
from repro.dbsim.stats import OpStats
from repro.obs.sampling import (DEFAULT_OPSTATS_BUDGETS,
                                DEFAULT_TAIL_THRESHOLDS,
                                SAMPLING_COUNTERS, TailBuffer)
from repro.obs.trace import InMemorySink, NullSink, TraceContext, span


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    """Every test starts and ends unsampled on a NullSink with fresh
    deterministic ids."""
    sampling.unconfigure()
    trace.disable()
    trace.set_sink(NullSink())
    trace.seed_ids(1234)
    yield
    sampling.unconfigure()
    trace.disable()
    trace.set_sink(NullSink())
    trace.seed_ids(None)


def run_roots(n, rate, seed=1234):
    """n root spans at the given rate; returns [(trace_id, sampled)]."""
    if not trace.is_enabled():
        trace.enable(InMemorySink())
    trace.seed_ids(seed)
    trace.set_sample_rate(rate)
    out = []
    for _ in range(n):
        with span("op") as sp:
            out.append((sp.trace_id, sp.sampled))
    return out


class TestDecision:
    def test_rate_one_records_everything(self):
        assert all(s for _, s in run_roots(50, 1.0))

    def test_rate_zero_records_nothing(self):
        assert not any(s for _, s in run_roots(50, 0.0))

    def test_fraction_tracks_rate(self):
        decisions = [s for _, s in run_roots(400, 0.5)]
        assert 0.35 < sum(decisions) / len(decisions) < 0.65

    def test_decision_is_pure_function_of_trace_id(self):
        a = run_roots(100, 0.3, seed=99)
        b = run_roots(100, 0.3, seed=99)
        assert a == b  # same seed -> same ids -> same decisions

    def test_rate_is_clamped(self):
        assert trace.set_sample_rate(7.5) == 1.0
        assert trace.set_sample_rate(-1.0) == 0.0
        assert trace.set_sample_rate(0.25) == 0.25
        assert trace.get_sample_rate() == 0.25

    def test_children_inherit_the_root_decision(self):
        trace.enable(InMemorySink())
        trace.set_sample_rate(0.5)
        for _ in range(50):
            with span("root") as root:
                with span("child") as child:
                    assert child.sampled == root.sampled
                    assert child.trace_id == root.trace_id

    def test_remote_context_carries_the_decision(self):
        trace.enable(InMemorySink())
        trace.set_sample_rate(0.0)
        ctx = TraceContext("ab" * 16, "cd" * 8, False)
        with trace.activate(ctx):
            with span("server.handler") as sp:
                assert sp.sampled is False
        ctx = TraceContext("ab" * 16, "cd" * 8, True)
        with trace.activate(ctx):
            with span("server.handler") as sp:
                # parent was head-sampled: record it even at local rate 0
                assert sp.sampled is True


class TestSinkRouting:
    def test_only_sampled_spans_reach_the_sink(self):
        sink = InMemorySink()
        trace.enable(sink)
        trace.set_sample_rate(0.5)
        decisions = []
        for _ in range(100):
            with span("op") as sp:
                decisions.append(sp.sampled)
        assert len(sink.spans("op")) == sum(decisions)

    def test_sampled_record_format_is_unchanged(self):
        # byte-compat: sampled records must not grow a "sampled" key,
        # so golden trace fixtures and analyzers keep working
        sink = InMemorySink()
        trace.enable(sink)
        trace.set_sample_rate(1.0)
        with span("op"):
            pass
        [rec] = sink.spans("op")
        assert "sampled" not in rec
        json.dumps(rec)  # and it still serializes

    def test_promoted_record_is_marked(self):
        sink = InMemorySink()
        trace.enable(sink)
        sampling.configure(0.0, registry=MetricsRegistry())
        with pytest.raises(RuntimeError):
            with span("op"):
                raise RuntimeError("boom")
        [rec] = sink.spans("op")
        assert rec["sampled"] is False
        assert rec["error"] == "RuntimeError: boom"


class TestTailBuffer:
    def make(self, **kw):
        kw.setdefault("registry", MetricsRegistry())
        return TailBuffer(**kw)

    def finished_span(self, name="op", error=None, duration=0.0):
        sp = trace.Span(name)
        sp.__enter__()
        sp.sampled = False
        try:
            if error is not None:
                raise error
        except Exception:
            import sys

            sp.__exit__(*sys.exc_info())
        else:
            sp.__exit__(None, None, None)
        if duration:
            sp.duration_s = duration
        return sp

    def test_quiet_spans_are_buffered_not_emitted(self):
        sink = InMemorySink()
        trace.enable(sink)
        tail = self.make()
        tail.record(self.finished_span())
        assert len(tail) == 1
        assert sink.spans() == []

    def test_error_promotes_the_whole_trace(self):
        sink = InMemorySink()
        trace.enable(sink)
        tail = self.make()
        first = self.finished_span("first")
        second = trace.Span("second")
        second.trace_id = first.trace_id
        second.span_id = trace.new_span_id()
        second.sampled = False
        second.start_s = second.duration_s = 0.0
        second.error = "RuntimeError: boom"
        tail.record(first)
        assert sink.spans() == []
        tail.record(second)
        names = [r["name"] for r in sink.spans()]
        assert names == ["first", "second"]  # finish order kept
        assert all(r["sampled"] is False for r in sink.spans())
        assert len(tail) == 0

    def test_slow_span_promotes(self):
        sink = InMemorySink()
        trace.enable(sink)
        tail = self.make(wall_thresholds={"op": 0.01})
        tail.record(self.finished_span(duration=0.5))
        assert [r["name"] for r in sink.spans()] == ["op"]

    def test_later_spans_of_promoted_trace_pass_through(self):
        sink = InMemorySink()
        trace.enable(sink)
        tail = self.make()
        first = self.finished_span(error=RuntimeError("x"))
        tail.record(first)
        late = trace.Span("late")
        late.trace_id = first.trace_id
        late.span_id = trace.new_span_id()
        late.sampled = False
        late.start_s = late.duration_s = 0.0
        tail.record(late)
        assert [r["name"] for r in sink.spans()] == ["op", "late"]
        assert len(tail) == 0  # passthrough never re-buffers

    def test_capacity_evicts_oldest_whole_trace(self):
        registry = MetricsRegistry()
        tail = self.make(capacity=3, registry=registry)
        spans = [self.finished_span(f"s{i}") for i in range(4)]
        for sp in spans:
            tail.record(sp)
        assert len(tail) == 3
        assert spans[0].trace_id not in tail.pending_traces()
        assert registry.export()["obs.tail_evictions"] == 1

    def test_default_thresholds_cover_rpc(self):
        assert DEFAULT_TAIL_THRESHOLDS["rpc.*"] == 0.25

    def test_slow_span_carries_its_reasons(self):
        sink = InMemorySink()
        trace.enable(sink)
        tail = self.make(wall_thresholds={"kernel.*": 0.05})
        tail.record(self.finished_span("kernel.spgemm", duration=0.04))
        assert sink.spans() == []  # under the threshold: buffered
        tail.record(self.finished_span("kernel.spgemm", duration=0.2))
        (rec,) = sink.spans()
        assert rec["reasons"] == ["wall 0.200000s > threshold 0.05s"]

    def test_opstats_budget_breach_promotes_with_reasons(self):
        """A live span whose OpStats delta blows its budget promotes
        its trace; the record names every breached counter."""
        sink = InMemorySink()
        trace.enable(sink)
        tail = sampling.configure(
            0.0, wall_thresholds={}, registry=MetricsRegistry(),
            opstats_budgets={"dbsim.*": {"seeks": 10,
                                         "entries_read": 1000}})
        stats = OpStats()
        with span("dbsim.batch_scan", stats=stats, table="A"):
            stats.seeks += 10          # at the budget is fine
        assert sink.spans() == [] and len(tail) == 1
        with span("dbsim.batch_scan", stats=stats, table="A"):
            stats.seeks += 42          # injected budget overrun
            stats.entries_read += 2000
        (rec,) = sink.spans()
        assert rec["reasons"] == ["entries_read 2000 > budget 1000",
                                  "seeks 42 > budget 10"]
        assert rec["opstats"]["seeks"] == 42
        assert rec["attrs"]["table"] == "A"

    def test_exact_name_beats_glob(self):
        tail = self.make(wall_thresholds={"kernel.*": 10.0,
                                          "kernel.spmv": 0.01},
                         opstats_budgets={})
        trace.enable(InMemorySink())
        tail.record(self.finished_span("kernel.spgemm", duration=0.5))
        assert len(tail) == 1
        tail.record(self.finished_span("kernel.spmv", duration=0.5))
        assert len(tail) == 1  # promoted, not buffered

    def test_longest_glob_wins(self):
        tail = self.make(wall_thresholds={"*": 10.0, "kernel.*": 0.01},
                         opstats_budgets={})
        trace.enable(InMemorySink())
        tail.record(self.finished_span("other", duration=0.5))
        assert len(tail) == 1
        tail.record(self.finished_span("kernel.spmv", duration=0.5))
        assert len(tail) == 1

    def test_error_only_promotion_has_no_reasons(self):
        sink = InMemorySink()
        trace.enable(sink)
        tail = self.make()
        tail.record(self.finished_span(error=RuntimeError("boom")))
        (rec,) = sink.spans()
        assert rec["error"] == "RuntimeError: boom"
        assert "reasons" not in rec

    def test_slow_error_span_carries_error_and_reasons(self):
        sink = InMemorySink()
        trace.enable(sink)
        tail = self.make(wall_thresholds={"*": 0.01}, opstats_budgets={})
        tail.record(self.finished_span(error=ValueError("boom"),
                                       duration=1.0))
        (rec,) = sink.spans()
        assert rec["error"] == "ValueError: boom"
        assert rec["reasons"] == ["wall 1.000000s > threshold 0.01s"]

    def test_unmatched_name_is_never_slow(self):
        tail = self.make(wall_thresholds={"kernel.*": 0.01},
                         opstats_budgets={"kernel.*": {"seeks": 0}})
        trace.enable(InMemorySink())
        tail.record(self.finished_span("dbsim.scan", duration=9.0))
        assert len(tail) == 1  # no limit applies: buffered

    def test_at_the_wall_threshold_is_not_a_breach(self):
        sink = InMemorySink()
        trace.enable(sink)
        tail = self.make(wall_thresholds={"op": 0.5}, opstats_budgets={})
        tail.record(self.finished_span(duration=0.5))
        assert sink.spans() == [] and len(tail) == 1

    def test_default_budgets_cover_dbsim(self):
        assert self.make().opstats_budgets == DEFAULT_OPSTATS_BUDGETS
        assert DEFAULT_OPSTATS_BUDGETS["dbsim.*"]["seeks"] == 10_000
        # an explicit empty table disables every budget
        assert self.make(opstats_budgets={}).opstats_budgets == {}


class TestConfigure:
    def test_counters_preregistered_at_zero(self):
        registry = MetricsRegistry()
        sampling.configure(0.5, registry=registry)
        export = registry.export()
        for name in SAMPLING_COUNTERS:
            assert export[name] == 0

    def test_decision_counters_move(self):
        registry = MetricsRegistry()
        sampling.configure(0.5, registry=registry)
        run = [s for _, s in run_roots(60, 0.5)]
        export = registry.export()
        assert export["obs.sampled_traces"] == sum(run)
        assert export["obs.unsampled_traces"] == len(run) - sum(run)

    def test_unconfigure_restores_always_on(self):
        sampling.configure(0.0, registry=MetricsRegistry())
        assert sampling.active_tail() is not None
        sampling.unconfigure()
        assert sampling.active_tail() is None
        assert trace.get_sample_rate() == 1.0
        with span("op") as sp:
            assert sp.sampled is True

    def test_reconfigure_replaces_tail(self):
        a = sampling.configure(0.5, registry=MetricsRegistry())
        b = sampling.configure(0.1, registry=MetricsRegistry())
        assert sampling.active_tail() is b and a is not b
