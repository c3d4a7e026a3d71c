"""Exposition: Prometheus text format round-trip, snapshot deltas."""

import json
import math

import pytest

from repro.obs.expose import (SnapshotDelta, parse_prometheus_text,
                              sanitize_name, split_labels, to_prometheus)
from repro.obs.metrics import BUCKET_BOUNDS, MetricsRegistry


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.counter("dbsim.table.A.seeks").inc(5)
    reg.counter("dbsim.table.A.entries_read").inc(100)
    reg.counter("dbsim.table.Bdeg.seeks").inc(2)
    reg.gauge("dbsim.server.tserver0.tablets").set(3)
    reg.gauge("spgemm.tiled.peak_expansion").set(16368)
    reg.counter("dbsim.locate.requests").inc(7)
    h = reg.histogram("scan.latency")
    for v in (0.001, 0.01, 0.2):
        h.observe(v)
    return reg


class TestNaming:
    def test_sanitize(self):
        assert sanitize_name("dbsim.locate.requests") == \
            "dbsim_locate_requests"
        assert sanitize_name("9lives") == "_9lives"
        assert sanitize_name("a-b c") == "a_b_c"

    def test_table_scheme_parses_to_labels(self):
        assert split_labels("dbsim.table.A.entries_read") == \
            ("dbsim_table_entries_read", {"table": "A"})
        # dotted table names keep their dots in the label value
        assert split_labels("dbsim.table.my.graph.seeks") == \
            ("dbsim_table_seeks", {"table": "my.graph"})

    def test_server_scheme(self):
        assert split_labels("dbsim.server.tserver0.tablets") == \
            ("dbsim_server_tablets", {"server": "tserver0"})

    def test_unrecognized_names_are_flattened(self):
        assert split_labels("spgemm.tiled.peak_expansion") == \
            ("spgemm_tiled_peak_expansion", {})


class TestToPrometheus:
    def test_round_trips_through_parser(self, registry):
        text = to_prometheus(registry)
        samples = parse_prometheus_text(text)
        assert samples[("repro_dbsim_table_seeks",
                        (("table", "A"),))] == 5
        assert samples[("repro_dbsim_table_seeks",
                        (("table", "Bdeg"),))] == 2
        assert samples[("repro_dbsim_server_tablets",
                        (("server", "tserver0"),))] == 3
        assert samples[("repro_spgemm_tiled_peak_expansion", ())] == 16368
        assert samples[("repro_scan_latency_count", ())] == 3
        assert samples[("repro_scan_latency_sum",
                        ())] == pytest.approx(0.211)
        # +Inf bucket carries the full count
        assert samples[("repro_scan_latency_bucket",
                        (("le", "+Inf"),))] == 3

    def test_histogram_buckets_are_cumulative(self, registry):
        samples = parse_prometheus_text(to_prometheus(registry))
        buckets = sorted(
            (float(dict(labels)["le"]), v)
            for (name, labels), v in samples.items()
            if name == "repro_scan_latency_bucket")
        counts = [v for _, v in buckets]
        assert counts == sorted(counts)  # monotone
        assert counts[-1] == 3
        assert len(buckets) == len(BUCKET_BOUNDS) + 1

    def test_type_lines_present_and_typed(self, registry):
        text = to_prometheus(registry)
        assert "# TYPE repro_dbsim_table_seeks counter" in text
        assert "# TYPE repro_dbsim_server_tablets gauge" in text
        assert "# TYPE repro_scan_latency histogram" in text

    def test_every_line_is_well_formed(self, registry):
        # parse_prometheus_text raises on any malformed line, so this
        # doubles as the format validation required by the issue
        text = to_prometheus(registry)
        assert parse_prometheus_text(text)

    def test_plain_export_dict_input(self, registry):
        text = to_prometheus(registry.export())
        samples = parse_prometheus_text(text)
        assert samples[("repro_dbsim_table_entries_read",
                        (("table", "A"),))] == 100
        # histogram export dicts render as summaries with quantiles
        assert ("repro_scan_latency",
                (("quantile", "0.5"),)) in samples
        assert samples[("repro_scan_latency_count", ())] == 3

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        reg.counter('dbsim.table.we"ird.seeks').inc(1)
        samples = parse_prometheus_text(to_prometheus(reg))
        assert samples[("repro_dbsim_table_seeks",
                        (("table", 'we"ird'),))] == 1

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""


class TestParser:
    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a valid sample"):
            parse_prometheus_text("no spaces here{")

    def test_rejects_bad_comment(self):
        with pytest.raises(ValueError, match="bad comment"):
            parse_prometheus_text("# FOO bar\n")

    def test_inf_values(self):
        samples = parse_prometheus_text('x_bucket{le="+Inf"} 4\n')
        assert samples[("x_bucket", (("le", "+Inf"),))] == 4


class TestSnapshotDelta:
    def test_deltas_and_rates(self):
        before = {"a": 10, "b": 5, "gone": 1}
        after = {"a": 30, "b": 5, "new": 7}
        d = SnapshotDelta(before, after, seconds=2.0)
        # the vanished series clamps to 0 but stays visible, flagged
        assert d.deltas() == {"a": 20, "gone": 0, "new": 7}
        assert d.resets == {"gone"}
        assert d.deltas(nonzero=False)["b"] == 0
        assert d.rates()["a"] == pytest.approx(10.0)

    def test_counter_reset_mid_monitor(self):
        # a monitored process restarts between polls: counters drop back
        # toward zero, then climb again.  The restart interval clamps to
        # zero and is flagged; the next interval is normal arithmetic.
        samples = [
            {"net.server.requests": 900},
            {"net.server.requests": 1000},
            {"net.server.requests": 12},     # restarted, recounting
            {"net.server.requests": 40},
        ]
        d01 = SnapshotDelta(samples[0], samples[1], seconds=1.0)
        assert d01.delta("net.server.requests") == 100
        assert not d01.resets
        d12 = SnapshotDelta(samples[1], samples[2], seconds=1.0)
        assert d12.delta("net.server.requests") == 0
        assert d12.resets == {"net.server.requests"}
        assert d12.rates()["net.server.requests"] == 0.0  # never negative
        d23 = SnapshotDelta(samples[2], samples[3], seconds=1.0)
        assert d23.delta("net.server.requests") == 28
        assert not d23.resets

    def test_histogram_dicts_diff_counts(self):
        before = {"h": {"count": 2, "sum": 1.0}}
        after = {"h": {"count": 5, "sum": 9.0}}
        assert SnapshotDelta(before, after).delta("h") == 3

    def test_rates_require_seconds(self):
        with pytest.raises(ValueError, match="seconds"):
            SnapshotDelta({}, {"a": 1}).rates()
