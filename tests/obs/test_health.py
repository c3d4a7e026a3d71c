"""SLO health plane: spec validation, p99/error-budget evaluation,
windowed burn rates, per-component rate rows, report rendering, and
spec-file loading."""

import json

import pytest

from repro.obs.expose import SnapshotDelta
from repro.obs.health import (DEFAULT_SLOS, HealthReport, SLOSpec,
                              _table_activity, check_component, evaluate,
                              format_bytes, load_slos, render_rates)


def export(p99_queue=0.01, p99_service=0.02, requests=100, errors=0):
    return {
        "net.server.requests": requests,
        "net.server.errors": errors,
        "net.server.queue_seconds": {"count": 10, "p99": p99_queue},
        "net.server.service_seconds": {"count": 10, "p99": p99_service},
    }


class TestSLOSpec:
    def test_from_dict_round_trip(self):
        spec = SLOSpec.from_dict({"name": "x", "histogram": "h",
                                  "p99_target_s": 0.1})
        assert spec.name == "x" and spec.p99_target_s == 0.1
        assert spec.as_dict() == {"name": "x", "histogram": "h",
                                  "p99_target_s": 0.1}

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SLOSpec.from_dict({"name": "x", "p99": 0.1})

    def test_objective_required(self):
        with pytest.raises(ValueError, match="no objective"):
            SLOSpec.from_dict({"name": "x"})

    def test_p99_needs_histogram(self):
        with pytest.raises(ValueError, match="histogram"):
            SLOSpec.from_dict({"name": "x", "p99_target_s": 0.1})


class TestEvaluate:
    def test_healthy_cluster_is_ok(self):
        report = evaluate({"manager": export(),
                           "servers": {"ts0": export()}})
        assert report.ok and report.breaches() == []
        assert report.component_status() == {"manager": "ok", "ts0": "ok"}

    def test_p99_breach_detected(self):
        report = evaluate({"servers": {"ts0": export(p99_queue=5.0)}})
        [breach] = report.breaches()
        assert breach.slo == "rpc.queue.p99" and breach.component == "ts0"
        assert report.component_status()["ts0"] == "breach"

    def test_error_budget_breach_detected(self):
        report = evaluate({"servers": {"ts0": export(requests=100,
                                                     errors=50)}})
        [breach] = report.breaches()
        assert breach.slo == "rpc.errors"
        assert breach.value == pytest.approx(0.5)

    def test_flat_shape_accepted(self):
        # _sample_cluster() returns {component: export} with no nesting
        report = evaluate({"manager": export(), "tserver0": export()})
        assert sorted(report.component_status()) == ["manager", "tserver0"]

    def test_windowed_burn_rate_forgives_old_errors(self):
        # cumulatively over budget, but clean in the window -> ok
        before = {"ts0": export(requests=100, errors=50)}
        after = {"ts0": export(requests=300, errors=50)}
        report = evaluate(after, before=before, seconds=2.0)
        errs = [c for c in report.checks if c.kind == "error_rate"]
        assert all(c.ok for c in errs)
        assert "windowed" in errs[0].detail
        # and the reverse: clean history, error storm in the window
        report = evaluate({"ts0": export(requests=300, errors=40)},
                          before={"ts0": export(requests=290, errors=0)},
                          seconds=2.0)
        assert not report.ok

    def test_no_data_is_vacuously_ok(self):
        report = evaluate({"ts0": {}})
        assert report.ok
        assert report.component_status()["ts0"] == "no-data"
        assert all(c.value is None for c in report.checks)

    def test_glob_histogram_matches_families(self):
        slos = [SLOSpec(name="per-op", histogram="net.server.op.*_seconds",
                        p99_target_s=0.1)]
        exp = {"net.server.op.scan_seconds": {"count": 5, "p99": 0.5},
               "net.server.op.ping_seconds": {"count": 5, "p99": 0.01}}
        checks = check_component("ts0", exp, slos)
        assert [(c.metric, c.ok) for c in checks] == [
            ("net.server.op.ping_seconds", True),
            ("net.server.op.scan_seconds", False)]

    def test_breached_slo_names_per_component(self):
        def breached(after, before=None):
            report = evaluate({"s": after}, before=before and {"s": before},
                              seconds=2.0)
            return sorted({c.slo for c in report.breaches()})

        assert breached(export(p99_queue=5.0, errors=50)) == \
            ["rpc.errors", "rpc.queue.p99"]
        assert breached(export()) == []
        assert breached(export(requests=200, errors=50),
                        before=export(requests=100, errors=50)) == []


class TestRates:
    """Each component's rate row, from the delta its burn rates use."""

    SCRIPT = [
        {"tserver0": {"net.server.requests": 100,
                      "net.server.bytes_sent": 1000,
                      "net.server.bytes_received": 500,
                      "net.server.inflight": 1,
                      "dbsim.table.A.entries_read": 10}},
        {"tserver0": {"net.server.requests": 120,
                      "net.server.bytes_sent": 3048,
                      "net.server.bytes_received": 700,
                      "net.server.inflight": 2,
                      "dbsim.table.A.entries_read": 90,
                      "dbsim.table.B.entries_read": 15}},
    ]

    def test_rows_before_and_after_second_sample(self):
        first, second = self.SCRIPT
        row = evaluate(first).rows["tserver0"]
        assert row["requests"] == 100 and row["qps"] is None
        assert row["hot_tables"] == []
        row = evaluate(second, before=first, seconds=2.0).rows["tserver0"]
        assert row["qps"] == pytest.approx(10.0)
        assert row["tx_bps"] == pytest.approx(1024.0)
        assert row["inflight"] == 2
        assert row["reset"] is False
        assert row["hot_tables"] == ["A", "B"]

    def test_cluster_metrics_shape_is_flattened(self):
        before = {"manager": {"net.server.requests": 1},
                  "servers": {"tserver0": {"net.server.requests": 3}}}
        after = {"manager": {"net.server.requests": 5},
                 "servers": {"tserver0": {"net.server.requests": 9},
                             "tserver1": {"net.server.requests": 2}}}
        rows = evaluate(after, before=before, seconds=2.0).rows
        assert sorted(rows) == ["manager", "tserver0", "tserver1"]
        assert rows["manager"]["qps"] == pytest.approx(2.0)
        assert rows["tserver0"]["qps"] == pytest.approx(3.0)
        assert rows["tserver1"]["qps"] is None  # no earlier sample

    def test_restart_is_flagged_not_negative(self):
        rows = evaluate({"s": {"net.server.requests": 3}},  # restarted
                        before={"s": {"net.server.requests": 500}},
                        seconds=1.0).rows
        row = rows["s"]
        assert row["reset"] is True
        assert row["qps"] == 0.0  # clamped, never negative

    def test_table_activity_merges_sources(self):
        d = SnapshotDelta(
            {"dbsim.table.A.entries_read": 0,
             "net.server.table.A.scan_bytes": 0,
             "dbsim.table.B.seeks": 5},
            {"dbsim.table.A.entries_read": 7,
             "net.server.table.A.scan_bytes": 100,
             "dbsim.table.B.seeks": 5})
        assert _table_activity(d) == {"A": 107}

    def test_rows_join_the_json_report(self):
        first, second = self.SCRIPT
        d = evaluate(second, before=first, seconds=2.0).as_dict()
        assert d["rates"]["tserver0"]["qps"] == pytest.approx(10.0)
        json.dumps(d)


class TestRenderRates:
    def test_table_shape_and_reset_marker(self):
        rows = {
            "tserver0": {"requests": 120, "qps": 10.0, "tx_bps": 1024.0,
                         "rx_bps": 100.0, "err_ps": 0.0, "inflight": 2,
                         "pushdown": [0, 0], "reset": False,
                         "hot_tables": ["A", "B"]},
            "tserver1": {"requests": 5, "qps": 0.0, "tx_bps": 0.0,
                         "rx_bps": 0.0, "err_ps": 0.0, "inflight": 0,
                         "pushdown": [2, 40], "reset": True,
                         "hot_tables": []},
        }
        out = render_rates(rows, seconds=2.0)
        lines = out.splitlines()
        assert lines[0] == "-- rates over the last 2s --"
        assert "SERVER" in lines[1] and "HOT TABLES" in lines[1]
        assert "tserver0" in lines[2] and "A,B" in lines[2]
        assert lines[3].startswith("tserver1*") and "2/40" in lines[3]
        assert lines[-1] == "(* counters reset since last sample)"

    def test_format_bytes(self):
        assert format_bytes(512) == "512"
        assert format_bytes(1536) == "1.5K"
        assert format_bytes(3 << 20) == "3.0M"

    def test_report_shows_breaches_per_component(self):
        report = evaluate({"ok-server": export(),
                           "sick-server": export(p99_queue=5.0, errors=50),
                           "new-server": export(errors=50)},
                          before={"ok-server": export(requests=0),
                                  "sick-server": export(requests=0)},
                          seconds=2.0)
        rates, slos = report.render().split("\n\n")
        by_name = {line.split()[0]: line.split()
                   for line in rates.splitlines()[2:]}
        assert by_name["sick-server"][5] == "25.0"  # ERR/s
        assert by_name["new-server"][1] == "-"  # no earlier sample
        breached = {}
        for line in slos.splitlines()[1:-1]:
            component, slo, *_ = line.split()
            breached.setdefault(component, set())
            if " BREACH " in line:
                breached[component].add(slo)
        assert breached == {"ok-server": set(), "new-server": {"rpc.errors"},
                            "sick-server": {"rpc.errors", "rpc.queue.p99"}}
        assert slos.endswith("3 breach(es) across 3 component(s)")


class TestReport:
    def test_render_and_dict(self):
        report = evaluate({"ts0": export(p99_service=9.0)})
        text = report.render()
        assert "BREACH" in text and "rpc.service.p99" in text
        assert "1 breach(es)" in text
        d = report.as_dict()
        assert d["ok"] is False and len(d["breaches"]) == 1
        json.dumps(d)  # the CI artifact must serialize

    def test_all_ok_footer(self):
        assert evaluate({"ts0": export()}).render().endswith("all SLOs met")


class TestLoadSlos:
    def test_load_and_validate(self, tmp_path):
        path = tmp_path / "slos.json"
        path.write_text(json.dumps([
            {"name": "q", "histogram": "net.server.queue_seconds",
             "p99_target_s": 0.5},
            {"name": "e", "error_budget": 0.1},
        ]))
        specs = load_slos(str(path))
        assert [s.name for s in specs] == ["q", "e"]

    def test_empty_or_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="non-empty"):
            load_slos(str(path))
        path.write_text(json.dumps([{"name": "x"}]))
        with pytest.raises(ValueError, match="no objective"):
            load_slos(str(path))


class TestDefaults:
    def test_default_slos_cover_queue_service_errors(self):
        names = {s.name for s in DEFAULT_SLOS}
        assert names == {"rpc.queue.p99", "rpc.service.p99", "rpc.errors"}

    def test_defaults_pass_on_a_quiet_export(self):
        assert HealthReport(check_component("s", export())).ok
