"""``repro top``: summary rows between two METRICS samples, reset
flagging, the rendering, and the command against a live cluster."""

import pytest

from repro.cli import main
from repro.net.cluster import LocalCluster
from repro.net.telemetry import (_table_activity, format_bytes,
                                 render_top, summary_rows)
from repro.obs.expose import SnapshotDelta


class TestSummary:
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
        row = summary_rows(None, first, 0.0)["tserver0"]
        assert row["requests"] == 100 and row["qps"] is None
        assert row["health"] is None
        row = summary_rows(first, second, 2.0)["tserver0"]
        assert row["qps"] == pytest.approx(10.0)
        assert row["tx_bps"] == pytest.approx(1024.0)
        assert row["inflight"] == 2
        assert row["reset"] is False
        assert row["health"] == []
        assert row["hot_tables"] == ["A", "B"]

    def test_cluster_metrics_shape_is_flattened(self):
        before = {"manager": {"net.server.requests": 1},
                  "servers": {"tserver0": {"net.server.requests": 3}}}
        after = {"manager": {"net.server.requests": 5},
                 "servers": {"tserver0": {"net.server.requests": 9},
                             "tserver1": {"net.server.requests": 2}}}
        rows = summary_rows(before, after, 2.0)
        assert sorted(rows) == ["manager", "tserver0", "tserver1"]
        assert rows["manager"]["qps"] == pytest.approx(2.0)
        assert rows["tserver0"]["qps"] == pytest.approx(3.0)
        assert rows["tserver1"]["qps"] is None  # no earlier sample

    def test_restart_is_flagged_not_negative(self):
        rows = summary_rows({"s": {"net.server.requests": 500}},
                            {"s": {"net.server.requests": 3}},  # restarted
                            1.0)
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


class TestRenderTop:
    def test_table_shape_and_reset_marker(self):
        summary = {
            "tserver0": {"requests": 120, "qps": 10.0, "tx_bps": 1024.0,
                         "rx_bps": 100.0, "err_ps": 0.0, "inflight": 2,
                         "reset": False, "hot_tables": ["A", "B"]},
            "tserver1": {"requests": 5, "qps": 0.0, "tx_bps": 0.0,
                         "rx_bps": 0.0, "err_ps": 0.0, "inflight": 0,
                         "reset": True, "hot_tables": []},
        }
        out = render_top(summary, clock="12:00:00")
        lines = out.splitlines()
        assert lines[0] == "-- repro top @ 12:00:00 --"
        assert "SERVER" in lines[1] and "HOT TABLES" in lines[1]
        assert "tserver0" in lines[2] and "A,B" in lines[2]
        assert lines[3].startswith("tserver1*")
        assert lines[-1] == "(* counters reset since last sample)"

    def test_format_bytes(self):
        assert format_bytes(512) == "512"
        assert format_bytes(1536) == "1.5K"
        assert format_bytes(3 << 20) == "3.0M"

    def test_health_column_flags_breaches(self):
        summary = {
            "ok-server": {"requests": 10, "qps": 1.0, "tx_bps": 0.0,
                          "rx_bps": 0.0, "err_ps": 0.0, "inflight": 0,
                          "reset": False, "health": [],
                          "hot_tables": []},
            "sick-server": {"requests": 10, "qps": 1.0, "tx_bps": 0.0,
                            "rx_bps": 0.0, "err_ps": 5.0, "inflight": 0,
                            "reset": False,
                            "health": ["rpc.errors", "rpc.queue.p99"],
                            "hot_tables": []},
            "new-server": {"requests": 0, "qps": None, "tx_bps": None,
                           "rx_bps": None, "err_ps": None, "inflight": 0,
                           "reset": False, "health": None,
                           "hot_tables": []},
        }
        lines = render_top(summary).splitlines()
        by_name = {line.split()[0]: line for line in lines[1:]}
        assert " ok " in by_name["ok-server"]
        assert "SLO!2" in by_name["sick-server"]
        assert " ok " not in by_name["new-server"]  # unknown -> "-"


class TestTopCommand:
    def test_two_refreshes_render_every_component(self, capsys,
                                                  monkeypatch):
        import time

        with LocalCluster(n_servers=2, processes=False) as c:
            conn = c.connect()
            try:
                conn.create_table("t")

                def work(_seconds):  # the workload between the polls
                    with conn.batch_writer("t") as w:
                        for i in range(20):
                            w.put(f"r{i:02d}", "", "c", i)
                    assert len(list(conn.scanner("t"))) == 20

                monkeypatch.setattr(time, "sleep", work)
                capsys.readouterr()
                assert main(["top", "--connect", c.manager_addr_str,
                             "--iterations", "2"]) == 0
            finally:
                monkeypatch.undo()
                conn.close()
        first, second = capsys.readouterr().out.split("\n\n")
        rows = {line.split()[0]: line.split()
                for line in second.splitlines()[2:]}
        assert sorted(rows) == ["manager", "tserver0", "tserver1"]
        health = second.splitlines()[1].split().index("HEALTH")
        for name, cols in rows.items():
            assert cols[1] != "-", f"{name} has no QPS"  # a rate window
            assert cols[health] == "ok", f"{name} health {cols[health]}"
        # the first refresh has no earlier sample: rates are unknown
        assert all(line.split()[1] == "-"
                   for line in first.splitlines()[2:])
        # the writes and the scan name the hot table
        assert "t" in {rows["tserver0"][-1], rows["tserver1"][-1]}

    def test_reset_marker_after_crash_and_recover(self, capsys,
                                                  monkeypatch):
        import time

        with LocalCluster(n_servers=1, processes=False) as c:
            conn = c.connect()
            try:
                conn.create_table("t")
                with conn.batch_writer("t") as w:
                    w.put("r", "", "c", 1)

                # between the two polls: the unflushed cell is lost,
                # so the server's memtable gauges fall
                def bounce(_seconds):
                    conn.instance.crash_server("tserver0")
                    conn.instance.recover_server("tserver0",
                                                 replay_wal=False)

                monkeypatch.setattr(time, "sleep", bounce)
                capsys.readouterr()
                assert main(["top", "--connect", c.manager_addr_str,
                             "--iterations", "2"]) == 0
            finally:
                monkeypatch.undo()
                conn.close()
        out = capsys.readouterr().out
        assert "tserver0*" in out
        assert out.rstrip().endswith("(* counters reset since last sample)")

    def test_unreachable_cluster_exits_2(self, capsys):
        with LocalCluster(n_servers=1, processes=False) as c:
            addr = c.manager_addr_str
        assert main(["top", "--connect", addr, "--iterations", "1"]) == 2
        assert "unreachable" in capsys.readouterr().err
