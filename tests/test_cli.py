"""CLI subcommands, driven through main() with captured stdout."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from tests.obs.test_stitch import span, two_process_sources


@pytest.fixture
def graph_tsv(tmp_path):
    """Fig 1 graph as a triple TSV (symmetric, string vertex keys)."""
    from repro.generators import fig1_edges

    path = tmp_path / "fig1.tsv"
    lines = []
    for u, v in fig1_edges():
        lines.append(f"v{u + 1}\tv{v + 1}\t1")
        lines.append(f"v{v + 1}\tv{u + 1}\t1")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestInfo:
    def test_reports_shape(self, graph_tsv, capsys):
        assert main(["info", graph_tsv]) == 0
        out = capsys.readouterr().out
        assert "5 vertices" in out and "12 stored entries" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no such file")

    def test_malformed_file(self, tmp_path, capsys):
        p = tmp_path / "bad.tsv"
        p.write_text("a\tb\tc\td\te\n")
        assert main(["pagerank", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        p = tmp_path / "empty.tsv"
        p.write_text("")
        assert main(["info", str(p)]) == 2
        assert "no triples" in capsys.readouterr().err

    def test_closed_stdout_is_no_traceback(self, graph_tsv):
        """``repro stats … | head -3`` without the race: the pipe's
        read end is closed before the run starts, so every write to
        stdout fails.  Status 1, and nothing on stderr."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = Path(__file__).resolve().parents[1] / "src"
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "stats", graph_tsv],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                env={**os.environ, "PYTHONPATH": str(src)})
        finally:
            os.close(write_end)
        assert done.stderr.decode() == ""
        assert done.returncode == 1

    @pytest.mark.parametrize("argv", [
        ["info"], ["pagerank", "--top", "3"], ["ktruss", "--k", "3"],
        ["stats", "--json"]], ids=lambda argv: argv[0])
    def test_closed_stdout_in_every_printing_command(self, graph_tsv, argv):
        """The same promise for each subcommand that prints a result:
        status 1 and an empty stderr, whichever ``print`` meets the
        closed pipe first."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = Path(__file__).resolve().parents[1] / "src"
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", argv[0], graph_tsv,
                 *argv[1:]],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                env={**os.environ, "PYTHONPATH": str(src)})
        finally:
            os.close(write_end)
        assert done.stderr.decode() == ""
        assert done.returncode == 1


class TestGenerate:
    def test_rmat_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "g.tsv"
        assert main(["generate", "rmat", "--scale", "5", "--out",
                     str(out)]) == 0
        assert out.exists()
        assert main(["info", str(out)]) == 0

    def test_er(self, tmp_path, capsys):
        out = tmp_path / "er.tsv"
        assert main(["generate", "er", "--scale", "5", "--p", "0.2",
                     "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out


class TestBfs:
    def test_hop_levels(self, graph_tsv, capsys):
        assert main(["bfs", graph_tsv, "--source", "v1"]) == 0
        out = capsys.readouterr().out
        assert "reached 5/5" in out
        assert "hop 2: v5" in out

    def test_unknown_source(self, graph_tsv, capsys):
        assert main(["bfs", graph_tsv, "--source", "nope"]) == 2
        assert capsys.readouterr().err == \
            "error: source vertex 'nope' not in graph\n"


class TestPagerank:
    def test_ranking(self, graph_tsv, capsys):
        assert main(["pagerank", graph_tsv, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("0.") >= 3
        assert "v2" in out  # the highest-PageRank vertex of Fig 1
        assert "converged in" in out


class TestKtruss:
    def test_fig1(self, graph_tsv, capsys, tmp_path):
        out_file = tmp_path / "truss.tsv"
        assert main(["ktruss", graph_tsv, "--k", "3", "--out",
                     str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "5/6 edges survive" in out
        assert out_file.exists()

    def test_empty_truss(self, graph_tsv, capsys):
        assert main(["ktruss", graph_tsv, "--k", "4"]) == 0
        assert "0/6" in capsys.readouterr().out


class TestJaccard:
    def test_fig2_top_pair(self, graph_tsv, capsys):
        assert main(["jaccard", graph_tsv, "--top", "2"]) == 0
        out = capsys.readouterr().out
        # the largest Fig 2 coefficient is J(2,4) = 2/3
        assert "v2 ~ v4" in out and "0.6667" in out


class TestTriangles:
    def test_fig1_triangle_count(self, graph_tsv, capsys):
        assert main(["triangles", graph_tsv]) == 0
        out = capsys.readouterr().out
        assert "2 triangles" in out
        assert "v1" in out and "v3" in out  # the two 2-triangle vertices


class TestComponents:
    def test_connected_fig1(self, graph_tsv, capsys):
        assert main(["components", graph_tsv]) == 0
        out = capsys.readouterr().out
        assert "1 connected component(s)" in out
        assert "5 vertices" in out

    def test_two_components(self, tmp_path, capsys):
        p = tmp_path / "two.tsv"
        p.write_text("a\tb\t1\nb\ta\t1\nx\ty\t1\ny\tx\t1\n")
        assert main(["components", str(p)]) == 0
        assert "2 connected component(s)" in capsys.readouterr().out


class TestTopics:
    def test_small_demo(self, capsys):
        assert main(["topics", "--docs", "300", "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "topic 1" in out and "purity=" in out


class TestStats:
    def test_report(self, graph_tsv, capsys):
        assert main(["stats", graph_tsv]) == 0
        out = capsys.readouterr().out
        assert "ingested 12 triples" in out
        assert "dbsim.table.A.entries_written" in out
        assert "total: seeks=" in out

    def test_json(self, graph_tsv, capsys):
        import json

        assert main(["stats", graph_tsv, "--json", "--servers", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["metrics"]["dbsim.table.A.entries_written"] == 12
        assert report["total"]["flushes"] >= 1
        assert set(report["servers"]) == {"tserver0"}


class TestTrace:
    def test_pagerank_trace_jsonl(self, graph_tsv, tmp_path, capsys):
        import json

        trace_file = tmp_path / "pr.jsonl"
        assert main(["pagerank", graph_tsv, "--trace",
                     str(trace_file)]) == 0
        records = [json.loads(line)
                   for line in trace_file.read_text().splitlines()]
        spans = [r for r in records if r["kind"] == "span"]
        conv = [r for r in records if r["kind"] == "convergence"
                and r["name"] == "pagerank"]
        assert spans and conv
        assert all("opstats" in s for s in spans)
        residuals = [r["residual"] for r in conv]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_ktruss_trace_jsonl(self, graph_tsv, tmp_path, capsys):
        import json

        trace_file = tmp_path / "kt.jsonl"
        assert main(["ktruss", graph_tsv, "--k", "3", "--trace",
                     str(trace_file)]) == 0
        records = [json.loads(line)
                   for line in trace_file.read_text().splitlines()]
        assert any(r["kind"] == "span" and r["name"] == "kernel.spgemm"
                   for r in records)
        assert any(r["kind"] == "convergence" and r["name"] == "ktruss"
                   for r in records)

    def test_trace_disabled_after_run(self, graph_tsv, tmp_path, capsys):
        from repro.obs import trace

        assert main(["pagerank", graph_tsv, "--trace",
                     str(tmp_path / "t.jsonl")]) == 0
        assert not trace.is_enabled()

    def test_unwritable_trace_path(self, graph_tsv, capsys):
        assert main(["pagerank", graph_tsv, "--trace",
                     "/no/such/dir/t.jsonl"]) == 2
        assert "cannot open trace file" in capsys.readouterr().err

    def test_no_trace_no_file(self, graph_tsv, tmp_path, capsys):
        # graph_tsv lives in tmp_path; no trace file should join it
        assert main(["pagerank", graph_tsv]) == 0
        assert list(tmp_path.glob("*.jsonl")) == []


GOLDEN_TRACE = __file__.rsplit("/", 1)[0] + "/obs/data/golden_trace.jsonl"


class TestAnalyze:
    def test_golden_trace_report(self, capsys):
        assert main(["analyze", GOLDEN_TRACE]) == 0
        out = capsys.readouterr().out
        assert "6 records, 5 spans, 3 root span(s)" in out
        assert "graphulo.table_bfs" in out and "kernel.spgemm" in out
        assert "critical path of longest root (graphulo.table_bfs" in out
        assert "dbsim.batch_scan" in out

    def test_json_output(self, capsys):
        import json

        assert main(["analyze", GOLDEN_TRACE, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spans"] == 5
        assert [s["name"] for s in report["critical_path"]] == \
            ["graphulo.table_bfs", "dbsim.batch_scan"]

    def test_flamegraph_export(self, tmp_path, capsys):
        out_file = tmp_path / "t.folded"
        assert main(["analyze", GOLDEN_TRACE, "--flamegraph",
                     str(out_file)]) == 0
        lines = out_file.read_text().splitlines()
        assert "kernel.spgemm 300000" in lines
        assert any(";" in line for line in lines)
        assert "folded stacks" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("error: no such file")

    def test_spanless_trace_fails(self, tmp_path, capsys):
        p = tmp_path / "conv.jsonl"
        p.write_text('{"kind": "convergence", "name": "x"}\n')
        assert main(["analyze", str(p)]) == 2
        assert "holds no spans" in capsys.readouterr().err

    def test_malformed_trace_fails(self, tmp_path, capsys):
        p = tmp_path / "bad.jsonl"
        p.write_text("not json\n")
        assert main(["analyze", str(p)]) == 2
        assert "invalid trace line" in capsys.readouterr().err

    @staticmethod
    def _per_process_files(tmp_path, sources):
        import json

        paths = []
        for name, records in sources.items():
            path = tmp_path / f"trace.{name}.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in records))
            paths.append(str(path))
        return paths

    def test_several_files_are_stitched_first(self, tmp_path, capsys):
        paths = self._per_process_files(tmp_path, two_process_sources())
        out = tmp_path / "stitched.jsonl"
        assert main(["analyze", *paths, "--out", str(out),
                     "--check-cross-process"]) == 0
        text = capsys.readouterr().out
        stitch, analysis = text.split("\nstitched trace: ", 1)
        assert stitch.splitlines() == [
            "stitched 2 file(s): 3 spans, 1 trace(s), processes: "
            "client, tserver0",
            "1 cross-process edge(s):",
            "  client/rpc.client.call -> tserver0/rpc.server.scan x1",
            f"wrote stitched trace to {out}"]
        assert analysis.startswith("3 records, 3 spans, 1 root span(s)")
        assert "RPC time breakdown" in analysis
        # the written trace is itself analyzable
        assert main(["analyze", str(out)]) == 0
        assert f"{out}: 4 records, 3 spans" in capsys.readouterr().out

    def test_stitch_summary_goes_to_stderr_under_json(self, tmp_path,
                                                       capsys):
        import json

        paths = self._per_process_files(tmp_path, two_process_sources())
        assert main(["analyze", *paths, "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["spans"] == 3
        assert captured.err.startswith("stitched 2 file(s)")

    def test_check_fails_without_cross_process_edges(self, tmp_path,
                                                     capsys):
        client = two_process_sources()["client"]
        paths = self._per_process_files(tmp_path, {"client": client})
        assert main(["analyze", *paths, "--check-cross-process"]) == 1
        captured = capsys.readouterr()
        assert "no cross-process edges (single-process trace" in \
            captured.out
        assert captured.err.endswith(
            "stitch check FAILED: no cross-process edges\n")
        # without the gate the same stitch is just reported
        assert main(["analyze", *paths, "--out",
                     str(tmp_path / "s.jsonl")]) == 0

    def test_check_fails_on_orphaned_spans(self, tmp_path, capsys):
        sources = two_process_sources()
        # a server span whose caller's file is missing
        sources["tserver1"] = [span("rpc.server.scan", "d" * 16, "e" * 16)]
        paths = self._per_process_files(tmp_path, sources)
        assert main(["analyze", *paths, "--check-cross-process"]) == 1
        err = capsys.readouterr().err
        assert "warning: 1 orphaned span(s)" in err
        assert err.endswith("stitch check FAILED: 1 orphaned spans\n")

    def test_stitch_of_spanless_files_fails(self, tmp_path, capsys):
        paths = self._per_process_files(
            tmp_path, {"a": [{"kind": "convergence", "name": "x"}],
                       "b": [{"kind": "header", "process": "b"}]})
        assert main(["analyze", *paths]) == 2
        assert capsys.readouterr().err.startswith("error: no spans found")

    def test_traced_run_round_trips_through_analyze(self, graph_tsv,
                                                    tmp_path, capsys):
        trace_file = tmp_path / "pr.jsonl"
        assert main(["pagerank", graph_tsv, "--trace",
                     str(trace_file)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(trace_file)]) == 0
        assert "kernel.vxm" in capsys.readouterr().out


def trace_spans(path):
    import json

    return [r for r in map(json.loads, path.read_text().splitlines())
            if r.get("kind") == "span"]


class TestSlowTraces:
    """``--trace PATH --sample-rate 0``: only the traces that errored
    or breached a wall-clock threshold / OpStats budget are recorded."""

    def test_quiet_run_records_no_spans(self, graph_tsv, tmp_path,
                                        capsys):
        out = tmp_path / "slow.jsonl"
        assert main(["pagerank", graph_tsv, "--trace", str(out),
                     "--sample-rate", "0"]) == 0
        # the Fig 1 graph is far under every default limit
        assert trace_spans(out) == []

    def test_wall_threshold_breach_is_recorded(self, graph_tsv, tmp_path,
                                               capsys, monkeypatch):
        from repro.obs import sampling

        monkeypatch.setitem(sampling.DEFAULT_TAIL_THRESHOLDS,
                            "kernel.*", 0.0)
        out = tmp_path / "slow.jsonl"
        assert main(["pagerank", graph_tsv, "--trace", str(out),
                     "--sample-rate", "0"]) == 0
        spans = trace_spans(out)
        assert spans and all(r["sampled"] is False for r in spans)
        slow = [r for r in spans if "reasons" in r]
        assert slow and all(r["name"].startswith("kernel.") for r in slow)
        assert "> threshold 0.0s" in slow[0]["reasons"][0]
        assert slow[0]["reasons"][0].startswith("wall ")

    def test_opstats_budget_breach_is_recorded(self, graph_tsv, tmp_path,
                                               capsys, monkeypatch):
        from repro.obs import sampling

        monkeypatch.setitem(sampling.DEFAULT_OPSTATS_BUDGETS,
                            "dbsim.*", {"entries_written": 11})
        out = tmp_path / "slow.jsonl"
        assert main(["stats", graph_tsv, "--trace", str(out),
                     "--sample-rate", "0"]) == 0
        slow = [r for r in trace_spans(out) if "reasons" in r]
        assert slow
        # the ingest writes the graph's 12 cells in one span
        assert "entries_written 12 > budget 11" in slow[0]["reasons"]
        assert slow[0]["opstats"]["entries_written"] == 12

    @pytest.mark.parametrize("rate", ["-0.5", "5", "nan", "x"])
    def test_rate_outside_unit_interval_exits_2(self, graph_tsv, rate,
                                                capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pagerank", graph_tsv, "--sample-rate", rate])
        assert exc.value.code == 2
        assert "is not a rate in [0, 1]" in capsys.readouterr().err


class TestStatsExposition:
    def test_prom_output_parses(self, graph_tsv, capsys):
        from repro.obs.expose import parse_prometheus_text

        assert main(["stats", graph_tsv, "--prom"]) == 0
        samples = parse_prometheus_text(capsys.readouterr().out)
        assert samples[("repro_dbsim_table_entries_written",
                        (("table", "A"),))] == 12
