"""Tests for the repro-paper command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "3"])  # no Fig. 3 in the paper

    def test_table_choices(self):
        args = build_parser().parse_args(["table", "2"])
        assert args.number == 2


class TestCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "SMP12E5" in out and "SMP20E7" in out

    def test_topology(self, capsys):
        assert main(["topology", "SMP20E7-4S", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "NUMANode" in out
        assert "PU" not in out  # depth-limited

    def test_topology_unknown_machine(self, capsys):
        assert main(["topology", "CRAY-1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_topology_negative_depth(self, capsys):
        assert main(["topology", "SMP12E5", "--depth", "-1"]) == 2
        assert "max_depth" in capsys.readouterr().err

    def test_comm_matrix(self, capsys):
        assert main(["comm-matrix"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) > 30

    def test_allocation(self, capsys):
        assert main(["allocation"]) == 0
        out = capsys.readouterr().out
        assert "reserved for control" in out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "NUMAlink" in capsys.readouterr().out

    def test_dfg_emits_dot(self, capsys):
        assert main(["dfg"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "tracking" in out

    def test_fig4_tiny_scale(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["fig", "4", "--machine", "SMP20E7"]) == 0
        out = capsys.readouterr().out
        assert "ORWL (affinity)" in out
        assert "128" in out  # the machine's largest core count

    def test_table2_tiny_scale(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["table", "2"]) == 0
        assert "CPU migrations" in capsys.readouterr().out


class TestJsonOutput:
    def test_machines_json(self, capsys):
        import json

        assert main(["machines", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {r["name"]: r for r in rows}
        assert by_name["SMP12E5"]["pus"] == 192
        assert by_name["SMP12E5"]["hyperthreading"] is True

    def test_table1_json(self, capsys):
        import json

        assert main(["table", "1", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert isinstance(rows, list) and rows
        assert all(isinstance(r, dict) for r in rows)

    def test_table2_json_tiny_scale(self, capsys, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["table", "2", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {"variant", "cpu_migrations"} <= set(rows[0])


class TestMapCommand:
    def test_map_small_prints_binding_table(self, capsys):
        assert main(["map", "--machine", "SMP12E5", "--threads", "16"]) == 0
        out = capsys.readouterr().out
        assert "16 stencil threads on SMP12E5" in out
        assert "PU " in out  # full binding table for small runs

    def test_map_ring_greedy_no_refine(self, capsys):
        assert main(["map", "--threads", "128", "--pattern", "ring",
                     "--engine", "greedy", "--no-refine"]) == 0
        out = capsys.readouterr().out
        assert "engine=greedy refine=False" in out
        assert "per-PU table suppressed" in out

    def test_map_oversubscribed(self, capsys):
        # 200 threads on SMP20E7's 160 PUs -> factor 2 via a virtual level.
        assert main(["map", "--threads", "200"]) == 0
        assert "oversubscription=2x" in capsys.readouterr().out

    def test_map_json_round_trips_placement(self, capsys):
        import json

        from repro.treematch.mapping import Placement

        assert main(["map", "--threads", "12", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["threads"] == 12 and doc["pattern"] == "stencil"
        assert doc["cost"] >= 0 and doc["seconds"] >= 0
        pl = Placement.from_dict(doc["placement"])
        assert sorted(pl.thread_to_pu) == list(range(12))
        assert pl.groups_per_level

    @pytest.mark.parametrize("threads", [64, 4096])
    def test_map_ring_json_as_from_the_edge_dict(self, capsys, monkeypatch,
                                                 threads):
        """``--pattern ring`` builds its matrix with
        ``CommunicationMatrix.ring``; its output, ``seconds`` aside, is
        the one the ``{(i, (i + 1) % n): 100.0}`` dict it used to parse
        gives."""
        import json

        from repro.treematch.commmatrix import CommunicationMatrix

        def ring_json():
            assert main(["map", "--threads", str(threads), "--pattern",
                         "ring", "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            del doc["seconds"]
            return doc

        got = ring_json()

        def edge_dict_ring(n):
            edges = {(i, (i + 1) % n): 100.0 for i in range(n)}
            return CommunicationMatrix.from_edges(n, edges)

        monkeypatch.setattr(CommunicationMatrix, "ring", edge_dict_ring)
        assert got == ring_json()

    def test_map_unknown_machine(self, capsys):
        assert main(["map", "--machine", "CRAY-1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_map_forced_optimal_too_large_exits_fast(self):
        # 5 threads pad to SMP20E7's 160 PUs: an exhaustive grouping of
        # that level would never return, so the CLI must refuse it.
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "map", "--threads", "5",
             "--engine", "optimal"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2
        assert "OPTIMAL_SEARCH_LIMIT" in proc.stderr
        assert "160 processes into groups of 8" in proc.stderr

    @pytest.mark.parametrize("route", [
        ["--threads", "9000"],                            # auto cutover
        ["--threads", "128", "--strategy", "multilevel"],  # explicit
    ], ids=["auto", "explicit"])
    @pytest.mark.parametrize("flag", [["--engine", "greedy"], ["--no-refine"]],
                             ids=["engine", "no-refine"])
    def test_map_greedy_flags_rejected_on_multilevel(self, capsys, route,
                                                     flag):
        assert main(["map", *route, *flag, "--json"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert f"{flag[0]} only applies to the greedy strategy" in captured.err


class TestJobsOption:
    @pytest.mark.parametrize("argv", [
        ["fig", "4", "--jobs", "-1"],
        ["table", "2", "--jobs", "-1"],
    ], ids=["fig", "table"])
    def test_negative_jobs_rejected(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert "n_jobs must be >= 0, got -1" in captured.err


class TestLintCommand:
    def test_lint_needs_app_or_all(self, capsys):
        assert main(["lint"]) == 2
        assert ("lint needs an app name, --all or --hotlint"
                in capsys.readouterr().err)

    def test_lint_unknown_app(self, capsys):
        assert main(["lint", "nosuch"]) == 2
        assert "unknown app" in capsys.readouterr().err

    def test_lint_matmul_clean_exit_zero(self, capsys):
        assert main(["lint", "matmul"]) == 0
        out = capsys.readouterr().out
        assert "clean (no findings)" in out
        assert "migrations provably zero: yes" in out

    def test_lint_all_exit_zero(self, capsys):
        assert main(["lint", "--all"]) == 0
        out = capsys.readouterr().out
        for app in ("lk23", "matmul", "video"):
            assert f"analysis of {app}" in out

    def test_lint_json(self, capsys):
        import json

        assert main(["lint", "lk23", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "repro-analyze/1"
        assert doc["program"] == "lk23"
        assert doc["summary"]["errors"] == 0
        assert doc["migrations_provably_zero"] is True

    def test_lint_error_findings_exit_three(self, capsys, monkeypatch):
        # Register a broken program and check the CI exit-code contract.
        from repro.analyze import apps as apps_mod
        from tests.badprograms import cyclic

        monkeypatch.setitem(apps_mod.APP_BUILDERS, "cyclic", cyclic.build)
        assert main(["lint", "cyclic"]) == 3
        assert "deadlock-cycle" in capsys.readouterr().out

    def test_lint_hb_summary_line(self, capsys):
        assert main(["lint", "matmul", "--hb"]) == 0
        assert "happens-before replay:" in capsys.readouterr().out

    def test_lint_hotlint_clean(self, capsys):
        assert main(["lint", "--hotlint"]) == 0
        assert "analysis of hotlint" in capsys.readouterr().out

    def test_lint_sanitize_reports_clean_checks(self, capsys):
        assert main(["lint", "matmul", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer-clean" in out
        assert "invariant check(s) held" in out

    def test_lint_sarif_document(self, capsys):
        import json

        assert main(["lint", "matmul", "--hotlint", "--sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert len(doc["runs"]) == 1
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-analyze"

    def test_lint_openmp_app_dynamic(self, capsys):
        assert main(["lint", "omp-dgemm", "--dynamic"]) == 0
        out = capsys.readouterr().out
        assert "omp-regions-balanced" in out
        assert "migrations-zero-confirmed" in out
