"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.plan.columns import ColumnType
from repro.scope.catalog import Catalog
from repro.scope.statistics import catalog_to_json

S1_TEXT = """
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) AS S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) AS S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) AS S1 FROM R GROUP BY B,C;
OUTPUT R1 TO "result1.out";
OUTPUT R2 TO "result2.out";
"""


@pytest.fixture
def workspace(tmp_path):
    script = tmp_path / "s1.scope"
    script.write_text(S1_TEXT)
    catalog = Catalog()
    catalog.register_file(
        "test.log",
        [(c, ColumnType.INT) for c in ("A", "B", "C", "D")],
        rows=10_000,
        ndv={"A": 8, "B": 6, "C": 9, "D": 500},
    )
    catalog_path = tmp_path / "catalog.json"
    catalog_path.write_text(catalog_to_json(catalog))
    return str(script), str(catalog_path)


class TestExplain:
    def test_text_output(self, workspace, capsys):
        script, catalog = workspace
        code = main(["explain", script, "--catalog", catalog,
                     "--machines", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "total cost (DAG)" in out
        assert "phase-2 rounds" in out

    def test_json_output(self, workspace, capsys):
        script, catalog = workspace
        assert main(["explain", script, "--catalog", catalog, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["operator"] == "Sequence"

    def test_dot_output(self, workspace, capsys):
        script, catalog = workspace
        assert main(["explain", script, "--catalog", catalog, "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_no_cse_flag(self, workspace, capsys):
        script, catalog = workspace
        assert main(["explain", script, "--catalog", catalog,
                     "--no-cse"]) == 0
        out = capsys.readouterr().out
        assert "shared spools" not in out


class TestCompare:
    def test_shows_both_plans(self, workspace, capsys):
        script, catalog = workspace
        assert main(["compare", script, "--catalog", catalog]) == 0
        out = capsys.readouterr().out
        assert "conventional plan" in out
        assert "ratio" in out


class TestRun:
    def test_executes_and_verifies(self, workspace, capsys):
        script, catalog = workspace
        code = main(["run", script, "--catalog", catalog, "--machines", "3",
                     "--rows", "1500", "--show-rows", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified: results identical" in out
        assert "result1.out" in out

    def test_run_without_cse(self, workspace):
        script, catalog = workspace
        assert main(["run", script, "--catalog", catalog,
                     "--rows", "800", "--no-cse"]) == 0


class TestRunScheduler:
    def test_workers_flag_uses_scheduler(self, workspace, capsys):
        script, catalog = workspace
        code = main(["run", script, "--catalog", catalog, "--machines", "3",
                     "--rows", "900", "--workers", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scheduler, 4 workers" in out
        assert "--- vertices ---" in out
        assert "V00:" in out
        assert "verified: results identical" in out

    def test_sequential_run_prints_no_vertex_table(self, workspace, capsys):
        script, catalog = workspace
        assert main(["run", script, "--catalog", catalog, "--machines", "3",
                     "--rows", "900"]) == 0
        out = capsys.readouterr().out
        assert "sequential executor" in out
        assert "--- vertices ---" not in out

    def test_fault_injection_converges(self, workspace, capsys):
        script, catalog = workspace
        code = main(["run", script, "--catalog", catalog, "--machines", "3",
                     "--rows", "900", "--workers", "4",
                     "--inject-failures", "0.3", "--failure-seed", "5",
                     "--max-retries", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault rate 0.3" in out
        assert "verified: results identical" in out

    def test_retry_exhaustion_is_a_clean_cli_error(self, workspace, capsys):
        script, catalog = workspace
        code = main(["run", script, "--catalog", catalog, "--machines", "3",
                     "--rows", "900", "--workers", "2",
                     "--inject-failures", "1.0", "--max-retries", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: vertex V" in err
        assert "failed after 2 attempt(s)" in err


class TestColumnarExecutor:
    def test_run_verifies_vs_oracle(self, workspace, capsys):
        script, catalog = workspace
        code = main(["run", script, "--catalog", catalog, "--machines", "3",
                     "--rows", "1200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified: results identical" in out

    def test_scheduler_with_faults(self, workspace, capsys):
        script, catalog = workspace
        code = main(["run", script, "--catalog", catalog, "--machines", "3",
                     "--rows", "900", "--workers", "4",
                     "--inject-failures", "0.3", "--failure-seed", "5",
                     "--max-retries", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified: results identical" in out

    def test_explain_exec_sequential(self, workspace, capsys):
        script, catalog = workspace
        code = main(["run", script, "--catalog", catalog, "--machines", "3",
                     "--rows", "600", "--explain-exec"])
        assert code == 0
        out = capsys.readouterr().out
        assert "--- execution batches ---" in out
        assert "batches processed: " in out
        # Sequential runs have no vertex stats.
        assert "per-vertex batches:" not in out

    def test_explain_exec_scheduler_lists_vertices(self, workspace, capsys):
        script, catalog = workspace
        code = main(["run", script, "--catalog", catalog, "--machines", "3",
                     "--rows", "600", "--workers", "2", "--explain-exec"])
        assert code == 0
        out = capsys.readouterr().out
        assert "batches processed: " in out
        assert "per-vertex batches:" in out
        assert "  V00" in out

    def test_backend_flag_is_gone(self, workspace, capsys):
        script, catalog = workspace
        with pytest.raises(SystemExit):
            main(["run", script, "--catalog", catalog,
                  "--backend", "columnar"])


class TestVerify:
    def test_reports_all_modes_ok(self, workspace, capsys):
        script, catalog = workspace
        assert main(["verify", script, "--catalog", catalog]) == 0
        out = capsys.readouterr().out
        assert "cse/chosen" in out
        assert "conventional/chosen" in out
        assert "plan OK" in out
        assert "INVALID" not in out

    def test_phases_flag_checks_phase_plans(self, workspace, capsys):
        script, catalog = workspace
        assert main(["verify", script, "--catalog", catalog,
                     "--phases"]) == 0
        out = capsys.readouterr().out
        assert "cse/phase1" in out

    def test_json_output(self, workspace, capsys):
        script, catalog = workspace
        assert main(["verify", script, "--catalog", catalog, "--json",
                     "--cse-only"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cse/chosen"]["ok"] is True
        assert data["cse/chosen"]["violations"] == []

    def test_no_cse_checks_only_conventional(self, workspace, capsys):
        script, catalog = workspace
        assert main(["verify", script, "--catalog", catalog,
                     "--no-cse"]) == 0
        out = capsys.readouterr().out
        assert "conventional/chosen" in out
        assert "cse/chosen" not in out


class TestErrors:
    def test_missing_catalog_file(self, workspace, capsys):
        script, _catalog = workspace
        code = main(["explain", script, "--catalog", "/nonexistent.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_script(self, tmp_path, workspace, capsys):
        _script, catalog = workspace
        bad = tmp_path / "bad.scope"
        bad.write_text("THIS IS NOT SCOPE;")
        code = main(["explain", str(bad), "--catalog", catalog])
        assert code == 2

    def test_unknown_relation(self, tmp_path, workspace, capsys):
        _script, catalog = workspace
        bad = tmp_path / "bad2.scope"
        bad.write_text('OUTPUT nope TO "x";')
        assert main(["explain", str(bad), "--catalog", catalog]) == 2


S2_TEXT = """
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) AS S FROM R0 GROUP BY A,B,C;
R3 = SELECT A,C,Sum(S) AS S2 FROM R GROUP BY A,C;
OUTPUT R3 TO "result3.out";
"""


@pytest.fixture
def batch_workspace(tmp_path, workspace):
    script1, catalog = workspace
    script2 = tmp_path / "s2.scope"
    script2.write_text(S2_TEXT)
    return script1, str(script2), catalog


class TestServe:
    def test_second_pass_hits_the_cache(self, batch_workspace, capsys):
        script1, script2, catalog = batch_workspace
        code = main(["serve", script1, script2, "--catalog", catalog,
                     "--machines", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("] miss") == 2
        assert out.count("] hit") == 2
        assert "cache_hits: 2" in out
        assert "optimizations: 2" in out

    def test_stats_json_artifact(self, batch_workspace, tmp_path, capsys):
        script1, script2, catalog = batch_workspace
        stats_path = tmp_path / "cache-metrics.json"
        code = main(["serve", script1, script2, "--catalog", catalog,
                     "--machines", "4", "--repeat", "3",
                     "--stats-json", str(stats_path)])
        assert code == 0
        doc = json.loads(stats_path.read_text())
        assert doc["submits"] == 6
        assert doc["cache_hits"] == 4
        assert doc["cache_misses"] == doc["optimizations"] == 2
        assert doc["cache_lookups"] == doc["cache_hits"] + \
            doc["cache_misses"]

    def test_cache_capacity_forces_evictions(self, batch_workspace,
                                             capsys):
        script1, script2, catalog = batch_workspace
        code = main(["serve", script1, script2, "--catalog", catalog,
                     "--machines", "4", "--cache-capacity", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cache_evictions: 3" in out
        assert "cache_hits: 0" in out


class TestServeStream:
    def test_streaming_admission_serves_all_tenants(
            self, batch_workspace, tmp_path, capsys):
        script1, script2, catalog = batch_workspace
        stats_path = tmp_path / "admission-metrics.json"
        code = main(["serve", script1, script2, "--catalog", catalog,
                     "--machines", "4", "--stream", "--tenants", "3",
                     "--repeat", "2", "--window-ms", "20",
                     "--rows", "500", "--workers", "2",
                     "--stats-json", str(stats_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 tenant(s) x 2 pass(es) x 2 script(s): 12 served" in out
        assert "0 failed" in out
        assert "--- admission counters ---" in out
        doc = json.loads(stats_path.read_text())
        assert doc["submits"] == 12
        assert doc["accepted"] + doc["deduped"] == 12
        assert doc["rejected"] == 0
        assert doc["failed_groups"] == 0
        assert doc["executed_scripts"] == doc["accepted"]
        assert doc["queue_depth"] == 0

    def test_streaming_with_fault_injection_converges(
            self, batch_workspace, capsys):
        script1, script2, catalog = batch_workspace
        code = main(["serve", script1, script2, "--catalog", catalog,
                     "--machines", "4", "--stream", "--tenants", "2",
                     "--repeat", "1", "--window-ms", "20",
                     "--rows", "500", "--workers", "2",
                     "--inject-failures", "0.05", "--failure-seed", "11"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 failed" in out


class TestBatch:
    def test_batched_execution_shares_work(self, batch_workspace, capsys):
        script1, script2, catalog = batch_workspace
        code = main(["batch", script1, script2, "--catalog", catalog,
                     "--machines", "4", "--workers", "2",
                     "--rows", "800"])
        assert code == 0
        out = capsys.readouterr().out
        assert "merged 2 script(s) (q0, q1)" in out
        assert "cross-script shared vertices (executed once)" in out
        assert "launches=1" in out
        assert "q0/result1.out" in out
        assert "q1/result3.out" in out

    def test_labels_and_sequential_executor(self, batch_workspace, capsys):
        script1, script2, catalog = batch_workspace
        code = main(["batch", script1, script2, "--catalog", catalog,
                     "--machines", "4", "--workers", "0",
                     "--rows", "500", "--labels", "left,right",
                     "--show-rows", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "left/result1.out" in out
        assert "right/result3.out" in out

    def test_batch_with_explain_exec(self, batch_workspace, capsys):
        script1, script2, catalog = batch_workspace
        code = main(["batch", script1, script2, "--catalog", catalog,
                     "--machines", "4", "--workers", "2", "--rows", "800",
                     "--explain-exec"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cross-script shared vertices (executed once)" in out
        assert "batches processed: " in out
        assert "per-vertex batches:" in out

    def test_bad_label_count_is_a_clean_error(self, batch_workspace,
                                              capsys):
        script1, script2, catalog = batch_workspace
        code = main(["batch", script1, script2, "--catalog", catalog,
                     "--labels", "only-one"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestFigure7Command:
    def test_subset(self, capsys):
        assert main(["figure7", "--scripts", "S1"]) == 0
        out = capsys.readouterr().out
        assert "S1" in out
        assert "paper" in out


class TestCseSummary:
    def test_summary_text(self, workspace):
        from repro.api import optimize_script
        from repro.scope.statistics import catalog_from_json

        script_path, catalog_path = workspace
        with open(catalog_path) as handle:
            catalog = catalog_from_json(handle.read())
        with open(script_path) as handle:
            text = handle.read()
        result = optimize_script(text, catalog)
        summary = result.cse_summary()
        assert "shared groups: 1" in summary
        assert "LCA group" in summary
        assert "chosen plan: phase" in summary

    def test_summary_without_cse(self, workspace):
        from repro.api import optimize_script
        from repro.scope.statistics import catalog_from_json

        script_path, catalog_path = workspace
        with open(catalog_path) as handle:
            catalog = catalog_from_json(handle.read())
        with open(script_path) as handle:
            text = handle.read()
        result = optimize_script(text, catalog, exploit_cse=False)
        assert "not run" in result.cse_summary()
