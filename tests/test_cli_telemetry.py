"""CLI telemetry surface: serve --metrics-*, repro top, run --stats-json.

End-to-end through ``repro.cli.main``: a streaming serve writes a
metrics snapshot and serves ``/metrics`` + ``/healthz`` over HTTP;
``repro top`` renders the dashboard from both the file and the live
endpoint; ``repro run --stats-json`` exports the flat execution
metrics.  The dashboard renderer itself is golden-tested on a
hand-built snapshot so its layout is pinned without real timing.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.cli import main
from repro.obs import MetricsCollector
from repro.obs.bus import ObsEvent
from repro.obs.top import render_dashboard
from repro.plan.columns import ColumnType
from repro.scope.catalog import Catalog
from repro.scope.statistics import catalog_to_json
from repro.service import ManualClock

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


class TestServeMetrics:
    def test_metrics_out_then_top(self, workspace, tmp_path, capsys):
        script, catalog = workspace
        snap = str(tmp_path / "metrics.json")
        code = main(["serve", script, "--catalog", catalog, "--stream",
                     "--tenants", "2", "--repeat", "2", "--rows", "200",
                     "--window-ms", "20", "--machines", "4",
                     "--metrics-out", snap])
        assert code == 0
        out = capsys.readouterr().out
        assert f"metrics snapshot written to {snap}" in out

        doc = json.load(open(snap))
        assert doc["version"] == 1
        slo = doc["slo"]["tenants"]
        assert sorted(slo) == ["t0", "t1"]
        assert all(row["requests"] == 2 for row in slo.values())

        assert main(["top", snap]) == 0
        dashboard = capsys.readouterr().out
        assert "--- tenants (SLO: latency objective + burn) ---" in dashboard
        assert "t0" in dashboard and "t1" in dashboard
        assert "--- submit latency (all tenants) ---" in dashboard

    def test_metrics_port_serves_http(self, workspace, tmp_path, capsys):
        script, catalog = workspace
        # Non-stream serve with an ephemeral port: scrape it afterwards
        # via repro top pointed at the printed URL — the linger keeps
        # the endpoint alive only as long as the command runs, so here
        # we exercise the in-process path.
        snap = str(tmp_path / "m.json")
        code = main(["serve", script, "--catalog", catalog,
                     "--repeat", "2", "--machines", "4",
                     "--metrics-out", snap])
        assert code == 0
        doc = json.load(open(snap))
        submits = doc["metrics"]["repro_submits_total"]["samples"]
        assert {s["labels"]["op"] for s in submits} == {"hit", "optimize"}
        assert doc["derived"]["cache_hit_ratio"] == 0.5

    def test_healthz_and_metrics_live(self, workspace):
        """Hit the real HTTP endpoint while a service is measured."""
        from repro.obs import MetricsServer
        from repro.optimizer.cost import CostParams
        from repro.optimizer.engine import OptimizerConfig
        from repro.scope.statistics import catalog_from_json
        from repro.service import QueryService

        script, catalog_path = workspace
        catalog = catalog_from_json(open(catalog_path).read())
        service = QueryService(
            catalog,
            OptimizerConfig(cost_params=CostParams(machines=4)),
            metrics=True)
        service.submit(S1_TEXT)
        with MetricsServer(service.metrics_collector,
                           health=service.health) as server:
            with urllib.request.urlopen(server.url + "/metrics",
                                        timeout=10) as response:
                text = response.read().decode()
            assert 'repro_submits_total{op="optimize"} 1' in text
            with urllib.request.urlopen(server.url + "/healthz",
                                        timeout=10) as response:
                assert response.status == 200
            # repro top straight off the live endpoint
            assert main(["top", server.url]) == 0

    def test_top_on_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_top_on_invalid_snapshot_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["top", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestRunStatsJson:
    def test_flat_metrics_export(self, workspace, tmp_path, capsys):
        script, catalog = workspace
        stats = str(tmp_path / "stats.json")
        code = main(["run", script, "--catalog", catalog,
                     "--rows", "300", "--workers", "2",
                     "--machines", "4", "--stats-json", stats])
        assert code == 0
        doc = json.load(open(stats))
        assert doc["rows_extracted"] == 300
        assert any(key.startswith("operator.") for key in doc)
        assert doc["batches_processed"] > 0
        assert "vertices" in doc
        for stats_row in doc["vertices"].values():
            assert {"launches", "rows_in", "rows_out"} <= set(stats_row)


# -- dashboard golden --------------------------------------------------------

def _dashboard_collector() -> MetricsCollector:
    """A deterministic collector fed synthetic events on a manual
    clock — the golden pins the full dashboard layout."""
    clock = ManualClock()
    collector = MetricsCollector(clock=clock)

    def emit(kind, **attrs):
        collector(ObsEvent.make(kind, **attrs))

    emit("service.submit", op="optimize")
    emit("service.submit", op="hit")
    emit("service.cache", op="miss")
    emit("service.cache", op="hit")
    emit("service.admission.queue_depth", depth=3)
    emit("service.admission.queue_depth", depth=1)
    emit("service.admission.window_flush", trigger="window", scripts=3)
    emit("service.admission.window_flush", trigger="threshold", scripts=8)
    emit("service.admission.resolve", tenant="alice", latency=0.05,
         ok=True, window=0)
    emit("service.admission.resolve", tenant="alice", latency=0.2,
         ok=True, window=1)
    emit("service.admission.resolve", tenant="bob", latency=2.0,
         ok=False, window=1)
    emit("service.admission.savings", tenant="alice", window=1,
         vertices=2, rows_saved=1500.0)
    emit("service.admission.dedup", tenant="bob", fingerprint="ff",
         joined_tenant="alice")
    return collector


GOLDEN_DASHBOARD = """\
=== repro top  (snapshot at t=0.000s) ===
queue depth: 1 (max 3)   cache hit ratio: 50.0%

--- tenants (SLO: latency objective + burn) ---
tenant          req     p50     p95     p99  breach   compl   burn
------------------------------------------------------------------
alice             2    64ms   256ms   256ms       0  100.0%   0.00
bob               1   2.05s   2.05s   2.05s       1    0.0% 100.00 !

--- shared-work savings ---
tenant       shared vtx  rows saved dedup saved
-----------------------------------------------
alice                 2       1,500           0
bob                   0           0           1

--- submit latency (all tenants) ---
  <=     64ms         1  ##############################
  <=    256ms         1  ##############################
  <=    2.05s         1  ##############################

--- window flush sizes ---
  <=        4         1  ##############################
  <=        8         1  ##############################

--- service submissions ---
  hit                  1
  optimize             1

--- window flushes by trigger ---
  threshold            1
  window               1
"""


def test_dashboard_golden():
    text = render_dashboard(_dashboard_collector().snapshot())
    assert text == GOLDEN_DASHBOARD


def test_dashboard_empty_snapshot():
    clock = ManualClock()
    text = render_dashboard(MetricsCollector(clock=clock).snapshot())
    assert "(no tenants resolved yet)" in text
    assert "(no shared work recorded)" in text
    assert "(no observations)" in text
    assert "cache hit ratio: n/a" in text
