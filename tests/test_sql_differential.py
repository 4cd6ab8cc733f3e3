"""Differential tests: SQL vs SCOPE, and CTE sharing end to end.

Two claims, both load-bearing for the SQL frontend's design:

1. A SQL query and its hand-translated SCOPE twin compile to
   *byte-identical* plans (same ``script_fingerprint``, same normalized
   explain) and produce identical outputs — the desugar-to-SCOPE
   strategy leaves no SQL-shaped residue in the DAG.
2. A CTE referenced N >= 2 times compiles to a shared subexpression
   that is spooled exactly once at execution time (``launches == 1``),
   on both scheduler runtimes, with ``serves`` attributing every
   consumer, and the scheduled run matches the naive oracle.
"""

from __future__ import annotations

import pytest

from repro.api import execute_script, optimize_script
from repro.cse.merge import script_fingerprint
from repro.frontend import compile_text
from repro.naive import NaiveEvaluator
from repro.optimizer.explain import explain_normalized
from repro.service import QueryService
from repro.workloads.starjoin import (
    SCOPE_EQUIVALENTS,
    STARJOIN_QUERIES,
    make_starjoin_catalog,
)


@pytest.fixture(scope="module")
def starjoin():
    return make_starjoin_catalog()


def _sorted_outputs(run):
    return {path: ds.sorted_rows() for path, ds in run.outputs.items()}


class TestScopeTwins:
    """SQL and hand-translated SCOPE compile and run identically."""

    @pytest.mark.parametrize("name", sorted(SCOPE_EQUIVALENTS))
    def test_identical_fingerprint(self, starjoin, name):
        catalog, _ = starjoin
        sql = optimize_script(STARJOIN_QUERIES[name], catalog,
                              dialect="sql")
        scope = optimize_script(SCOPE_EQUIVALENTS[name], catalog,
                                dialect="scope")
        assert script_fingerprint(sql.plan) == script_fingerprint(scope.plan)

    @pytest.mark.parametrize("name", sorted(SCOPE_EQUIVALENTS))
    def test_identical_normalized_plan(self, starjoin, name):
        catalog, _ = starjoin
        sql = optimize_script(STARJOIN_QUERIES[name], catalog,
                              dialect="sql")
        scope = optimize_script(SCOPE_EQUIVALENTS[name], catalog,
                                dialect="scope")
        assert explain_normalized(sql.plan) == explain_normalized(scope.plan)

    @pytest.mark.parametrize("name", sorted(SCOPE_EQUIVALENTS))
    def test_identical_outputs(self, starjoin, name):
        catalog, data = starjoin
        sql_run = execute_script(STARJOIN_QUERIES[name], catalog,
                                 files=data)
        scope_run = execute_script(SCOPE_EQUIVALENTS[name], catalog,
                                   files=data)
        assert _sorted_outputs(sql_run) == _sorted_outputs(scope_run)

    def test_dialects_share_one_cache_entry(self, starjoin):
        """The plan cache keys on the compiled DAG, not the text, so a
        SQL query and its SCOPE twin hit the same entry."""
        catalog, _ = starjoin
        service = QueryService(catalog)
        first = service.submit(STARJOIN_QUERIES["q02_band_revenue"],
                               dialect="sql")
        second = service.submit(SCOPE_EQUIVALENTS["q02_band_revenue"],
                                dialect="scope")
        assert not first.cache_hit
        assert second.cache_hit
        assert first.fingerprint == second.fingerprint


class TestCteSharingMatrix:
    """CTE spooled once on both runtimes."""

    @pytest.mark.parametrize("runtime", ["thread", "process"])
    def test_shared_spool_launches_once(self, starjoin, runtime, tmp_path):
        catalog, data = starjoin
        service = QueryService(catalog)
        kwargs = {}
        if runtime == "process":
            kwargs["spill_dir"] = str(tmp_path)
        run = service.execute(
            STARJOIN_QUERIES["q01_item_channels"], workers=4, files=data,
            runtime=runtime, **kwargs,
        )
        spools = [v for v in run.stage_graph.vertices if v.is_spool]
        assert spools, "CTE consumed by two branches must be spooled"
        for vertex in spools:
            stats = run.metrics.vertices[vertex.name]
            assert stats.launches == 1, (
                f"spool {vertex.name} launched {stats.launches} times "
                f"on runtime={runtime}"
            )

    @pytest.mark.parametrize("workers", [0, 4])
    def test_outputs_match_oracle(self, starjoin, workers):
        catalog, data = starjoin
        text = STARJOIN_QUERIES["q09_big_spenders"]
        run = QueryService(catalog).execute(text, workers=workers,
                                            files=data)
        expected = NaiveEvaluator(data).run(compile_text(text, catalog))
        assert _sorted_outputs(run) == expected


class TestUnaryMinus:
    """Negative literals and ``-expr`` execute as the oracle computes."""

    TEXT = (
        "SELECT CustSk, -Qty AS neg, Net - -1 AS net1 FROM store_sales "
        "WHERE -1 < 0 AND Qty > -3 AND -Qty < -2;"
    )

    @pytest.mark.parametrize("workers", [0, 2])
    def test_matches_oracle(self, starjoin, workers):
        catalog, data = starjoin
        run = execute_script(self.TEXT, catalog, files=data,
                             workers=workers)
        expected = NaiveEvaluator(data).run(compile_text(self.TEXT, catalog))
        assert _sorted_outputs(run) == expected
        (rows,) = expected.values()
        assert rows and all(neg < -2 for _cust, neg, _net in rows)


class TestCrossScriptSharing:
    """The same CTE text in two batched scripts spools once for both."""

    def test_batch_serves_both_queries(self, starjoin):
        catalog, data = starjoin
        service = QueryService(catalog)
        run = service.execute_many(
            [
                STARJOIN_QUERIES["q02_band_revenue"],
                STARJOIN_QUERIES["q07_band_units"],
            ],
            workers=4, files=data,
        )
        shared = run.shared_vertices()
        assert shared, "q02+q07 share the band_sales CTE verbatim"
        spools = [v for v in shared if v.is_spool]
        assert spools, "the shared CTE must be spooled, not recomputed"
        for vertex in spools:
            labels = {p.split("/", 1)[0] for p in vertex.serves}
            assert labels == {"q0", "q1"}, (
                f"spool {vertex.name} serves {sorted(vertex.serves)}; "
                "must attribute both consumers"
            )
            stats = run.metrics.vertices[vertex.name]
            assert stats.launches == 1

    def test_batch_outputs_match_independent_runs(self, starjoin):
        catalog, data = starjoin
        service = QueryService(catalog)
        batch = service.execute_many(
            [
                STARJOIN_QUERIES["q02_band_revenue"],
                STARJOIN_QUERIES["q07_band_units"],
            ],
            workers=4, files=data,
        )
        for text, outputs in zip(
            ["q02_band_revenue", "q07_band_units"], batch.outputs
        ):
            alone = execute_script(STARJOIN_QUERIES[text], catalog,
                                   files=data)
            batched = {p: ds.sorted_rows() for p, ds in outputs.items()}
            assert batched == _sorted_outputs(alone)

    def test_mixed_dialect_batch_coalesces(self, starjoin):
        """A SCOPE twin batched with its SQL original dedupes to one
        merged consumer (admission dedup keys on the compiled DAG)."""
        catalog, data = starjoin
        service = QueryService(catalog)
        sql_plan = service._compile(
            STARJOIN_QUERIES["q02_band_revenue"], "sql"
        )
        scope_plan = service._compile(
            SCOPE_EQUIVALENTS["q02_band_revenue"], "scope"
        )
        run = service.execute_many(
            [
                STARJOIN_QUERIES["q02_band_revenue"],
                SCOPE_EQUIVALENTS["q02_band_revenue"],
            ],
            workers=4, files=data,
            precompiled=[sql_plan, scope_plan],
        )
        first, second = (
            {p: ds.sorted_rows() for p, ds in outputs.items()}
            for outputs in run.outputs
        )
        assert first == second
