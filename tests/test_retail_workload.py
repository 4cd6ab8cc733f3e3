"""Integration tests on the retail workload (joins + CSE + histograms)."""

import pytest

from repro.api import optimize_script
from repro.exec import Cluster, ColumnarExecutor
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.plan.physical import PhysSpool
from repro.scope.compiler import compile_script
from repro.workloads.retail import (
    REPORT_SCRIPT,
    generate_retail_data,
    make_retail_catalog,
)

MACHINES = 4


@pytest.fixture(scope="module")
def retail():
    catalog, data = make_retail_catalog(seed=5)
    return catalog, data


@pytest.fixture
def warehouse_catalog():
    """The same schema at warehouse scale (estimation only).

    At the few-thousand-row execution scale recomputing the shared join
    is genuinely cheaper than materializing it — the cost-based sharing
    decision correctly skips the spool there — so the sharing assertions
    use production-sized statistics.
    """
    from repro.plan.columns import ColumnType
    from repro.scope.catalog import Catalog

    catalog = Catalog()
    catalog.register_file(
        "sales.log",
        [(c, ColumnType.INT)
         for c in ("OrderId", "CustId", "ProdId", "Qty", "Price")],
        rows=200_000_000,
        ndv={"OrderId": 200_000_000, "CustId": 50_000, "ProdId": 200,
             "Qty": 100, "Price": 5_000},
    )
    catalog.register_file(
        "customers.log",
        [(c, ColumnType.INT) for c in ("CustId", "Segment", "Nation")],
        rows=50_000,
        ndv={"CustId": 50_000, "Segment": 5, "Nation": 30},
    )
    catalog.register_file(
        "products.log",
        [(c, ColumnType.INT) for c in ("ProdId", "Category", "Cost")],
        rows=200,
        ndv={"ProdId": 200, "Category": 50, "Cost": 100},
    )
    return catalog


def optimize(catalog, exploit_cse=True):
    config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
    return optimize_script(REPORT_SCRIPT, catalog, config,
                           exploit_cse=exploit_cse)


class TestSharing:
    def test_shared_groups_found(self, retail):
        catalog, _data = retail
        result = optimize(catalog)
        report = result.details.report
        # Enriched is explicitly shared; the duplicated per-customer
        # revenue query is found by fingerprints and merged.
        assert len(report.shared_groups) >= 2
        assert report.merged, "the textual duplicate must be merged"

    def test_cse_cheaper_at_warehouse_scale(self, warehouse_catalog):
        base = optimize(warehouse_catalog, exploit_cse=False)
        ext = optimize(warehouse_catalog, exploit_cse=True)
        assert ext.cost < base.cost

    def test_big_shared_intermediate_materialized(self, warehouse_catalog):
        result = optimize(warehouse_catalog)
        assert result.plan.find_all(PhysSpool)

    def test_tiny_data_recomputes_instead_of_spooling(self, retail):
        """At execution scale the cost-based sharing decision correctly
        refuses to materialize the cheap intermediates, and the result
        is never worse than the conventional plan."""
        catalog, _data = retail
        base = optimize(catalog, exploit_cse=False)
        ext = optimize(catalog, exploit_cse=True)
        assert ext.cost <= base.cost * (1 + 1e-9)


class TestCorrectness:
    @pytest.mark.parametrize("exploit_cse", [False, True])
    def test_all_reports_match_oracle(self, retail, exploit_cse):
        catalog, data = retail
        result = optimize(catalog, exploit_cse=exploit_cse)
        cluster = Cluster(machines=MACHINES)
        for path, rows in data.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        expected = NaiveEvaluator(data).run(
            compile_script(REPORT_SCRIPT, catalog)
        )
        assert set(outputs) == set(expected)
        for path, want in expected.items():
            assert outputs[path].sorted_rows() == want, path

    def test_sorted_report_is_ordered(self, retail):
        catalog, data = retail
        result = optimize(catalog)
        cluster = Cluster(machines=MACHINES)
        for path, rows in data.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        segments = [
            row["Segment"]
            for part in outputs["by_segment.out"].partitions
            for row in part
        ]
        assert segments == sorted(segments)

    def test_left_join_keeps_discontinued_products(self, retail):
        catalog, data = retail
        expected = NaiveEvaluator(data).run(
            compile_script(REPORT_SCRIPT, catalog)
        )
        nations = expected["by_nation.out"]
        # Discontinued products appear with a NULL category.
        assert any(row[1] is None for row in nations)


class TestHistogramDrivenEstimation:
    def test_big_orders_selectivity_from_histogram(self, retail):
        """``Qty > 40`` over the skewed exponential distribution is far
        from the 1/3 magic constant; the histogram estimate must track
        the true fraction."""
        catalog, data = retail
        true_fraction = sum(
            1 for row in data["sales.log"] if row["Qty"] > 40
        ) / len(data["sales.log"])
        hist = catalog.lookup("sales.log").histograms["Qty"]
        from repro.plan.expressions import BinaryOp

        estimate = hist.selectivity(BinaryOp.GT, 40)
        assert estimate == pytest.approx(true_fraction, abs=0.03)
        assert abs(estimate - 1 / 3) > 0.15  # the default would be way off
