"""Retail analytics: statistics from data, joins, CSE, sorted reports.

The closest thing to a production workflow the simulator supports:

1. generate a star-schema dataset (sales facts, customer and product
   dimensions, skewed quantities);
2. collect exact statistics — including equi-depth histograms — from
   the data itself (``register_data``);
3. optimize a five-report script whose queries share a pre-aggregated,
   dimension-enriched fact table (plus a copy-pasted duplicate query
   the fingerprint step finds);
4. execute on the simulated cluster, verify against the naive oracle,
   and print the per-report results.

    python examples/retail_report.py
"""

from repro.api import optimize_script
from repro.exec import Cluster, ColumnarExecutor
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.optimizer.explain import cost_breakdown
from repro.plan.expressions import BinaryOp
from repro.scope.compiler import compile_script
from repro.workloads.retail import REPORT_SCRIPT, make_retail_catalog

MACHINES = 4


def main() -> None:
    catalog, data = make_retail_catalog(seed=11)
    sales = catalog.lookup("sales.log")
    print(f"collected statistics from data: {sales.rows:,} sales rows, "
          f"ndv(CustId)={sales.ndv_of('CustId')}, "
          f"{len(sales.histograms)} histograms")
    qty_hist = sales.histograms["Qty"]
    print(f"histogram says P(Qty > 40) = "
          f"{qty_hist.selectivity(BinaryOp.GT, 40):.3f} "
          f"(the magic-constant default would be 0.333)\n")

    config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
    conventional = optimize_script(REPORT_SCRIPT, catalog, config,
                                   exploit_cse=False)
    extended = optimize_script(REPORT_SCRIPT, catalog, config)
    report = extended.details.report
    print(f"common subexpressions: {len(report.shared_groups)} shared "
          f"groups ({len(report.merged)} textual duplicate(s) merged)")
    print(f"estimated cost: {conventional.cost:,.0f} -> {extended.cost:,.0f}")
    for category, value in sorted(cost_breakdown(extended.plan).items(),
                                  key=lambda kv: -kv[1]):
        print(f"  {category:<10}{value:>14,.0f}")
    print()

    cluster = Cluster(machines=MACHINES)
    for path, rows in data.items():
        cluster.load_file(path, rows)
    executor = ColumnarExecutor(cluster, validate=True)
    outputs = executor.execute(extended.plan)

    expected = NaiveEvaluator(data).run(compile_script(REPORT_SCRIPT, catalog))
    assert all(
        outputs[path].sorted_rows() == rows for path, rows in expected.items()
    ), "optimized plan diverged from the reference evaluation"

    print("=== reports (verified against the naive oracle) ===")
    for path in sorted(outputs):
        data_out = outputs[path]
        print(f"{path}: {data_out.total_rows()} rows")
        for row in data_out.sorted_rows()[:3]:
            print(f"   {row}")
    print("\n--- execution metrics ---")
    print(executor.metrics.summary())


if __name__ == "__main__":
    main()
