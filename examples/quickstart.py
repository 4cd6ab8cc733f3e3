"""Quickstart: the paper's motivating script S1, end to end.

Runs the script from Section I of the paper through both optimizers,
prints the two plans of Figure 8, executes them on the simulated
cluster, and verifies they produce identical results.

    python examples/quickstart.py
"""

from repro import Catalog, ColumnType, optimize_script
from repro.exec import Cluster, ColumnarExecutor
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.workloads.datagen import generate_for_catalog

SCRIPT = """
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) AS S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) AS S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) AS S1 FROM R GROUP BY B,C;
OUTPUT R1 TO "result1.out";
OUTPUT R2 TO "result2.out";
"""

MACHINES = 4


def main() -> None:
    # 1. Register the input file and its statistics in the catalog.
    catalog = Catalog()
    catalog.register_file(
        "test.log",
        [(name, ColumnType.INT) for name in ("A", "B", "C", "D")],
        rows=20_000,
        ndv={"A": 10, "B": 8, "C": 12, "D": 500},
    )
    config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))

    # 2. Optimize conventionally and with common-subexpression support.
    conventional = optimize_script(SCRIPT, catalog, config, exploit_cse=False)
    extended = optimize_script(SCRIPT, catalog, config, exploit_cse=True)

    print("=== Conventional plan (Figure 8(a): pipeline runs twice) ===")
    print(conventional.plan.pretty())
    print("=== CSE plan (Figure 8(b): shared spool, one repartition) ===")
    print(extended.plan.pretty())
    saving = 100 * (1 - extended.cost / conventional.cost)
    print(f"estimated cost: {conventional.cost:,.0f} -> {extended.cost:,.0f} "
          f"({saving:.0f}% lower)\n")

    # 3. Execute both plans on the simulated cluster and compare.
    files = generate_for_catalog(catalog, seed=1)
    results = {}
    for label, plan in (("conventional", conventional.plan),
                        ("cse", extended.plan)):
        cluster = Cluster(machines=MACHINES)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        executor = ColumnarExecutor(cluster, validate=True)
        outputs = executor.execute(plan)
        results[label] = {
            path: data.sorted_rows() for path, data in outputs.items()
        }
        print(f"--- measured execution ({label}) ---")
        print(executor.metrics.summary())
        print()

    assert results["conventional"] == results["cse"]
    print("both plans produced identical results "
          f"({sum(len(r) for r in results['cse'].values())} output rows)")


if __name__ == "__main__":
    main()
