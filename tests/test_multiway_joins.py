"""Multi-relation FROM clauses (left-deep join trees) end to end."""

import pytest

from repro.api import optimize_script
from repro.exec import Cluster, ColumnarExecutor
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.plan.columns import ColumnType
from repro.plan.logical import LogicalJoin
from repro.scope.catalog import Catalog
from repro.scope.compiler import compile_script
from repro.scope.errors import ResolutionError
from repro.workloads.datagen import generate_for_catalog

THREE_WAY = """
U = EXTRACT UserId,Region FROM "users.log" USING E;
C = EXTRACT UserId,Query,Clicks FROM "clicks.log" USING E;
Q = EXTRACT Query,Vertical FROM "queries.log" USING E;
J = SELECT Region,Vertical,Sum(Clicks) AS N
    FROM C, U, Q
    WHERE C.UserId = U.UserId AND C.Query = Q.Query
    GROUP BY Region,Vertical;
OUTPUT J TO "report.out";
"""


@pytest.fixture
def star_catalog():
    catalog = Catalog()
    catalog.register_file(
        "users.log",
        [("UserId", ColumnType.INT), ("Region", ColumnType.INT)],
        rows=500,
        ndv={"UserId": 500, "Region": 5},
    )
    catalog.register_file(
        "clicks.log",
        [("UserId", ColumnType.INT), ("Query", ColumnType.INT),
         ("Clicks", ColumnType.INT)],
        rows=3_000,
        ndv={"UserId": 500, "Query": 60, "Clicks": 20},
    )
    catalog.register_file(
        "queries.log",
        [("Query", ColumnType.INT), ("Vertical", ColumnType.INT)],
        rows=60,
        ndv={"Query": 60, "Vertical": 6},
    )
    return catalog


class TestCompilation:
    def test_left_deep_join_tree(self, star_catalog):
        plan = compile_script(THREE_WAY, star_catalog)
        joins = [n for n in plan.iter_nodes() if isinstance(n.op, LogicalJoin)]
        assert len(joins) == 2
        # The outer join's left child is itself a join (left-deep).
        outer = next(
            j for j in joins if any(
                isinstance(c.op, LogicalJoin) for c in j.children
            )
        )
        assert isinstance(outer.children[0].op, LogicalJoin)

    def test_unconnected_relation_rejected(self, star_catalog):
        text = (
            'U = EXTRACT UserId,Region FROM "users.log" USING E;\n'
            'C = EXTRACT UserId,Query,Clicks FROM "clicks.log" USING E;\n'
            'Q = EXTRACT Query,Vertical FROM "queries.log" USING E;\n'
            "J = SELECT Region FROM U, Q WHERE U.UserId = U.UserId;\n"
            'OUTPUT J TO "o";'
        )
        with pytest.raises(ResolutionError):
            compile_script(text, star_catalog)


class TestExecution:
    @pytest.mark.parametrize("exploit_cse", [False, True])
    def test_three_way_join_matches_oracle(self, star_catalog, exploit_cse):
        config = OptimizerConfig(cost_params=CostParams(machines=3))
        files = generate_for_catalog(star_catalog, seed=31)
        result = optimize_script(THREE_WAY, star_catalog, config,
                                 exploit_cse=exploit_cse)
        cluster = Cluster(machines=3)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        expected = NaiveEvaluator(files).run(
            compile_script(THREE_WAY, star_catalog)
        )
        assert outputs["report.out"].sorted_rows() == expected["report.out"]

    def test_shared_join_result(self, star_catalog):
        """A three-way join consumed by two aggregations is shared."""
        text = THREE_WAY.replace(
            'OUTPUT J TO "report.out";',
            'K = SELECT Region,Sum(N) AS T FROM J GROUP BY Region;\n'
            'L = SELECT Vertical,Sum(N) AS T FROM J GROUP BY Vertical;\n'
            'OUTPUT K TO "k.out";\nOUTPUT L TO "l.out";',
        )
        config = OptimizerConfig(cost_params=CostParams(machines=3))
        result = optimize_script(text, star_catalog, config)
        assert len(result.details.report.shared_groups) == 1
        files = generate_for_catalog(star_catalog, seed=31)
        cluster = Cluster(machines=3)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        expected = NaiveEvaluator(files).run(compile_script(text, star_catalog))
        for path, want in expected.items():
            assert outputs[path].sorted_rows() == want
