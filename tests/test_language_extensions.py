"""Tests for SELECT DISTINCT and sorted (ORDER BY) outputs."""

import pytest

from repro.api import optimize_script
from repro.exec import Cluster, ColumnarExecutor
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.plan.logical import LogicalGroupBy, LogicalOutput
from repro.plan.physical import PhysMerge, PhysOutput
from repro.scope.compiler import compile_script
from repro.scope.errors import ResolutionError
from repro.scope.parser import parse
from repro.workloads.datagen import generate_for_catalog

DISTINCT_SCRIPT = (
    'R0 = EXTRACT A,B,D FROM "test.log" USING E;\n'
    "R = SELECT DISTINCT A,B FROM R0 WHERE D > 10;\n"
    'OUTPUT R TO "o";'
)

SORTED_OUTPUT_SCRIPT = (
    'R0 = EXTRACT A,B,D FROM "test.log" USING E;\n'
    "S = SELECT A,Sum(D) AS T FROM R0 GROUP BY A;\n"
    'OUTPUT S TO "sorted.out" ORDER BY T, A;'
)


class TestParsing:
    def test_distinct_flag(self):
        script = parse("R = SELECT DISTINCT A,B FROM X;")
        assert script.statements[0].queries[0].distinct

    def test_output_order_by(self):
        script = parse('OUTPUT R TO "f" ORDER BY A, B;')
        stmt = script.statements[0]
        assert tuple(r.name for r in stmt.order_by) == ("A", "B")

    def test_plain_output_has_no_order(self):
        script = parse('OUTPUT R TO "f";')
        assert script.statements[0].order_by == ()


class TestCompilation:
    def test_distinct_lowers_to_group_by(self, abcd_catalog):
        plan = compile_script(DISTINCT_SCRIPT, abcd_catalog)
        group_bys = [
            n for n in plan.iter_nodes() if isinstance(n.op, LogicalGroupBy)
        ]
        assert len(group_bys) == 1
        assert group_bys[0].op.keys == ("A", "B")
        assert group_bys[0].op.aggregates == ()

    def test_distinct_with_group_by_rejected(self, abcd_catalog):
        with pytest.raises(ResolutionError):
            compile_script(
                'R0 = EXTRACT A,D FROM "test.log" USING E;\n'
                "R = SELECT DISTINCT A,Sum(D) AS S FROM R0 GROUP BY A;\n"
                'OUTPUT R TO "o";',
                abcd_catalog,
            )

    def test_output_order_columns_resolved(self, abcd_catalog):
        plan = compile_script(SORTED_OUTPUT_SCRIPT, abcd_catalog)
        output = next(
            n for n in plan.iter_nodes() if isinstance(n.op, LogicalOutput)
        )
        assert output.op.sort_columns == ("T", "A")

    def test_output_order_unknown_column_rejected(self, abcd_catalog):
        with pytest.raises(ResolutionError):
            compile_script(
                'R0 = EXTRACT A FROM "test.log" USING E;\n'
                'OUTPUT R0 TO "f" ORDER BY Z;',
                abcd_catalog,
            )


class TestExecution:
    def run(self, script, catalog, exploit_cse=True):
        config = OptimizerConfig(cost_params=CostParams(machines=4))
        files = generate_for_catalog(catalog, seed=5)
        result = optimize_script(script, catalog, config,
                                 exploit_cse=exploit_cse)
        cluster = Cluster(machines=4)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        executor = ColumnarExecutor(cluster, validate=True)
        outputs = executor.execute(result.plan)
        expected = NaiveEvaluator(files).run(compile_script(script, catalog))
        return result, outputs, expected

    def test_distinct_matches_oracle(self, abcd_catalog):
        _res, outputs, expected = self.run(DISTINCT_SCRIPT, abcd_catalog)
        assert outputs["o"].sorted_rows() == expected["o"]
        # No duplicates in the result.
        rows = outputs["o"].sorted_rows()
        assert len(rows) == len(set(rows))

    def test_distinct_is_split_like_any_aggregation(self, abcd_catalog):
        result, _outputs, _expected = self.run(DISTINCT_SCRIPT, abcd_catalog)
        # The distinct group-by participates in the local/final split and
        # produces a valid, property-checked plan (executed above).
        assert result.plan is not None

    def test_sorted_output_is_globally_sorted(self, abcd_catalog):
        _res, outputs, expected = self.run(SORTED_OUTPUT_SCRIPT, abcd_catalog)
        data = outputs["sorted.out"]
        assert data.sorted_rows() == expected["sorted.out"]
        # Globally sorted = concatenating partitions in index order
        # yields the total order (one serial stream, or range-partitioned
        # parallel streams).
        stream = [row for part in data.partitions for row in part]
        keys = [(row["T"], row["A"]) for row in stream]
        assert keys == sorted(keys)

    def test_sorted_output_child_is_serial_or_range(self, abcd_catalog):
        result, _outputs, _expected = self.run(SORTED_OUTPUT_SCRIPT,
                                               abcd_catalog)
        output = next(
            n
            for n in result.plan.iter_nodes()
            if isinstance(n.op, PhysOutput) and n.op.sort_columns
        )
        child = output.children[0]
        assert child.props.partitioning.kind.value in ("serial", "range")
        assert child.props.sort_order.columns[:1] == ("T",)

    def test_sorted_output_with_both_optimizers(self, abcd_catalog):
        base, outputs_b, expected = self.run(
            SORTED_OUTPUT_SCRIPT, abcd_catalog, exploit_cse=False
        )
        assert outputs_b["sorted.out"].sorted_rows() == expected["sorted.out"]
