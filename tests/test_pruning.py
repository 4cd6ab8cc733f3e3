"""Tests for sharing-preserving column pruning."""

import pytest

from repro.api import optimize_script
from repro.exec import Cluster, ColumnarExecutor
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.plan.logical import (
    LogicalExtract,
    LogicalGroupBy,
    LogicalJoin,
    LogicalProject,
)
from repro.plan.pruning import prune_columns
from repro.scope.compiler import compile_script
from repro.workloads.datagen import generate_for_catalog
from repro.workloads.paper_scripts import PAPER_SCRIPTS

WIDE_SCRIPT = (
    'R0 = EXTRACT A,B,C,D FROM "test.log" USING E;\n'
    "R = SELECT A,Sum(B) AS SB FROM R0 GROUP BY A;\n"
    'OUTPUT R TO "o";'
)


def ops_of(plan, op_type):
    return [n for n in plan.iter_nodes() if isinstance(n.op, op_type)]


class TestNarrowing:
    def test_unused_extract_columns_dropped(self, abcd_catalog):
        plan = prune_columns(compile_script(WIDE_SCRIPT, abcd_catalog))
        extract = ops_of(plan, LogicalExtract)[0]
        assert set(extract.schema.names) == {"A", "B"}

    def test_unused_aggregates_dropped(self, abcd_catalog):
        text = (
            'R0 = EXTRACT A,B,C,D FROM "test.log" USING E;\n'
            "R = SELECT A,Sum(B) AS SB,Sum(C) AS SC,Sum(D) AS SD "
            "FROM R0 GROUP BY A;\n"
            "T = SELECT A,SB FROM R;\n"
            'OUTPUT T TO "o";'
        )
        plan = prune_columns(compile_script(text, abcd_catalog))
        gb = ops_of(plan, LogicalGroupBy)[0]
        assert [a.alias for a in gb.op.aggregates] == ["SB"]
        extract = ops_of(plan, LogicalExtract)[0]
        assert set(extract.schema.names) == {"A", "B"}

    def test_grouping_keys_never_dropped(self, abcd_catalog):
        text = (
            'R0 = EXTRACT A,B,D FROM "test.log" USING E;\n'
            "R = SELECT A,B,Sum(D) AS S FROM R0 GROUP BY A,B;\n"
            "T = SELECT A,S FROM R;\n"  # B unused downstream
            'OUTPUT T TO "o";'
        )
        plan = prune_columns(compile_script(text, abcd_catalog))
        gb = ops_of(plan, LogicalGroupBy)[0]
        # Dropping B would change the grouping; it must stay.
        assert gb.op.keys == ("A", "B")

    def test_join_keeps_keys_plus_flowthrough(self, abcd_catalog):
        text = (
            'X = EXTRACT A,B,C FROM "test.log" USING E;\n'
            'Y = EXTRACT A,D FROM "test2.log" USING E;\n'
            "J = SELECT X.A,B,D FROM X, Y WHERE X.A = Y.A;\n"
            'OUTPUT J TO "o";'
        )
        plan = prune_columns(compile_script(text, abcd_catalog))
        extracts = ops_of(plan, LogicalExtract)
        schemas = {frozenset(e.schema.names) for e in extracts}
        # C never reaches the output and is pruned at the scan.
        assert frozenset({"A", "B"}) in schemas
        assert frozenset({"A", "D"}) in schemas

    def test_count_star_keeps_one_column(self, abcd_catalog):
        text = (
            'R0 = EXTRACT A,B,C,D FROM "test.log" USING E;\n'
            "R = SELECT Count(*) AS N FROM R0;\n"
            'OUTPUT R TO "o";'
        )
        plan = prune_columns(compile_script(text, abcd_catalog))
        extract = ops_of(plan, LogicalExtract)[0]
        assert len(extract.schema) == 1


class TestSharingPreserved:
    def test_shared_node_requirements_unioned(self, abcd_catalog):
        text = (
            'R0 = EXTRACT A,B,C,D FROM "test.log" USING E;\n'
            "R = SELECT A,B,Sum(C) AS SC,Sum(D) AS SD FROM R0 GROUP BY A,B;\n"
            "X = SELECT A,Sum(SC) AS T1 FROM R GROUP BY A;\n"
            "Y = SELECT B,Sum(SD) AS T2 FROM R GROUP BY B;\n"
            'OUTPUT X TO "x";\nOUTPUT Y TO "y";'
        )
        plan = prune_columns(compile_script(text, abcd_catalog))
        group_bys = [
            n
            for n in plan.iter_nodes()
            if isinstance(n.op, LogicalGroupBy)
            and n.op.keys == ("A", "B")
        ]
        # Still one shared node, and it keeps BOTH aggregates (one per
        # consumer) — the union of the requirements.
        assert len(group_bys) == 1
        assert {a.alias for a in group_bys[0].op.aggregates} == {"SC", "SD"}

    def test_node_identity_preserved(self, abcd_catalog):
        plan = compile_script(PAPER_SCRIPTS["S1"], abcd_catalog)
        pruned = prune_columns(plan)
        assert pruned.count_operators() == plan.count_operators()


class TestSemanticNoOp:
    @pytest.mark.parametrize("name", sorted(PAPER_SCRIPTS))
    def test_paper_scripts_unchanged_results(self, name, abcd_catalog):
        text = PAPER_SCRIPTS[name]
        files = generate_for_catalog(abcd_catalog, seed=13)
        raw = NaiveEvaluator(files).run(compile_script(text, abcd_catalog))
        pruned = NaiveEvaluator(files).run(
            prune_columns(compile_script(text, abcd_catalog))
        )
        assert raw == pruned

    def test_pruned_plan_executes_identically(self, abcd_catalog):
        config = OptimizerConfig(cost_params=CostParams(machines=4))
        files = generate_for_catalog(abcd_catalog, seed=13)
        expected = NaiveEvaluator(files).run(
            compile_script(WIDE_SCRIPT, abcd_catalog)
        )
        result = optimize_script(WIDE_SCRIPT, abcd_catalog, config,
                                 prune=True)
        cluster = Cluster(machines=4)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        for path, want in expected.items():
            assert outputs[path].sorted_rows() == want

    def test_pruning_reduces_cost_on_wide_scans(self, abcd_catalog):
        config = OptimizerConfig(cost_params=CostParams(machines=4))
        wide = optimize_script(WIDE_SCRIPT, abcd_catalog, config, prune=False)
        narrow = optimize_script(WIDE_SCRIPT, abcd_catalog, config, prune=True)
        assert narrow.cost < wide.cost
