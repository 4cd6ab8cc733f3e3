"""Failure injection: corrupted plans must fail loudly at runtime.

The executor's property validation is the safety net under the whole
optimizer; these tests corrupt otherwise-correct optimized plans in
targeted ways and check that execution raises :class:`ExecutionError`
(or, where the corruption is semantic, that the result diverges from the
oracle) instead of silently succeeding.
"""

import dataclasses

import pytest

from repro.api import optimize_script
from repro.exec import Cluster, ColumnarExecutor, ExecutionError
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.plan.physical import (
    PhysicalPlan,
    PhysRepartition,
    PhysSort,
    PhysSpool,
    PhysStreamAgg,
)
from repro.plan.properties import Partitioning, PhysicalProps, SortOrder
from repro.workloads.datagen import generate_for_catalog
from repro.workloads.paper_scripts import S1

MACHINES = 4


@pytest.fixture
def optimized(abcd_catalog):
    config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
    return optimize_script(S1, abcd_catalog, config, exploit_cse=True)


def execute(plan, abcd_catalog):
    cluster = Cluster(machines=MACHINES)
    for path, rows in generate_for_catalog(abcd_catalog, seed=23).items():
        cluster.load_file(path, rows)
    return ColumnarExecutor(cluster, validate=True).execute(plan)


def rewrite(plan: PhysicalPlan, transform) -> PhysicalPlan:
    """Rebuild a plan DAG applying ``transform`` to every node."""
    rebuilt = {}

    def visit(node: PhysicalPlan) -> PhysicalPlan:
        cached = rebuilt.get(id(node))
        if cached is not None:
            return cached
        children = tuple(visit(c) for c in node.children)
        clone = dataclasses.replace(node, children=children)
        clone = transform(clone) or clone
        rebuilt[id(node)] = clone
        return clone

    return visit(plan)


class TestCorruptions:
    def test_wrong_repartition_columns_detected(self, optimized,
                                                abcd_catalog):
        """Repartitioning on different columns than claimed breaks the
        downstream aggregation's co-location check."""

        def corrupt(node):
            if isinstance(node.op, PhysRepartition):
                # Execute on a different column set than claimed.
                other = ("A",) if "A" not in node.op.columns else ("C",)
                return dataclasses.replace(
                    node, op=PhysRepartition(other, node.op.merge_sort)
                )
            return None

        bad = rewrite(optimized.plan, corrupt)
        with pytest.raises(ExecutionError):
            execute(bad, abcd_catalog)

    def test_dropped_sort_detected(self, abcd_catalog):
        """Removing a Sort under a StreamAgg trips the sortedness check."""
        text = (
            'R0 = EXTRACT A,D FROM "test.log" USING E;\n'
            "R = SELECT A,Sum(D) AS S FROM R0 GROUP BY A;\n"
            'OUTPUT R TO "o" ORDER BY A;'
        )
        # Bias the costs so the sort-based aggregation chain wins.
        config = OptimizerConfig(
            cost_params=CostParams(machines=MACHINES, hash_row=50.0,
                                   sort_row=0.01)
        )
        result = optimize_script(text, abcd_catalog, config)
        sorts = result.plan.find_all(PhysSort)
        assert sorts, "sort-biased costs must produce an explicit sort"

        def corrupt(node):
            if isinstance(node.op, PhysSort):
                # Claim the sort but pass rows through unsorted.
                return dataclasses.replace(node.children[0], props=node.props)
            return None

        bad = rewrite(result.plan, corrupt)
        with pytest.raises(ExecutionError):
            execute(bad, abcd_catalog)

    def test_misclaimed_partitioning_detected(self, optimized, abcd_catalog):
        """Claiming hash partitioning over random data is caught by the
        dataset layout validation."""

        def corrupt(node):
            if isinstance(node.op, PhysRepartition):
                # Replace the exchange with its child but keep claiming
                # the exchange's delivered layout.
                return dataclasses.replace(node.children[0], props=node.props)
            return None

        bad = rewrite(optimized.plan, corrupt)
        with pytest.raises(ExecutionError):
            execute(bad, abcd_catalog)

    def test_validation_off_hides_the_bug(self, optimized, abcd_catalog):
        """Sanity check on the tests themselves: with validation off the
        corrupted plan 'runs' — which is exactly why validation is on by
        default."""

        def corrupt(node):
            if isinstance(node.op, PhysRepartition):
                return dataclasses.replace(node.children[0], props=node.props)
            return None

        bad = rewrite(optimized.plan, corrupt)
        cluster = Cluster(machines=MACHINES)
        for path, rows in generate_for_catalog(abcd_catalog, seed=23).items():
            cluster.load_file(path, rows)
        executor = ColumnarExecutor(cluster, validate=False)
        outputs = executor.execute(bad)  # silently wrong results
        good = execute(optimized.plan, abcd_catalog)
        assert any(
            outputs[p].sorted_rows() != good[p].sorted_rows() for p in outputs
        )


class TestSpoolIntegrity:
    def test_spool_reuses_identical_data(self, optimized, abcd_catalog):
        cluster = Cluster(machines=MACHINES)
        for path, rows in generate_for_catalog(abcd_catalog, seed=23).items():
            cluster.load_file(path, rows)
        executor = ColumnarExecutor(cluster, validate=True)
        executor.execute(optimized.plan)
        spools = optimized.plan.find_all(PhysSpool)
        assert len(spools) == 1
        assert executor.metrics.spool_reads == 2
        assert executor.metrics.rows_spooled == spools[0].rows or (
            executor.metrics.rows_spooled > 0
        )

    def test_stream_agg_claims_must_hold_after_corruption(self, abcd_catalog):
        """Rewriting a stream agg's key order without re-sorting fails."""
        text = (
            'R0 = EXTRACT A,B,D FROM "test.log" USING E;\n'
            "R = SELECT A,B,Sum(D) AS S FROM R0 GROUP BY A,B;\n"
            'OUTPUT R TO "o";'
        )
        config = OptimizerConfig(
            cost_params=CostParams(machines=MACHINES, hash_row=50.0,
                                   sort_row=0.01)
        )
        result = optimize_script(text, abcd_catalog, config)
        streams = result.plan.find_all(PhysStreamAgg)
        assert streams, "sort-biased costs must produce stream aggregation"

        def corrupt(node):
            if isinstance(node.op, PhysStreamAgg):
                flipped = tuple(reversed(node.op.key_order))
                return dataclasses.replace(
                    node,
                    op=dataclasses.replace(node.op, key_order=flipped),
                )
            return None

        bad = rewrite(result.plan, corrupt)
        with pytest.raises(ExecutionError):
            execute(bad, abcd_catalog)
