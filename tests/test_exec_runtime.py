"""Unit tests for the cluster simulator's runtime operators.

Every test drives the one physical executor, ``ColumnarExecutor``; the
validation tests each pin the message of one runtime property check, so
removing that check fails its test.
"""

import pytest

from repro.exec.cluster import Cluster
from repro.exec.columnar import ColumnarExecutor, from_row_dataset
from repro.exec.datasets import Dataset
from repro.exec.runtime import ExecutionError
from repro.plan.columns import Column, Schema
from repro.plan.expressions import (
    Aggregate,
    AggFunc,
    BinaryExpr,
    BinaryOp,
    ColumnRef,
    Literal,
    NamedExpr,
)
from repro.plan.logical import GroupByMode
from repro.plan.physical import (
    PhysExtract,
    PhysFilter,
    PhysHashAgg,
    PhysHashJoin,
    PhysicalPlan,
    PhysMerge,
    PhysMergeJoin,
    PhysOutput,
    PhysProject,
    PhysRepartition,
    PhysSequence,
    PhysSort,
    PhysSpool,
    PhysStreamAgg,
)
from repro.plan.properties import (
    Partitioning,
    PhysicalProps,
    SortOrder,
)

AB = Schema([Column("A"), Column("B")])


def node(op, children=(), schema=AB, props=None):
    return PhysicalPlan(
        op=op,
        children=tuple(children),
        schema=schema,
        props=props or op.derive_props([c.props for c in children]),
    )


def scan(path="in", schema=AB):
    return node(PhysExtract(1, path, "E", schema), schema=schema)


def rows(data):
    """All rows of a columnar result, as row dicts in partition order."""
    return data.to_row_dataset().all_rows()


@pytest.fixture
def cluster():
    c = Cluster(machines=3)
    c.load_file("in", [{"A": i % 4, "B": i % 2} for i in range(12)])
    return c


class TestBasics:
    def test_extract_round_robins(self, cluster):
        ex = ColumnarExecutor(cluster)
        data = ex._run(scan())
        assert data.total_rows() == 12
        assert data.n_partitions == 3
        assert ex.metrics.rows_extracted == 12

    def test_filter(self, cluster):
        pred = BinaryExpr(BinaryOp.EQ, ColumnRef("B"), Literal(0))
        plan = node(PhysFilter(pred), [scan()])
        data = ColumnarExecutor(cluster)._run(plan)
        assert data.total_rows() == 6
        assert all(r["B"] == 0 for r in rows(data))

    def test_project_computes(self, cluster):
        exprs = (
            NamedExpr(BinaryExpr(BinaryOp.ADD, ColumnRef("A"), Literal(10)),
                      "A10"),
        )
        schema = Schema([Column("A10")])
        plan = PhysicalPlan(
            op=PhysProject(exprs), children=(scan(),), schema=schema,
            props=PhysicalProps(),
        )
        data = ColumnarExecutor(cluster)._run(plan)
        assert {r["A10"] for r in rows(data)} == {10, 11, 12, 13}

    def test_sort_per_partition(self, cluster):
        plan = node(PhysSort(SortOrder.of("A", "B")), [scan()])
        data = ColumnarExecutor(cluster)._run(plan)
        assert data.validate_layout() is None

    def test_repartition_colocates(self, cluster):
        plan = node(PhysRepartition(("A",)), [scan()])
        ex = ColumnarExecutor(cluster)
        data = ex._run(plan)
        assert data.validate_layout() is None
        assert ex.metrics.rows_shuffled == 12

    def test_merge_gathers_to_one(self, cluster):
        plan = node(PhysMerge(), [scan()])
        data = ColumnarExecutor(cluster)._run(plan)
        assert len(data.partitions[0]) == 12
        assert all(not p for p in data.partitions[1:])

    def test_sorted_merge_repartition(self, cluster):
        sorted_scan = node(PhysSort(SortOrder.of("A")), [scan()])
        plan = node(
            PhysRepartition(("B",), merge_sort=SortOrder.of("A")),
            [sorted_scan],
        )
        data = ColumnarExecutor(cluster)._run(plan)
        assert data.validate_layout() is None
        assert data.props.sort_order == SortOrder.of("A")


class TestAggregation:
    def agg(self):
        return (Aggregate(AggFunc.COUNT, None, "N"),)

    def test_stream_agg_requires_sorted_input(self, cluster):
        bad = node(
            PhysStreamAgg(("A",), self.agg(), GroupByMode.LOCAL), [scan()]
        )
        with pytest.raises(ExecutionError, match="not sorted"):
            ColumnarExecutor(cluster)._run(bad)

    def test_full_agg_requires_colocation(self, cluster):
        sorted_scan = node(PhysSort(SortOrder.of("A")), [scan()])
        bad = node(
            PhysStreamAgg(("A",), self.agg(), GroupByMode.FULL), [sorted_scan]
        )
        with pytest.raises(ExecutionError, match="split across"):
            ColumnarExecutor(cluster)._run(bad)

    def test_full_stream_agg_counts(self, cluster):
        repart = node(PhysRepartition(("A",)), [scan()])
        sorted_in = node(PhysSort(SortOrder.of("A")), [repart])
        plan = node(
            PhysStreamAgg(("A",), self.agg(), GroupByMode.FULL), [sorted_in]
        )
        data = ColumnarExecutor(cluster)._run(plan)
        counts = {r["A"]: r["N"] for r in rows(data)}
        assert counts == {0: 3, 1: 3, 2: 3, 3: 3}

    def test_hash_agg_equivalent(self, cluster):
        repart = node(PhysRepartition(("A",)), [scan()])
        plan = node(
            PhysHashAgg(("A",), self.agg(), GroupByMode.FULL), [repart]
        )
        data = ColumnarExecutor(cluster)._run(plan)
        counts = {r["A"]: r["N"] for r in rows(data)}
        assert counts == {0: 3, 1: 3, 2: 3, 3: 3}

    def test_local_then_final_equals_full(self, cluster):
        an = Schema([Column("A"), Column("N")])
        local = node(
            PhysHashAgg(("A",), self.agg(), GroupByMode.LOCAL), [scan()],
            schema=an,
        )
        merge_aggs = (Aggregate(AggFunc.SUM, ColumnRef("N"), "N"),)
        repart = node(PhysRepartition(("A",)), [local], schema=an)
        final = node(
            PhysHashAgg(("A",), merge_aggs, GroupByMode.FINAL), [repart],
            schema=an,
        )
        data = ColumnarExecutor(cluster)._run(final)
        counts = {r["A"]: r["N"] for r in rows(data)}
        assert counts == {0: 3, 1: 3, 2: 3, 3: 3}

    def test_scalar_aggregate_needs_serial(self, cluster):
        bad = node(PhysHashAgg((), self.agg(), GroupByMode.FULL), [scan()])
        with pytest.raises(ExecutionError,
                           match="scalar aggregate input spread"):
            ColumnarExecutor(cluster)._run(bad)
        good = node(
            PhysHashAgg((), self.agg(), GroupByMode.FULL),
            [node(PhysMerge(), [scan()])],
        )
        data = ColumnarExecutor(cluster)._run(good)
        assert rows(data) == [{"N": 12}]


class TestJoins:
    @pytest.fixture
    def join_cluster(self):
        c = Cluster(machines=3)
        c.load_file("left", [{"A": i % 3, "B": i} for i in range(6)])
        c.load_file("right", [{"K": i % 3, "V": 100 + i} for i in range(3)])
        return c

    def left_scan(self):
        return scan("left", Schema([Column("A"), Column("B")]))

    def right_scan(self):
        return scan("right", Schema([Column("K"), Column("V")]))

    def joined_schema(self):
        return Schema([Column("A"), Column("B"), Column("K"), Column("V")])

    def test_hash_join_requires_colocation(self, join_cluster):
        # Reverse the right side so the round-robin placement misaligns
        # the key values across the two scans.
        join_cluster.load_file(
            "right", [{"K": 2 - i, "V": 100 + i} for i in range(3)]
        )
        bad = PhysicalPlan(
            op=PhysHashJoin(("A",), ("K",)),
            children=(self.left_scan(), self.right_scan()),
            schema=self.joined_schema(),
            props=PhysicalProps(),
        )
        with pytest.raises(ExecutionError, match="not co-located"):
            ColumnarExecutor(join_cluster)._run(bad)

    def test_partitioned_hash_join(self, join_cluster):
        left = node(PhysRepartition(("A",)), [self.left_scan()],
                    schema=Schema([Column("A"), Column("B")]))
        right = node(PhysRepartition(("K",)), [self.right_scan()],
                     schema=Schema([Column("K"), Column("V")]))
        plan = PhysicalPlan(
            op=PhysHashJoin(("A",), ("K",)),
            children=(left, right),
            schema=self.joined_schema(),
            props=PhysicalProps(Partitioning.hashed({"A"})),
        )
        data = ColumnarExecutor(join_cluster)._run(plan)
        assert data.total_rows() == 6
        assert all(r["A"] == r["K"] for r in rows(data))

    def test_merge_join_matches_hash_join(self, join_cluster):
        def sorted_side(base, cols, schema):
            repart = node(PhysRepartition((cols[0],),), [base], schema=schema)
            return node(PhysSort(SortOrder(cols)), [repart], schema=schema)

        left = sorted_side(self.left_scan(), ("A",),
                           Schema([Column("A"), Column("B")]))
        right = sorted_side(self.right_scan(), ("K",),
                            Schema([Column("K"), Column("V")]))
        plan = PhysicalPlan(
            op=PhysMergeJoin(("A",), ("K",)),
            children=(left, right),
            schema=self.joined_schema(),
            props=PhysicalProps(Partitioning.hashed({"A"}),
                                SortOrder.of("A")),
        )
        data = ColumnarExecutor(join_cluster)._run(plan)
        joined = {(r["A"], r["B"], r["V"]) for r in rows(data)}
        assert len(joined) == 6


class TestSpoolAndOutput:
    def test_spool_executes_child_once(self, cluster):
        spool = node(PhysSpool(), [scan()])
        ex = ColumnarExecutor(cluster)
        ex._run(node(PhysMerge(), [spool]))
        assert ex.metrics.spool_reads == 1
        # Two consumers of the same spool in one plan.
        seq = PhysicalPlan(
            op=PhysSequence(2),
            children=(
                node(PhysOutput("a"), [node(PhysMerge(), [spool])]),
                node(PhysOutput("b"), [node(PhysMerge(), [spool])]),
            ),
            schema=Schema(()),
            props=PhysicalProps(),
        )
        ex = ColumnarExecutor(cluster)
        ex.execute(seq)
        assert ex.metrics.spool_reads == 2
        assert ex.metrics.rows_extracted == 12  # child ran once

    def test_output_written_to_cluster(self, cluster):
        plan = node(PhysOutput("result"), [scan()])
        outputs = ColumnarExecutor(cluster).execute(plan)
        assert outputs["result"].total_rows() == 12

    def test_validation_can_be_disabled(self, cluster):
        bad = node(
            PhysStreamAgg(("A",), (Aggregate(AggFunc.COUNT, None, "N"),),
                          GroupByMode.LOCAL),
            [scan()],
        )
        # With validation off the runtime produces (wrong) output
        # instead of raising — useful for perf experiments only.
        data = ColumnarExecutor(cluster, validate=False)._run(bad)
        assert data.total_rows() >= 4


class TestDatasetValidation:
    @staticmethod
    def columnar(partitions, props):
        return from_row_dataset(Dataset(AB, partitions, props))

    def test_detects_misclaimed_hash(self):
        data = self.columnar(
            [[{"A": 1, "B": 0}], [{"A": 1, "B": 1}]],
            PhysicalProps(Partitioning.hashed({"A"})),
        )
        assert "hash(A)" in data.validate_layout()

    def test_detects_misclaimed_sort(self):
        data = self.columnar(
            [[{"A": 2, "B": 0}, {"A": 1, "B": 0}]],
            PhysicalProps(Partitioning.random(), SortOrder.of("A")),
        )
        assert "sort" in data.validate_layout()

    def test_detects_misclaimed_serial(self):
        data = self.columnar(
            [[{"A": 1, "B": 0}], [{"A": 2, "B": 0}]],
            PhysicalProps(Partitioning.serial()),
        )
        assert "serial" in data.validate_layout()

    def test_operator_output_is_validated(self, cluster):
        # A Repartition whose node claims the wrong hash columns: the
        # per-operator layout check must reject its output.
        bad = PhysicalPlan(
            op=PhysRepartition(("A",)), children=(scan(),), schema=AB,
            props=PhysicalProps(Partitioning.hashed({"B"})),
        )
        with pytest.raises(ExecutionError, match="violating its claimed"):
            ColumnarExecutor(cluster)._run(bad)
