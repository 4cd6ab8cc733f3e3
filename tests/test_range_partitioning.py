"""Tests for range partitioning and parallel sorted outputs."""

import pytest

from repro.api import optimize_script
from repro.exec import Cluster, ColumnarExecutor
from repro.exec.columnar import from_row_dataset
from repro.exec.datasets import Dataset
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.plan.columns import Column, ColumnType, Schema
from repro.plan.physical import (
    PhysicalPlan,
    PhysMerge,
    PhysOutput,
    PhysRangeRepartition,
    PhysSort,
)
from repro.plan.properties import (
    Partitioning,
    PartitioningReq,
    PartitionKind,
    PhysicalProps,
    SortOrder,
)
from repro.scope.catalog import Catalog
from repro.scope.compiler import compile_script
from repro.workloads.datagen import generate_for_catalog

SORTED_SCRIPT = """
R0 = EXTRACT A,B,D FROM "big.log" USING LogExtractor;
S = SELECT A,B,Sum(D) AS T FROM R0 GROUP BY A,B;
OUTPUT S TO "sorted.out" ORDER BY A, B;
"""


def big_catalog(rows=3_000, ndv=None) -> Catalog:
    catalog = Catalog()
    catalog.register_file(
        "big.log",
        [(c, ColumnType.INT) for c in ("A", "B", "D")],
        rows=rows,
        ndv=dict(ndv or {"A": 12, "B": 9, "D": 60}),
    )
    return catalog


class TestPropertyAlgebra:
    def test_ranged_partitioning_construction(self):
        part = Partitioning.ranged(("A", "B"))
        assert part.kind is PartitionKind.RANGE
        assert part.order == ("A", "B")
        assert part.columns == frozenset({"A", "B"})

    def test_ranged_requires_order(self):
        with pytest.raises(ValueError):
            Partitioning(PartitionKind.RANGE)

    def test_range_satisfies_grouping_requirement(self):
        """Range layouts co-locate equal keys, so they satisfy the same
        [lo, hi] requirements hash layouts do."""
        req = PartitioningReq.grouping({"A", "B", "C"})
        assert req.is_satisfied_by(Partitioning.ranged(("A",)))
        assert req.is_satisfied_by(Partitioning.ranged(("B", "A")))
        assert not req.is_satisfied_by(Partitioning.ranged(("D",)))

    def test_range_sorted_requirement_prefix_rule(self):
        req = PartitioningReq.range_sorted(("A", "B"))
        assert req.is_satisfied_by(Partitioning.ranged(("A",)))
        assert req.is_satisfied_by(Partitioning.ranged(("A", "B")))
        assert not req.is_satisfied_by(Partitioning.ranged(("B",)))
        assert not req.is_satisfied_by(Partitioning.hashed({"A"}))
        assert req.is_satisfied_by(Partitioning.serial())

    def test_range_sorted_concrete_partitionings(self):
        req = PartitioningReq.range_sorted(("A", "B"))
        options = {p.order for p in req.concrete_partitionings()}
        assert options == {("A",), ("A", "B")}


class TestRuntime:
    def make_data(self, cluster_rows):
        schema = Schema([Column("A"), Column("B")])
        cluster = Cluster(machines=4)
        cluster.load_file("in", cluster_rows)
        executor = ColumnarExecutor(cluster)
        scan = PhysicalPlan(
            op=__import__(
                "repro.plan.physical", fromlist=["PhysExtract"]
            ).PhysExtract(1, "in", "E", schema),
            children=(),
            schema=schema,
            props=PhysicalProps(),
        )
        return executor, scan, schema

    def test_range_scatter_is_ordered_and_colocated(self):
        rows = [{"A": i % 10, "B": i} for i in range(100)]
        executor, scan, schema = self.make_data(rows)
        plan = PhysicalPlan(
            op=PhysRangeRepartition(("A",)),
            children=(scan,),
            schema=schema,
            props=PhysicalProps(Partitioning.ranged(("A",))),
        )
        data = executor._run(plan)
        assert data.validate_layout() is None
        assert data.total_rows() == 100

    def test_range_merge_sort_preserves_order(self):
        rows = [{"A": (i * 7) % 20, "B": i} for i in range(100)]
        executor, scan, schema = self.make_data(rows)
        sorted_scan = PhysicalPlan(
            op=PhysSort(SortOrder.of("A", "B")),
            children=(scan,),
            schema=schema,
            props=PhysicalProps(Partitioning.random(), SortOrder.of("A", "B")),
        )
        plan = PhysicalPlan(
            op=PhysRangeRepartition(("A",), merge_sort=SortOrder.of("A", "B")),
            children=(sorted_scan,),
            schema=schema,
            props=PhysicalProps(
                Partitioning.ranged(("A",)), SortOrder.of("A", "B")
            ),
        )
        data = executor._run(plan)
        assert data.validate_layout() is None
        stream = data.to_row_dataset().all_rows()
        keys = [(r["A"], r["B"]) for r in stream]
        assert keys == sorted(keys)

    def test_validation_detects_broken_range_claim(self):
        schema = Schema([Column("A")])
        data = from_row_dataset(Dataset(
            schema,
            [[{"A": 5}], [{"A": 1}]],  # descending ranges
            PhysicalProps(Partitioning.ranged(("A",))),
        ))
        assert "range" in data.validate_layout()


class TestEndToEnd:
    def run(self, catalog, machines=4):
        config = OptimizerConfig(cost_params=CostParams(machines=machines))
        files = generate_for_catalog(catalog, seed=9)
        result = optimize_script(SORTED_SCRIPT, catalog, config)
        cluster = Cluster(machines=machines)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(
            result.plan)
        expected = NaiveEvaluator(files).run(
            compile_script(SORTED_SCRIPT, catalog)
        )
        return result, outputs, expected

    def test_parallel_sorted_output_correct(self):
        result, outputs, expected = self.run(big_catalog())
        data = outputs["sorted.out"]
        assert data.sorted_rows() == expected["sorted.out"]
        stream = [r for part in data.partitions for r in part]
        keys = [(r["A"], r["B"]) for r in stream]
        assert keys == sorted(keys)

    def test_large_output_prefers_parallel_range_writers(self):
        """With a big sorted result the serial gather-merge loses to the
        range-partitioned parallel writers."""
        catalog = big_catalog(rows=50_000_000,
                              ndv={"A": 500, "B": 400, "D": 100_000})
        config = OptimizerConfig(cost_params=CostParams(machines=25))
        result = optimize_script(SORTED_SCRIPT, catalog, config)
        assert result.plan.find_all(PhysRangeRepartition)
        assert not result.plan.find_all(PhysMerge)

    def test_small_output_may_gather(self):
        """A tiny sorted result is fine to gather onto one writer; both
        plans are in the space and cost decides."""
        catalog = big_catalog(rows=2_000, ndv={"A": 3, "B": 2, "D": 50})
        config = OptimizerConfig(cost_params=CostParams(machines=4))
        result = optimize_script(SORTED_SCRIPT, catalog, config)
        output = next(
            n
            for n in result.plan.iter_nodes()
            if isinstance(n.op, PhysOutput) and n.op.sort_columns
        )
        kind = output.children[0].props.partitioning.kind
        assert kind in (PartitionKind.SERIAL, PartitionKind.RANGE)
