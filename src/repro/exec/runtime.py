"""Physical plan execution on the simulated cluster.

:class:`PlanExecutor` walks a physical plan DAG and produces partitioned
:class:`~repro.exec.columnar.batch.ColumnarDataset` results.  Two
semantics mirror the cost model's tree/DAG split:

* **only SPOOL nodes are materialized** — a spool's input is executed
  once and its dataset cached, so every consumer re-reads the same
  result (the CSE plans of Figure 8(b));
* every other multi-referenced node is **re-executed per reference**,
  which is exactly the duplicated-pipeline semantics of a conventional
  plan (Figure 8(a)).

This module holds the walk itself — dispatch, spool caching, metrics
and tracing; the vectorized operator kernels live in
:class:`~repro.exec.columnar.executor.ColumnarExecutor`, the one
concrete executor.

With ``validate=True`` (the default) the executor re-checks, at every
operator boundary, that the data really has the physical properties the
optimizer claimed (sortedness for stream aggregates and merge joins,
co-location for partitioned aggregates/joins).  A violation raises
:class:`ExecutionError` — optimizer property bugs fail loudly instead of
producing silently wrong costs or results.
"""

from __future__ import annotations

from typing import Dict, List

from ..obs.tracer import NULL_TRACER
from ..plan.physical import (
    PhysBroadcastJoin,
    PhysExtract,
    PhysFilter,
    PhysHashAgg,
    PhysHashJoin,
    PhysicalPlan,
    PhysMerge,
    PhysMergeJoin,
    PhysOutput,
    PhysPassThrough,
    PhysProject,
    PhysRangeRepartition,
    PhysRepartition,
    PhysSequence,
    PhysSort,
    PhysSpool,
    PhysStreamAgg,
    PhysTopN,
    PhysUnionAll,
)
from .cluster import Cluster
from .columnar.batch import ColumnarDataset, ColumnBatch
from .datasets import Dataset
from .metrics import ExecutionMetrics


class ExecutionError(RuntimeError):
    """A runtime property violation or malformed plan."""


class PlanExecutor:
    """Walks physical plans against one cluster.

    Subclasses supply one kernel method per physical operator
    (``_extract``, ``_filter``, ... ``_union``);
    :class:`~repro.exec.columnar.executor.ColumnarExecutor` is the one
    that does.
    """

    def __init__(self, cluster: Cluster, validate: bool = True,
                 tracer=NULL_TRACER):
        self.cluster = cluster
        self.validate = validate
        self.metrics = ExecutionMetrics()
        self._spool_cache: Dict[int, ColumnarDataset] = {}
        #: Memo group ids whose measured output rows were already
        #: recorded.  A conventional plan re-executes multi-referenced
        #: fragments per reference with identical output, so the first
        #: execution wins and the feedback loop never double-counts.
        self._fragment_gids: set = set()
        #: Observability tracer; the per-row/per-operator paths make no
        #: tracer calls, only cold events (spool materialization) do.
        self.tracer = tracer

    # -- public API -------------------------------------------------------

    def execute(self, plan: PhysicalPlan) -> Dict[str, Dataset]:
        """Run ``plan``; returns the output files it wrote."""
        self._spool_cache.clear()
        self._run(plan)
        return dict(self.cluster.outputs)

    # -- dispatch -----------------------------------------------------------

    def _run(self, node: PhysicalPlan) -> ColumnarDataset:
        op = node.op
        self.metrics.note_operator(op.name)

        if isinstance(op, PhysPassThrough):
            # Not materialized: every reference recomputes the input.
            inner = self._run(node.children[0])
            return self._finish(node, inner.partitions)

        if isinstance(op, PhysSpool):
            cached = self._spool_cache.get(id(node))
            if cached is None:
                with self.tracer.span("spool.materialize") as span:
                    cached = self._run(node.children[0])
                    span.set(rows=cached.total_rows())
                self.metrics.rows_spooled += cached.total_rows()
                self.metrics.charge_spool(cached.total_rows())
                self._spool_cache[id(node)] = cached
            self.metrics.spool_reads += 1
            self.metrics.charge_spool(cached.total_rows())
            return self._finish(node, cached.partitions)

        inputs = [self._run(child) for child in node.children]
        return self._finish(node, self._apply_op(node, inputs))

    def _apply_op(self, node: PhysicalPlan,
                  inputs: List[ColumnarDataset]) -> List[ColumnBatch]:
        """Evaluate one non-spool operator over already-computed inputs.

        This is the single point through which both the recursive
        executor and the task scheduler (``repro.exec.scheduler``) run
        operators, so the two execution paths cannot diverge.
        """
        op = node.op
        for dataset in inputs:
            self.metrics.charge_compute(dataset.partitions)

        if isinstance(op, PhysExtract):
            return self._extract(op)
        if isinstance(op, PhysFilter):
            return self._filter(op, inputs[0])
        if isinstance(op, PhysProject):
            return self._project(op, inputs[0])
        if isinstance(op, PhysSort):
            return self._sort(op, inputs[0])
        if isinstance(op, PhysRepartition):
            return self._repartition(op, inputs[0])
        if isinstance(op, PhysRangeRepartition):
            return self._range_repartition(op, inputs[0])
        if isinstance(op, PhysMerge):
            return self._merge(op, inputs[0])
        if isinstance(op, PhysStreamAgg):
            return self._stream_agg(op, inputs[0])
        if isinstance(op, PhysHashAgg):
            return self._hash_agg(op, inputs[0])
        if isinstance(op, PhysMergeJoin):
            return self._merge_join(op, node, inputs)
        if isinstance(op, PhysHashJoin):
            return self._hash_join(op, node, inputs)
        if isinstance(op, PhysBroadcastJoin):
            return self._broadcast_join(op, node, inputs)
        if isinstance(op, PhysTopN):
            return self._top_n(op, inputs[0])
        if isinstance(op, PhysOutput):
            return self._output(op, inputs[0])
        if isinstance(op, PhysUnionAll):
            return self._union(inputs)
        if isinstance(op, PhysSequence):
            return self._empty_partitions()
        raise ExecutionError(  # pragma: no cover - exhaustive
            f"no executor for {type(op).__name__}")

    def _finish(self, node: PhysicalPlan,
                partitions: List[ColumnBatch]) -> ColumnarDataset:
        dataset = ColumnarDataset(node.schema, partitions, node.props)
        self.metrics.note_partition_sizes(partitions)
        self.metrics.note_batches(len(partitions))
        gid = node.group_id
        if (gid is not None and gid not in self._fragment_gids
                and not isinstance(node.op, (PhysOutput, PhysSequence))):
            # Output/Sequence emit no rows downstream; recording their
            # zero against the fingerprint-transparent child fragment
            # would fabricate an infinite q-error.
            self._fragment_gids.add(gid)
            self.metrics.note_fragment_rows(gid, dataset.total_rows())
        if self.validate:
            violation = dataset.validate_layout()
            if violation is not None:
                raise ExecutionError(
                    f"{node.op.name} produced data violating its claimed "
                    f"properties: {violation}"
                )
        return dataset

    def _empty_partitions(self) -> List[ColumnBatch]:
        """One empty partition per machine (Output/Sequence results)."""
        return [ColumnBatch.empty() for _ in range(self.cluster.machines)]
