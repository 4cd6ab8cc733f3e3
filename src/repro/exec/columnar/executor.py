"""The columnar (vectorized) executor.

:class:`ColumnarExecutor` supplies the operator kernels of the one
physical executor; the plan walk — dispatch, spool caching, property
validation policy, metrics charging and tracing — is inherited from
:class:`~repro.exec.runtime.PlanExecutor`.  Every kernel keeps a
deterministic *row order* per partition, not just the multiset: stable
index sorts, concatenate-then-stable-sort for merge-sorted exchanges
(equal keys stay in source-partition order), first-occurrence order
for hash-aggregation groups and probe order for joins.  Float sums are
therefore reproducible run to run, across worker counts and runtimes.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple

from ...plan.expressions import ColumnRef, Value
from ...plan.logical import GroupByMode, JoinKind
from ...plan.physical import (
    PhysExtract,
    PhysFilter,
    PhysHashAgg,
    PhysHashJoin,
    PhysicalPlan,
    PhysMerge,
    PhysMergeJoin,
    PhysOutput,
    PhysProject,
    PhysRangeRepartition,
    PhysRepartition,
    PhysSort,
    PhysStreamAgg,
    PhysTopN,
)
from ...plan.properties import SortOrder
from ..runtime import ExecutionError, PlanExecutor
from .batch import ColumnBatch, ColumnarDataset
from .kernels import aggregate_groups, compile_select_kernel, compile_value_kernel


def _guarded(keys: List[Tuple[Value, ...]]) -> List[Tuple]:
    """NULL-safe comparison keys (NULLs after concrete values)."""
    return [tuple((v is None, v) for v in key) for key in keys]


class ColumnarExecutor(PlanExecutor):
    """Executes physical plans over column batches.

    ``execute(plan)`` returns the output files as row
    :class:`~repro.exec.datasets.Dataset` objects, the form result
    handling (oracle comparison, ``canonical_bytes``) works on; every
    intermediate result stays columnar.
    """

    # -- leaf and row-local operators -------------------------------------

    def _extract(self, op: PhysExtract) -> List[ColumnBatch]:
        rows = self.cluster.read_file(op.path)
        self.metrics.rows_extracted += len(rows)
        n = self.cluster.machines
        names = op.schema.names
        columns = {c: [row[c] for row in rows] for c in names}
        # Round-robin placement: partition p takes rows p, p+n, p+2n...
        # — the slice ``[p::n]`` of each column.
        return [
            ColumnBatch(
                {c: columns[c][p::n] for c in names},
                len(range(p, len(rows), n)),
            )
            for p in range(n)
        ]

    def _filter(self, op: PhysFilter, data: ColumnarDataset
                ) -> List[ColumnBatch]:
        kernel = compile_select_kernel(op.predicate)
        result: List[ColumnBatch] = []
        for batch in data.partitions:
            selected = kernel(batch.columns, batch.n_rows)
            self.metrics.rows_filtered += batch.n_rows - len(selected)
            if len(selected) == batch.n_rows:
                # Nothing dropped: share the input columns.
                result.append(ColumnBatch(batch.columns, batch.n_rows))
            else:
                result.append(batch.take(selected))
        return result

    def _project(self, op: PhysProject, data: ColumnarDataset
                 ) -> List[ColumnBatch]:
        # Plain column references pass through by reference (no copy);
        # computed expressions run their compiled kernel per batch.
        plan: List[Tuple[str, object]] = []
        for ne in op.exprs:
            if isinstance(ne.expr, ColumnRef):
                plan.append((ne.alias, ne.expr.name))
            else:
                plan.append((ne.alias, compile_value_kernel(ne.expr)))
        result: List[ColumnBatch] = []
        for batch in data.partitions:
            columns: Dict[str, List[Value]] = {}
            for alias, source in plan:
                if isinstance(source, str):
                    columns[alias] = batch.columns[source]
                else:
                    columns[alias] = source(batch.columns, batch.n_rows)
            result.append(ColumnBatch(columns, batch.n_rows))
        return result

    def _sort(self, op: PhysSort, data: ColumnarDataset) -> List[ColumnBatch]:
        self.metrics.rows_sorted += data.total_rows()
        cols = list(op.order.columns)
        result: List[ColumnBatch] = []
        for batch in data.partitions:
            keys = _guarded(batch.key_tuples(cols))
            order = sorted(range(batch.n_rows), key=keys.__getitem__)
            result.append(batch.take(order))
        return result

    def _top_n(self, op: PhysTopN, data: ColumnarDataset) -> List[ColumnBatch]:
        names = data.schema.names
        tiebreak = [c for c in names if c not in op.order_columns]
        key_cols = list(op.order_columns) + tiebreak
        if op.mode is not GroupByMode.LOCAL:
            occupied = [
                i for i, batch in enumerate(data.partitions) if batch.n_rows
            ]
            if len(occupied) > 1:
                raise ExecutionError(
                    f"TopN[{op.mode.value}]: input spread over partitions "
                    f"{occupied}"
                )
        result: List[ColumnBatch] = []
        for batch in data.partitions:
            keys = _guarded(batch.key_tuples(key_cols))
            order = sorted(range(batch.n_rows), key=keys.__getitem__)[: op.n]
            result.append(batch.take(order))
        return result

    # -- exchanges ---------------------------------------------------------

    def _scatter(self, data: ColumnarDataset, destinations,
                 merge_sort: SortOrder, who: str) -> List[ColumnBatch]:
        """Scatter rows to ``destinations(batch)`` per-row indices.

        Row order per destination is (source partition, source row).
        Merge-sorted exchanges stable-sort each destination's
        concatenation, which merges the per-source sorted runs stably:
        equal keys keep run order, and within a run their original
        order.
        """
        n = self.cluster.machines
        names = data.schema.names
        if merge_sort.is_sorted:
            self._check_sorted(data, merge_sort, who)
        gathers: List[List[Tuple[ColumnBatch, List[int]]]] = [
            [] for _ in range(n)
        ]
        for batch in data.partitions:
            dests = destinations(batch)
            index_lists: List[List[int]] = [[] for _ in range(n)]
            for i, dest in enumerate(dests):
                index_lists[dest].append(i)
            for dest in range(n):
                if index_lists[dest]:
                    gathers[dest].append((batch, index_lists[dest]))
        result: List[ColumnBatch] = []
        for dest in range(n):
            columns: Dict[str, List[Value]] = {name: [] for name in names}
            total = 0
            for batch, indices in gathers[dest]:
                for name in names:
                    col = batch.columns[name]
                    columns[name].extend([col[i] for i in indices])
                total += len(indices)
            out = ColumnBatch(columns, total)
            if merge_sort.is_sorted:
                keys = _guarded(out.key_tuples(list(merge_sort.columns)))
                order = sorted(range(total), key=keys.__getitem__)
                out = out.take(order)
            result.append(out)
        return result

    def _repartition(self, op: PhysRepartition, data: ColumnarDataset
                     ) -> List[ColumnBatch]:
        n = self.cluster.machines
        self.metrics.rows_shuffled += data.total_rows()
        self.metrics.charge_exchange(data.total_rows())
        cols = sorted(op.columns)

        def destinations(batch: ColumnBatch) -> List[int]:
            return [hash(key) % n for key in batch.key_tuples(cols)]

        return self._scatter(data, destinations, op.merge_sort,
                             "Repartition(merge)")

    def _range_repartition(self, op: PhysRangeRepartition,
                           data: ColumnarDataset) -> List[ColumnBatch]:
        n = self.cluster.machines
        self.metrics.rows_shuffled += data.total_rows()
        self.metrics.charge_exchange(data.total_rows())
        order_cols = list(op.order)
        distinct = sorted({
            tuple((v is None, v) for v in key)
            for batch in data.partitions
            for key in batch.key_tuples(order_cols)
        })
        boundaries = [
            distinct[(len(distinct) * (i + 1)) // n] for i in range(n - 1)
        ] if distinct else []

        def destinations(batch: ColumnBatch) -> List[int]:
            return [
                bisect.bisect_right(boundaries, key)
                for key in _guarded(batch.key_tuples(order_cols))
            ]

        return self._scatter(data, destinations, op.merge_sort,
                             "RangeRepartition(merge)")

    def _merge(self, op: PhysMerge, data: ColumnarDataset
               ) -> List[ColumnBatch]:
        n = self.cluster.machines
        self.metrics.rows_shuffled += data.total_rows()
        self.metrics.charge_exchange(data.total_rows())
        names = data.schema.names
        if op.merge_sort.is_sorted:
            self._check_sorted(data, op.merge_sort, "Merge")
        columns: Dict[str, List[Value]] = {name: [] for name in names}
        total = 0
        for batch in data.partitions:
            for name in names:
                columns[name].extend(batch.columns[name])
            total += batch.n_rows
        merged = ColumnBatch(columns, total)
        if op.merge_sort.is_sorted:
            keys = _guarded(merged.key_tuples(list(op.merge_sort.columns)))
            order = sorted(range(total), key=keys.__getitem__)
            merged = merged.take(order)
        result = [ColumnBatch.empty(names) for _ in range(n)]
        result[0] = merged
        return result

    # -- aggregation -------------------------------------------------------

    def _agg_batch(self, keys, aggregates, batch: ColumnBatch,
                   runs: bool) -> ColumnBatch:
        """Group ``batch`` and fold every aggregate.

        ``runs=True`` groups consecutive equal keys (stream aggregation
        over sorted input); ``runs=False`` groups by hash with groups
        emitted in first-occurrence order.
        """
        key_cols = list(keys)
        key_list = batch.key_tuples(key_cols)
        group_keys: List[Tuple[Value, ...]] = []
        groups: List[List[int]] = []
        if runs:
            for i, key in enumerate(key_list):
                if not groups or key != group_keys[-1]:
                    group_keys.append(key)
                    groups.append([i])
                else:
                    groups[-1].append(i)
        else:
            slot_of: Dict[Tuple[Value, ...], int] = {}
            for i, key in enumerate(key_list):
                slot = slot_of.get(key)
                if slot is None:
                    slot_of[key] = len(groups)
                    group_keys.append(key)
                    groups.append([i])
                else:
                    groups[slot].append(i)
        columns: Dict[str, List[Value]] = {}
        for pos, name in enumerate(key_cols):
            columns[name] = [key[pos] for key in group_keys]
        for agg in aggregates:
            values = None
            if agg.arg is not None:
                values = compile_value_kernel(agg.arg)(
                    batch.columns, batch.n_rows
                )
            columns[agg.alias] = aggregate_groups(agg, values, groups)
        return ColumnBatch(columns, len(groups))

    def _stream_agg(self, op: PhysStreamAgg, data: ColumnarDataset) -> List[ColumnBatch]:
        self._check_sorted(data, SortOrder(op.key_order), "StreamAgg")
        if op.mode is not GroupByMode.LOCAL:
            self._check_grouping_colocation(data, op.key_order, "StreamAgg")
        return [
            self._agg_batch(op.key_order, op.aggregates, batch, runs=True)
            for batch in data.partitions
        ]

    def _hash_agg(self, op: PhysHashAgg, data: ColumnarDataset) -> List[ColumnBatch]:
        if op.mode is not GroupByMode.LOCAL:
            self._check_grouping_colocation(data, op.keys, "HashAgg")
        return [
            self._agg_batch(op.keys, op.aggregates, batch, runs=False)
            for batch in data.partitions
        ]

    # -- joins -------------------------------------------------------------

    def _join_output(self, node: PhysicalPlan, left_batch: ColumnBatch,
                     right_batch: ColumnBatch,
                     pairs: List[Tuple[int, object]]) -> ColumnBatch:
        """Materialize ``(left index, right index)`` pairs.

        A right index of ``None`` pads with NULLs (LEFT join).  On
        column-name collisions the right side wins (``{**left,
        **right}``).
        """
        left_idx = [pair[0] for pair in pairs]
        right_idx = [pair[1] for pair in pairs]
        right_names = set(node.children[1].schema.names)
        columns: Dict[str, List[Value]] = {}
        for name in node.schema.names:
            if name in right_names:
                col = right_batch.columns[name]
                columns[name] = [
                    col[j] if j is not None else None for j in right_idx
                ]
            else:
                col = left_batch.columns[name]
                columns[name] = [col[i] for i in left_idx]
        return ColumnBatch(columns, len(pairs))

    def _probe_pairs(self, build_batch: ColumnBatch,
                     probe_batch: ColumnBatch, build_keys, probe_keys,
                     pad: bool) -> List[Tuple[int, object]]:
        """Hash-probe in row order; returns (probe, build) index pairs."""
        table: Dict[Tuple[Value, ...], List[int]] = {}
        for j, key in enumerate(build_batch.key_tuples(list(build_keys))):
            table.setdefault(key, []).append(j)
        pairs: List[Tuple[int, object]] = []
        for i, key in enumerate(probe_batch.key_tuples(list(probe_keys))):
            matches = () if None in key else table.get(key, ())
            if matches:
                for j in matches:
                    pairs.append((i, j))
            elif pad:
                pairs.append((i, None))
        return pairs

    def _hash_join(self, op: PhysHashJoin, node: PhysicalPlan,
                   inputs: List[ColumnarDataset]) -> List[ColumnBatch]:
        left, right = inputs
        self._check_join_colocation(
            left, right, op.left_keys, op.right_keys, "HashJoin"
        )
        pad = op.kind is JoinKind.LEFT
        result: List[ColumnBatch] = []
        for left_batch, right_batch in zip(left.partitions, right.partitions):
            pairs = self._probe_pairs(
                right_batch, left_batch, op.right_keys, op.left_keys, pad
            )
            result.append(
                self._join_output(node, left_batch, right_batch, pairs)
            )
        return result

    def _broadcast_join(self, op, node: PhysicalPlan,
                        inputs: List[ColumnarDataset]) -> List[ColumnBatch]:
        left, right = inputs
        names = node.children[1].schema.names
        build_columns: Dict[str, List[Value]] = {name: [] for name in names}
        total = 0
        for batch in right.partitions:
            for name in names:
                build_columns[name].extend(batch.columns[name])
            total += batch.n_rows
        build = ColumnBatch(build_columns, total)
        self.metrics.rows_broadcast += total * left.n_partitions
        self.metrics.charge_exchange(total * left.n_partitions)
        pad = op.kind is JoinKind.LEFT
        result: List[ColumnBatch] = []
        for left_batch in left.partitions:
            pairs = self._probe_pairs(
                build, left_batch, op.right_keys, op.left_keys, pad
            )
            result.append(self._join_output(node, left_batch, build, pairs))
        return result

    def _merge_join(self, op: PhysMergeJoin, node: PhysicalPlan,
                    inputs: List[ColumnarDataset]) -> List[ColumnBatch]:
        left, right = inputs
        self._check_sorted(left, SortOrder(op.left_keys), "MergeJoin left")
        self._check_sorted(right, SortOrder(op.right_keys), "MergeJoin right")
        self._check_join_colocation(
            left, right, op.left_keys, op.right_keys, "MergeJoin"
        )
        pad = op.kind is JoinKind.LEFT
        result: List[ColumnBatch] = []
        for left_batch, right_batch in zip(left.partitions, right.partitions):
            left_keys = left_batch.key_tuples(list(op.left_keys))
            right_keys = right_batch.key_tuples(list(op.right_keys))
            left_guarded = _guarded(left_keys)
            right_guarded = _guarded(right_keys)
            pairs: List[Tuple[int, object]] = []
            i = j = 0
            n_left, n_right = left_batch.n_rows, right_batch.n_rows
            while i < n_left:
                if j >= n_right:
                    if pad:
                        pairs.append((i, None))
                    i += 1
                    continue
                if left_guarded[i] < right_guarded[j] or None in left_keys[i]:
                    # NULL join keys never match anything.
                    if pad:
                        pairs.append((i, None))
                    i += 1
                elif left_guarded[i] > right_guarded[j]:
                    j += 1
                else:
                    i_end = i
                    while i_end < n_left and left_keys[i_end] == left_keys[i]:
                        i_end += 1
                    j_end = j
                    while j_end < n_right and right_keys[j_end] == right_keys[j]:
                        j_end += 1
                    for li in range(i, i_end):
                        for rj in range(j, j_end):
                            pairs.append((li, rj))
                    i, j = i_end, j_end
            result.append(
                self._join_output(node, left_batch, right_batch, pairs)
            )
        return result

    # -- outputs and plumbing ----------------------------------------------

    def _output(self, op: PhysOutput, data: ColumnarDataset
                ) -> List[ColumnBatch]:
        self.metrics.rows_output += data.total_rows()
        # Result files are row datasets; intermediate results never are.
        self.cluster.write_output(op.path, data.to_row_dataset())
        return self._empty_partitions()

    def _union(self, inputs: List[ColumnarDataset]) -> List[ColumnBatch]:
        n = max(d.n_partitions for d in inputs)
        names = inputs[0].schema.names
        slots: List[List[ColumnBatch]] = [[] for _ in range(n)]
        for data in inputs:
            for idx, batch in enumerate(data.partitions):
                slots[idx % n].append(batch)
        result: List[ColumnBatch] = []
        for batches in slots:
            columns: Dict[str, List[Value]] = {name: [] for name in names}
            total = 0
            for batch in batches:
                for name in names:
                    columns[name].extend(batch.columns[name])
                total += batch.n_rows
            result.append(ColumnBatch(columns, total))
        return result

    # -- validation helpers ------------------------------------------------

    def _check_sorted(self, data: ColumnarDataset, order: SortOrder,
                      who: str) -> None:
        if not self.validate or not order.is_sorted:
            return
        cols = list(order.columns)
        for idx, batch in enumerate(data.partitions):
            previous = None
            for key_values in batch.key_tuples(cols):
                key = tuple((v is None, v) for v in key_values)
                if previous is not None and key < previous:
                    raise ExecutionError(
                        f"{who}: input partition {idx} not sorted on {order}"
                    )
                previous = key

    def _check_grouping_colocation(self, data: ColumnarDataset, keys,
                                   who: str) -> None:
        if not self.validate:
            return
        if not keys:
            occupied = [
                i for i, batch in enumerate(data.partitions) if batch.n_rows
            ]
            if len(occupied) > 1:
                raise ExecutionError(
                    f"{who}: scalar aggregate input spread over {occupied}"
                )
            return
        placement: Dict[Tuple[Value, ...], int] = {}
        key_cols = list(keys)
        for idx, batch in enumerate(data.partitions):
            for key in batch.key_tuples(key_cols):
                prev = placement.setdefault(key, idx)
                if prev != idx:
                    raise ExecutionError(
                        f"{who}: group {key} split across partitions "
                        f"{prev} and {idx}"
                    )

    def _check_join_colocation(self, left: ColumnarDataset,
                               right: ColumnarDataset, left_keys,
                               right_keys, name: str) -> None:
        if not self.validate:
            return
        if left.n_partitions != right.n_partitions:
            raise ExecutionError(f"{name}: partition counts differ")
        placement: Dict[Tuple[Value, ...], int] = {}
        for idx, batch in enumerate(left.partitions):
            for key in batch.key_tuples(list(left_keys)):
                prev = placement.setdefault(key, idx)
                if prev != idx:
                    raise ExecutionError(
                        f"{name}: left key {key} split across partitions"
                    )
        for idx, batch in enumerate(right.partitions):
            for key in batch.key_tuples(list(right_keys)):
                prev = placement.get(key)
                if prev is not None and prev != idx:
                    raise ExecutionError(
                        f"{name}: key {key} not co-located "
                        f"(left partition {prev}, right partition {idx})"
                    )
