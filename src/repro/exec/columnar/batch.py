"""Columnar partitions: one value list per column instead of row dicts.

The executor's unit of data is a :class:`ColumnBatch` — a mapping of
column name to a plain Python list of values, plus the row count —
instead of a list with one dict per row.  The batch layout is what
makes vectorized kernels possible: an operator
touches whole columns at C speed (``zip``, slicing, list
comprehensions, compiled expression loops) instead of doing a dict
lookup per row per column.

A :class:`ColumnarDataset` is what every operator produces and every
scheduler vertex commits; it converts to a row
:class:`~repro.exec.datasets.Dataset` only where an output file is
written.  ``len(batch)`` is the batch's row count, which is what the
metrics helpers read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ...plan.columns import Schema
from ...plan.expressions import Row, Value
from ...plan.properties import PartitionKind, PhysicalProps
from ..datasets import Dataset


class ColumnBatch:
    """One partition in columnar layout.

    Column lists may be *shared* between batches — projection passes
    unmodified columns through by reference, filters that keep every row
    reuse the input columns — so kernels must never mutate a column in
    place; they always build fresh lists.
    """

    __slots__ = ("columns", "n_rows")

    def __init__(self, columns: Dict[str, List[Value]],
                 n_rows: Optional[int] = None):
        if n_rows is None:
            n_rows = len(next(iter(columns.values()))) if columns else 0
        self.columns = columns
        self.n_rows = n_rows

    def __len__(self) -> int:
        # Row count, like ``len()`` of a row-list partition, so the
        # executor's metrics helpers work on either layout.
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnBatch({list(self.columns)}, n_rows={self.n_rows})"
        )

    @classmethod
    def empty(cls, names: Iterable[str] = ()) -> "ColumnBatch":
        return cls({name: [] for name in names}, 0)

    @classmethod
    def from_rows(cls, names: Iterable[str], rows: List[Row]) -> "ColumnBatch":
        return cls(
            {name: [row[name] for row in rows] for name in names},
            len(rows),
        )

    def to_rows(self) -> List[Row]:
        names = list(self.columns)
        if not names:
            return [{} for _ in range(self.n_rows)]
        cols = [self.columns[name] for name in names]
        return [dict(zip(names, values)) for values in zip(*cols)]

    def take(self, indices: List[int]) -> "ColumnBatch":
        """Gather the given row indices into a new batch."""
        return ColumnBatch(
            {
                name: [col[i] for i in indices]
                for name, col in self.columns.items()
            },
            len(indices),
        )

    def key_tuples(self, names) -> List[Tuple[Value, ...]]:
        """One tuple per row over ``names`` (built at C speed by zip).

        The tuples equal ``tuple(row[c] for c in names)`` of the row
        form, so hashes, dict grouping and comparisons match the
        ``NaiveEvaluator`` oracle's row-by-row view.
        """
        if not self.n_rows:
            return []
        if not names:
            return [()] * self.n_rows
        return list(zip(*(self.columns[name] for name in names)))


def _guarded(key: Tuple[Value, ...]) -> Tuple:
    return tuple((v is None, v) for v in key)


@dataclass
class ColumnarDataset:
    """A partitioned columnar rowset with claimed physical properties.

    ``validate_layout`` re-checks the claims against the actual data,
    which turns optimizer property bugs into hard failures instead of
    silently wrong costs or results.
    """

    schema: Schema
    partitions: List[ColumnBatch]
    props: PhysicalProps = field(default_factory=PhysicalProps)

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def total_rows(self) -> int:
        return sum(batch.n_rows for batch in self.partitions)

    def to_row_dataset(self) -> Dataset:
        return Dataset(
            self.schema,
            [batch.to_rows() for batch in self.partitions],
            self.props,
        )

    def validate_layout(self) -> Optional[str]:
        """Check the data matches the claimed properties.

        Returns ``None`` if everything holds, else a human-readable
        description of the first violation.
        """
        part = self.props.partitioning
        if part.kind is PartitionKind.SERIAL:
            occupied = [
                i for i, batch in enumerate(self.partitions) if batch.n_rows
            ]
            if len(occupied) > 1:
                return f"serial claim violated: partitions {occupied} non-empty"
        elif part.kind is PartitionKind.HASH:
            cols = sorted(part.columns)
            seen: Dict[Tuple[Value, ...], int] = {}
            for idx, batch in enumerate(self.partitions):
                for key in batch.key_tuples(cols):
                    prev = seen.setdefault(key, idx)
                    if prev != idx:
                        return (
                            f"hash({','.join(cols)}) claim "
                            f"violated: key {key} in partitions {prev} and {idx}"
                        )
        elif part.kind is PartitionKind.RANGE:
            previous_max = None
            for idx, batch in enumerate(self.partitions):
                if not batch.n_rows:
                    continue
                keys = [
                    _guarded(key) for key in batch.key_tuples(part.order)
                ]
                low, high = min(keys), max(keys)
                if previous_max is not None and low <= previous_max:
                    return (
                        f"range({','.join(part.order)}) claim violated: "
                        f"partition {idx} starts at {low} but an earlier "
                        f"partition reaches {previous_max}"
                    )
                previous_max = high
        order = self.props.sort_order
        if order.is_sorted:
            for idx, batch in enumerate(self.partitions):
                previous = None
                for key_values in batch.key_tuples(order.columns):
                    key = _guarded(key_values)
                    if previous is not None and key < previous:
                        return (
                            f"sort {order} claim violated in partition {idx}: "
                            f"{key} after {previous}"
                        )
                    previous = key
        return None


def from_row_dataset(dataset: Dataset) -> ColumnarDataset:
    """Convert a row dataset to columnar layout (row order preserved)."""
    names = dataset.schema.names
    return ColumnarDataset(
        dataset.schema,
        [ColumnBatch.from_rows(names, part) for part in dataset.partitions],
        dataset.props,
    )
