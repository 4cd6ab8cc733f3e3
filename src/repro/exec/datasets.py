"""Partitioned row datasets — the simulator's result files.

A :class:`Dataset` models a distributed rowset: a list of partitions
(one per machine slot), each a list of row dicts, plus the physical
properties the producing operator claimed.  The executor works on
columnar batches (:mod:`repro.exec.columnar`) and converts to this row
form only where it writes an output file; results are compared through
:meth:`Dataset.canonical_bytes` and :meth:`Dataset.sorted_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..plan.columns import Schema
from ..plan.expressions import Row, Value
from ..plan.properties import PhysicalProps

Partition = List[Row]


def canonical_sort_key(values) -> Tuple:
    """Total-order key over heterogeneous values for canonical sorting.

    Each value maps to ``(is_null, type_rank, value)``: NULLs sort after
    every concrete value, numbers (rank 0) before strings (rank 1)
    before anything else (rank 2, compared by ``repr``).  Within a rank
    values compare natively, so the order of homogeneous columns — the
    only kind the executor produces — is unchanged from the plain
    ``(v is None, v)`` key; mixed int/str positions, which used to raise
    ``TypeError``, now get a deterministic order instead.
    """
    key = []
    for v in values:
        if v is None:
            key.append((True, 0, 0))
        elif isinstance(v, str):
            key.append((False, 1, v))
        elif isinstance(v, (int, float)):
            key.append((False, 0, v))
        else:
            key.append((False, 2, repr(v)))
    return tuple(key)


@dataclass
class Dataset:
    """A partitioned rowset with claimed physical properties."""

    schema: Schema
    partitions: List[Partition]
    props: PhysicalProps = field(default_factory=PhysicalProps)

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def total_rows(self) -> int:
        return sum(len(p) for p in self.partitions)

    def all_rows(self) -> List[Row]:
        rows: List[Row] = []
        for partition in self.partitions:
            rows.extend(partition)
        return rows

    def sorted_rows(self) -> List[Tuple[Value, ...]]:
        """All rows as canonically ordered tuples (for comparisons)."""
        names = self.schema.names
        rows = [tuple(row[c] for c in names) for row in self.all_rows()]
        return sorted(rows, key=canonical_sort_key)

    def canonical_bytes(self) -> bytes:
        """Schema + canonically sorted rows as bytes.

        The differential execution harness compares these: two datasets
        are interchangeable results iff their canonical bytes are equal,
        regardless of partition layout or row order.
        """
        header = ",".join(self.schema.names)
        body = "\n".join(repr(row) for row in self.sorted_rows())
        return f"{header}\n{body}".encode("utf-8")
