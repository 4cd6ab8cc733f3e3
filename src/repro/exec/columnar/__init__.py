"""The vectorized columnar executor.

A partition is a :class:`ColumnBatch` (one value list per column)
instead of a list of row dicts, and every physical operator runs as a
vectorized kernel: filters compile predicates into selection-vector
loops, projections evaluate whole columns (passing plain column
references through by reference), aggregations fold group index lists,
joins gather index pairs.  :class:`ColumnarExecutor` is the one
physical executor — the sequential path of ``execute_script`` and the
fragment engine of both schedulers — and the differential suites hold
its outputs byte-identical to the ``NaiveEvaluator`` oracle.
"""

from .batch import ColumnBatch, ColumnarDataset, from_row_dataset
from .executor import ColumnarExecutor
from .kernels import (
    aggregate_groups,
    compile_select_kernel,
    compile_value_kernel,
)

__all__ = [
    "ColumnBatch",
    "ColumnarDataset",
    "ColumnarExecutor",
    "aggregate_groups",
    "compile_select_kernel",
    "compile_value_kernel",
    "from_row_dataset",
]
