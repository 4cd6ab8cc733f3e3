"""Distributed execution simulator (the Cosmos/Dryad substrate)."""

from .cluster import Cluster
from .columnar import ColumnarDataset, ColumnarExecutor, ColumnBatch
from .datasets import Dataset, canonical_sort_key
from .metrics import ExecutionMetrics, VertexStats
from .runtime import ExecutionError
from .scheduler import (
    FaultInjection,
    FragmentExecutor,
    InjectedFault,
    RetryPolicy,
    TaskScheduler,
    VertexFailedError,
)
from .stage_graph import StageGraph, Vertex, build_stage_graph
from .dist import (
    RUNTIME_NAMES,
    KillPlan,
    ProcessScheduler,
    SpillStore,
    WorkerLost,
)

__all__ = [
    "Cluster",
    "ColumnBatch",
    "ColumnarDataset",
    "ColumnarExecutor",
    "Dataset",
    "ExecutionError",
    "ExecutionMetrics",
    "FaultInjection",
    "FragmentExecutor",
    "InjectedFault",
    "KillPlan",
    "ProcessScheduler",
    "RUNTIME_NAMES",
    "RetryPolicy",
    "SpillStore",
    "StageGraph",
    "TaskScheduler",
    "Vertex",
    "VertexFailedError",
    "VertexStats",
    "WorkerLost",
    "build_stage_graph",
    "canonical_sort_key",
]
