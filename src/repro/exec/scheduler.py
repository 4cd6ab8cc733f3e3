"""Task-parallel vertex scheduler with fault-tolerant retries.

This is the job-manager layer of the Cosmos/Dryad stack the paper runs
on: :func:`~repro.exec.stage_graph.build_stage_graph` cuts an optimized
physical DAG into vertices at exchange and spool boundaries, and
:class:`TaskScheduler` runs them on a :class:`ThreadPoolExecutor` with

* **dependency tracking** — a vertex launches only once every producer
  vertex has committed its output;
* **exactly-once spools** — a shared subexpression's materializing
  vertex exists once in the stage graph, so its producer pipeline runs
  once no matter how many consumers re-read the result (the runtime
  counterpart of the cost model's DAG-aware spool accounting);
* **per-partition tasks** — partition-local vertices fan out into one
  task per partition, the granularity at which the real job manager
  schedules;
* **seeded fault injection with bounded retry/backoff** — any task
  attempt can be made to fail deterministically; failed attempts are
  retried up to ``RetryPolicy.max_retries`` times, and exhausting the
  budget raises a :class:`VertexFailedError` naming the vertex;
* **per-vertex runtime metrics** — launches, tasks, retries, rows
  in/out, wall time and the estimated-vs-actual cardinality ratio,
  folded into :class:`~repro.exec.metrics.ExecutionMetrics`.

Operator semantics are shared with the sequential executor: every task
evaluates its fragment through a :class:`FragmentExecutor` (the
columnar executor, stopped at the vertex's cut points), so the two
execution paths produce identical results and identical counter
metrics by construction.  Committed vertex results stay
:class:`~repro.exec.columnar.batch.ColumnarDataset` objects end to end:
a per-partition task slices its inputs by reference, and only output
files are converted to row datasets.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.tracer import NULL_TRACER
from ..plan.physical import PhysicalPlan, PhysSpool
from .cluster import Cluster
from .columnar.batch import ColumnarDataset
from .columnar.executor import ColumnarExecutor
from .datasets import Dataset
from .metrics import ExecutionMetrics, VertexStats
from .runtime import ExecutionError
from .stage_graph import StageGraph, Vertex, build_stage_graph


class FragmentExecutor(ColumnarExecutor):
    """Executes one vertex fragment (one scheduler task).

    Recursion stops at the vertex's cut points: already-computed
    producer results are injected via ``cuts`` (keyed by plan-node
    ``id``) instead of being recomputed.  ``slice_mode`` marks
    per-partition tasks: inputs arrive pre-sliced to a single partition,
    and bookkeeping that is per *reference* rather than per row
    (operator invocations, spool reads) is suppressed — the scheduler
    accounts it once at the vertex level so counters match the
    sequential executor exactly.
    """

    def __init__(self, cluster: Cluster, validate: bool,
                 metrics: ExecutionMetrics,
                 cuts: Dict[int, ColumnarDataset], slice_mode: bool = False):
        super().__init__(cluster, validate)
        self.metrics = metrics
        self._cuts = cuts
        self._slice_mode = slice_mode

    def _run(self, node: PhysicalPlan) -> ColumnarDataset:
        cut = self._cuts.get(id(node))
        if cut is not None:
            if isinstance(node.op, PhysSpool):
                # A consumer re-reading the materialized spool.
                if not self._slice_mode:
                    self.metrics.note_operator(node.op.name)
                    self.metrics.spool_reads += 1
                    self.metrics.charge_spool(cut.total_rows())
                return self._finish(node, cut.partitions)
            return cut
        if self._slice_mode:
            # Mirror the parent dispatch but without per-reference
            # operator counting (accounted once at the vertex level).
            inputs = [self._run(child) for child in node.children]
            return self._finish(node, self._apply_op(node, inputs))
        return super()._run(node)


class InjectedFault(RuntimeError):
    """A deterministic, injected task failure (always retryable)."""


class VertexFailedError(ExecutionError):
    """A vertex exhausted its retry budget (or failed fatally)."""

    def __init__(self, vertex: str, attempts: int, cause: BaseException):
        super().__init__(
            f"vertex {vertex} failed after {attempts} attempt(s): {cause}"
        )
        self.vertex = vertex
        self.attempts = attempts
        self.cause = cause


@dataclass(frozen=True)
class FaultInjection:
    """Seeded per-task failure injection.

    Whether attempt *k* of a task fails is a pure function of
    ``(seed, vertex, partition, attempt)``, so runs are reproducible and
    independent of worker count and completion order.
    """

    rate: float = 0.0
    seed: int = 0

    def should_fail(self, vertex: str, part: Optional[int],
                    attempt: int) -> bool:
        if self.rate <= 0.0:
            return False
        rng = random.Random(f"{self.seed}:{vertex}:{part}:{attempt}")
        return rng.random() < self.rate


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff."""

    max_retries: int = 3
    #: Seconds slept before retry attempt ``k`` is ``backoff * 2**(k-1)``;
    #: the default keeps tests instantaneous.
    backoff: float = 0.0

    def delay(self, attempt: int) -> float:
        if attempt <= 0 or self.backoff <= 0.0:
            return 0.0
        return self.backoff * (2.0 ** (attempt - 1))


@dataclass
class _Task:
    vertex: Vertex
    #: Partition index for per-partition tasks, ``None`` for whole-vertex.
    part: Optional[int]
    #: Slot in the vertex run's result/scratch arrays.
    slot: int
    attempt: int = 0


@dataclass
class _VertexRun:
    """Mutable scheduling state of one launched vertex."""

    vertex: Vertex
    tasks_total: int
    sliced: bool
    tasks_done: int = 0
    results: List[Optional[ColumnarDataset]] = field(default_factory=list)
    scratches: List[Optional[ExecutionMetrics]] = field(default_factory=list)
    #: Per-slot (start, end) perf_counter pair of the winning attempt.
    timings: List[Optional[Tuple[float, float]]] = field(default_factory=list)
    #: Per-slot final attempt number (0 = succeeded first try).
    attempts: List[int] = field(default_factory=list)
    stats: VertexStats = None  # type: ignore[assignment]


class TaskScheduler:
    """Executes physical plans as dependency-ordered vertex tasks.

    Drop-in alternative to :class:`ColumnarExecutor`: same constructor
    shape, same ``execute(plan) -> outputs`` contract, same result for
    every plan (the differential test suite holds the two byte-identical
    on the whole corpus).
    """

    def __init__(self, cluster: Cluster, workers: int = 4,
                 validate: bool = True,
                 faults: Optional[FaultInjection] = None,
                 retry: Optional[RetryPolicy] = None,
                 watchdog: Optional[float] = None,
                 tracer=NULL_TRACER):
        if workers < 1:
            raise ValueError("the scheduler needs at least one worker")
        self.cluster = cluster
        self.workers = workers
        self.validate = validate
        self.faults = faults or FaultInjection()
        self.retry = retry or RetryPolicy()
        self.watchdog = watchdog
        self.metrics = ExecutionMetrics()
        self.stage_graph: Optional[StageGraph] = None
        #: Observability tracer.  Spans are recorded from the
        #: coordinating thread only (``stage_graph.cut`` live, vertex
        #: and task spans during deterministic finalization), so worker
        #: threads never touch it and the span tree's structure is
        #: independent of worker count and completion order.
        self.tracer = tracer

    # -- public API -------------------------------------------------------

    def execute(self, plan: PhysicalPlan) -> Dict[str, Dataset]:
        """Run ``plan``; returns the output files it wrote."""
        with self.tracer.span("stage_graph.cut") as cut_span:
            graph = build_stage_graph(plan, validate=self.validate)
            cut_span.set(
                vertices=len(graph.vertices),
                spools=len(graph.spool_vertices()),
                partitionwise=sum(
                    1 for v in graph.vertices if v.partitionwise
                ),
            )
        self.stage_graph = graph
        self.metrics = ExecutionMetrics()

        pending_deps = {
            v.vid: len(set(v.deps)) for v in graph.vertices
        }
        consumers_left = {
            v.vid: len(v.consumers) for v in graph.vertices
        }
        results: Dict[int, ColumnarDataset] = {}
        runs: Dict[int, _VertexRun] = {}
        finished: Dict[int, _VertexRun] = {}
        inflight: Dict[object, _Task] = {}

        pool = ThreadPoolExecutor(max_workers=self.workers)
        try:
            for vertex in graph.vertices:
                if pending_deps[vertex.vid] == 0:
                    self._launch(vertex, results, runs, inflight, pool)
            while len(finished) < len(graph.vertices):
                if not inflight:
                    raise ExecutionError(
                        "scheduler stalled: no runnable tasks but "
                        f"{len(graph.vertices) - len(finished)} "
                        "vertices unfinished (dependency cycle?)"
                    )
                done, _ = wait(
                    inflight, timeout=self.watchdog,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    raise ExecutionError(
                        f"scheduler watchdog: no task completed within "
                        f"{self.watchdog}s ({len(inflight)} in flight)"
                    )
                for future in done:
                    task = inflight.pop(future)
                    error = future.exception()
                    if error is not None:
                        self._handle_failure(
                            task, error, results, runs, inflight, pool
                        )
                        continue
                    dataset, scratch, started, ended = future.result()
                    run = runs[task.vertex.vid]
                    run.results[task.slot] = dataset
                    run.scratches[task.slot] = scratch
                    run.timings[task.slot] = (started, ended)
                    run.attempts[task.slot] = task.attempt
                    run.stats.wall_seconds += ended - started
                    run.tasks_done += 1
                    if run.tasks_done < run.tasks_total:
                        continue
                    vid = task.vertex.vid
                    results[vid] = self._commit(run, results)
                    finished[vid] = run
                    del runs[vid]
                    for consumer in task.vertex.consumers:
                        pending_deps[consumer] -= 1
                        if pending_deps[consumer] == 0:
                            self._launch(
                                graph.vertices[consumer], results,
                                runs, inflight, pool,
                            )
                    # Release inputs nobody will read again.
                    for dep in task.vertex.deps:
                        consumers_left[dep] -= 1
                        if consumers_left[dep] <= 0:
                            results.pop(dep, None)
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        pool.shutdown(wait=True)
        return self._finalize(finished)

    def _finalize(self, finished: Dict[int, _VertexRun]
                  ) -> Dict[str, Dataset]:
        # Deterministic finalization: merge task scratches and record
        # vertex stats (and spans) in vertex order, independent of
        # completion order.  Shared with the process runtime
        # (``repro.exec.dist``), whose worker scratches fold in through
        # the exact same path.
        for vid in sorted(finished):
            run = finished[vid]
            for scratch in run.scratches:
                if scratch is not None:
                    self.metrics.merge_from(scratch)
                    run.stats.simulated_makespan += scratch.simulated_makespan
                    run.stats.batches += scratch.batches_processed
                    # Per-partition task slices each carry one
                    # partition's share of a fragment's output: sum them
                    # per vertex.
                    for gid, rows in scratch.fragment_rows.items():
                        run.stats.fragment_rows[gid] = (
                            run.stats.fragment_rows.get(gid, 0) + rows
                        )
            # A fragment duplicated across vertices (conventional plans
            # re-execute shared work) is attributed once, to the first
            # vertex in deterministic vertex order.
            for gid, rows in run.stats.fragment_rows.items():
                self.metrics.fragment_rows.setdefault(gid, rows)
            self.metrics.task_retries += run.stats.retries
            self.metrics.vertices[run.stats.vertex] = run.stats
            if self.tracer.enabled:
                self._record_vertex_span(run)
        return {
            path: self.cluster.outputs[path]
            for path in sorted(self.cluster.outputs)
        }

    def _record_vertex_span(self, run: _VertexRun) -> None:
        """One ``scheduler.vertex/<name>`` span per vertex, with one
        ``task/<partition>`` child per task, nested under the caller's
        active span.  Timings come from the workers' measured start/end
        pairs; everything else is deterministic."""
        stats = run.stats
        timings = [t for t in run.timings if t is not None]
        start = min((t[0] for t in timings), default=0.0)
        end = max((t[1] for t in timings), default=0.0)
        vertex_span = self.tracer.record_span(
            f"scheduler.vertex/{run.vertex.name}", start, end,
            launches=stats.launches,
            tasks=stats.tasks,
            retries=stats.retries,
            rows_in=stats.rows_in,
            rows_out=stats.rows_out,
            estimated_rows=stats.estimated_rows,
            simulated_makespan=stats.simulated_makespan,
            sliced=run.sliced,
        )
        for slot, timing in enumerate(run.timings):
            if timing is None:  # pragma: no cover - all slots complete
                continue
            self.tracer.record_span(
                f"task/{slot}", timing[0], timing[1], parent=vertex_span,
                attempts=run.attempts[slot] + 1,
            )

    # -- scheduling internals ---------------------------------------------

    def _launch(self, vertex: Vertex,
                results: Dict[int, ColumnarDataset],
                runs: Dict[int, _VertexRun], inflight: Dict[object, _Task],
                pool: ThreadPoolExecutor) -> None:
        inputs = [results[dep] for dep in vertex.deps]
        n_parts = inputs[0].n_partitions if inputs else 0
        sliced = (
            vertex.partitionwise
            and n_parts > 1
            and all(d.n_partitions == n_parts for d in inputs)
        )
        tasks_total = n_parts if sliced else 1
        run = _VertexRun(
            vertex=vertex,
            tasks_total=tasks_total,
            sliced=sliced,
            results=[None] * tasks_total,
            scratches=[None] * tasks_total,
            timings=[None] * tasks_total,
            attempts=[0] * tasks_total,
            stats=VertexStats(
                vertex=vertex.name,
                launches=1,
                tasks=tasks_total,
                estimated_rows=vertex.root.rows,
                rows_in=sum(d.total_rows() for d in inputs),
                serves=vertex.serves,
            ),
        )
        runs[vertex.vid] = run
        for slot in range(tasks_total):
            task = _Task(
                vertex=vertex,
                part=slot if sliced else None,
                slot=slot,
            )
            self._submit(task, results, inflight, pool)

    def _submit(self, task: _Task, results: Dict[int, ColumnarDataset],
                inflight: Dict[object, _Task],
                pool: ThreadPoolExecutor) -> None:
        cuts = {
            node_id: results[vid]
            for node_id, vid in task.vertex.cut_nodes.items()
        }
        future = pool.submit(self._run_task, task, cuts)
        inflight[future] = task

    def _handle_failure(self, task: _Task, error: BaseException,
                        results: Dict[int, ColumnarDataset],
                        runs: Dict[int, _VertexRun],
                        inflight: Dict[object, _Task],
                        pool: ThreadPoolExecutor) -> None:
        retryable = isinstance(error, InjectedFault)
        if retryable and task.attempt < self.retry.max_retries:
            # The failed vertex has not committed, so its inputs are
            # still pinned in ``results``; resubmit the same task.
            task.attempt += 1
            runs[task.vertex.vid].stats.retries += 1
            self.tracer.emit(
                "scheduler.retry", vertex=task.vertex.name,
                part=task.part, attempt=task.attempt,
            )
            self._submit(task, results, inflight, pool)
            return
        raise VertexFailedError(
            task.vertex.name, task.attempt + 1, error
        ) from error

    def _run_task(self, task: _Task, cuts: Dict[int, ColumnarDataset]
                  ) -> Tuple[ColumnarDataset, ExecutionMetrics, float, float]:
        delay = self.retry.delay(task.attempt)
        if delay > 0.0:
            time.sleep(delay)
        started = time.perf_counter()
        if self.faults.should_fail(task.vertex.name, task.part,
                                   task.attempt):
            raise InjectedFault(
                f"injected fault in {task.vertex.name} "
                f"(part={task.part}, attempt={task.attempt})"
            )
        scratch = ExecutionMetrics()
        if task.vertex.is_spool:
            # The materialization task: pass the producer's result
            # through, charging the one-time build.  Reads are charged
            # by each consumer, mirroring the sequential executor.  A
            # spool stacked directly on another spool reads it once
            # (each read materializes a batch list, like the sequential
            # executor's per-read ``_finish``).
            (dataset,) = cuts.values()
            for _ in task.vertex.spool_cut_vids:
                scratch.note_operator("Spool")
                scratch.spool_reads += 1
                scratch.charge_spool(dataset.total_rows())
                scratch.note_batches(dataset.n_partitions)
            scratch.rows_spooled += dataset.total_rows()
            scratch.charge_spool(dataset.total_rows())
            return dataset, scratch, started, time.perf_counter()
        if task.part is not None:
            cuts = {
                node_id: ColumnarDataset(
                    d.schema, [d.partitions[task.part]], d.props
                )
                for node_id, d in cuts.items()
            }
        executor = FragmentExecutor(
            self.cluster, self.validate, scratch, cuts,
            slice_mode=task.part is not None,
        )
        dataset = executor._run(task.vertex.root)
        return dataset, scratch, started, time.perf_counter()

    def _commit(self, run: _VertexRun,
                results: Dict[int, ColumnarDataset]) -> ColumnarDataset:
        """Assemble a finished vertex's output and finish accounting."""
        vertex = run.vertex
        if run.sliced:
            partitions = [d.partitions[0] for d in run.results]
            dataset = ColumnarDataset(vertex.root.schema, partitions,
                                      vertex.root.props)
            if self.validate:
                violation = dataset.validate_layout()
                if violation is not None:
                    raise ExecutionError(
                        f"{vertex.name} produced data violating its "
                        f"claimed properties: {violation}"
                    )
            # Per-reference bookkeeping suppressed in slice mode,
            # accounted exactly once here.
            correction = ExecutionMetrics()
            for name in vertex.op_names:
                correction.note_operator(name)
            for spool_vid in vertex.spool_cut_vids:
                spool_rows = results[spool_vid].total_rows()
                correction.note_operator("Spool")
                correction.spool_reads += 1
                correction.charge_spool(spool_rows)
            run.scratches.append(correction)
        else:
            dataset = run.results[0]
        run.stats.rows_out = dataset.total_rows()
        return dataset
