"""Supervisor side of the multiprocess distributed runtime.

:class:`ProcessScheduler` is a drop-in :class:`~repro.exec.TaskScheduler`
variant that runs vertex tasks on a pool of forked worker *processes*
instead of threads — the paper's actual execution model, where each
stage's machines run concurrently and exchange data through files:

* the stage graph is cut exactly as before (same
  :func:`~repro.exec.stage_graph.build_stage_graph`, same vertices,
  same partitionwise task slicing);
* exchange and spool partitions are materialized as columnar wire blobs
  under a run-scoped :class:`~repro.exec.dist.spill.SpillStore`
  directory — exactly-once via atomic renames and an fsync'd manifest,
  removed on success, preserved on failure;
* worker **death** (SIGKILL/OOM, not just exceptions) is detected from
  the pipe: queued replies of a dying worker are drained first — their
  tasks completed, so they count exactly once — then the EOF marks only
  the in-flight task as lost.  Lost tasks are re-dispatched within the
  ordinary :class:`~repro.exec.RetryPolicy` budget against the spilled
  inputs already on disk, and the dead worker is replaced by a fresh
  fork.  Exhausting the budget raises the same
  :class:`~repro.exec.VertexFailedError` naming the vertex;
* spool vertices are pass-through builds with no compute, so the
  supervisor commits them inline by aliasing the producer's spill files
  — charged identically to the thread scheduler's spool tasks;
* finalization is literally shared code (``TaskScheduler._finalize``):
  worker metric scratches merge in deterministic vertex order, spans
  and ``serves`` attribution work unchanged, and per-vertex counters
  aggregate without double-counting re-dispatched tasks because only
  the winning reply ever fills a task slot.

Workers are forked, never spawned: fragment cut points are keyed by
``id(plan_node)`` and survive only through copy-on-write inheritance.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection, get_context
from typing import Deque, Dict, List, Optional

from ...obs.tracer import NULL_TRACER
from ...plan.physical import PhysicalPlan
from ..columnar.batch import ColumnarDataset
from ..datasets import Dataset
from ..metrics import ExecutionMetrics, VertexStats
from ..runtime import ExecutionError
from ..scheduler import (
    InjectedFault,
    TaskScheduler,
    VertexFailedError,
    _Task,
    _VertexRun,
)
from ..stage_graph import StageGraph, Vertex, build_stage_graph
from .spill import SpillStore
from .wire import decode_dataset
from .worker import worker_main


class WorkerLost(RuntimeError):
    """A worker process died (SIGKILL, OOM, crash) mid-task.

    Retryable like :class:`~repro.exec.InjectedFault`: the lost task is
    re-dispatched against its spilled inputs within the retry budget.
    """


@dataclass(frozen=True)
class KillPlan:
    """Deterministic crash-fault injection for the process runtime.

    Counts task dispatches — per vertex name when ``vertex`` is set,
    globally otherwise — and SIGKILLs the worker receiving dispatch
    ``k`` whenever ``nth_task <= k < nth_task + times``.  The kill
    happens *in the worker, before the task runs*, so it is
    indistinguishable from a machine lost mid-stage.
    """

    vertex: Optional[str] = None
    nth_task: int = 0
    times: int = 1

    def matches(self, vertex_name: str) -> bool:
        return self.vertex is None or vertex_name == self.vertex

    def should_kill(self, seen: int) -> bool:
        return self.nth_task <= seen < self.nth_task + self.times


@dataclass
class SpilledResult:
    """Metadata handle for one vertex output materialized on disk."""

    #: One wire-blob file (relative to the spill root) per partition.
    parts: List[str]
    #: Row count per partition (so dependents never decode for counts).
    rows: List[int]

    @property
    def n_partitions(self) -> int:
        return len(self.parts)

    def total_rows(self) -> int:
        return sum(self.rows)


#: Sentinel event payload: the worker's pipe hit EOF (process death).
_WORKER_DEAD = object()


class _PoolWorker:
    __slots__ = ("worker_id", "process", "conn", "current", "alive")

    def __init__(self, worker_id, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        #: The dispatched task this worker is running (at most one).
        self.current: Optional[_Task] = None
        self.alive = True


class _WorkerPool:
    """Forked worker processes plus their duplex control pipes."""

    def __init__(self, ctx, size, graph, cluster, validate, faults,
                 retry, spill):
        self.ctx = ctx
        self.size = size
        self.graph = graph
        self.cluster = cluster
        self.validate = validate
        self.faults = faults
        self.retry = retry
        self.spill = spill
        self.workers: List[_PoolWorker] = []
        self._next_id = 0

    def start(self) -> None:
        for _ in range(self.size):
            self.workers.append(self._spawn())

    def _spawn(self) -> _PoolWorker:
        parent_conn, child_conn = self.ctx.Pipe()
        worker_id = self._next_id
        self._next_id += 1
        process = self.ctx.Process(
            target=worker_main,
            args=(child_conn, worker_id, self.graph, self.cluster.files,
                  self.cluster.machines, self.validate,
                  self.faults, self.retry, self.spill),
            name=f"repro-dist-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # Close the parent's copy of the child end: otherwise the pipe
        # never reaches EOF and worker death would be undetectable.
        child_conn.close()
        return _PoolWorker(worker_id, process, parent_conn)

    def idle_worker(self) -> Optional[_PoolWorker]:
        for worker in self.workers:
            if worker.alive and worker.current is None:
                return worker
        return None

    def inflight_count(self) -> int:
        return sum(1 for w in self.workers if w.current is not None)

    def wait(self, timeout):
        """Block for replies; returns ``[(worker, payload-or-DEAD)]``.

        Queued replies of a dying worker drain *before* its EOF event:
        those tasks finished, and processing them first is what keeps
        task effects (slots, scratches, outputs) exactly-once under
        re-dispatch.
        """
        by_conn = {w.conn: w for w in self.workers if w.alive}
        ready = connection.wait(list(by_conn), timeout)
        events = []
        for conn in ready:
            worker = by_conn[conn]
            while True:
                try:
                    payload = conn.recv()
                except (EOFError, OSError):
                    worker.alive = False
                    worker.process.join(timeout=5.0)
                    events.append((worker, _WORKER_DEAD))
                    break
                events.append((worker, payload))
                if not conn.poll():
                    break
        return events

    def respawn(self, worker: _PoolWorker) -> None:
        """Replace a dead worker with a freshly forked one."""
        try:
            worker.conn.close()
        except OSError:
            pass
        self.workers.remove(worker)
        self.workers.append(self._spawn())

    def shutdown(self, force: bool = False) -> None:
        for worker in self.workers:
            if not worker.alive:
                continue
            if force:
                worker.process.terminate()
            else:
                try:
                    worker.conn.send({"op": "stop"})
                except OSError:
                    pass
        for worker in self.workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - last resort
                worker.process.kill()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass


@dataclass
class _RunState:
    """Mutable scheduling state of one distributed execution."""

    graph: StageGraph
    pending_deps: Dict[int, int] = field(default_factory=dict)
    consumers_left: Dict[int, int] = field(default_factory=dict)
    results: Dict[int, SpilledResult] = field(default_factory=dict)
    runs: Dict[int, _VertexRun] = field(default_factory=dict)
    finished: Dict[int, _VertexRun] = field(default_factory=dict)
    ready: Deque[_Task] = field(default_factory=deque)
    #: Dispatch counters feeding the kill plan (key: vertex name or "*").
    kill_counts: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.pending_deps = {
            v.vid: len(set(v.deps)) for v in self.graph.vertices
        }
        self.consumers_left = {
            v.vid: len(v.consumers) for v in self.graph.vertices
        }


class ProcessScheduler(TaskScheduler):
    """Runs physical plans on forked worker processes with disk spill.

    Same constructor shape and ``execute(plan) -> outputs`` contract as
    :class:`~repro.exec.TaskScheduler`; the differential suite holds
    thread and process runs byte-identical on outputs and equal on every
    deterministic counter.  Additional knobs:

    ``spill_dir``
        Parent directory for the run-scoped spill directory (default: a
        fresh temp dir).  Removed on success unless ``keep_spill``;
        always preserved — manifest included — on failure.
    ``kill_plan``
        Deterministic :class:`KillPlan` crash-fault injection.
    """

    def __init__(self, cluster, workers: int = 4, validate: bool = True,
                 faults=None, retry=None, watchdog: Optional[float] = None,
                 tracer=NULL_TRACER,
                 spill_dir: Optional[str] = None, keep_spill: bool = False,
                 kill_plan: Optional[KillPlan] = None):
        super().__init__(cluster, workers=workers, validate=validate,
                         faults=faults, retry=retry, watchdog=watchdog,
                         tracer=tracer)
        self.spill_dir = spill_dir
        self.keep_spill = keep_spill
        self.kill_plan = kill_plan
        #: The last run's spill store (inspectable after failures).
        self.spill: Optional[SpillStore] = None

    # -- public API -------------------------------------------------------

    def execute(self, plan: PhysicalPlan) -> Dict[str, Dataset]:
        try:
            ctx = get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX only
            raise ExecutionError(
                "the process runtime requires the 'fork' start method "
                "(POSIX only): fragment cut points are id()-keyed and "
                "survive only through copy-on-write inheritance"
            ) from exc
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
        spill = SpillStore(self.spill_dir)
        self.spill = spill
        state = _RunState(graph)
        pool = _WorkerPool(ctx, self.workers, graph, self.cluster,
                           self.validate, self.faults, self.retry, spill)
        try:
            pool.start()
            for vertex in graph.vertices:
                if state.pending_deps[vertex.vid] == 0:
                    self._launch_vertex(vertex, state)
            while len(state.finished) < len(graph.vertices):
                self._dispatch_ready(state, pool)
                if not pool.inflight_count() and not state.ready:
                    raise ExecutionError(
                        "scheduler stalled: no runnable tasks but "
                        f"{len(graph.vertices) - len(state.finished)} "
                        "vertices unfinished (dependency cycle?)"
                    )
                events = pool.wait(self.watchdog)
                if not events:
                    raise ExecutionError(
                        f"scheduler watchdog: no task completed within "
                        f"{self.watchdog}s "
                        f"({pool.inflight_count()} in flight)"
                    )
                for worker, payload in events:
                    if payload is _WORKER_DEAD:
                        self._on_worker_death(worker, state, pool)
                    else:
                        self._on_reply(worker, payload, state)
        except BaseException as error:
            # Preserve the spill directory for post-mortems: the
            # manifest names every vertex whose files are reusable.
            spill.fail(repr(error))
            pool.shutdown(force=True)
            raise
        pool.shutdown()
        outputs = self._finalize(state.finished)
        spill.finish()
        if not self.keep_spill:
            spill.cleanup()
        return outputs

    # -- scheduling internals ---------------------------------------------

    def _launch_vertex(self, vertex: Vertex, state: _RunState) -> None:
        inputs = [state.results[dep] for dep in vertex.deps]
        if vertex.is_spool:
            self._run_spool(vertex, inputs, state)
            return
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
        state.runs[vertex.vid] = run
        for slot in range(tasks_total):
            state.ready.append(_Task(
                vertex=vertex,
                part=slot if sliced else None,
                slot=slot,
            ))

    def _run_spool(self, vertex: Vertex, inputs: List[SpilledResult],
                   state: _RunState) -> None:
        """Commit a spool vertex inline, aliasing the producer's files.

        Spool vertices are pure pass-through builds; shipping them to a
        worker would only copy bytes.  The charges mirror the thread
        scheduler's spool task exactly (one build + one read per
        stacked spool reference), so counters stay runtime-independent.
        """
        (dep_result,) = inputs
        started = time.perf_counter()
        scratch = ExecutionMetrics()
        total = dep_result.total_rows()
        for _ in vertex.spool_cut_vids:
            scratch.note_operator("Spool")
            scratch.spool_reads += 1
            scratch.charge_spool(total)
            scratch.note_batches(dep_result.n_partitions)
        scratch.rows_spooled += total
        scratch.charge_spool(total)
        ended = time.perf_counter()
        run = _VertexRun(
            vertex=vertex,
            tasks_total=1,
            sliced=False,
            tasks_done=1,
            results=[dep_result],
            scratches=[scratch],
            timings=[(started, ended)],
            attempts=[0],
            stats=VertexStats(
                vertex=vertex.name,
                launches=1,
                tasks=1,
                estimated_rows=vertex.root.rows,
                rows_in=total,
                serves=vertex.serves,
            ),
        )
        run.stats.wall_seconds += ended - started
        self._complete_vertex(run, state)

    def _dispatch_ready(self, state: _RunState, pool: _WorkerPool) -> None:
        while state.ready:
            worker = pool.idle_worker()
            if worker is None:
                return
            task = state.ready.popleft()
            kill = False
            if (self.kill_plan is not None
                    and self.kill_plan.matches(task.vertex.name)):
                key = self.kill_plan.vertex or "*"
                seen = state.kill_counts.get(key, 0)
                state.kill_counts[key] = seen + 1
                kill = self.kill_plan.should_kill(seen)
            msg = {
                "op": "task",
                "vid": task.vertex.vid,
                "part": task.part,
                "slot": task.slot,
                "attempt": task.attempt,
                "cuts": {
                    dep_vid: state.results[dep_vid].parts
                    for dep_vid in set(task.vertex.cut_nodes.values())
                },
                "kill": kill,
            }
            if kill:
                self.tracer.emit(
                    "scheduler.kill_injected", vertex=task.vertex.name,
                    part=task.part, attempt=task.attempt,
                    worker=worker.worker_id,
                )
            try:
                worker.current = task
                worker.conn.send(msg)
            except OSError:
                # The worker died between replies; hand the task back,
                # account the death and replace the process.
                worker.current = None
                worker.alive = False
                worker.process.join(timeout=5.0)
                state.ready.appendleft(task)
                self.metrics.worker_deaths += 1
                pool.respawn(worker)

    def _on_reply(self, worker: _PoolWorker, payload,
                  state: _RunState) -> None:
        task = worker.current
        worker.current = None
        if task is None:  # pragma: no cover - defensive
            return
        if payload.get("op") == "error":
            if payload["retryable"]:
                error: BaseException = InjectedFault(payload["error"])
            else:
                error = ExecutionError(payload["error"])
            self._handle_task_failure(task, error, state)
            return
        run = state.runs.get(payload["vid"])
        if run is None or run.results[payload["slot"]] is not None:
            # A stale duplicate (the slot already has a winner): drop it
            # so re-dispatched tasks can never double-count metrics.
            return
        slot = payload["slot"]
        run.results[slot] = SpilledResult(parts=payload["parts"],
                                          rows=payload["rows"])
        run.scratches[slot] = payload["scratch"]
        run.timings[slot] = (payload["started"], payload["ended"])
        run.attempts[slot] = payload["attempt"]
        run.stats.wall_seconds += payload["ended"] - payload["started"]
        run.tasks_done += 1
        for path, blob in payload["outputs"].items():
            self.cluster.write_output(
                path, decode_dataset(blob).to_row_dataset()
            )
        if run.tasks_done == run.tasks_total:
            self._complete_vertex(run, state)

    def _on_worker_death(self, worker: _PoolWorker, state: _RunState,
                         pool: _WorkerPool) -> None:
        task = worker.current
        worker.current = None
        self.metrics.worker_deaths += 1
        self.tracer.emit(
            "scheduler.worker_lost", worker=worker.worker_id,
            vertex=task.vertex.name if task else None,
            part=task.part if task else None,
        )
        pool.respawn(worker)
        if task is None:  # pragma: no cover - died while idle
            return
        self._handle_task_failure(
            task,
            WorkerLost(
                f"worker {worker.worker_id} died while running "
                f"{task.vertex.name} (part={task.part}, "
                f"attempt={task.attempt})"
            ),
            state,
        )

    def _handle_task_failure(self, task: _Task, error: BaseException,
                             state: _RunState) -> None:
        retryable = isinstance(error, (InjectedFault, WorkerLost))
        if retryable and task.attempt < self.retry.max_retries:
            # The vertex has not committed, so its spilled inputs are
            # still pinned on disk; re-dispatch only this task.
            task.attempt += 1
            state.runs[task.vertex.vid].stats.retries += 1
            self.tracer.emit(
                "scheduler.retry", vertex=task.vertex.name,
                part=task.part, attempt=task.attempt,
            )
            state.ready.append(task)
            return
        raise VertexFailedError(
            task.vertex.name, task.attempt + 1, error
        ) from error

    def _complete_vertex(self, run: _VertexRun, state: _RunState) -> None:
        vertex = run.vertex
        result = self._commit_spilled(run, state.results)
        state.results[vertex.vid] = result
        state.finished[vertex.vid] = run
        state.runs.pop(vertex.vid, None)
        self.spill.commit_vertex(vertex.vid, vertex.name, result.parts,
                                 result.rows)
        for consumer in vertex.consumers:
            state.pending_deps[consumer] -= 1
            if state.pending_deps[consumer] == 0:
                self._launch_vertex(state.graph.vertices[consumer], state)
        # Unlike the thread scheduler, committed results are metadata
        # handles, not datasets, so nothing is released here: the files
        # live until the run-scoped spill directory is cleaned up.
        for dep in vertex.deps:
            state.consumers_left[dep] -= 1

    def _commit_spilled(self, run: _VertexRun,
                        results: Dict[int, SpilledResult]) -> SpilledResult:
        """Assemble a finished vertex's spilled output; mirror of the
        thread scheduler's ``_commit`` accounting."""
        vertex = run.vertex
        if run.sliced:
            parts = [slot_result.parts[0] for slot_result in run.results]
            rows = [slot_result.rows[0] for slot_result in run.results]
            spilled = SpilledResult(parts=parts, rows=rows)
            if self.validate:
                decoded = [
                    decode_dataset(self.spill.read(p)) for p in parts
                ]
                assembled = ColumnarDataset(
                    vertex.root.schema,
                    [d.partitions[0] for d in decoded],
                    vertex.root.props,
                )
                violation = assembled.validate_layout()
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
            spilled = run.results[0]
        run.stats.rows_out = spilled.total_rows()
        return spilled
